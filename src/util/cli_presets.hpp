// Shared flag presets for the hmd_* command-line tools.
//
// Four tools declaring --seed, --metrics-out and --trace-out by hand is
// how help text drifts: one tool says "write process metrics JSON on
// exit", another drops the "on exit", a third spells the value name PATH
// instead of FILE. Each helper here pins ONE canonical spelling — flag
// name, value name, help phrasing — and lets the tool state only what is
// genuinely tool-specific: what the seed seeds, whether the bundle is
// being read or written.
//
// Defaults in help text are read from the bound variable at registration
// time, so a tool that changes its default seed never has to remember to
// update the string.
#pragma once

#include <cstdint>
#include <string>

#include "util/cli.hpp"

namespace hmd::cli {

/// --seed N. `purpose` names what the seed drives ("sample", "master",
/// "split"); the documented default is whatever *seed holds now.
inline void add_seed_flag(ArgParser& parser, std::uint64_t* seed,
                          const std::string& purpose) {
  parser.add_uint64("--seed", seed, "N",
                    purpose + " seed (default " + std::to_string(*seed) +
                        ")");
}

/// --bundle FILE naming an existing deployment bundle to load.
inline void add_bundle_in_flag(ArgParser& parser, std::string* path) {
  parser.add_string("--bundle", path, "FILE",
                    "deployment bundle to load (hmd_train --bundle)");
}

/// --bundle FILE naming a deployment bundle to write.
inline void add_bundle_out_flag(ArgParser& parser, std::string* path) {
  parser.add_string("--bundle", path, "FILE",
                    "write a deployment bundle (model + features + "
                    "policy; binary only)");
}

/// --model FILE naming an existing saved model to load.
inline void add_model_in_flag(ArgParser& parser, std::string* path) {
  parser.add_string("--model", path, "FILE",
                    "saved model to load (hmd_train --model)");
}

/// --model FILE naming a bare model file to write.
inline void add_model_out_flag(ArgParser& parser, std::string* path) {
  parser.add_string("--model", path, "FILE", "save the bare model");
}

/// --isa NAME forcing the SIMD dispatch tier of the ml kernels. Tools
/// apply a non-empty value via ml::kernels::force_isa_by_name after
/// parsing; an empty value keeps the best supported tier (or the
/// HMD_KERNEL_ISA environment override).
inline void add_isa_flag(ArgParser& parser, std::string* isa) {
  parser.add_string("--isa", isa, "NAME",
                    "force kernel ISA: scalar, avx2 or avx512 (default: "
                    "best supported; env HMD_KERNEL_ISA)");
}

/// --emit-rtl LANG: render the trained model through the hw::compile()
/// netlist pipeline and print the module/entity to stdout. Valid values
/// are the backend registry's names (hw::backend_by_name).
inline void add_emit_rtl_flag(ArgParser& parser, std::string* lang) {
  parser.add_string("--emit-rtl", lang, "LANG",
                    "print the trained model as RTL on stdout: verilog "
                    "or vhdl (hw::compile netlist pipeline)");
}

/// The observability pair every tool exposes: --metrics-out FILE and
/// --trace-out FILE.
inline void add_observability_flags(ArgParser& parser, std::string* metrics,
                                    std::string* trace) {
  parser.add_string("--metrics-out", metrics, "FILE",
                    "write process metrics JSON on exit");
  parser.add_string("--trace-out", trace, "FILE",
                    "collect spans; write Chrome trace JSON on exit");
}

}  // namespace hmd::cli
