// Hostile-input sweep over every text artifact the detector ships or
// restarts from: a saved model of each serializable scheme, a v2
// deployment bundle, and an engine snapshot carrying its drift, policy and
// tier sections. Each line-prefix truncation and each single-token swap to
// `nan`, `-1`, 2^64 or an empty token must either fail with ErrCode::kParse
// (message "<artifact>: line <n>: '<field>': ...") or load a value whose
// re-serialization loads back to the same bytes. A truncation that loads
// must re-serialize to exactly the truncated text; a swap that loads must
// re-serialize to the swapped text, its token in canonical form. So `nan`
// loads only into a text field, and `-1` only where a real is allowed.
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/deployment.hpp"
#include "ml/registry.hpp"
#include "ml/serialization.hpp"
#include "serve/resilience.hpp"
#include "tests/ml/synthetic_data.hpp"
#include "util/result.hpp"

namespace hmd {
namespace {

const char* const kSwaps[] = {"nan", "-1", "18446744073709551616", ""};

struct Artifact {
  std::string name;
  std::string prefix;  ///< error prefix: "model", "bundle" or "snapshot"
  std::string text;
  /// Load `text` and save the loaded value again.
  std::function<Result<std::string>(const std::string&)> round_trip;
  /// Lines whose semantic check is a documented kPrecondition rather than
  /// a parse error (the bundle's alarm policy, validated by the bundle
  /// constructor); empty for none.
  std::string precondition_line_prefix;
  /// Text-valued fields as {line keyword, token index}: any token loads
  /// there verbatim.
  std::vector<std::pair<std::string, std::size_t>> text_fields;
};

/// Load with `load`, save with `save`; any throw from the save surfaces as
/// an error value so the sweep reports it instead of aborting.
template <class Load, class Save>
Result<std::string> reload(const std::string& text, Load load, Save save) {
  std::istringstream in(text);
  auto loaded = load(in);
  if (!loaded) return Result<std::string>(std::move(loaded.error()));
  return capture_result([&] {
    std::ostringstream out;
    save(out, loaded.value());
    return out.str();
  });
}

Artifact model_artifact(const std::string& scheme) {
  auto clf = ml::make_classifier(scheme);
  clf->train(ml::testdata::overlapping_binary(15));
  std::ostringstream out;
  ml::save_model(out, *clf);
  return {"model " + scheme, "model", out.str(),
          [](const std::string& text) {
            return reload(
                text, [](std::istream& in) { return ml::try_load_model(in); },
                [](std::ostream& o, const auto& m) { ml::save_model(o, *m); });
          },
          "",
          {}};
}

Artifact bundle_artifact() {
  const ml::Dataset data = ml::testdata::overlapping_binary(15);
  auto model = ml::make_classifier("MLR");
  model->train(data);
  auto fallback = ml::make_classifier("OneR");
  fallback->train(data);
  core::FeatureSet features;
  features.indices = {0, 3, 5, 9};
  features.names = {"instructions", "branch-misses", "cache-misses",
                    "dTLB-load-misses"};
  const core::DeploymentBundle bundle(std::move(model), std::move(fallback),
                                      std::move(features),
                                      {.flag_threshold = 0.75,
                                       .confirm_windows = 3});
  std::ostringstream out;
  core::save_bundle(out, bundle);
  return {"bundle v2", "bundle", out.str(),
          [](const std::string& text) {
            return reload(
                text,
                [](std::istream& in) { return core::try_load_bundle(in); },
                [](std::ostream& o, const core::DeploymentBundle& b) {
                  core::save_bundle(o, b);
                });
          },
          "policy ",
          {{"feature", 2}}};
}

Artifact snapshot_artifact() {
  serve::EngineSnapshot snap;
  snap.model_version = 3;
  serve::StreamSnapshot calm;
  calm.id = 7;
  calm.accepted = 120;
  calm.evicted = 4;
  calm.high_water = 17;
  calm.detector = {.windows = 116, .flagged = 30, .streak = 2};
  serve::StreamSnapshot alarmed;
  alarmed.id = 8;
  alarmed.accepted = 50;
  alarmed.high_water = 3;
  alarmed.detector = {.windows = 50,
                      .flagged = 12,
                      .streak = 0,
                      .alarmed = true,
                      .alarm_window = 31};
  snap.streams = {calm, alarmed};
  serve::DriftShardSnapshot shard0;
  shard0.shard = 0;
  shard0.state.page_hinkley = {.count = 42,
                               .mean = 0.1,
                               .cumulative = -3.25,
                               .minimum = -7.75,
                               .last_deviation = 4.5,
                               .trips = 2};
  shard0.state.ks.reference = {0.25, 0.5, 1e-300};
  shard0.state.ks.current = {0.125, 0.0625};
  shard0.state.ks.observed = 99;
  shard0.state.ks.last_statistic = 0.375;
  shard0.state.ks.trips = 1;
  shard0.state.scores = 1234;
  serve::DriftShardSnapshot shard1;
  shard1.shard = 1;
  snap.drift = {shard0, shard1};
  snap.policy = {.present = true, .kind = "stochastic", .seed = 9,
                 .members = 3};
  snap.tier = {.present = true, .name = "q16"};
  std::ostringstream out;
  snap.write(out);
  return {"snapshot", "snapshot", out.str(),
          [](const std::string& text) {
            return reload(
                text,
                [](std::istream& in) {
                  return serve::EngineSnapshot::read(in);
                },
                [](std::ostream& o, const serve::EngineSnapshot& s) {
                  s.write(o);
                });
          },
          "",
          {{"policy", 1}, {"tier", 1}}};
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::vector<std::string> tokens_of(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  for (std::string token; in >> token;) tokens.push_back(token);
  return tokens;
}

std::string join_lines(const std::vector<std::string>& lines,
                       std::size_t count) {
  std::string text;
  for (std::size_t i = 0; i < count; ++i) text += lines[i] + "\n";
  return text;
}

/// Outcome tally, so the sweep shows it exercised both branches.
struct Tally {
  std::size_t rejected = 0;
  std::size_t loaded = 0;
};

/// `text` must be rejected with kParse (or, when `precondition_ok`, with
/// the documented kPrecondition), or load to a value that re-serializes
/// to a fixed point. Returns the first re-serialization when it loaded.
std::optional<std::string> check(const Artifact& a, const std::string& text,
                                 bool precondition_ok,
                                 const std::string& what, Tally& tally) {
  Result<std::string> first = a.round_trip(text);
  if (!first) {
    ++tally.rejected;
    const ErrorInfo& e = first.error();
    if (precondition_ok && e.code() == ErrCode::kPrecondition)
      return std::nullopt;
    EXPECT_EQ(e.code(), ErrCode::kParse) << what << ": " << e.to_string();
    EXPECT_EQ(e.message().rfind(a.prefix + ": line ", 0), 0u)
        << what << ": " << e.message();
    EXPECT_NE(e.message().find(": '"), std::string::npos)
        << what << ": " << e.message();
    return std::nullopt;
  }
  ++tally.loaded;
  Result<std::string> second = a.round_trip(first.value());
  EXPECT_TRUE(second.ok()) << what << ": re-serialized value fails to load: "
                           << second.error().to_string();
  if (second.ok())
    EXPECT_EQ(second.value(), first.value())
        << what << ": re-serialization is not a fixed point";
  return first.value();
}

void sweep(const Artifact& a) {
  SCOPED_TRACE(a.name);
  const std::vector<std::string> lines = lines_of(a.text);
  Tally tally;
  // The pristine artifact round-trips byte-identically.
  ASSERT_EQ(check(a, a.text, false, "pristine", tally), a.text);

  for (std::size_t keep = 0; keep < lines.size(); ++keep) {
    const std::string text = join_lines(lines, keep);
    const auto saved =
        check(a, text, false, "first " + std::to_string(keep) + " lines",
              tally);
    if (saved) EXPECT_EQ(*saved, text) << "truncated to " << keep << " lines";
  }

  for (std::size_t l = 0; l < lines.size(); ++l) {
    const std::vector<std::string> tokens = tokens_of(lines[l]);
    const bool precondition_ok =
        !a.precondition_line_prefix.empty() &&
        lines[l].rfind(a.precondition_line_prefix, 0) == 0;
    for (std::size_t t = 0; t < tokens.size(); ++t)
      for (const std::string swap : kSwaps) {
        std::vector<std::string> mutated = lines;
        std::vector<std::string> line_tokens = tokens;
        line_tokens[t] = swap;
        mutated[l].clear();
        for (std::size_t i = 0; i < line_tokens.size(); ++i)
          mutated[l] += (i == 0 ? "" : " ") + line_tokens[i];
        const std::string what = "line " + std::to_string(l + 1) +
                                 " token " + std::to_string(t) + " -> '" +
                                 swap + "'";
        const auto saved = check(a, join_lines(mutated, mutated.size()),
                                 precondition_ok, what, tally);
        if (!saved) continue;
        // Loaded: the saved text is the swapped text, the swapped token
        // in canonical form.
        const std::vector<std::string> got = lines_of(*saved);
        ASSERT_EQ(got.size(), lines.size()) << what;
        for (std::size_t i = 0; i < lines.size(); ++i)
          if (i != l) EXPECT_EQ(got[i], lines[i]) << what;
        const std::vector<std::string> got_tokens = tokens_of(got[l]);
        ASSERT_EQ(got_tokens.size(), tokens.size()) << what;
        for (std::size_t i = 0; i < tokens.size(); ++i)
          if (i != t) EXPECT_EQ(got_tokens[i], tokens[i]) << what;
        bool text_field = false;
        for (const auto& [keyword, index] : a.text_fields)
          text_field |= tokens[0] == keyword && t == index;
        if (text_field) {
          EXPECT_EQ(got_tokens[t], swap) << what;
        } else {
          // A real: the same value, never NaN.
          EXPECT_NE(swap, "nan") << what << " loaded NaN into a number";
          EXPECT_EQ(std::strtod(got_tokens[t].c_str(), nullptr),
                    std::strtod(swap.c_str(), nullptr))
              << what << " saved as '" << got_tokens[t] << "'";
        }
      }
  }
  EXPECT_GT(tally.rejected, 0u);
  EXPECT_GT(tally.loaded, 0u);
}

TEST(HostileArtifacts, EveryModelSchemeTruncatedAndTokenSwapped) {
  for (const std::string& scheme : ml::known_schemes())
    sweep(model_artifact(scheme));
}

TEST(HostileArtifacts, V2BundleTruncatedAndTokenSwapped) {
  sweep(bundle_artifact());
}

TEST(HostileArtifacts, SnapshotWithEverySectionTruncatedAndTokenSwapped) {
  sweep(snapshot_artifact());
}

}  // namespace
}  // namespace hmd
