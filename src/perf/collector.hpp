// The HPC collector: the simulator-side equivalent of
// `perf stat -I 10 -e <16 events>` running against a sandboxed sample.
//
// Each 10 ms sampling window is simulated in miniature: `ops_per_window`
// retired instructions stand in for the ~30 M a real window would retire.
// Within a window, the event list is time-multiplexed across the PMU's 8
// programmable registers exactly as perf does — each group is scheduled for
// a slice of the window and its counts are scaled by observed
// window-time / scheduled-time. An `ideal_pmu` mode bypasses multiplexing by
// reading ground-truth counts (used by the multiplexing-error ablation).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "hwsim/core.hpp"
#include "hwsim/events.hpp"
#include "perf/event_group.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace hmd::perf {

/// One sampling window's scaled counts (ordered as the configured events).
struct HpcSample {
  std::vector<double> counts;
  double window_ms = 10.0;
};

/// Collector configuration.
struct CollectorConfig {
  std::vector<hwsim::HwEvent> events;  ///< empty → the 16 feature events
  std::size_t ops_per_window = 2000;   ///< simulated ops per 10 ms window
  std::size_t num_windows = 16;        ///< sampling windows per run
  /// Windows executed before sampling starts: lets caches/TLBs/predictor
  /// reach steady state so samples reflect sustained behaviour (a real
  /// 10 ms window sits deep in steady state; the miniature one must warm
  /// up explicitly or early windows are dominated by cold-start misses).
  std::size_t warmup_windows = 4;
  double window_ms = 10.0;             ///< nominal sampling period
  bool ideal_pmu = false;              ///< read ground truth (no multiplexing)
  /// Multiplexing scaling error: perf extrapolates a count observed during
  /// a register slice to the whole window assuming stationarity; bursty
  /// phase behaviour breaks that, so each scaled count carries a
  /// multiplicative log-normal error of this sigma. Ignored by ideal_pmu.
  double mux_scaling_sigma = 0.12;
  /// How many times the group rotation cycles within one window. perf
  /// rotates at timer-tick frequency; more rotations sample each event at
  /// more points of the window, shrinking extrapolation error at the cost
  /// of more PMU reprogramming. 1 = each group gets one contiguous slice.
  std::size_t rotations_per_window = 1;
};

/// Runs the collection loop over any op source (workload::Sandbox or a raw
/// TraceGenerator — anything with `hwsim::MicroOp next()` whose stream does
/// not depend on the core's state).
class HpcCollector {
 public:
  explicit HpcCollector(CollectorConfig config = {});

  const CollectorConfig& config() const { return config_; }
  const std::vector<hwsim::HwEvent>& events() const { return config_.events; }

  /// Collects `num_windows` samples from `source`, executing on `core`.
  /// The core is reset first (sandbox isolation). `noise_seed` drives the
  /// multiplexing scaling error stream (deterministic per run).
  template <typename Source>
  std::vector<HpcSample> collect(hwsim::Core& core, Source& source,
                                 std::uint64_t noise_seed = 0x9eb) const {
    HMD_TRACE_SPAN("perf/collect");
    core.reset();
    run_ops(core, source, config_.warmup_windows * config_.ops_per_window);
    Rng noise(noise_seed);
    std::vector<HpcSample> out;
    out.reserve(config_.num_windows);
    // Ideal-PMU deltas start from the post-warmup counts.
    std::vector<std::uint64_t> truth_prev(config_.events.size(), 0);
    for (std::size_t i = 0; i < config_.events.size(); ++i)
      truth_prev[i] = core.pmu().true_count(config_.events[i]);
    for (std::size_t w = 0; w < config_.num_windows; ++w)
      out.push_back(collect_window(core, source, truth_prev, noise));
    metrics().counter("perf.windows_collected").add(out.size());
    metrics().counter("perf.ops_executed")
        .add((config_.warmup_windows + config_.num_windows) *
             config_.ops_per_window);
    return out;
  }

 private:
  CollectorConfig config_;
  std::vector<EventGroup> groups_;

  template <typename Source>
  HpcSample collect_window(hwsim::Core& core, Source& source,
                           std::vector<std::uint64_t>& truth_prev,
                           Rng& noise) const {
    HpcSample sample;
    sample.window_ms = config_.window_ms;
    sample.counts.assign(config_.events.size(), 0.0);

    if (config_.ideal_pmu) {
      run_ops(core, source, config_.ops_per_window);
      for (std::size_t i = 0; i < config_.events.size(); ++i) {
        const std::uint64_t now = core.pmu().true_count(config_.events[i]);
        sample.counts[i] = static_cast<double>(now - truth_prev[i]);
        truth_prev[i] = now;
      }
      return sample;
    }

    // Multiplexed path: rotate the groups through the registers, giving
    // each an equal slice, and scale counts by actual scheduled time, as
    // perf does. More rotations per window sample each event at more
    // points of the window.
    const std::size_t rotations = std::max<std::size_t>(
        1, config_.rotations_per_window);
    const std::size_t slice_ops = std::max<std::size_t>(
        1, config_.ops_per_window / (groups_.size() * rotations));
    double window_ns = 0.0;
    std::vector<double> raw(config_.events.size(), 0.0);
    std::vector<double> running_ns(config_.events.size(), 0.0);

    for (std::size_t rotation = 0; rotation < rotations; ++rotation) {
      std::size_t event_base = 0;
      for (const EventGroup& group : groups_) {
        core.sync_pmu_time();
        for (std::size_t r = 0; r < group.size(); ++r)
          core.pmu().program(r, group[r]);
        const double ns0 = core.elapsed_ns();
        run_ops(core, source, slice_ops);
        core.sync_pmu_time();
        const double ns1 = core.elapsed_ns();
        window_ns += ns1 - ns0;
        for (std::size_t r = 0; r < group.size(); ++r) {
          const hwsim::CounterReading reading = core.pmu().read(r);
          raw[event_base + r] += static_cast<double>(reading.value);
          running_ns[event_base + r] +=
              static_cast<double>(reading.time_running_ns);
          core.pmu().stop(r);
        }
        event_base += group.size();
      }
    }

    for (std::size_t i = 0; i < config_.events.size(); ++i) {
      double scale = running_ns[i] > 0.0
                         ? window_ns / running_ns[i]
                         : static_cast<double>(groups_.size());
      // Scaling assumes stationary behaviour within the window; model the
      // extrapolation error of bursty workloads (only where scaling is
      // actually applied, i.e. the event did not own a register all window).
      if (config_.mux_scaling_sigma > 0.0 && scale > 1.001)
        scale *= noise.lognormal(0.0, config_.mux_scaling_sigma);
      sample.counts[i] = raw[i] * scale;
    }
    return sample;
  }

  /// Retires the next `n` ops of `source`. They are generated a chunk at a
  /// time into a stack buffer and retired by one Core::execute(span) call
  /// per chunk. A source never reads the core, so the op stream and every
  /// count are the same as retiring each op as it is generated.
  template <typename Source>
  static void run_ops(hwsim::Core& core, Source& source, std::size_t n) {
    constexpr std::size_t kChunkOps = 256;
    std::array<hwsim::MicroOp, kChunkOps> buffer;
    while (n > 0) {
      const std::size_t m = std::min(n, kChunkOps);
      for (std::size_t i = 0; i < m; ++i) buffer[i] = source.next();
      core.execute(std::span<const hwsim::MicroOp>(buffer.data(), m));
      n -= m;
    }
  }
};

}  // namespace hmd::perf
