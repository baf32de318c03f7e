// Performance Monitoring Unit model.
//
// Mirrors the Haswell PMU as the thesis uses it: a small file of
// programmable counter registers (8 on the i5-4590) onto which a larger set
// of architectural events must be multiplexed. The Pmu additionally keeps
// free-running "ground truth" counts for every event, which the tests use to
// quantify multiplexing error and which an idealized collector can read
// directly.
//
// Host-speed note: every event is counted once, in the free-running
// ground truth. A programmed register remembers the ground-truth count at
// program() time and reads as the difference, which is exactly what
// incrementing each matching register on every event would accumulate, so
// add() stays a single increment however many registers are programmed.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "hwsim/events.hpp"
#include "util/error.hpp"

namespace hmd::hwsim {

/// Snapshot returned when reading a programmable counter: the raw count plus
/// the time the event was actually scheduled on the register, so collectors
/// can scale multiplexed counts the way perf(1) does.
struct CounterReading {
  std::uint64_t value = 0;
  std::uint64_t time_running_ns = 0;  ///< time this event held the register
};

/// The PMU: ground-truth event accumulation plus a programmable register
/// file with perf-style time accounting.
class Pmu {
 public:
  /// Number of general-purpose programmable counters (Haswell: 8 with
  /// hyper-threading off, as on the i5-4590).
  static constexpr std::size_t kNumCounters = 8;

  /// Record `n` occurrences of `e`: updates ground truth and, through it,
  /// any active register currently programmed with `e`.
  void add(HwEvent e, std::uint64_t n = 1) {
    const auto idx = static_cast<std::size_t>(e);
    HMD_REQUIRE(idx < kNumEvents, "Pmu::add: invalid event");
    true_counts_[idx] += n;
  }

  /// Advance wall-clock time; accrues time_running for active registers.
  void advance_time(std::uint64_t ns);

  /// Program register `slot` to count `e`, clearing its value and time.
  void program(std::size_t slot, HwEvent e);
  /// Stop counting on `slot`; the value/time remain readable.
  void stop(std::size_t slot);
  /// True if `slot` currently has an event programmed and counting.
  bool is_active(std::size_t slot) const;
  /// Event programmed on `slot`, if any.
  std::optional<HwEvent> programmed_event(std::size_t slot) const;

  /// Read a programmable counter.
  CounterReading read(std::size_t slot) const;

  /// Ground-truth count of `e` since the last reset (free-running).
  std::uint64_t true_count(HwEvent e) const;

  /// Clear everything: ground truth, registers, time.
  void reset();

 private:
  struct Register {
    HwEvent event = HwEvent::kCount;
    std::uint64_t base = 0;   ///< ground truth of `event` at program()
    std::uint64_t value = 0;  ///< count frozen by stop()
    std::uint64_t time_running_ns = 0;
    bool active = false;
  };

  /// Events counted since program(): live while active, frozen after.
  std::uint64_t count(const Register& reg) const {
    return reg.active
               ? true_counts_[static_cast<std::size_t>(reg.event)] - reg.base
               : reg.value;
  }

  std::array<std::uint64_t, kNumEvents> true_counts_{};
  std::array<Register, kNumCounters> registers_{};
};

}  // namespace hmd::hwsim
