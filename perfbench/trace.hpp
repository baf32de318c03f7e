// Span recorder for the traced run (--trace 1).
//
// Spans are recorded only from the benchmark's own code, around the public
// calls it makes into each layer; nothing inside the libraries is
// instrumented. Each span has a name, a start and end time, the recording
// thread and the id of the span that caused it (its parent). Spans stay in
// memory and are written out once, when the run ends.
//
// A span's self time is its duration minus the part of its interval that
// its children cover (the union of the children's intervals, so children
// running in parallel on several threads are not double-counted).
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock points.
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU seconds used so far by every thread of this process. It excludes
/// time a thread waits for a core, whether the host or other processes
/// hold it, so it tracks the work done rather than how busy the host is.
inline double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

class Tracer {
 public:
  static constexpr int kNoParent = -1;

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span and returns its id.
  int begin(std::string name, int parent = kNoParent);
  /// Closes span `id`.
  void end(int id);

  /// Duration of a closed span.
  double duration(int id) const;
  /// Duration minus the union of the children's intervals.
  double self_time(int id) const;
  /// Summed duration of the direct children of `parent` whose name starts
  /// with `prefix` ("" = all children).
  double children_total(int parent, const std::string& prefix) const;

  /// Writes every span (times relative to the first one) as one JSON
  /// document.
  void write_json(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int parent = kNoParent;
    std::size_t thread = 0;
    Clock::time_point start;
    Clock::time_point end;
  };
  std::size_t thread_index();

  mutable std::mutex mutex_;  // guards everything below
  std::vector<Span> spans_;
  std::vector<std::uint64_t> thread_ids_;
};

/// RAII span: opens on construction, closes on destruction. A null tracer
/// (an untraced pass) records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, int parent = Tracer::kNoParent)
      : tracer_(tracer),
        id_(tracer == nullptr ? Tracer::kNoParent
                              : tracer->begin(std::move(name), parent)) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench
