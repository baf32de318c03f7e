#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <thread>

namespace perfbench {

std::size_t Tracer::thread_index() {
  const std::uint64_t id = std::hash<std::thread::id>{}(std::this_thread::get_id());
  for (std::size_t i = 0; i < thread_ids_.size(); ++i)
    if (thread_ids_[i] == id) return i;
  thread_ids_.push_back(id);
  return thread_ids_.size() - 1;
}

int Tracer::begin(std::string name, int parent) {
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({std::move(name), parent, thread_index(), now, now});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int id) {
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.at(static_cast<std::size_t>(id)).end = now;
}

double Tracer::duration(int id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Span& s = spans_.at(static_cast<std::size_t>(id));
  return seconds_between(s.start, s.end);
}

double Tracer::self_time(int id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Span& s = spans_.at(static_cast<std::size_t>(id));
  std::vector<std::pair<Clock::time_point, Clock::time_point>> children;
  for (const Span& c : spans_)
    if (c.parent == id)
      children.emplace_back(std::max(c.start, s.start), std::min(c.end, s.end));
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  Clock::time_point reach = s.start;
  for (const auto& [a, b] : children) {
    const Clock::time_point from = std::max(a, reach);
    if (b > from) {
      covered += seconds_between(from, b);
      reach = b;
    }
  }
  return seconds_between(s.start, s.end) - covered;
}

double Tracer::children_total(int parent, const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mutex_);
  double total = 0.0;
  for (const Span& c : spans_)
    if (c.parent == parent && c.name.compare(0, prefix.size(), prefix) == 0)
      total += seconds_between(c.start, c.end);
  return total;
}

void Tracer::write_json(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  const Clock::time_point origin =
      spans_.empty() ? Clock::now() : spans_.front().start;
  out << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << i << ", \"name\": \""
        << s.name << "\", \"parent\": " << s.parent << ", \"thread\": "
        << s.thread << ", \"start_us\": "
        << seconds_between(origin, s.start) * 1e6
        << ", \"dur_us\": " << seconds_between(s.start, s.end) * 1e6 << "}";
  }
  out << "\n]}\n";
}

}  // namespace perfbench
