// Bounded lock-free ring buffer — the ingress primitive of the streaming
// detection engine.
//
// Each shard owns one ring, and every window of the shard's streams
// passes through it tagged with its stream: the shard's feeder threads
// push and the shard worker pops. With one feeder per shard the
// discipline is SPSC and the common path is a single uncontended CAS per
// push/pop. The implementation is slot-sequenced (Vyukov's bounded queue)
// rather than a plain head/tail SPSC ring for two reasons:
//
//  * the drop-oldest backpressure policy needs the *producer* to discard
//    the consumer's next element when the ring is full. With per-slot
//    sequence numbers that is just a second (contended) consumer — safe
//    and lock-free — whereas a classic SPSC ring would race on the slot
//    being recycled;
//  * several feeders may share a shard: extra producers contend on the
//    enqueue cursor's CAS, lock-free, instead of corrupting the ring.
//
// A push either copies a value in (try_push) or writes the claimed slot in
// place (try_push_with), so a producer filling a large element builds it
// straight in the ring instead of in a stack temporary; try_push is a
// one-line wrapper over try_push_with, keeping one push path.
//
// No operation blocks, allocates, or takes a lock after construction.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "util/error.hpp"

namespace hmd::serve {

/// Fixed-capacity lock-free FIFO. Capacity is rounded up to a power of
/// two (minimum 2). Elements are copied (or filled in place) in and copied
/// out; T must be copyable.
template <typename T>
class SpscRing {
 public:
  /// Throws PreconditionError when `capacity` is 0.
  explicit SpscRing(std::size_t capacity) {
    HMD_REQUIRE(capacity > 0, "SpscRing: capacity must be positive");
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    slots_ = std::make_unique<Slot[]>(cap);
    mask_ = cap - 1;
    for (std::size_t i = 0; i < cap; ++i)
      slots_[i].seq.store(i, std::memory_order_relaxed);
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Power-of-two slot count actually allocated.
  std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Enqueue a copy of `v`. Returns false when the ring is full.
  bool try_push(const T& v) noexcept {
    return try_push_with([&v](T& slot) noexcept { slot = v; });
  }

  /// Enqueue by writing the claimed slot in place: `fill(T&)` runs once,
  /// only when a slot was claimed, and must not throw. Returns false (and
  /// never calls `fill`) when the ring is full.
  template <typename Fill>
  bool try_push_with(Fill&& fill) noexcept {
    std::uint64_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& slot = slots_[pos & mask_];
      const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
      const auto dif =
          static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos);
      if (dif == 0) {
        if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          fill(slot.value);
          slot.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        return false;  // the slot still holds an unconsumed element
      } else {
        pos = enqueue_pos_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Dequeue into `out`. Returns false when the ring is empty.
  bool try_pop(T& out) noexcept {
    std::uint64_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& slot = slots_[pos & mask_];
      const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
      const auto dif = static_cast<std::int64_t>(seq) -
                       static_cast<std::int64_t>(pos + 1);
      if (dif == 0) {
        if (dequeue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          out = slot.value;
          slot.seq.store(pos + mask_ + 1, std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        return false;  // nothing published yet
      } else {
        pos = dequeue_pos_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Discard the oldest element (drop-oldest backpressure). Safe to call
  /// from the producer concurrently with the consumer's try_pop. Returns
  /// false when the ring is empty.
  bool pop_discard() noexcept {
    T sink;
    return try_pop(sink);
  }

  /// Elements currently enqueued. Racy by nature — use for gauges and
  /// idle-detection heuristics only, never for correctness.
  std::size_t size_approx() const noexcept {
    const std::uint64_t tail = enqueue_pos_.load(std::memory_order_relaxed);
    const std::uint64_t head = dequeue_pos_.load(std::memory_order_relaxed);
    return tail >= head ? static_cast<std::size_t>(tail - head) : 0;
  }

  bool empty_approx() const noexcept { return size_approx() == 0; }

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    T value{};
  };

  std::unique_ptr<Slot[]> slots_;
  std::uint64_t mask_ = 0;
  // Producer and consumer cursors on separate cache lines so SPSC traffic
  // does not false-share.
  alignas(64) std::atomic<std::uint64_t> enqueue_pos_{0};
  alignas(64) std::atomic<std::uint64_t> dequeue_pos_{0};
};

}  // namespace hmd::serve
