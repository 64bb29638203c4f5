// Bounded lock-free single-producer/single-consumer ring buffer: the
// hand-off between the runtime-verification gateway's ingest thread (which
// parses trace bytes into records) and its monitor thread (which abstracts
// records and steps the property automata).
//
// The contract is the classic SPSC one (cf. the ZMQ push/pull pattern the
// ngic-rtc data plane uses between its interface and worker threads): one
// thread produces, one thread consumes, and the indices are published with
// release stores / consumed with acquire loads so every slot written by the
// producer is fully visible to the consumer before it can be read. No
// locks, no allocation after construction, TSan-clean.
//
// Besides one-element TryPush/TryPop, both sides can work in place and
// publish their cursor once per run of elements (Claim/Publish on the
// producer, Front/Pop/Release on the consumer). Each side also caches the
// other side's cursor and reloads it only when the cached value says the
// ring is full (producer) or empty (consumer), so a run of N elements costs
// one release store per side instead of N acquire/release pairs on the
// shared cache lines.
#pragma once

#include <atomic>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

namespace cnv::rtv {

// Rounds up to the next power of two (minimum 2) so the index masks stay
// branch-free. A request above the largest power of two a size_t holds
// has no such capacity and throws std::length_error.
constexpr std::size_t RingCapacityFor(std::size_t requested) {
  constexpr std::size_t kLargest =
      (std::numeric_limits<std::size_t>::max() >> 1) + 1;
  if (requested > kLargest) {
    throw std::length_error("SpscRing capacity above the largest power of 2");
  }
  std::size_t cap = 2;
  while (cap < requested) cap <<= 1;
  return cap;
}

template <typename T>
class SpscRing {
 public:
  explicit SpscRing(std::size_t capacity)
      : slots_(RingCapacityFor(capacity)), mask_(slots_.size() - 1) {}
  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  std::size_t capacity() const { return slots_.size(); }

  // Producer side, in place: Claim() returns the next free slot (nullptr
  // when the ring is full), still holding whatever the consumer left in it,
  // and Publish() makes every slot claimed so far visible to the consumer.
  // A claimed slot counts as occupied at once, published or not;
  // Unpublished() counts the claimed slots the consumer cannot see yet.
  T* Claim() {
    if (claimed_ - head_cache_ > mask_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (claimed_ - head_cache_ > mask_) return nullptr;  // full
    }
    return &slots_[claimed_++ & mask_];
  }

  void Publish() {
    published_ = claimed_;
    tail_.store(claimed_, std::memory_order_release);
  }

  std::size_t Unpublished() const { return claimed_ - published_; }

  // Producer side, one element. Returns false when the ring is full (the
  // caller decides whether to spin — backpressure — or count-and-drop); the
  // value is left untouched on failure, so a blocked push can simply retry.
  bool TryPush(T&& v) {
    T* slot = Claim();
    if (slot == nullptr) return false;
    *slot = std::move(v);
    Publish();
    return true;
  }

  bool TryPush(const T& v) {
    T* slot = Claim();
    if (slot == nullptr) return false;
    *slot = v;
    Publish();
    return true;
  }

  // Consumer side, in place: Front() returns the oldest published element
  // not yet popped (nullptr when there is none), Pop() moves past it, and
  // Release() hands every popped slot back to the producer. Until Release()
  // a popped element keeps its slot, so the consumer may still read it.
  T* Front() {
    if (read_ == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (read_ == tail_cache_) return nullptr;  // empty
    }
    return &slots_[read_ & mask_];
  }

  // Only after a Front() that returned an element.
  void Pop() { ++read_; }

  void Release() { head_.store(read_, std::memory_order_release); }

  // Consumer side, one element. Returns false when the ring is empty.
  bool TryPop(T* out) {
    T* front = Front();
    if (front == nullptr) return false;
    *out = std::move(*front);
    Pop();
    Release();
    return true;
  }

  // Racy estimate of published, unreleased elements for gauges; exact only
  // when both threads are quiet.
  std::size_t SizeApprox() const {
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    const std::size_t head = head_.load(std::memory_order_acquire);
    return tail >= head ? tail - head : 0;
  }

  bool EmptyApprox() const { return SizeApprox() == 0; }

 private:
  std::vector<T> slots_;
  const std::size_t mask_;
  // Each thread's private cursors sit on their own cache line, away from
  // the published head (consumer cursor) and tail (producer cursor) the
  // other thread reads, so neither side's bookkeeping false-shares.
  alignas(64) std::size_t read_ = 0;       // consumer: next to pop
  std::size_t tail_cache_ = 0;             // consumer: last tail seen
  alignas(64) std::atomic<std::size_t> head_{0};
  alignas(64) std::size_t claimed_ = 0;    // producer: next to claim
  std::size_t published_ = 0;              // producer: tail last stored
  std::size_t head_cache_ = 0;             // producer: last head seen
  alignas(64) std::atomic<std::size_t> tail_{0};
};

}  // namespace cnv::rtv
