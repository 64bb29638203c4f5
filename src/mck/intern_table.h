// Cached-hash intern table for arena-indexed state sets.
//
// The explorer keeps discovered states in an arena (std::vector<State>) and
// needs a hash set over arena *indices*. The previous implementation used
// std::unordered_set<int64> with a hasher that recomputed HashValue(state) on
// every probe and — worse — on every rehash, and interning had to push the
// candidate state into the arena just to probe for it (popping it back off on
// a duplicate hit). This table fixes both:
//
//   * each slot stores the precomputed 64-bit state hash alongside the arena
//     index, so probes and growth rehashes never touch the states again;
//   * lookup takes (hash, eq) directly, so callers probe *before* appending
//     to the arena and only append on an actual insertion;
//   * capacity can be pre-reserved from the caller's max_states bound.
//
// Open addressing with linear probing over a power-of-two slot array at a max
// load factor of 0.75; slot placement uses the low hash bits.
//
// The table layout is an implementation detail: iteration order is never
// exposed, so it cannot leak nondeterminism into exploration results.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cnv::mck {

class InternTable {
 public:
  // `expected` pre-sizes the table for about that many entries without
  // growth; 0 starts at the minimum capacity.
  explicit InternTable(std::size_t expected = 0) {
    Reserve(expected > 0 ? expected : 8);
  }

  // Returns the arena index of the entry matching (hash, eq), or -1.
  // `eq(idx)` must compare the probe state against the arena state at `idx`;
  // it is only called on slots whose cached hash matches exactly.
  template <typename Eq>
  std::int64_t Find(std::uint64_t hash, Eq&& eq) const {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = static_cast<std::size_t>(hash) & mask;;
         i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.index < 0) return -1;
      if (slot.hash == hash && eq(slot.index)) return slot.index;
    }
  }

  // Records (hash, index); the caller has already verified via Find that no
  // equal state is present.
  void Insert(std::uint64_t hash, std::int64_t index) {
    if ((size_ + 1) * 4 > slots_.size() * 3) Grow();
    Place(hash, index);
    ++size_;
  }

  // Grows the slot array to hold at least `expected` entries within the load
  // factor. Existing entries are rehashed from their *cached* hashes.
  void Reserve(std::size_t expected) {
    std::size_t capacity = 8;
    while (capacity * 3 < expected * 4) capacity <<= 1;
    if (capacity > slots_.size()) Rebuild(capacity);
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }
  // Load factor — the memory-pressure signal reported in ExploreStats.
  double occupancy() const {
    return slots_.empty() ? 0.0
                          : static_cast<double>(size_) /
                                static_cast<double>(slots_.size());
  }

 private:
  struct Slot {
    std::uint64_t hash = 0;
    std::int64_t index = -1;  // -1 = empty
  };

  void Place(std::uint64_t hash, std::int64_t index) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(hash) & mask;
    while (slots_[i].index >= 0) i = (i + 1) & mask;
    slots_[i] = {hash, index};
  }

  void Grow() { Rebuild(slots_.size() * 2); }

  void Rebuild(std::size_t capacity) {
    std::vector<Slot> old;
    old.swap(slots_);
    slots_.assign(capacity, Slot{});
    for (const Slot& slot : old) {
      if (slot.index >= 0) Place(slot.hash, slot.index);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace cnv::mck
