// Bitstate ("supertrace") exploration — SPIN's classic memory-frugal mode
// (Holzmann, "Design and Validation of Computer Protocols"). The visited
// set is a Bloom filter of k hash functions over an m-bit array instead of
// an exact table, so state spaces far beyond RAM become searchable at the
// price of possibly treating an unvisited state as visited (missing part of
// the space — never reporting a spurious violation: every counterexample
// still comes from an actually executed path).
//
// The screening models here are small enough for exact search; bitstate
// mode exists for soak-testing enlarged models (bigger bounds, more
// channels) the way the paper's SPIN runs would.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mck/explorer.h"
#include "mck/property.h"

namespace cnv::mck {

struct BitstateOptions {
  // log2 of the bit-array size; 24 -> 16 Mbit = 2 MiB.
  unsigned log2_bits = 24;
  // Number of independent hash probes per state (SPIN default: 2-3).
  unsigned hash_functions = 3;
  // Depth bound for the DFS (0 = unlimited).
  std::uint64_t max_depth = 10'000;
  // Transition budget (0 = unlimited).
  std::uint64_t max_transitions = 50'000'000;
  bool first_violation_per_property = true;
};

struct BitstateStats {
  std::uint64_t states_stored = 0;  // bloom insertions (distinct-ish states)
  std::uint64_t transitions = 0;
  std::uint64_t max_depth_reached = 0;
  bool truncated = false;
  // Fraction of bits set — above ~0.5 the omission probability is high and
  // a larger array should be used (SPIN's "hash factor" warning).
  double fill_ratio = 0.0;
};

template <typename M>
struct BitstateResult {
  std::vector<Violation<M>> violations;
  BitstateStats stats;

  bool Holds(const std::string& property) const {
    for (const auto& v : violations) {
      if (v.property == property) return false;
    }
    return true;
  }
};

namespace internal {

class BloomFilter {
 public:
  BloomFilter(unsigned log2_bits, unsigned hashes)
      : mask_((std::uint64_t{1} << log2_bits) - 1),
        hashes_(hashes),
        bits_((std::uint64_t{1} << log2_bits) / 64, 0) {}

  // Inserts; returns true when the element was (probably) new.
  bool InsertNew(std::size_t h) {
    bool fresh = false;
    std::uint64_t x = h;
    for (unsigned i = 0; i < hashes_; ++i) {
      // SplitMix64 steps give independent probe positions.
      x += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      z ^= z >> 31;
      const std::uint64_t bit = z & mask_;
      std::uint64_t& word = bits_[bit >> 6];
      const std::uint64_t m = std::uint64_t{1} << (bit & 63);
      if ((word & m) == 0) {
        word |= m;
        ++set_bits_;
        fresh = true;
      }
    }
    return fresh;
  }

  double FillRatio() const {
    return static_cast<double>(set_bits_) /
           static_cast<double>((mask_ + 1));
  }

 private:
  std::uint64_t mask_;
  unsigned hashes_;
  std::vector<std::uint64_t> bits_;
  std::uint64_t set_bits_ = 0;
};

}  // namespace internal

// Depth-first bitstate search. Keeps only the DFS path in memory (for
// counterexample reconstruction), like SPIN's supertrace.
template <CheckableModel M>
BitstateResult<M> BitstateExplore(
    const M& model, const PropertySet<typename M::State>& properties,
    const BitstateOptions& options = {}) {
  using State = typename M::State;
  using Action = typename M::Action;

  BitstateResult<M> result;
  internal::BloomFilter visited(options.log2_bits, options.hash_functions);
  internal::ViolatedSlots<State> violated(properties);

  struct Frame {
    State state;
    std::vector<Action> actions;
    std::size_t next = 0;
  };
  std::vector<Frame> stack;
  std::vector<Action> path;

  auto check = [&](const State& s) {
    for (std::size_t i = 0; i < properties.size(); ++i) {
      if (options.first_violation_per_property && violated.Violated(i)) {
        continue;
      }
      const auto& p = properties[i];
      if (!p.holds(s)) {
        violated.Mark(i);
        result.violations.push_back({p.name, path, s});
      }
    }
  };
  // Pushes a frame for `s`, filling its action list in place.
  auto push = [&](State s) {
    stack.push_back({std::move(s), {}, 0});
    model.enabled(stack.back().state, stack.back().actions);
  };

  {
    State init = model.initial();
    visited.InsertNew(HashValue(init));
    ++result.stats.states_stored;
    check(init);
    push(std::move(init));
  }

  while (!stack.empty()) {
    if (options.first_violation_per_property &&
        violated.count() == properties.size()) {
      break;
    }
    Frame& top = stack.back();
    if (top.next >= top.actions.size()) {
      stack.pop_back();
      if (!path.empty()) path.pop_back();
      continue;
    }
    if (options.max_depth != 0 && stack.size() > options.max_depth) {
      result.stats.truncated = true;
      stack.pop_back();
      if (!path.empty()) path.pop_back();
      continue;
    }
    const Action a = top.actions[top.next++];
    ++result.stats.transitions;
    if (options.max_transitions != 0 &&
        result.stats.transitions >= options.max_transitions) {
      result.stats.truncated = true;
      break;
    }
    State next = model.apply(top.state, a);
    if (!visited.InsertNew(HashValue(next))) continue;  // (probably) seen
    ++result.stats.states_stored;
    path.push_back(a);
    result.stats.max_depth_reached =
        std::max<std::uint64_t>(result.stats.max_depth_reached, stack.size());
    check(next);
    push(std::move(next));
  }

  result.stats.fill_ratio = visited.FillRatio();
  return result;
}

}  // namespace cnv::mck
