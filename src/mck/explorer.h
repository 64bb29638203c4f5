// Explicit-state model checker. This stands in for the SPIN checker the
// paper embeds in CNetVerifier (§3.2): models are communicating finite state
// machines, the explorer interleaves all enabled transitions, and each
// property violation yields a concrete counterexample trace.
//
// A model is any type satisfying `CheckableModel`:
//
//   struct M {
//     struct State  { ... regular value type ... };  // with operator==
//     struct Action { ... };                          // transition label
//     State initial() const;
//     // Clears `out`, then appends the actions enabled in the state.
//     void enabled(const State&, std::vector<Action>& out) const;
//     State apply(const State&, const Action&) const;
//     std::string describe(const Action&) const;
//   };
//   std::size_t HashValue(const M::State&);           // found by ADL
//
// The explorer owns one successor buffer and hands it to `enabled` state
// after state, so a search allocates only while the buffer grows to the
// model's widest fan-out. A State made only of byte-sized fields hashes as
// bytes (`return mck::HashBytes(s);`, mck/hash.h).
//
// The search is breadth-first, so every counterexample is a shortest one. It
// runs in depth-synchronized waves: the whole frontier at depth d is
// expanded before any state at depth d+1, states are interned in expansion
// order, and early exit (all properties violated) and max_states truncation
// take effect at deterministic points — truncation accepts new states in
// expansion order up to the cap, then finishes counting the wave's
// transitions and stops.
#pragma once

#include <algorithm>
#include <chrono>
#include <concepts>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "mck/intern_table.h"
#include "mck/por.h"
#include "mck/property.h"
#include "mck/reduction.h"

namespace cnv::mck {

template <typename M>
concept CheckableModel = requires(const M m, const typename M::State s,
                                  const typename M::Action a,
                                  std::vector<typename M::Action>& out) {
  { m.initial() } -> std::convertible_to<typename M::State>;
  m.enabled(s, out);
  { m.apply(s, a) } -> std::convertible_to<typename M::State>;
  { m.describe(a) } -> std::convertible_to<std::string>;
  { s == s } -> std::convertible_to<bool>;
  { HashValue(s) } -> std::convertible_to<std::size_t>;
};

struct ExploreOptions {
  // Stop exploring after this many distinct states (0 = unlimited).
  std::uint64_t max_states = 2'000'000;
  // Report at most one counterexample per property.
  bool first_violation_per_property = true;
  // Also report reachable states with no enabled transitions ("deadlocks").
  // States for which the model's optional `is_final(state)` returns true are
  // successful terminations, not deadlocks.
  bool detect_deadlock = false;
  // State-space reduction switches (mck/reduction.h). A model that does not
  // declare the matching ReductionSpec pieces explores fully — the flags are
  // safe to pass uniformly across a sweep of heterogeneous models.
  ReductionOptions reduction;
};

namespace internal {

// Violated properties by slot: slot(i) is the first property sharing
// property i's name and slot n (n = properties.size()) is "deadlock", so a
// state's checks test flags instead of hashing names.
template <typename State>
class ViolatedSlots {
 public:
  explicit ViolatedSlots(const PropertySet<State>& properties)
      : slot_(properties.size()), flag_(properties.size() + 1, 0) {
    const std::size_t n = properties.size();
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t j = properties[i].name == "deadlock" ? n : 0;
      while (j < i && properties[j].name != properties[i].name) ++j;
      slot_[i] = j;
    }
  }

  // Property i (or, for i == size of the set, deadlock) is violated.
  bool Violated(std::size_t i) const {
    return i < slot_.size() ? flag_[slot_[i]] != 0 : flag_.back() != 0;
  }
  void Mark(std::size_t i) {
    MarkSlot(i < slot_.size() ? slot_[i] : slot_.size());
  }
  // Number of distinct slots marked.
  std::size_t count() const { return count_; }

 private:
  void MarkSlot(std::size_t k) {
    if (flag_[k] == 0) ++count_;
    flag_[k] = 1;
  }

  std::vector<std::size_t> slot_;
  std::vector<char> flag_;
  std::size_t count_ = 0;
};

template <typename M>
bool IsFinal(const M& model, const typename M::State& s) {
  if constexpr (requires { { model.is_final(s) } -> std::convertible_to<bool>; }) {
    return model.is_final(s);
  } else {
    (void)model;
    (void)s;
    return false;
  }
}

}  // namespace internal

template <typename M>
struct Violation {
  std::string property;          // property name, or "deadlock"
  std::vector<typename M::Action> trace;  // actions from the initial state
  typename M::State state;       // the violating state
};

struct ExploreStats {
  std::uint64_t states_visited = 0;
  std::uint64_t transitions = 0;
  std::uint64_t max_depth_reached = 0;
  bool truncated = false;  // hit max_states
  // Peak size of the BFS frontier and the final load factor of the
  // visited-state hash table — the two memory-pressure signals for soaks.
  std::uint64_t frontier_peak = 0;
  double hash_occupancy = 0;
  // States whose expansion used a strict ample subset (POR active and it
  // actually reduced something). 0 when POR is off or never fires.
  std::uint64_t ample_states = 0;
  // Sum of orbit sizes over the interned representatives — the number of
  // concrete states the reduced visited set stands for. Equal to
  // states_visited when symmetry (or orbit accounting) is off.
  std::uint64_t represented_states = 0;
  // Wall-clock timing. Everything else in this struct is deterministic;
  // these two are explicitly wall-clock throughput figures and must never
  // feed a byte-identical-replay comparison.
  double elapsed_wall_seconds = 0;
  double StatesPerSecond() const {
    return elapsed_wall_seconds > 0
               ? static_cast<double>(states_visited) / elapsed_wall_seconds
               : 0;
  }
};

// Canonical deterministic view of ExploreStats: every field that must be
// identical across replays — and nothing wall-clock. The determinism suites compare these views
// instead of hand-picking fields per test, so a new wall-clock field can
// never silently leak into a byte-identity comparison.
struct ExploreStatsView {
  std::uint64_t states_visited = 0;
  std::uint64_t transitions = 0;
  std::uint64_t max_depth_reached = 0;
  std::uint64_t frontier_peak = 0;
  bool truncated = false;
  double hash_occupancy = 0;
  std::uint64_t ample_states = 0;
  std::uint64_t represented_states = 0;
  bool operator==(const ExploreStatsView&) const = default;
};

inline ExploreStatsView DeterministicView(const ExploreStats& s) {
  return {s.states_visited, s.transitions,    s.max_depth_reached,
          s.frontier_peak,  s.truncated,      s.hash_occupancy,
          s.ample_states,   s.represented_states};
}

inline std::string ToString(const ExploreStatsView& v) {
  return "{states=" + std::to_string(v.states_visited) +
         " transitions=" + std::to_string(v.transitions) +
         " max_depth=" + std::to_string(v.max_depth_reached) +
         " frontier_peak=" + std::to_string(v.frontier_peak) +
         " truncated=" + std::to_string(v.truncated) +
         " occupancy=" + std::to_string(v.hash_occupancy) +
         " ample=" + std::to_string(v.ample_states) +
         " represented=" + std::to_string(v.represented_states) + "}";
}

inline std::ostream& operator<<(std::ostream& os, const ExploreStatsView& v) {
  return os << ToString(v);
}

template <typename M>
struct ExploreResult {
  std::vector<Violation<M>> violations;
  ExploreStats stats;

  const Violation<M>* FindViolation(const std::string& property) const {
    for (const auto& v : violations) {
      if (v.property == property) return &v;
    }
    return nullptr;
  }
  bool Holds(const std::string& property) const {
    return FindViolation(property) == nullptr;
  }
};

namespace internal {

template <typename State>
struct StateHash {
  std::size_t operator()(const State& s) const { return HashValue(s); }
};

// Arena/table reservation hint derived from the max_states bound. Explicit
// modest bounds (soaks, graph exports) are reserved in full; the effectively
// unbounded defaults start small — growth rehashes only move cached
// (hash, index) pairs, so they are cheap.
inline std::size_t ReserveHint(std::uint64_t max_states) {
  constexpr std::uint64_t kFullReserveCap = 1ull << 16;
  if (max_states != 0 && max_states <= kFullReserveCap) {
    return static_cast<std::size_t>(max_states);
  }
  return 1024;
}

}  // namespace internal

// Exhaustive breadth-first exploration from the model's initial state.
template <CheckableModel M>
ExploreResult<M> Explore(const M& model,
                         const PropertySet<typename M::State>& properties,
                         const ExploreOptions& options = {}) {
  using State = typename M::State;
  using Action = typename M::Action;

  const auto wall_start = std::chrono::steady_clock::now();
  ExploreResult<M> result;
  const std::size_t n_props = properties.size();
  internal::ViolatedSlots<State> violated(properties);
  const internal::ReductionEngine<M> red(model, options.reduction,
                                        !properties.empty());

  // Arena of discovered states with back-pointers for trace reconstruction.
  struct NodeMeta {
    std::int64_t parent = -1;
    Action via{};
  };
  const std::size_t hint = internal::ReserveHint(options.max_states);
  std::vector<State> arena;
  std::vector<NodeMeta> meta;
  arena.reserve(hint);
  meta.reserve(hint);
  // Visited set over arena indices with the 64-bit state hash cached in each
  // slot: probes and growth rehashes never recompute HashValue.
  InternTable seen(hint);

  auto reconstruct = [&](std::int64_t idx) {
    std::vector<Action> trace;
    while (idx >= 0 && meta[static_cast<std::size_t>(idx)].parent >= 0) {
      trace.push_back(meta[static_cast<std::size_t>(idx)].via);
      idx = meta[static_cast<std::size_t>(idx)].parent;
    }
    std::reverse(trace.begin(), trace.end());
    return trace;
  };

  auto check_state = [&](std::int64_t idx) {
    const State& s = arena[static_cast<std::size_t>(idx)];
    for (std::size_t i = 0; i < n_props; ++i) {
      if (options.first_violation_per_property && violated.Violated(i)) {
        continue;
      }
      const auto& p = properties[i];
      if (!p.holds(s)) {
        violated.Mark(i);
        result.violations.push_back({p.name, reconstruct(idx), s});
      }
    }
  };

  auto all_violated = [&] {
    return options.first_violation_per_property && !properties.empty() &&
           violated.count() == n_props && !options.detect_deadlock;
  };

  // Intern a state: probe the table by (hash, value) first and append to the
  // arena only on actual insertion — no push/pop churn on duplicate hits.
  // Returns (index, inserted); index is -1 when the state was new but the
  // max_states cap is already full.
  auto intern = [&](State s, std::int64_t parent,
                    const Action* via) -> std::pair<std::int64_t, bool> {
    const std::uint64_t h = static_cast<std::uint64_t>(HashValue(s));
    const std::int64_t found = seen.Find(h, [&](std::int64_t i) {
      return arena[static_cast<std::size_t>(i)] == s;
    });
    if (found >= 0) return {found, false};
    if (options.max_states != 0 && seen.size() >= options.max_states) {
      return {-1, false};
    }
    arena.push_back(std::move(s));
    meta.push_back({parent, via != nullptr ? *via : Action{}});
    const std::int64_t idx = static_cast<std::int64_t>(arena.size()) - 1;
    seen.Insert(h, idx);
    return {idx, true};
  };

  auto check_deadlock = [&](std::int64_t idx) {
    if (!options.detect_deadlock || violated.Violated(n_props)) return;
    if (internal::IsFinal(model, arena[static_cast<std::size_t>(idx)])) return;
    violated.Mark(n_props);
    result.violations.push_back(
        {"deadlock", reconstruct(idx), arena[static_cast<std::size_t>(idx)]});
  };

  // Depth-synchronized waves: the frontier holds every state at depth
  // `depth`; the whole wave is expanded before moving on, and early exit
  // and max_states truncation act at wave boundaries.
  std::vector<std::int64_t> frontier;
  std::vector<std::int64_t> next_frontier;
  std::uint64_t depth = 0;
  // POR plumbing: `wave_start` is the arena size when the current wave
  // began, so "old" (C3 freshness) means "interned before this wave".
  // `ample` is the reusable ample-subset scratch.
  std::int64_t wave_start = 0;
  std::vector<Action> actions;
  std::vector<Action> ample;
  auto is_old = [&](const State& t) {
    const std::uint64_t h = static_cast<std::uint64_t>(HashValue(t));
    const std::int64_t found = seen.Find(h, [&](std::int64_t i) {
      return arena[static_cast<std::size_t>(i)] == t;
    });
    return found >= 0 && found < wave_start;
  };
  {
    auto [idx, inserted] = intern(red.Canon(model.initial()), -1, nullptr);
    (void)inserted;
    check_state(idx);
    frontier.push_back(idx);
  }
  while (!frontier.empty() && !all_violated()) {
    result.stats.frontier_peak =
        std::max(result.stats.frontier_peak,
                 static_cast<std::uint64_t>(frontier.size()));
    result.stats.max_depth_reached =
        std::max(result.stats.max_depth_reached, depth);
    next_frontier.clear();
    wave_start = static_cast<std::int64_t>(arena.size());
    for (const std::int64_t idx : frontier) {
      model.enabled(arena[static_cast<std::size_t>(idx)], actions);
      if (actions.empty()) check_deadlock(idx);
      const std::vector<Action>* expand = &actions;
      if (red.por() &&
          red.SelectAmple(model, arena[static_cast<std::size_t>(idx)],
                          actions, is_old, ample)) {
        expand = &ample;
        ++result.stats.ample_states;
      }
      for (const Action& a : *expand) {
        ++result.stats.transitions;
        State next =
            red.Canon(model.apply(arena[static_cast<std::size_t>(idx)], a));
        auto [child, inserted] = intern(std::move(next), idx, &a);
        if (!inserted) {
          // child < 0: a genuinely new state was dropped by the cap. Keep
          // expanding the rest of the wave (transition counts stay
          // well-defined) but stop after it.
          if (child < 0) result.stats.truncated = true;
          continue;
        }
        check_state(child);
        next_frontier.push_back(child);
      }
    }
    frontier.swap(next_frontier);
    ++depth;
    if (result.stats.truncated) break;
  }

  result.stats.states_visited = seen.size();
  result.stats.hash_occupancy = seen.occupancy();
  if (red.orbits()) {
    for (const State& s : arena) result.stats.represented_states += red.OrbitSize(s);
  } else {
    result.stats.represented_states = result.stats.states_visited;
  }
  result.stats.elapsed_wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return result;
}

// Renders a counterexample trace as numbered lines, one action per line.
template <CheckableModel M>
std::string FormatTrace(const M& model, const Violation<M>& v) {
  std::string out;
  out += "counterexample for " + v.property + " (" +
         std::to_string(v.trace.size()) + " steps):\n";
  std::size_t step = 1;
  for (const auto& a : v.trace) {
    out += "  " + std::to_string(step++) + ". " + model.describe(a) + "\n";
  }
  return out;
}

}  // namespace cnv::mck
