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
// Each engine owns its successor buffers (one per worker in
// ParallelExplore) and hands them to `enabled` state after state, so a
// search allocates only while a buffer grows to the model's widest fan-out.
// A State made only of byte-sized fields hashes as bytes
// (`return mck::HashBytes(s);`, mck/hash.h).
//
// BFS yields shortest counterexamples (used for reporting); DFS uses less
// bookkeeping per state and honours a depth bound (used for soak runs).
//
// BFS runs in depth-synchronized waves: the whole frontier at depth d is
// expanded before any state at depth d+1, states are interned in expansion
// order, and early exit (all properties violated) and max_states truncation
// take effect at deterministic points — truncation accepts new states in
// expansion order up to the cap, then finishes counting the wave's
// transitions and stops. These wave semantics are exactly what
// ParallelExplore (mck/parallel_explorer.h) reproduces at any worker count,
// which is why serial and parallel results are byte-identical.
#pragma once

#include <algorithm>
#include <chrono>
#include <concepts>
#include <cstdint>
#include <functional>
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

enum class SearchOrder { kBreadthFirst, kDepthFirst };

struct ExploreOptions {
  SearchOrder order = SearchOrder::kBreadthFirst;
  // Stop exploring after this many distinct states (0 = unlimited).
  std::uint64_t max_states = 2'000'000;
  // Do not explore beyond this depth (0 = unlimited).
  std::uint64_t max_depth = 0;
  // Report at most one counterexample per property.
  bool first_violation_per_property = true;
  // Also report reachable states with no enabled transitions ("deadlocks").
  // States for which the model's optional `is_final(state)` returns true are
  // successful terminations, not deadlocks.
  bool detect_deadlock = false;
  // State-space reduction switches (mck/reduction.h). BFS only: the DFS
  // order ignores them (its stack-based cycle proviso is not implemented),
  // exactly like it ignores snapshot hooks. A model that does not declare
  // the matching ReductionSpec pieces explores fully — the flags are safe
  // to pass uniformly across a sweep of heterogeneous models.
  ReductionOptions reduction;
};

namespace internal {

// Violated properties by slot: slot(i) is the first property sharing
// property i's name and slot n (n = properties.size()) is "deadlock", so a
// state's checks test flags instead of hashing names. A name that is
// neither maps to n + 1, which is never marked.
template <typename State>
class ViolatedSlots {
 public:
  explicit ViolatedSlots(const PropertySet<State>& properties)
      : props_(&properties), slot_(properties.size()),
        flag_(properties.size() + 1, 0) {
    for (std::size_t i = 0; i < slot_.size(); ++i) {
      slot_[i] = SlotOf(properties[i].name);
    }
  }

  std::size_t SlotOf(const std::string& name) const {
    const std::size_t n = slot_.size();
    if (name == "deadlock") return n;
    std::size_t j = 0;
    while (j < n && (*props_)[j].name != name) ++j;
    return j < n ? j : n + 1;
  }

  // Property i (or, for i == size of the set, deadlock) is violated.
  bool Violated(std::size_t i) const {
    return i < slot_.size() ? flag_[slot_[i]] != 0 : flag_.back() != 0;
  }
  void Mark(std::size_t i) {
    MarkSlot(i < slot_.size() ? slot_[i] : slot_.size());
  }
  // Re-marks a violation carried by name (a resumed snapshot).
  void MarkName(const std::string& name) {
    const std::size_t k = SlotOf(name);
    if (k < flag_.size()) MarkSlot(k);
  }
  // Number of distinct slots marked.
  std::size_t count() const { return count_; }

 private:
  void MarkSlot(std::size_t k) {
    if (flag_[k] == 0) ++count_;
    flag_[k] = 1;
  }

  const PropertySet<State>* props_;
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
  bool truncated = false;  // hit max_states or max_depth
  // Peak size of the BFS/DFS frontier and the final load factor of the
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
// identical across replays, job counts and checkpoint/resume boundaries —
// and nothing wall-clock. The determinism suites compare these views
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

// `include_occupancy = false` zeroes hash_occupancy on the view — for
// serial-vs-parallel comparisons, where a sharded table legitimately has a
// different load factor than a single one.
inline ExploreStatsView DeterministicView(const ExploreStats& s,
                                          bool include_occupancy = true) {
  return {s.states_visited,
          s.transitions,
          s.max_depth_reached,
          s.frontier_peak,
          s.truncated,
          include_occupancy ? s.hash_occupancy : 0.0,
          s.ample_states,
          s.represented_states};
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

// --- wave-boundary snapshots (crash-safe checkpoint support) ----------------
//
// A snapshot captures the complete deterministic search state at a wave
// boundary in an engine-neutral form: discovered states in global discovery
// ("rank") order with their cached hashes and back-pointers, the current
// frontier as ranks, carried stats, and the violations committed so far.
// Rank order is exactly serial interning order, which ParallelExplore also
// reproduces — so a snapshot written by either engine resumes in either
// engine, at any job count, with byte-identical final results.

inline constexpr std::uint64_t kNoParentRank = ~0ull;

template <typename M>
struct ExploreSnapshot {
  struct Node {
    typename M::State state{};
    std::uint64_t hash = 0;      // cached HashValue(state)
    std::uint64_t parent = kNoParentRank;  // rank of the parent state
    typename M::Action via{};    // action that discovered this state
  };
  std::vector<Node> nodes;              // rank order
  std::vector<std::uint64_t> frontier;  // ranks of the pending wave
  std::uint64_t depth = 0;              // depth of the frontier states
  // Carried stats (everything deterministic that is not derivable from the
  // node list).
  std::uint64_t transitions = 0;
  std::uint64_t frontier_peak = 0;
  std::uint64_t max_depth_reached = 0;
  std::uint64_t waves = 0;  // == depth at a continuing wave boundary
  // POR bookkeeping carried across a resume; represented_states is *not*
  // carried because the engines recompute it from the final visited set.
  std::uint64_t ample_states = 0;
  std::vector<Violation<M>> violations;
};

// Observation and resume plumbing for Explore / ParallelExplore. When
// `on_snapshot` is set, the engine captures an ExploreSnapshot at wave
// boundaries, gated by the cadence fields; when `resume` is set, the engine
// starts from that snapshot instead of the model's initial state (the
// caller is responsible for passing the same model, properties and options
// as the producing run — file-level resume guards this with a config
// digest, see ckpt/explore_ckpt.h). Snapshots only observe: a hooked run's
// results are identical to an unhooked one. BFS only; the DFS order of
// Explore ignores hooks.
template <typename M>
struct SnapshotHooks {
  std::function<void(const ExploreSnapshot<M>&)> on_snapshot;
  // Capture when at least this many states were discovered since the last
  // capture, or at least this many waves completed; with both zero, every
  // wave boundary is captured.
  std::uint64_t every_states = 0;
  std::uint64_t every_waves = 0;
  const ExploreSnapshot<M>* resume = nullptr;
};

namespace internal {

// Wave-boundary cadence bookkeeping shared by the serial and parallel
// engines.
struct SnapshotCadence {
  std::uint64_t every_states = 0;
  std::uint64_t every_waves = 0;
  std::uint64_t states_at_last = 0;
  std::uint64_t waves_since = 0;

  bool Due(std::uint64_t states_now) {
    ++waves_since;
    const bool due =
        (every_states == 0 && every_waves == 0) ||
        (every_states != 0 && states_now - states_at_last >= every_states) ||
        (every_waves != 0 && waves_since >= every_waves);
    if (due) {
      states_at_last = states_now;
      waves_since = 0;
    }
    return due;
  }
};

}  // namespace internal

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

// Exhaustive exploration from the model's initial state. `hooks`, when
// given, captures wave-boundary snapshots and/or resumes from one (BFS
// only; see SnapshotHooks).
template <CheckableModel M>
ExploreResult<M> Explore(const M& model,
                         const PropertySet<typename M::State>& properties,
                         const ExploreOptions& options = {},
                         const SnapshotHooks<M>* hooks = nullptr) {
  using State = typename M::State;
  using Action = typename M::Action;

  const auto wall_start = std::chrono::steady_clock::now();
  ExploreResult<M> result;
  const std::size_t n_props = properties.size();
  internal::ViolatedSlots<State> violated(properties);
  const bool track =
      hooks != nullptr && options.order == SearchOrder::kBreadthFirst;
  // Reduction is BFS-only (see ExploreOptions::reduction); for DFS the
  // engine stays inert and the exploration is the full product.
  const internal::ReductionEngine<M> red =
      options.order == SearchOrder::kBreadthFirst
          ? internal::ReductionEngine<M>(model, options.reduction,
                                         !properties.empty())
          : internal::ReductionEngine<M>();

  // Arena of discovered states with back-pointers for trace reconstruction.
  struct NodeMeta {
    std::int64_t parent = -1;
    Action via{};
    std::uint64_t depth = 0;
  };
  const std::size_t hint = internal::ReserveHint(options.max_states);
  std::vector<State> arena;
  std::vector<NodeMeta> meta;
  arena.reserve(hint);
  meta.reserve(hint);
  // Cached per-state hashes, kept only when snapshots are in play: the
  // snapshot stores them so a resume never recomputes HashValue.
  std::vector<std::uint64_t> hashes;
  if (track) hashes.reserve(hint);
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
  auto intern = [&](State s, std::int64_t parent, const Action* via,
                    std::uint64_t depth) -> std::pair<std::int64_t, bool> {
    const std::uint64_t h = static_cast<std::uint64_t>(HashValue(s));
    const std::int64_t found = seen.Find(h, [&](std::int64_t i) {
      return arena[static_cast<std::size_t>(i)] == s;
    });
    if (found >= 0) return {found, false};
    if (options.max_states != 0 && seen.size() >= options.max_states) {
      return {-1, false};
    }
    arena.push_back(std::move(s));
    meta.push_back({parent, via != nullptr ? *via : Action{}, depth});
    if (track) hashes.push_back(h);
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

  if (options.order == SearchOrder::kBreadthFirst) {
    // Depth-synchronized waves: the frontier holds every state at depth
    // `depth`; the whole wave is expanded before moving on. Early exit and
    // max_states truncation act at wave-deterministic points, matching
    // ParallelExplore at any worker count.
    std::vector<std::int64_t> frontier;
    std::vector<std::int64_t> next_frontier;
    std::uint64_t depth = 0;
    // POR plumbing: `wave_start` is the arena size when the current wave
    // began, so "old" (C3 freshness) means "interned before this wave" —
    // the same predicate the parallel engine evaluates against its frozen
    // pre-wave table. `ample` is the reusable ample-subset scratch.
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
    internal::SnapshotCadence cadence;
    if (track) {
      cadence.every_states = hooks->every_states;
      cadence.every_waves = hooks->every_waves;
    }
    if (track && hooks->resume != nullptr) {
      // Rebuild arena, meta and the intern table from the snapshot's
      // rank-ordered node list. Inserting in rank order from the same
      // initial Reserve replays the producing run's growth sequence, so the
      // table layout — and hash_occupancy — end up identical.
      const ExploreSnapshot<M>& snap = *hooks->resume;
      for (std::size_t i = 0; i < snap.nodes.size(); ++i) {
        const auto& n = snap.nodes[i];
        const std::int64_t parent =
            n.parent == kNoParentRank ? -1
                                      : static_cast<std::int64_t>(n.parent);
        const std::uint64_t d =
            parent < 0 ? 0 : meta[static_cast<std::size_t>(parent)].depth + 1;
        arena.push_back(n.state);
        meta.push_back({parent, n.via, d});
        hashes.push_back(n.hash);
        seen.Insert(n.hash, static_cast<std::int64_t>(i));
      }
      frontier.reserve(snap.frontier.size());
      for (const std::uint64_t r : snap.frontier) {
        frontier.push_back(static_cast<std::int64_t>(r));
      }
      depth = snap.depth;
      result.stats.transitions = snap.transitions;
      result.stats.frontier_peak = snap.frontier_peak;
      result.stats.max_depth_reached = snap.max_depth_reached;
      result.stats.ample_states = snap.ample_states;
      result.violations = snap.violations;
      for (const auto& v : result.violations) violated.MarkName(v.property);
      cadence.states_at_last = snap.nodes.size();
    } else {
      auto [idx, inserted] = intern(red.Canon(model.initial()), -1, nullptr, 0);
      (void)inserted;
      check_state(idx);
      frontier.push_back(idx);
    }
    auto capture = [&] {
      ExploreSnapshot<M> snap;
      snap.nodes.resize(arena.size());
      for (std::size_t i = 0; i < arena.size(); ++i) {
        snap.nodes[i] = {arena[i], hashes[i],
                         meta[i].parent < 0
                             ? kNoParentRank
                             : static_cast<std::uint64_t>(meta[i].parent),
                         meta[i].via};
      }
      snap.frontier.assign(frontier.begin(), frontier.end());
      snap.depth = depth;
      snap.transitions = result.stats.transitions;
      snap.frontier_peak = result.stats.frontier_peak;
      snap.max_depth_reached = result.stats.max_depth_reached;
      snap.waves = depth;
      snap.ample_states = result.stats.ample_states;
      snap.violations = result.violations;
      return snap;
    };
    while (!frontier.empty() && !all_violated()) {
      result.stats.frontier_peak =
          std::max(result.stats.frontier_peak,
                   static_cast<std::uint64_t>(frontier.size()));
      result.stats.max_depth_reached =
          std::max(result.stats.max_depth_reached, depth);
      if (options.max_depth != 0 && depth >= options.max_depth) {
        result.stats.truncated = true;
        break;
      }
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
          auto [child, inserted] = intern(std::move(next), idx, &a, depth + 1);
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
      // Capture only at continuing boundaries: a snapshot of a finished
      // exploration would never be resumed.
      if (track && hooks->on_snapshot != nullptr && !frontier.empty() &&
          !all_violated() && cadence.Due(seen.size())) {
        hooks->on_snapshot(capture());
      }
    }
  } else {
    std::vector<std::int64_t> frontier;
    std::vector<Action> actions;
    {
      auto [idx, inserted] = intern(model.initial(), -1, nullptr, 0);
      (void)inserted;
      check_state(idx);
      frontier.push_back(idx);
    }
    bool stop = false;
    while (!frontier.empty() && !stop && !all_violated()) {
      result.stats.frontier_peak =
          std::max(result.stats.frontier_peak,
                   static_cast<std::uint64_t>(frontier.size()));
      const std::int64_t idx = frontier.back();
      frontier.pop_back();
      const std::uint64_t depth = meta[static_cast<std::size_t>(idx)].depth;
      result.stats.max_depth_reached =
          std::max(result.stats.max_depth_reached, depth);
      if (options.max_depth != 0 && depth >= options.max_depth) {
        result.stats.truncated = true;
        continue;
      }

      model.enabled(arena[static_cast<std::size_t>(idx)], actions);
      if (actions.empty()) check_deadlock(idx);
      for (const Action& a : actions) {
        ++result.stats.transitions;
        State next = model.apply(arena[static_cast<std::size_t>(idx)], a);
        auto [child, inserted] = intern(std::move(next), idx, &a, depth + 1);
        if (!inserted) {
          if (child < 0) {
            result.stats.truncated = true;
            stop = true;
            break;
          }
          continue;
        }
        check_state(child);
        if (options.max_states != 0 && seen.size() >= options.max_states) {
          result.stats.truncated = true;
          stop = true;
          break;
        }
        frontier.push_back(child);
      }
    }
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
