// Parallel explicit-state exploration: BFS in depth-synchronized waves over
// a sharded visited table, on the shared worker pool (par/pool.h). The design
// goal is *determinism first*: at any worker count the result is
// byte-identical to the serial wave-BFS of mck/explorer.h — same
// states_visited / transitions / depth / truncation, and per property the
// same minimal (depth, canonical-trace) counterexample.
//
// How a wave at depth d runs:
//
//   1. EXPAND   Workers own contiguous slices of the depth-d frontier (the
//               slice split depends only on frontier size and job count).
//               Each successor state is hashed once; states already in the
//               visited table (frozen during this phase, so probes are
//               lock-free) are discarded, the rest are routed by the *top*
//               hash bits to one of 2^shard_bits mutex-striped shards,
//               tagged with a canonical key: (frontier position of the
//               parent, action index). Keys are globally unique and ordered
//               exactly like serial expansion.
//   2. INSERT   Whole shards are assigned to workers, so shard state needs
//               no locking here. Each shard sorts its candidates by key and
//               interns them in that order — first-insert-wins resolves
//               same-wave duplicates identically to serial BFS regardless of
//               which worker routed them. New states are checked against the
//               properties; hits are recorded as (key, property) candidates,
//               not yet committed.
//   3. MERGE    Single-threaded. New states from all shards are ordered by
//               key — reproducing serial discovery order — and accepted up
//               to the max_states cap; violation candidates at or below the
//               cap cutoff are committed in (key, property) order, which
//               makes the chosen counterexample the minimal one and the
//               violations vector identical to serial. The accepted states
//               form the next frontier.
//
// Wall-clock figures (worker busy time, utilization) are telemetry only and
// never feed deterministic outputs.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dist/executor.h"
#include "mck/explorer.h"
#include "mck/intern_table.h"
#include "mck/spill.h"

namespace cnv::mck {

struct ParallelExploreOptions {
  // Search bounds and property handling; `order` is ignored (always BFS).
  ExploreOptions base;
  // Worker count: 0 = hardware concurrency, 1 = inline (no threads).
  int jobs = 0;
  // log2 of the visited-table shard count. Shards are selected by the top
  // hash bits so per-shard tables keep full low-bit entropy.
  int shard_bits = 6;
  // Graceful drain, checked at wave boundaries: once *cancel becomes true
  // the current wave finishes (its merge stays deterministic) and the
  // result returns with stats.truncated unset and `cancelled` set. The
  // atomic shape (rather than ckpt::CancelToken) keeps mck free of a ckpt
  // *runtime-object* dependency; runners pass &token->flag().
  const std::atomic<bool>* cancel = nullptr;
  // Disk-backed frontier staging (mck/spill.h): when set, each wave's
  // candidate runs are written through the ckpt envelope into this
  // directory (owned by the run; files are deleted as they are consumed)
  // instead of held in RAM. Results are byte-identical with spill on or
  // off. Requires trivially copyable State/Action — silently ignored
  // otherwise. jobs == 1 with spill routes through the staged multi-worker
  // path so staging is actually exercised.
  std::string spill_dir;
  // Test seam: observes every spill-run path right after it is written, so
  // tests can truncate or corrupt the file and exercise the recovery path.
  std::function<void(const std::string&)> on_spill_write_for_test;
};

struct ParallelExploreStats {
  // Deterministic: identical at any job count.
  std::uint64_t waves = 0;          // expanded frontier waves
  std::uint32_t shards = 1;
  std::uint64_t largest_shard = 0;  // states in the fullest shard
  // Execution-shape figures; wall-clock based, telemetry only.
  int jobs = 1;
  double worker_busy_seconds = 0;  // summed across workers
  double utilization = 0;          // busy / (jobs * elapsed_wall)
  // Spill accounting. Run counts depend on the worker split, so these are
  // execution-shape too and stay out of ParallelStatsView.
  std::uint64_t spill_runs = 0;       // candidate runs written to disk
  std::uint64_t spill_recovered = 0;  // runs recomputed after a bad load
};

// Canonical deterministic view of ParallelExploreStats — the counterpart of
// mck::DeterministicView(ExploreStats); execution-shape fields (jobs, busy
// time, utilization) are excluded by construction.
struct ParallelStatsView {
  std::uint64_t waves = 0;
  std::uint32_t shards = 1;
  std::uint64_t largest_shard = 0;
  bool operator==(const ParallelStatsView&) const = default;
};

inline ParallelStatsView DeterministicView(const ParallelExploreStats& s) {
  return {s.waves, s.shards, s.largest_shard};
}

inline std::string ToString(const ParallelStatsView& v) {
  return "{waves=" + std::to_string(v.waves) +
         " shards=" + std::to_string(v.shards) +
         " largest_shard=" + std::to_string(v.largest_shard) + "}";
}

inline std::ostream& operator<<(std::ostream& os, const ParallelStatsView& v) {
  return os << ToString(v);
}

namespace internal {

// Candidate record staged between the expand and insert phases (and spilled
// through mck/spill.h). Namespace-scope rather than function-local so the
// spill codec templates can instantiate over it — gcc 12 ICEs on
// function-local classes there.
template <typename State, typename Action>
struct FrontierCandidate {
  State state;
  std::uint64_t hash = 0;
  // (frontier position of the parent, action index + 1) — the canonical
  // serial discovery key.
  std::pair<std::uint64_t, std::uint32_t> key{};
  std::uint64_t parent = ~0ull;
  Action via{};
};

}  // namespace internal

template <typename M>
struct ParallelExploreResult {
  std::vector<Violation<M>> violations;
  ExploreStats stats;
  ParallelExploreStats par;
  // True when options.cancel drained the search at a wave boundary; the
  // figures then cover the completed waves only.
  bool cancelled = false;

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

// Exhaustive BFS from the model's initial state on `exec` (or an executor
// created from options.jobs when none is passed). Deterministic: same output
// at any job count, byte-identical to serial Explore with kBreadthFirst.
template <CheckableModel M>
ParallelExploreResult<M> ParallelExplore(
    const M& model, const PropertySet<typename M::State>& properties,
    const ParallelExploreOptions& options = {},
    dist::Executor* external_exec = nullptr,
    const SnapshotHooks<M>* hooks = nullptr) {
  using State = typename M::State;
  using Action = typename M::Action;

  const auto wall_start = std::chrono::steady_clock::now();

  std::unique_ptr<dist::Executor> owned_exec;
  dist::Executor* exec = external_exec;
  if (exec == nullptr) {
    owned_exec = std::make_unique<dist::Executor>(options.jobs);
    exec = owned_exec.get();
  }
  const int jobs = exec->jobs();
  const std::vector<double> busy_before = exec->BusySeconds();

  const int shard_bits = std::clamp(options.shard_bits, 0, 16);
  const std::uint32_t n_shards = 1u << shard_bits;

  const internal::ReductionEngine<M> red(model, options.base.reduction,
                                         !properties.empty());
  // Spill requires POD state/action images (same bound as snapshot
  // persistence); for other models the option is inert.
  constexpr bool kPodModel = std::is_trivially_copyable_v<State> &&
                             std::is_trivially_copyable_v<Action>;
  const bool spill = kPodModel && !options.spill_dir.empty();

  // Global state ids pack (shard, local index); kNoParent marks the root.
  constexpr std::uint64_t kLocalMask = (1ull << 48) - 1;
  constexpr std::uint64_t kNoParent = ~0ull;

  struct NodeMeta {
    std::uint64_t parent = kNoParent;
    Action via{};
  };
  // Canonical candidate key: (frontier position of the parent, action index
  // + 1). Globally unique within a wave and ordered exactly like serial
  // expansion; deadlock candidates use action index 0 because serial checks
  // deadlock when it starts expanding the parent.
  using Key = std::pair<std::uint64_t, std::uint32_t>;
  using Candidate = internal::FrontierCandidate<State, Action>;
  struct PropHit {
    Key key{};
    std::uint32_t property = 0;
    std::uint64_t id = 0;
  };
  // One flush per (worker, wave): candidates[start, start+count) staged by
  // `worker`, or — when spilling — the file the run was written to plus the
  // frontier slice that produced it (so a damaged file can be re-expanded).
  // A worker's candidates are produced in key order and worker slices are
  // contiguous in frontier position, so iterating runs in worker order
  // visits a shard's candidates in global key order with no sort.
  struct Run {
    int worker = 0;
    std::size_t start = 0;
    std::size_t count = 0;
    std::string file;  // empty = candidates held in RAM
    std::size_t slice_begin = 0;
    std::size_t slice_end = 0;
  };
  struct Shard {
    std::vector<State> states;
    std::vector<NodeMeta> meta;
    InternTable table;
    std::mutex mu;
    std::vector<Candidate> candidates;   // staged this wave (under mu)
    std::vector<Run> runs;               // flush bookkeeping (under mu)
    std::vector<std::uint64_t> new_ids;  // interned this wave, key order
    std::vector<Key> new_keys;
    // Cached hashes of this wave's interned states, aligned with new_keys:
    // the beyond-cap rollback erases table entries with the hash already
    // computed during expand instead of re-hashing the state.
    std::vector<std::uint64_t> new_hashes;
    std::vector<PropHit> hits;  // uncommitted property violations
    // Cached per-state hashes, kept only when snapshot hooks are in play
    // (aligned with `states`, rolled back with it).
    std::vector<std::uint64_t> hashes;
  };

  std::vector<Shard> shards(n_shards);
  {
    const std::size_t hint =
        internal::ReserveHint(options.base.max_states) / n_shards + 8;
    for (Shard& s : shards) {
      s.states.reserve(hint);
      s.meta.reserve(hint);
      s.table.Reserve(hint);
      if (hooks != nullptr) s.hashes.reserve(hint);
    }
  }

  const auto shard_of = [shard_bits](std::uint64_t h) -> std::uint32_t {
    return shard_bits == 0
               ? 0u
               : static_cast<std::uint32_t>(h >> (64 - shard_bits));
  };
  const auto make_id = [](std::uint32_t sh, std::int64_t idx) {
    return (static_cast<std::uint64_t>(sh) << 48) |
           static_cast<std::uint64_t>(idx);
  };
  const auto state_of = [&shards, kLocalMask](std::uint64_t id) -> const State& {
    return shards[static_cast<std::size_t>(id >> 48)]
        .states[static_cast<std::size_t>(id & kLocalMask)];
  };

  auto reconstruct = [&](std::uint64_t id) {
    std::vector<Action> trace;
    for (;;) {
      const NodeMeta& m = shards[static_cast<std::size_t>(id >> 48)]
                              .meta[static_cast<std::size_t>(id & kLocalMask)];
      if (m.parent == kNoParent) break;
      trace.push_back(m.via);
      id = m.parent;
    }
    std::reverse(trace.begin(), trace.end());
    return trace;
  };

  ParallelExploreResult<M> result;
  result.par.shards = n_shards;
  result.par.jobs = jobs;
  // Slot flags as in mck::Explore; property index kDeadlockProp (one past
  // the last property) is "deadlock".
  internal::ViolatedSlots<State> violated(properties);
  const bool fvpp = options.base.first_violation_per_property;
  const std::uint32_t kDeadlockProp =
      static_cast<std::uint32_t>(properties.size());

  auto all_violated = [&] {
    // An empty property set means "build the reachability graph", not "every
    // property is already violated" — keep exploring.
    return fvpp && !properties.empty() &&
           violated.count() == properties.size() &&
           !options.base.detect_deadlock;
  };

  // Snapshot bookkeeping, maintained only when hooks are in play: the global
  // discovery ("rank") order of states and the reverse id -> rank map. Rank
  // order is identical to serial interning order, which is what makes a
  // snapshot resumable by either engine at any job count.
  const bool track = hooks != nullptr;
  std::vector<std::uint64_t> order;         // rank -> id
  std::unordered_map<std::uint64_t, std::uint64_t> rank_of;  // id -> rank
  std::uint64_t depth = 0;

  std::vector<std::uint64_t> frontier;
  std::uint64_t visited = 0;
  if (track && hooks->resume != nullptr) {
    // Rebuild the shard arenas and tables from the snapshot's rank-ordered
    // node list. Routing rank order through shard_of reproduces exactly the
    // per-shard insertion order of the producing run (a shard sees its
    // candidates in global key order), so arenas, table growth and
    // hash_occupancy all come out identical.
    const ExploreSnapshot<M>& snap = *hooks->resume;
    order.reserve(snap.nodes.size());
    for (std::size_t rank = 0; rank < snap.nodes.size(); ++rank) {
      const auto& n = snap.nodes[rank];
      const std::uint32_t sh = shard_of(n.hash);
      Shard& shard = shards[sh];
      const std::uint64_t parent_id =
          n.parent == kNoParentRank ? kNoParent
                                    : order[static_cast<std::size_t>(n.parent)];
      shard.states.push_back(n.state);
      shard.meta.push_back({parent_id, n.via});
      shard.hashes.push_back(n.hash);
      const std::int64_t idx =
          static_cast<std::int64_t>(shard.states.size()) - 1;
      shard.table.Insert(n.hash, idx);
      const std::uint64_t id = make_id(sh, idx);
      order.push_back(id);
      rank_of.emplace(id, rank);
    }
    visited = snap.nodes.size();
    frontier.reserve(snap.frontier.size());
    for (const std::uint64_t r : snap.frontier) {
      frontier.push_back(order[static_cast<std::size_t>(r)]);
    }
    depth = snap.depth;
    result.par.waves = snap.waves;
    result.stats.transitions = snap.transitions;
    result.stats.frontier_peak = snap.frontier_peak;
    result.stats.max_depth_reached = snap.max_depth_reached;
    result.stats.ample_states = snap.ample_states;
    result.violations = snap.violations;
    for (const auto& v : result.violations) violated.MarkName(v.property);
  } else {
    // Intern the initial state and check it (single-threaded).
    State init = red.Canon(model.initial());
    const std::uint64_t h = static_cast<std::uint64_t>(HashValue(init));
    const std::uint32_t sh = shard_of(h);
    Shard& shard = shards[sh];
    shard.states.push_back(std::move(init));
    shard.meta.push_back({kNoParent, Action{}});
    if (track) shard.hashes.push_back(h);
    shard.table.Insert(h, 0);
    const std::uint64_t id = make_id(sh, 0);
    visited = 1;
    if (track) {
      order.push_back(id);
      rank_of.emplace(id, 0);
    }
    for (std::uint32_t p = 0; p < properties.size(); ++p) {
      if (!properties[p].holds(state_of(id))) {
        violated.Mark(p);
        result.violations.push_back({properties[p].name, {}, state_of(id)});
      }
    }
    frontier.push_back(id);
  }

  internal::SnapshotCadence cadence;
  if (track) {
    cadence.every_states = hooks->every_states;
    cadence.every_waves = hooks->every_waves;
    cadence.states_at_last = visited;
  }
  auto capture = [&] {
    ExploreSnapshot<M> snap;
    snap.nodes.resize(order.size());
    for (std::size_t rank = 0; rank < order.size(); ++rank) {
      const std::uint64_t id = order[rank];
      const Shard& shard = shards[static_cast<std::size_t>(id >> 48)];
      const std::size_t local = static_cast<std::size_t>(id & kLocalMask);
      const NodeMeta& m = shard.meta[local];
      snap.nodes[rank] = {shard.states[local], shard.hashes[local],
                          m.parent == kNoParent ? kNoParentRank
                                                : rank_of.at(m.parent),
                          m.via};
    }
    snap.frontier.reserve(frontier.size());
    for (const std::uint64_t id : frontier) {
      snap.frontier.push_back(rank_of.at(id));
    }
    snap.depth = depth;
    snap.transitions = result.stats.transitions;
    snap.frontier_peak = result.stats.frontier_peak;
    snap.max_depth_reached = result.stats.max_depth_reached;
    snap.waves = result.par.waves;
    snap.ample_states = result.stats.ample_states;
    snap.violations = result.violations;
    return snap;
  };
  auto maybe_snapshot = [&] {
    if (track && hooks->on_snapshot != nullptr && !frontier.empty() &&
        !all_violated() && cadence.Due(visited)) {
      hooks->on_snapshot(capture());
    }
  };

  std::vector<std::uint64_t> worker_transitions(
      static_cast<std::size_t>(jobs), 0);
  std::vector<std::uint64_t> worker_ample(static_cast<std::size_t>(jobs), 0);
  // Per-worker successor buffers (enabled and ample actions), reused across
  // every state the worker expands.
  struct ActionBuffers {
    std::vector<Action> enabled;
    std::vector<Action> ample;
  };
  std::vector<ActionBuffers> worker_buf(static_cast<std::size_t>(jobs));
  std::vector<std::vector<std::uint64_t>> worker_deadlocks(
      static_cast<std::size_t>(jobs));
  // Worker-local routing buffers, one per (worker, shard): candidates are
  // staged here during expand and flushed to the shard under its mutex once
  // per worker per wave, so lock traffic is O(jobs * shards), not
  // O(candidates). Buffers keep their capacity across waves.
  std::vector<std::vector<Candidate>> routed(
      static_cast<std::size_t>(jobs) * n_shards);

  bool truncated = false;
  std::vector<std::uint64_t> next_frontier;
  std::vector<std::pair<Key, std::uint64_t>> discovered;

  const auto drain_requested = [&options] {
    return options.cancel != nullptr &&
           options.cancel->load(std::memory_order_relaxed);
  };

  // POR plumbing shared by both paths: `wave_start` holds each shard's
  // arena size when the current wave began, so the C3 freshness predicate
  // means "interned before this wave" even when probed against a table that
  // has since grown — during the frozen expand phase the cutoff is a no-op,
  // on the jobs==1 fast path (which interns mid-wave) and in the
  // spill-recovery post-pass it restores exact pre-wave semantics. This is
  // the same predicate the serial engine evaluates, which keeps reduced
  // exploration byte-identical at any job count.
  std::vector<std::int64_t> wave_start(n_shards, 0);
  const auto mark_wave_start = [&] {
    if (!red.por()) return;
    for (std::uint32_t sh = 0; sh < n_shards; ++sh) {
      wave_start[sh] = static_cast<std::int64_t>(shards[sh].states.size());
    }
  };
  const auto is_old_canon = [&](const State& t) {
    const std::uint64_t h = static_cast<std::uint64_t>(HashValue(t));
    const std::uint32_t sh = shard_of(h);
    const Shard& shard = shards[sh];
    const std::int64_t found = shard.table.Find(h, [&](std::int64_t i) {
      return shard.states[static_cast<std::size_t>(i)] == t;
    });
    return found >= 0 && found < wave_start[sh];
  };

  if (jobs == 1 && !spill) {
    // Serial fast path: the wave algorithm of mck::Explore run directly over
    // the sharded storage — no staging, no merge, single probe per
    // successor. Byte-identical to the multi-worker path by construction
    // (both reproduce serial wave order), including hash_occupancy, since
    // the shard tables end up with the same content.
    ActionBuffers& buf = worker_buf.front();
    while (!frontier.empty() && !all_violated()) {
      if (drain_requested()) {
        result.cancelled = true;
        break;
      }
      result.stats.frontier_peak =
          std::max(result.stats.frontier_peak,
                   static_cast<std::uint64_t>(frontier.size()));
      result.stats.max_depth_reached =
          std::max(result.stats.max_depth_reached, depth);
      if (options.base.max_depth != 0 && depth >= options.base.max_depth) {
        truncated = true;
        break;
      }
      ++result.par.waves;
      mark_wave_start();
      next_frontier.clear();
      for (const std::uint64_t parent_id : frontier) {
        // Re-fetch the parent state on every use: a shard arena may
        // reallocate while children are interned.
        model.enabled(state_of(parent_id), buf.enabled);
        if (buf.enabled.empty()) {
          if (options.base.detect_deadlock &&
              !violated.Violated(kDeadlockProp) &&
              !internal::IsFinal(model, state_of(parent_id))) {
            violated.Mark(kDeadlockProp);
            result.violations.push_back(
                {"deadlock", reconstruct(parent_id), state_of(parent_id)});
          }
          continue;
        }
        const std::vector<Action>* expand = &buf.enabled;
        if (red.por() &&
            red.SelectAmple(model, state_of(parent_id), buf.enabled,
                            is_old_canon, buf.ample)) {
          expand = &buf.ample;
          ++result.stats.ample_states;
        }
        for (const Action& a : *expand) {
          ++result.stats.transitions;
          State next = red.Canon(model.apply(state_of(parent_id), a));
          const std::uint64_t h = static_cast<std::uint64_t>(HashValue(next));
          const std::uint32_t sh = shard_of(h);
          Shard& shard = shards[sh];
          const std::int64_t found = shard.table.Find(h, [&](std::int64_t i) {
            return shard.states[static_cast<std::size_t>(i)] == next;
          });
          if (found >= 0) continue;
          if (options.base.max_states != 0 &&
              visited >= options.base.max_states) {
            truncated = true;
            continue;
          }
          shard.states.push_back(std::move(next));
          shard.meta.push_back({parent_id, a});
          if (track) shard.hashes.push_back(h);
          const std::int64_t idx =
              static_cast<std::int64_t>(shard.states.size()) - 1;
          shard.table.Insert(h, idx);
          ++visited;
          const std::uint64_t id = make_id(sh, idx);
          if (track) {
            rank_of.emplace(id, order.size());
            order.push_back(id);
          }
          for (std::uint32_t p = 0; p < properties.size(); ++p) {
            if (fvpp && violated.Violated(p)) continue;
            if (!properties[p].holds(state_of(id))) {
              violated.Mark(p);
              result.violations.push_back(
                  {properties[p].name, reconstruct(id), state_of(id)});
            }
          }
          next_frontier.push_back(id);
        }
      }
      frontier.swap(next_frontier);
      ++depth;
      if (truncated) break;
      maybe_snapshot();
    }
  } else {
  // Successor computation for frontier positions [begin, end), shared by the
  // expand phase and spill-run recovery. Candidates that survive the frozen
  // visited-table probe are routed through `sink(sh, candidate)`. `count`
  // gates the transition/deadlock/ample accounting so a recovery
  // re-expansion never double-counts figures phase 1 already recorded.
  auto expand_range = [&](int w, std::size_t begin, std::size_t end,
                          ActionBuffers& buf, bool count, auto&& sink) {
    const std::size_t wi = static_cast<std::size_t>(w);
    for (std::size_t pos = begin; pos < end; ++pos) {
      const State& s = state_of(frontier[pos]);
      model.enabled(s, buf.enabled);
      if (buf.enabled.empty()) {
        if (count && options.base.detect_deadlock &&
            !internal::IsFinal(model, s)) {
          worker_deadlocks[wi].push_back(pos);
        }
        continue;
      }
      const std::vector<Action>* expand = &buf.enabled;
      if (red.por() &&
          red.SelectAmple(model, s, buf.enabled, is_old_canon, buf.ample)) {
        expand = &buf.ample;
        if (count) ++worker_ample[wi];
      }
      for (std::uint32_t ai = 0;
           ai < static_cast<std::uint32_t>(expand->size()); ++ai) {
        if (count) ++worker_transitions[wi];
        State next = red.Canon(model.apply(s, (*expand)[ai]));
        const std::uint64_t h = static_cast<std::uint64_t>(HashValue(next));
        const std::uint32_t sh = shard_of(h);
        Shard& shard = shards[sh];
        // The table is frozen during expand, so this probe needs no lock;
        // it filters duplicates from earlier waves. (Recovery probes
        // single-threaded on grown tables: it then also discards same-wave
        // inserts, which the insert-phase dedup would skip anyway.)
        const std::int64_t seen = shard.table.Find(h, [&](std::int64_t i) {
          return shard.states[static_cast<std::size_t>(i)] == next;
        });
        if (seen >= 0) continue;
        sink(sh, Candidate{std::move(next), h, Key{pos, ai + 1},
                           frontier[pos], (*expand)[ai]});
      }
    }
  };
  while (!frontier.empty() && !all_violated()) {
    if (drain_requested()) {
      result.cancelled = true;
      break;
    }
    result.stats.frontier_peak =
        std::max(result.stats.frontier_peak,
                 static_cast<std::uint64_t>(frontier.size()));
    result.stats.max_depth_reached =
        std::max(result.stats.max_depth_reached, depth);
    if (options.base.max_depth != 0 && depth >= options.base.max_depth) {
      truncated = true;
      break;
    }
    ++result.par.waves;
    mark_wave_start();

    // --- 1. expand -------------------------------------------------------
    for (int w = 0; w < jobs; ++w) {
      worker_transitions[static_cast<std::size_t>(w)] = 0;
      worker_ample[static_cast<std::size_t>(w)] = 0;
      worker_deadlocks[static_cast<std::size_t>(w)].clear();
    }
    exec->ParallelFor(
        frontier.size(), [&](int w, std::size_t begin, std::size_t end) {
          const std::size_t wi = static_cast<std::size_t>(w);
          std::vector<Candidate>* local = &routed[wi * n_shards];
          expand_range(w, begin, end, worker_buf[wi], true,
                       [&](std::uint32_t sh, Candidate&& c) {
                         local[sh].push_back(std::move(c));
                       });
          // Flush this worker's staged candidates: to disk when spilling,
          // otherwise into the shard's staging area, one lock per shard.
          for (std::uint32_t sh = 0; sh < n_shards; ++sh) {
            if (local[sh].empty()) continue;
            Shard& shard = shards[sh];
            if (spill) {
              if constexpr (kPodModel) {
                const std::string path = options.spill_dir + "/wave" +
                                         std::to_string(depth) + "_s" +
                                         std::to_string(sh) + "_j" +
                                         std::to_string(w) + ".run";
                // A failed write is not fatal: the insert phase classifies
                // the file via LoadStatus and recovers by re-expansion.
                (void)SaveFrontierRun(path, FrontierRunDigest(depth, sh, w),
                                      local[sh]);
                if (options.on_spill_write_for_test) {
                  options.on_spill_write_for_test(path);
                }
                std::lock_guard<std::mutex> lock(shard.mu);
                shard.runs.push_back(
                    {w, 0, local[sh].size(), path, begin, end});
                local[sh].clear();
              }
            } else {
              std::lock_guard<std::mutex> lock(shard.mu);
              shard.runs.push_back({w, shard.candidates.size(),
                                    local[sh].size(), std::string(), begin,
                                    end});
              shard.candidates.insert(
                  shard.candidates.end(),
                  std::make_move_iterator(local[sh].begin()),
                  std::make_move_iterator(local[sh].end()));
              local[sh].clear();
            }
          }
        });
    for (int w = 0; w < jobs; ++w) {
      result.stats.transitions += worker_transitions[static_cast<std::size_t>(w)];
      result.stats.ample_states += worker_ample[static_cast<std::size_t>(w)];
    }
    if (spill) {
      for (const Shard& shard : shards) {
        for (const Run& run : shard.runs) {
          if (!run.file.empty()) ++result.par.spill_runs;
        }
      }
    }

    // --- 2. insert -------------------------------------------------------
    // Which properties still need checking this wave (pre-wave snapshot; the
    // merge phase resolves same-wave ties by key).
    std::vector<char> already_violated(properties.size(), 0);
    for (std::uint32_t p = 0; p < properties.size(); ++p) {
      already_violated[p] = fvpp && violated.Violated(p);
    }
    // Interns one surviving candidate into its shard: arena append, table
    // insert, wave bookkeeping (new_ids/new_keys/new_hashes) and property
    // checks. Runs under shard ownership — the insert ParallelFor assigns
    // whole shards to workers, and the recovery post-pass is
    // single-threaded.
    auto process_candidate = [&](Shard& shard, std::size_t si, Candidate& c) {
      const std::int64_t seen = shard.table.Find(c.hash, [&](std::int64_t i) {
        return shard.states[static_cast<std::size_t>(i)] == c.state;
      });
      if (seen >= 0) return;  // same-wave duplicate: first key wins
      shard.states.push_back(std::move(c.state));
      shard.meta.push_back({c.parent, c.via});
      if (track) shard.hashes.push_back(c.hash);
      const std::int64_t idx =
          static_cast<std::int64_t>(shard.states.size()) - 1;
      shard.table.Insert(c.hash, idx);
      const std::uint64_t id = make_id(static_cast<std::uint32_t>(si), idx);
      shard.new_ids.push_back(id);
      shard.new_keys.push_back(c.key);
      shard.new_hashes.push_back(c.hash);
      const State& s = shard.states[static_cast<std::size_t>(idx)];
      for (std::uint32_t p = 0;
           p < static_cast<std::uint32_t>(properties.size()); ++p) {
        if (already_violated[p]) continue;
        if (!properties[p].holds(s)) shard.hits.push_back({c.key, p, id});
      }
    };
    // Processes shard.runs[first..] in order, consuming (and deleting)
    // spill files as it goes. Returns runs.size() when done, or the index
    // of the first run whose spill file failed to load — processing stops
    // there so key order is preserved across the recovery.
    auto process_runs = [&](Shard& shard, std::size_t si,
                            std::size_t first) -> std::size_t {
      for (std::size_t ri = first; ri < shard.runs.size(); ++ri) {
        const Run& run = shard.runs[ri];
        if (run.file.empty()) {
          for (std::size_t ci = run.start; ci < run.start + run.count; ++ci) {
            process_candidate(shard, si, shard.candidates[ci]);
          }
          continue;
        }
        if constexpr (kPodModel) {
          std::vector<Candidate> loaded;
          if (LoadFrontierRun(run.file,
                              FrontierRunDigest(
                                  depth, static_cast<std::uint32_t>(si),
                                  run.worker),
                              &loaded) != ckpt::LoadStatus::kOk) {
            return ri;
          }
          std::remove(run.file.c_str());
          for (Candidate& c : loaded) process_candidate(shard, si, c);
        }
      }
      return shard.runs.size();
    };
    std::mutex deferred_mu;
    std::vector<std::pair<std::size_t, std::size_t>> deferred;
    exec->ParallelFor(n_shards, [&](int, std::size_t begin, std::size_t end) {
      for (std::size_t si = begin; si < end; ++si) {
        Shard& shard = shards[si];
        // Visit candidates in global key order: runs sorted by worker id
        // (worker slices are ascending in frontier position, and each run
        // is produced in key order).
        std::sort(shard.runs.begin(), shard.runs.end(),
                  [](const Run& a, const Run& b) { return a.worker < b.worker; });
        const std::size_t stop = process_runs(shard, si, 0);
        if (stop < shard.runs.size()) {
          // A spill run failed to load. Defer this shard: recovery
          // re-expands frontier slices, which probes *other* shards'
          // tables — racy while they are still inserting, so it has to
          // wait for the barrier below.
          std::lock_guard<std::mutex> lock(deferred_mu);
          deferred.emplace_back(si, stop);
        } else {
          shard.candidates.clear();
          shard.runs.clear();
        }
      }
    });
    // Spill recovery post-pass (single-threaded): for each damaged run,
    // re-expand the frontier slice that produced it, keep only candidates
    // routed to the deferred shard, and resume run processing behind it.
    // The wave_start cutoff makes the C3 freshness probe ignore this wave's
    // inserts, and phase 1 already counted transitions/deadlocks/ample, so
    // every deterministic figure is unchanged.
    if (!deferred.empty()) {
      std::sort(deferred.begin(), deferred.end());
      for (const auto& [si, first] : deferred) {
        Shard& shard = shards[si];
        std::size_t ri = first;
        while (ri < shard.runs.size()) {
          const std::size_t stop = process_runs(shard, si, ri);
          if (stop >= shard.runs.size()) break;
          const Run& bad = shard.runs[stop];
          std::vector<Candidate> rebuilt;
          ActionBuffers recovery_buf;
          expand_range(bad.worker, bad.slice_begin, bad.slice_end,
                       recovery_buf, false,
                       [&](std::uint32_t sh, Candidate&& c) {
                         if (sh == static_cast<std::uint32_t>(si)) {
                           rebuilt.push_back(std::move(c));
                         }
                       });
          for (Candidate& c : rebuilt) process_candidate(shard, si, c);
          std::remove(bad.file.c_str());
          ++result.par.spill_recovered;
          ri = stop + 1;
        }
        shard.candidates.clear();
        shard.runs.clear();
      }
    }

    // --- 3. merge --------------------------------------------------------
    discovered.clear();
    for (Shard& shard : shards) {
      for (std::size_t i = 0; i < shard.new_ids.size(); ++i) {
        discovered.emplace_back(shard.new_keys[i], shard.new_ids[i]);
      }
    }
    std::sort(discovered.begin(), discovered.end());

    // max_states acts in discovery-key order, exactly like serial interning.
    std::size_t accept = discovered.size();
    if (options.base.max_states != 0 &&
        visited + discovered.size() > options.base.max_states) {
      accept = static_cast<std::size_t>(options.base.max_states - visited);
      truncated = true;
    }
    visited += accept;
    const bool has_cutoff = accept < discovered.size();
    const Key cutoff = accept > 0 ? discovered[accept - 1].first : Key{0, 0};

    // Roll back beyond-cap states: serial interning never admits them, so
    // drop them from the shard arenas and tables to keep every reported
    // figure (hash_occupancy, largest_shard) identical at any job count.
    // A shard's wave entries are appended in ascending key order, so the
    // rejects are a suffix of its arena.
    if (has_cutoff) {
      for (Shard& shard : shards) {
        const std::size_t keep = static_cast<std::size_t>(
            std::upper_bound(shard.new_keys.begin(), shard.new_keys.end(),
                             cutoff) -
            shard.new_keys.begin());
        while (shard.new_keys.size() > keep) {
          // Erase by the hash cached at insert time — re-hashing the state
          // here would double the hash work for every beyond-cap state.
          shard.table.Erase(
              shard.new_hashes.back(),
              static_cast<std::int64_t>(shard.states.size()) - 1);
          shard.states.pop_back();
          shard.meta.pop_back();
          if (track) shard.hashes.pop_back();
          shard.new_keys.pop_back();
          shard.new_ids.pop_back();
          shard.new_hashes.pop_back();
        }
      }
    }
    for (Shard& shard : shards) {
      shard.new_ids.clear();
      shard.new_keys.clear();
      shard.new_hashes.clear();
    }

    // Commit violation candidates in (key, property) order — the minimal
    // (depth, canonical-trace) counterexample per property, and the same
    // violations-vector order as serial.
    struct VCand {
      Key key{};
      std::uint32_t property = 0;
      std::uint64_t id = 0;
    };
    std::vector<VCand> vcands;
    if (options.base.detect_deadlock && !violated.Violated(kDeadlockProp)) {
      for (const auto& positions : worker_deadlocks) {
        for (const std::uint64_t pos : positions) {
          vcands.push_back({Key{pos, 0}, kDeadlockProp, frontier[pos]});
        }
      }
    }
    for (Shard& shard : shards) {
      for (const PropHit& hit : shard.hits) {
        // States beyond the cap were never interned serially, so their
        // property checks never happened.
        if (has_cutoff && (accept == 0 || cutoff < hit.key)) continue;
        vcands.push_back({hit.key, hit.property, hit.id});
      }
      shard.hits.clear();
    }
    std::sort(vcands.begin(), vcands.end(),
              [](const VCand& a, const VCand& b) {
                return std::tie(a.key, a.property) < std::tie(b.key, b.property);
              });
    for (const VCand& c : vcands) {
      if (c.property == kDeadlockProp) {
        if (violated.Violated(kDeadlockProp)) continue;
        violated.Mark(kDeadlockProp);
        result.violations.push_back(
            {"deadlock", reconstruct(c.id), state_of(c.id)});
        continue;
      }
      if (fvpp && violated.Violated(c.property)) continue;
      violated.Mark(c.property);
      result.violations.push_back({properties[c.property].name,
                                   reconstruct(c.id), state_of(c.id)});
    }

    next_frontier.clear();
    next_frontier.reserve(accept);
    for (std::size_t i = 0; i < accept; ++i) {
      next_frontier.push_back(discovered[i].second);
    }
    if (track) {
      for (std::size_t i = 0; i < accept; ++i) {
        rank_of.emplace(discovered[i].second, order.size());
        order.push_back(discovered[i].second);
      }
    }
    frontier.swap(next_frontier);
    ++depth;
    if (truncated) break;
    maybe_snapshot();
  }
  }

  result.stats.states_visited = visited;
  result.stats.truncated = truncated;
  // Orbit accounting: each canonical representative stands for its whole
  // permutation orbit. Recomputed over the final arenas (rollback keeps them
  // equal to the visited set), exactly like the serial engine.
  if (red.orbits()) {
    for (const Shard& shard : shards) {
      for (const State& s : shard.states) {
        result.stats.represented_states += red.OrbitSize(s);
      }
    }
  } else {
    result.stats.represented_states = visited;
  }
  std::size_t table_size = 0;
  std::size_t table_capacity = 0;
  for (const Shard& shard : shards) {
    table_size += shard.table.size();
    table_capacity += shard.table.capacity();
    result.par.largest_shard =
        std::max(result.par.largest_shard,
                 static_cast<std::uint64_t>(shard.table.size()));
  }
  result.stats.hash_occupancy =
      table_capacity == 0
          ? 0.0
          : static_cast<double>(table_size) / static_cast<double>(table_capacity);
  result.stats.elapsed_wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  const std::vector<double> busy_after = exec->BusySeconds();
  for (std::size_t w = 0; w < busy_after.size(); ++w) {
    result.par.worker_busy_seconds +=
        busy_after[w] - (w < busy_before.size() ? busy_before[w] : 0.0);
  }
  if (result.stats.elapsed_wall_seconds > 0 && jobs > 0) {
    result.par.utilization =
        std::min(1.0, result.par.worker_busy_seconds /
                          (static_cast<double>(jobs) *
                           result.stats.elapsed_wall_seconds));
  }
  return result;
}

}  // namespace cnv::mck
