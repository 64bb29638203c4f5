// Recoverability checking: a possibility-flavoured complement to the
// invariant properties. `CheckRecoverable(m, pending, goal)` verifies that
// from EVERY reachable state satisfying `pending` there exists SOME path to
// a state satisfying `goal` — i.e. the obligation can always still be
// discharged. A violation is a reachable state from which the goal is
// unreachable: the device is *permanently* stuck, not just transiently.
//
// This separates the paper's two flavours of badness: S3's stuck-in-3G
// state is recoverable (ending the data session frees the device; the harm
// is the delay, caught by the MM_OK invariant), while e.g. exhausting the
// attach retries with no recovery procedure is a genuine dead end.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "mck/explorer.h"
#include "mck/intern_table.h"

namespace cnv::mck {

template <typename M>
struct RecoverabilityResult {
  bool holds = true;
  // When violated: a trace from the initial state to a pending state from
  // which no goal state is reachable.
  std::vector<typename M::Action> trace;
  typename M::State state{};  // the unrecoverable state
  ExploreStats stats;
};

template <CheckableModel M>
RecoverabilityResult<M> CheckRecoverable(
    const M& model,
    const std::function<bool(const typename M::State&)>& pending,
    const std::function<bool(const typename M::State&)>& goal,
    const ExploreOptions& options = {}) {
  using State = typename M::State;
  using Action = typename M::Action;

  RecoverabilityResult<M> result;

  // Forward exploration: build the full reachable graph with reverse edges.
  std::vector<State> states;
  std::vector<std::vector<std::int64_t>> reverse_edges;
  struct Meta {
    std::int64_t parent = -1;
    Action via{};
  };
  std::vector<Meta> meta;

  // Cached-hash visited table over arena indices: probe by (hash, value)
  // before appending, so duplicates never churn the arena and growth
  // rehashes never recompute HashValue.
  const std::size_t hint = internal::ReserveHint(options.max_states);
  states.reserve(hint);
  meta.reserve(hint);
  reverse_edges.reserve(hint);
  InternTable index(hint);

  auto intern = [&](State s, std::int64_t parent,
                    const Action* via) -> std::pair<std::int64_t, bool> {
    const std::uint64_t h = static_cast<std::uint64_t>(HashValue(s));
    const std::int64_t found = index.Find(h, [&](std::int64_t i) {
      return states[static_cast<std::size_t>(i)] == s;
    });
    if (found >= 0) return {found, false};
    states.push_back(std::move(s));
    meta.push_back({parent, via != nullptr ? *via : Action{}});
    const auto idx = static_cast<std::int64_t>(states.size()) - 1;
    index.Insert(h, idx);
    reverse_edges.emplace_back();
    return {idx, true};
  };

  std::queue<std::int64_t> frontier;
  {
    auto [idx, ok] = intern(model.initial(), -1, nullptr);
    (void)ok;
    frontier.push(idx);
  }
  bool truncated = false;
  std::vector<Action> actions;
  while (!frontier.empty()) {
    const auto idx = frontier.front();
    frontier.pop();
    model.enabled(states[static_cast<std::size_t>(idx)], actions);
    for (const Action& a : actions) {
      ++result.stats.transitions;
      auto [child, inserted] =
          intern(model.apply(states[static_cast<std::size_t>(idx)], a), idx,
                 &a);
      reverse_edges[static_cast<std::size_t>(child)].push_back(idx);
      if (!inserted) continue;
      if (options.max_states != 0 && states.size() >= options.max_states) {
        truncated = true;
        break;
      }
      frontier.push(child);
    }
    if (truncated) break;
  }
  result.stats.states_visited = states.size();
  result.stats.truncated = truncated;

  // Backward closure from the goal states over reverse edges.
  std::vector<char> can_reach_goal(states.size(), 0);
  std::queue<std::int64_t> back;
  for (std::size_t i = 0; i < states.size(); ++i) {
    if (goal(states[i])) {
      can_reach_goal[i] = 1;
      back.push(static_cast<std::int64_t>(i));
    }
  }
  while (!back.empty()) {
    const auto idx = back.front();
    back.pop();
    for (const auto pred : reverse_edges[static_cast<std::size_t>(idx)]) {
      if (!can_reach_goal[static_cast<std::size_t>(pred)]) {
        can_reach_goal[static_cast<std::size_t>(pred)] = 1;
        back.push(pred);
      }
    }
  }

  // Any pending state outside the closure is unrecoverable.
  for (std::size_t i = 0; i < states.size(); ++i) {
    if (pending(states[i]) && !can_reach_goal[i]) {
      result.holds = false;
      result.state = states[i];
      std::int64_t idx = static_cast<std::int64_t>(i);
      while (idx >= 0 && meta[static_cast<std::size_t>(idx)].parent >= 0) {
        result.trace.push_back(meta[static_cast<std::size_t>(idx)].via);
        idx = meta[static_cast<std::size_t>(idx)].parent;
      }
      std::reverse(result.trace.begin(), result.trace.end());
      break;
    }
  }
  return result;
}

}  // namespace cnv::mck
