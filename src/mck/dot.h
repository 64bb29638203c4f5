// Graphviz export of a model's reachable state graph — handy for inspecting
// small screening models (e.g. the Figure 6 RRC transitions) and for
// documenting counterexample neighbourhoods.
#pragma once

#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "mck/explorer.h"
#include "mck/intern_table.h"

namespace cnv::mck {

template <typename State>
struct DotOptions {
  std::size_t max_states = 500;
  // Node label; defaults to the node's discovery index.
  std::function<std::string(const State&)> label;
  // Nodes for which this returns true are drawn filled red (e.g. property
  // violations).
  std::function<bool(const State&)> highlight;
};

namespace internal {

inline std::string DotEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace internal

template <CheckableModel M>
std::string ExportDot(const M& model,
                      const DotOptions<typename M::State>& options = {}) {
  using State = typename M::State;
  using Action = typename M::Action;

  // Cached-hash visited table over arena indices, pre-sized from the export
  // bound: probe by (hash, value) first, append only on actual insertion.
  std::vector<State> states;
  states.reserve(options.max_states);
  InternTable index(options.max_states);

  std::string edges;
  std::queue<std::int64_t> frontier;
  bool truncated = false;

  auto intern = [&](State s) -> std::pair<std::int64_t, bool> {
    const std::uint64_t h = static_cast<std::uint64_t>(HashValue(s));
    const std::int64_t found = index.Find(h, [&](std::int64_t i) {
      return states[static_cast<std::size_t>(i)] == s;
    });
    if (found >= 0) return {found, false};
    states.push_back(std::move(s));
    const auto idx = static_cast<std::int64_t>(states.size()) - 1;
    index.Insert(h, idx);
    return {idx, true};
  };

  frontier.push(intern(model.initial()).first);
  std::vector<Action> actions;
  while (!frontier.empty() && !truncated) {
    const auto idx = frontier.front();
    frontier.pop();
    model.enabled(states[static_cast<std::size_t>(idx)], actions);
    for (const Action& a : actions) {
      auto [child, inserted] =
          intern(model.apply(states[static_cast<std::size_t>(idx)], a));
      edges += "  n" + std::to_string(idx) + " -> n" + std::to_string(child) +
               " [label=\"" + internal::DotEscape(model.describe(a)) +
               "\"];\n";
      if (inserted) {
        if (states.size() >= options.max_states) {
          truncated = true;
          break;
        }
        frontier.push(child);
      }
    }
  }

  std::string out = "digraph model {\n  rankdir=LR;\n  node [shape=box];\n";
  for (std::size_t i = 0; i < states.size(); ++i) {
    out += "  n" + std::to_string(i) + " [label=\"";
    out += options.label ? internal::DotEscape(options.label(states[i]))
                         : ("s" + std::to_string(i));
    out += "\"";
    if (i == 0) out += ", style=bold";
    if (options.highlight && options.highlight(states[i])) {
      out += ", style=filled, fillcolor=lightcoral";
    }
    out += "];\n";
  }
  out += edges;
  if (truncated) out += "  // truncated at max_states\n";
  out += "}\n";
  return out;
}

}  // namespace cnv::mck
