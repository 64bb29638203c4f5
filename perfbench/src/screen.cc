// screen: exhaustive single-threaded mck::Explore of every screening model
// configuration under the four reduction modes (none, POR, symmetry,
// POR+symmetry). Configurations: model::CombinedModel at N = 1..4 UEs x
// fix_keep_context x fix_reactivate_bearer x fix_queue_call x switch_back,
// plus the S1-S4 slices with and without their §8 remedies. The sweep has
// no random input; the seed fixes the order the explorations run in.
//
// Gates, against the unreduced exploration of the same config (set-up):
// equal violated-property sets in every mode, and under symmetry alone
// represented_states equal to the unreduced states_visited.
#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "bench.h"
#include "mck/explorer.h"
#include "model/combined_model.h"
#include "model/s1_model.h"
#include "model/s2_model.h"
#include "model/s3_model.h"
#include "model/s4_model.h"

namespace perfbench {
namespace {

struct Explored {
  cnv::mck::ExploreStats stats;
  std::set<std::string> violated;
};

struct Config {
  std::string name;
  std::function<Explored(const cnv::mck::ReductionOptions&)> explore;
};

template <typename M>
Config MakeConfig(std::string name, M model) {
  const auto explore = [model](const cnv::mck::ReductionOptions& red) {
    cnv::mck::ExploreOptions opt;
    opt.reduction = red;
    const auto res = cnv::mck::Explore(model, model.Properties(), opt);
    Explored out{res.stats, {}};
    for (const auto& v : res.violations) out.violated.insert(v.property);
    return out;
  };
  return Config{std::move(name), explore};
}

std::vector<Config> BuildConfigs(bool tiny) {
  namespace model = cnv::model;
  std::vector<Config> out;
  for (int ues = 1; ues <= (tiny ? 2 : 4); ++ues) {
    for (int flags = 0; flags < (tiny ? 2 : 16); ++flags) {
      model::CombinedModel::Config c;
      c.ues = ues;
      c.fix_keep_context = (flags & 1) != 0;
      c.fix_reactivate_bearer = (flags & 2) != 0;
      c.fix_queue_call = (flags & 4) != 0;
      c.switch_back = (flags & 8) == 0;
      out.push_back(MakeConfig("combined/n" + std::to_string(ues) + "/f" +
                                   std::to_string(flags),
                               model::CombinedModel(c)));
    }
  }
  for (const bool fix : {false, true}) {
    const std::string suffix = fix ? "/remedied" : "";
    model::S1Model::Config s1;
    s1.fix_keep_context = s1.fix_reactivate_bearer = fix;
    out.push_back(MakeConfig("s1" + suffix, model::S1Model(s1)));
    model::S2Model::Config s2;
    s2.reliable_shim = fix;
    out.push_back(MakeConfig("s2" + suffix, model::S2Model(s2)));
    for (const auto policy : {model::SwitchPolicy::kCellReselection,
                              model::SwitchPolicy::kReleaseWithRedirect}) {
      model::S3Model::Config s3;
      s3.policy = policy;
      s3.fix_csfb_tag = fix;
      out.push_back(MakeConfig("s3/" + model::ToString(policy) + suffix,
                               model::S3Model(s3)));
    }
    model::S4Model::Config s4;
    s4.decoupled = fix;
    out.push_back(MakeConfig("s4" + suffix, model::S4Model(s4)));
  }
  return out;
}

constexpr int kModes = 4;
const char* const kModeName[kModes] = {"full", "por", "sym", "por_sym"};

cnv::mck::ReductionOptions Mode(int m) {
  cnv::mck::ReductionOptions r;
  r.por = (m & 1) != 0;
  r.symmetry = (m & 2) != 0;
  return r;
}

struct Sweep {
  double wall_s = 0;
  double mode_s[kModes] = {};
  std::uint64_t states = 0, transitions = 0, ample = 0, represented = 0,
                frontier_peak = 0;
};

}  // namespace

Result RunScreen(const Options& o) {
  Result r;
  // Set-up: the configs, their unreduced reference explorations and the
  // seed-drawn sweep order.
  struct Inputs {
    std::vector<Config> configs;
    std::vector<Explored> reference;
    std::vector<std::pair<std::size_t, int>> order;  // (config, mode)
  };
  const auto make_inputs = [&] {
    Inputs in;
    in.configs = BuildConfigs(o.tiny);
    for (const Config& c : in.configs) {
      in.reference.push_back(c.explore(Mode(0)));
    }
    for (std::size_t c = 0; c < in.configs.size(); ++c) {
      for (int m = 0; m < kModes; ++m) in.order.emplace_back(c, m);
    }
    std::uint64_t state = o.seed;
    for (std::size_t i = in.order.size(); i > 1; --i) {
      std::swap(in.order[i - 1], in.order[SplitMix64(state) % i]);
    }
    return in;
  };
  SetupTimer setup;
  const Inputs inputs = setup.Time(make_inputs);
  const std::vector<Config>& configs = inputs.configs;
  const std::vector<Explored>& reference = inputs.reference;

  // Exploration latency quantiles per block of one sweep.
  BlockQuantiles explore_us(inputs.order.size());
  std::vector<Sweep> untraced, traced;
  const double deadline = setup.PassClock() + o.seconds;
  for (int pass = 0;
       pass < (o.trace ? 4 : 1) || setup.PassClock() < deadline; ++pass) {
    const bool tracing = o.trace && pass % 2 == 1;
    setup.Between(make_inputs);
    trace::Enable(tracing);
    Sweep sw;
    OnFreshThread([&] {
      const double t0 = NowSeconds();
      for (const auto& [c, m] : inputs.order) {
        const std::uint64_t e0 = NowNs();
        Explored e;
        {
          trace::Span span("mck.explore", c * kModes + m);
          e = configs[c].explore(Mode(m));
        }
        const double dt = static_cast<double>(NowNs() - e0) * 1e-9;
        if (!tracing) explore_us.Add(dt * 1e6);
        sw.mode_s[m] += dt;
        sw.states += e.stats.states_visited;
        sw.transitions += e.stats.transitions;
        sw.ample += e.stats.ample_states;
        sw.represented += e.stats.represented_states;
        sw.frontier_peak = std::max(sw.frontier_peak, e.stats.frontier_peak);
        const Explored& ref = reference[c];
        const bool ok =
            !e.stats.truncated && e.violated == ref.violated &&
            (m != 2 ||
             e.stats.represented_states == ref.stats.states_visited) &&
            (m != 0 || e.stats.states_visited == ref.stats.states_visited);
        r.Check(ok, [&] {
          return configs[c].name + " " + kModeName[m] + ": " +
                 std::to_string(e.violated.size()) + " violated props (ref " +
                 std::to_string(ref.violated.size()) + "), represented " +
                 std::to_string(e.stats.represented_states) + " (ref states " +
                 std::to_string(ref.stats.states_visited) + ")";
        });
      }
      sw.wall_s = NowSeconds() - t0;
    });
    trace::Enable(false);
    (tracing ? traced : untraced).push_back(sw);
  }

  // Every sweep visits the same states; the rate is per sweep, over the
  // median sweep.
  std::vector<double> sweep_s;
  for (const Sweep& s : untraced) sweep_s.push_back(s.wall_s);
  const double pass_s = Median(sweep_s);
  const double per_s = static_cast<double>(untraced.front().states) / pass_s;
  r.Set("throughput_per_s", per_s, "1/s");
  r.Set("latency_p50_us", explore_us.P50(), "us");
  r.Set("latency_p90_us", explore_us.P90(), "us");
  r.Set("setup_s", setup.Seconds(), "s");
  r.Name("setup_s", setup.Seconds(), "s");
  r.Name("screen_sweep_s", pass_s, "s");
  r.Name("states_per_s", per_s, "1/s");
  r.Name("explore_p50_us", explore_us.P50(), "us");
  r.Name("explore_p90_us", explore_us.P90(), "us");
  r.Name("explore_p99_us", explore_us.P99(), "us");
  r.Info("samples", "{\"sweeps\": " + std::to_string(sweep_s.size()) +
                        ", \"explorations\": " +
                        std::to_string(explore_us.count()) +
                        ", \"setups\": " + std::to_string(setup.samples()) +
                        "}");
  r.Info("shape", "{\"configs\": " + std::to_string(configs.size()) +
                      ", \"modes\": " + std::to_string(kModes) +
                      ", \"threads\": 1}");

  if (o.trace && !traced.empty()) {
    const Sweep& one = traced.front();  // counts are identical per sweep
    r.Set("mck.states_visited", static_cast<double>(one.states), "count");
    r.Set("mck.transitions", static_cast<double>(one.transitions), "count");
    r.Set("mck.ample_states", static_cast<double>(one.ample), "count");
    r.Set("mck.represented_states", static_cast<double>(one.represented),
          "count");
    r.Set("mck.frontier_peak", static_cast<double>(one.frontier_peak),
          "count");
    std::vector<double> traced_s;
    for (const Sweep& s : traced) traced_s.push_back(s.wall_s);
    r.Set("mck.states_per_s", static_cast<double>(one.states) * traced.size() /
                                  Sum(traced_s),
          "1/s");
    for (int m = 0; m < kModes; ++m) {
      std::vector<double> ms;
      for (const Sweep& s : traced) ms.push_back(s.mode_s[m] * 1e3);
      r.Set(std::string("mck.explore_ms.") + kModeName[m], Median(ms), "ms");
    }
    FinishTrace(o, sweep_s, traced_s, r);
  }
  return r;
}

}  // namespace perfbench
