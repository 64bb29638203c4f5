// Acceptance: for each screening finding S1–S4, compiling the mck
// counterexample into a simulator script and replaying it on the paper's
// affected carrier profile must (a) reproduce the same finding probe via
// fault::RecoveryMonitor and (b) yield a concrete trace whose abstraction
// refines the model counterexample. This closes the screening -> validation
// loop end to end.
#include <string>
#include <vector>

#include "conf/abstract.h"
#include "conf/compile.h"
#include "conf/script.h"
#include "core/conformance.h"
#include "gtest/gtest.h"
#include "mck/explorer.h"
#include "model/s1_model.h"
#include "model/s2_model.h"
#include "model/s3_model.h"
#include "model/s4_model.h"
#include "stack/carrier.h"
#include "util/log.h"

namespace cnv::conf {
namespace {

template <typename M>
mck::Violation<M> FirstViolation(const M& m, const std::string& property) {
  auto props = [&] {
    if constexpr (requires { M::Properties(); }) {
      return M::Properties();
    } else {
      return m.Properties();
    }
  }();
  const auto result = mck::Explore(m, props, {});
  const auto* v = result.FindViolation(property);
  EXPECT_NE(v, nullptr) << property;
  return v == nullptr ? mck::Violation<M>{} : *v;
}

// Replays a compiled script and asserts probe + refinement.
void AssertReproduces(const ScenarioScript& script,
                      const stack::CarrierProfile& profile) {
  const ReplayOutcome outcome = Replay(script, profile);
  EXPECT_TRUE(outcome.awaits_satisfied) << outcome.first_missed_await;
  EXPECT_TRUE(outcome.HasProbe(script.scenario))
      << "probe " << ToString(script.scenario) << " not reproduced on "
      << profile.name;
  const auto check =
      CheckRefinement(AbstractTrace(outcome.records), script.expected);
  EXPECT_TRUE(check.refines) << "first unmatched expected event: "
                             << (check.missing.empty()
                                     ? std::string("<none>")
                                     : ToString(check.missing[0]));
}

TEST(ConfReplayTest, S1CounterexampleReproducesOnOpI) {
  const model::S1Model m;
  const auto v = FirstViolation(m, model::kPacketServiceOk);
  const auto r = CompileS1(m, v);
  ASSERT_TRUE(r.ok) << r.error;
  AssertReproduces(r.script, stack::OpI());
}

TEST(ConfReplayTest, S2CounterexampleReproducesOnOpI) {
  const model::S2Model m;
  const auto v = FirstViolation(m, model::kPacketServiceOk);
  const auto r = CompileS2(m, v);
  ASSERT_TRUE(r.ok) << r.error;
  AssertReproduces(r.script, stack::OpI());
}

TEST(ConfReplayTest, S3CounterexampleReproducesOnOpII) {
  // S3 is carrier-specific: only the cell-reselection carrier (OP-II in the
  // paper) strands the device in 3G after the CSFB call.
  model::S3Model::Config cfg;
  cfg.policy = model::SwitchPolicy::kCellReselection;
  const model::S3Model m(cfg);
  const auto v = FirstViolation(m, model::kMmOk);
  const auto r = CompileS3(m, v);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(stack::OpII().csfb_return_policy,
            model::SwitchPolicy::kCellReselection);
  AssertReproduces(r.script, stack::OpII());
}

TEST(ConfReplayTest, S4CounterexampleReproducesOnOpI) {
  const model::S4Model m;
  const auto v = FirstViolation(m, model::kCallServiceOk);
  const auto r = CompileS4(m, v);
  ASSERT_TRUE(r.ok) << r.error;
  AssertReproduces(r.script, stack::OpI());
}

TEST(ConfReplayTest, ReplayIsDeterministicForFixedSeed) {
  const model::S1Model m;
  const auto v = FirstViolation(m, model::kPacketServiceOk);
  const auto r = CompileS1(m, v);
  ASSERT_TRUE(r.ok) << r.error;
  const auto a = Replay(r.script, stack::OpI());
  const auto b = Replay(r.script, stack::OpI());
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i], b.records[i]) << "record " << i;
  }
}

// Logging must never change the simulation: the compiled S1-S4 scripts
// replay to identical records, probes and counters whether every debug line
// is formatted and printed or filtered out.
TEST(ConfReplayTest, ReplayIsIndependentOfLogLevel) {
  std::vector<ScenarioScript> scripts;
  const auto add = [&scripts](const CompileResult& r) {
    ASSERT_TRUE(r.ok) << r.error;
    scripts.push_back(r.script);
  };
  const model::S1Model s1;
  add(CompileS1(s1, FirstViolation(s1, model::kPacketServiceOk)));
  const model::S2Model s2;
  add(CompileS2(s2, FirstViolation(s2, model::kPacketServiceOk)));
  model::S3Model::Config s3_cfg;
  s3_cfg.policy = model::SwitchPolicy::kCellReselection;
  const model::S3Model s3(s3_cfg);
  add(CompileS3(s3, FirstViolation(s3, model::kMmOk)));
  const model::S4Model s4;
  add(CompileS4(s4, FirstViolation(s4, model::kCallServiceOk)));
  ASSERT_EQ(scripts.size(), 4u);

  const LogLevel saved = GetLogLevel();
  for (const auto& script : scripts) {
    for (const auto& profile : {stack::OpI(), stack::OpII()}) {
      SetLogLevel(LogLevel::kWarn);
      const ReplayOutcome quiet = Replay(script, profile);
      SetLogLevel(LogLevel::kDebug);
      testing::internal::CaptureStderr();
      const ReplayOutcome loud = Replay(script, profile);
      const std::string debug_out = testing::internal::GetCapturedStderr();
      SetLogLevel(saved);

      const std::string where =
          ToString(script.scenario) + " on " + profile.name;
      EXPECT_NE(debug_out.find("[DEBUG] "), std::string::npos) << where;
      EXPECT_EQ(quiet.records, loud.records) << where;
      EXPECT_EQ(quiet.probes, loud.probes) << where;
      EXPECT_EQ(quiet.counters, loud.counters) << where;
      EXPECT_EQ(quiet.awaits_satisfied, loud.awaits_satisfied) << where;
    }
  }
}

// The same loop through the top-level runner: every screening finding ends
// in a confirmed cross-check on its affected carrier.
TEST(ConfReplayTest, ConformanceRunnerConfirmsAllScreeningFindings) {
  const core::ConformanceRunner runner;
  const struct {
    core::FindingId id;
    stack::CarrierProfile profile;
  } kCases[] = {
      {core::FindingId::kS1, stack::OpI()},
      {core::FindingId::kS2, stack::OpI()},
      {core::FindingId::kS3, stack::OpII()},
      {core::FindingId::kS4, stack::OpI()},
  };
  for (const auto& c : kCases) {
    const auto res = runner.CrossCheck(c.id, c.profile);
    EXPECT_EQ(res.verdict, Verdict::kConfirmed)
        << core::ToString(c.id) << " on " << c.profile.name << ": "
        << res.detail;
    EXPECT_TRUE(res.model_violation);
    EXPECT_TRUE(res.probe_reproduced);
    EXPECT_TRUE(res.refined);
    EXPECT_FALSE(res.counterexample.empty());
  }
}

}  // namespace
}  // namespace cnv::conf
