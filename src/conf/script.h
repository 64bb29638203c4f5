// Deterministic simulator scripts: the output vocabulary of the
// counterexample-to-scenario compiler (conf/compile.h) and the input of the
// replay executor. A script is a flat list of UE actions, link-fault
// arming steps and timed waits that drives a stack::Testbed through the
// same event sequence as a model counterexample; replaying it yields the
// concrete trace plus the RecoveryMonitor finding probes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "conf/abstract.h"
#include "fault/monitor.h"
#include "model/vocab.h"
#include "nas/causes.h"
#include "stack/carrier.h"
#include "stack/testbed.h"
#include "trace/record.h"

namespace cnv::conf {

// The four screening scenarios whose counterexamples the compiler handles
// (S5/S6 are validation-only findings with no screening model).
enum class Scenario : std::uint8_t { kS1, kS2, kS3, kS4 };

std::string ToString(Scenario s);

enum class Op : std::uint8_t {
  kPowerOn4g,
  kPowerOn3g,
  kAwaitAttach4g,          // bounded wait for EMM-REGISTERED
  kSwitchTo3g,             // carries a SwitchReason
  kSwitchTo4g,
  kDeactivatePdp,          // network-initiated, carries a PdpDeactCause
  kDataOff,                // user toggles mobile data off
  kDataOn,
  kStartData,              // carries demand_mbps
  kStopData,
  kDial,
  kAwaitCallActive,        // bounded wait for an active call
  kHangUp,
  kCrossAreaBoundary,
  kDropNextUplink4g,       // arm: lose the next `count` 4G uplink packets
  kDeferNextUplink4g,      // arm: hold the next 4G uplink packet `millis`
  kDuplicateAttachRejects,  // MME policy for reprocessed stale attaches
  kRun,                    // advance simulated time by `millis`
};

struct ScriptStep {
  Op op = Op::kRun;
  model::SwitchReason reason = model::SwitchReason::kMobility;
  nas::PdpDeactCause cause = nas::PdpDeactCause::kRegularDeactivation;
  double demand_mbps = 0.0;
  int count = 0;
  std::int64_t millis = 0;
  bool flag = false;
};

std::string ToString(const ScriptStep& s);

struct ScenarioScript {
  Scenario scenario = Scenario::kS1;
  // Set when the counterexample only reproduces under a specific CSFB
  // return policy (S3 under cell reselection). Replaying on a carrier with
  // a different policy is a carrier mismatch, not a model/sim divergence.
  std::optional<model::SwitchPolicy> required_policy;
  // Compiled scripts schedule their faults explicitly, so the carrier's
  // background fault probabilities (random LU failures, spontaneous PDP
  // deactivations) are zeroed during replay — mirroring how the paper's
  // validation experiments isolate one defect at a time.
  bool isolate_background_faults = true;
  std::vector<ScriptStep> steps;
  // The model counterexample this was compiled from (mck::FormatTrace).
  std::string source;
  // Abstract events the concrete trace must contain, in order, for the
  // replay to refine the counterexample (conf/abstract.h).
  std::vector<AbstractKind> expected;
};

std::string FormatScript(const ScenarioScript& s);

// Defect counters snapshot taken right after the script finishes; used by
// the differential driver to explain divergences (e.g. an OP-I CSFB return
// that exceeded the 10 s stuck-in-3G threshold is the Table 6 latency tail,
// not the S3 reselection defect).
struct ReplayCounters {
  std::uint64_t detaches_no_eps_bearer = 0;
  std::uint64_t stale_attach_detaches = 0;
  std::uint64_t deferred_call_requests = 0;
  double stuck_in_3g_max_s = 0.0;
  bool stranded_in_3g_now = false;
  bool out_of_service = false;
  bool operator==(const ReplayCounters&) const = default;
};

struct ReplayOutcome {
  // All bounded waits (attach, call setup) were satisfied. A missed wait
  // means the script could not be driven through — reported, never ignored.
  bool awaits_satisfied = true;
  std::string first_missed_await;
  std::vector<fault::Finding> probes;  // RecoveryMonitor::ProbeFindings
  ReplayCounters counters;
  std::vector<trace::TraceRecord> records;

  bool HasProbe(Scenario s) const;
};

struct ReplayOptions {
  std::uint64_t seed = 1;
  stack::SolutionConfig solutions;
};

// Executes the script on a fresh Testbed with the given carrier profile.
// Deterministic for a fixed (script, profile, options) triple.
ReplayOutcome Replay(const ScenarioScript& script,
                     const stack::CarrierProfile& profile,
                     const ReplayOptions& options = {});

}  // namespace cnv::conf
