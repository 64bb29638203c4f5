// Watches a Testbed during a fault campaign and reports, per user-visible
// property, the outage and recovery times against configurable SLO bounds.
// The three properties are the ones the paper's user study cares about:
//
//   MM_OK            the device is registered with its serving system
//   PacketService_OK the packet-service path works end to end (and, when a
//                    data session is up, delivers non-zero throughput)
//   CallService_OK   the device could get call service right now
//
// Sampling is periodic on the testbed's simulator, so a monitored run is
// exactly as deterministic as the run itself. Property transitions emit
// RECOV trace records; finding probes translate the testbed's defect
// counters into the paper's S1-S6 findings after the run.
#pragma once

#include <string>
#include <vector>

#include "stack/testbed.h"

namespace cnv::fault {

struct SloBounds {
  // Longest tolerated single outage per property.
  SimDuration mm_recovery = Seconds(120);
  SimDuration ps_recovery = Seconds(120);
  SimDuration cs_recovery = Seconds(120);
  // Graceful-degradation bounds, checked only when the run carried storm
  // load (see DegradationReport).
  SimDuration storm_attach_p99 = Seconds(35);  // foreground attach latency
  double storm_max_shed_fraction = 0.9;        // turned-away / offered
  SimDuration storm_drain_bound = Seconds(30); // backlog gone this soon
                                               // after the last injection
};

struct PropertyReport {
  std::string name;
  bool established = false;  // the property was OK at least once
  bool ok_at_end = false;
  int outages = 0;
  SimDuration total_outage = 0;
  SimDuration longest_outage = 0;
  SimDuration slo = 0;
  // Recovered from every outage and never exceeded the SLO bound. A
  // property that never came up fails by definition.
  bool within_slo() const {
    return established && ok_at_end && longest_outage <= slo;
  }
};

// A structured finding: a known protocol-interaction defect the run
// reproduced, attributed via the testbed's defect counters.
struct Finding {
  std::string id;      // "S1" .. "S6"
  std::string detail;  // what the counters showed
  bool operator==(const Finding&) const = default;
};

// How gracefully the core degraded under storm load. Aggregated over the
// MME, MSC and SGSN admission counters; `active` only when the testbed's
// StormGenerator injected traffic, so storm-free runs are unaffected.
struct DegradationReport {
  bool active = false;
  std::uint64_t storm_injected = 0;     // messages the generator produced
  std::uint64_t offered = 0;            // signalling that asked for capacity
  std::uint64_t served = 0;             // dispatched + background drained
  std::uint64_t rejected_congestion = 0;
  std::uint64_t shed = 0;
  std::uint64_t integrity_rejected = 0;
  std::uint64_t replay_dropped = 0;
  std::size_t queue_peak = 0;
  double shed_fraction = 0.0;           // (rejected + shed) / offered
  double attach_p99_s = 0.0;            // foreground UE attach latency p99
  std::uint64_t ue_congestion_rejects = 0;
  std::uint64_t ue_congestion_backoffs = 0;
  bool drained = false;                 // every core queue empty at the end
  SimDuration time_to_drain = 0;        // last-drain minus last-injection
  // Bounds copied from SloBounds at Finalize so the verdict is
  // self-contained (and survives the checkpoint codec).
  SimDuration attach_p99_slo = 0;
  double shed_fraction_slo = 0.0;
  SimDuration drain_slo = 0;

  bool within_slo() const {
    if (!active) return true;
    if (attach_p99_s > ToSeconds(attach_p99_slo)) return false;
    if (shed_fraction > shed_fraction_slo) return false;
    return drained && time_to_drain <= drain_slo;
  }
};

struct MonitorReport {
  std::vector<PropertyReport> properties;  // MM, PS, CS (in that order)
  std::vector<Finding> findings;
  DegradationReport degradation;
  bool all_within_slo() const {
    for (const auto& p : properties) {
      if (!p.within_slo()) return false;
    }
    return degradation.within_slo();
  }
};

class RecoveryMonitor {
 public:
  explicit RecoveryMonitor(stack::Testbed& tb, SloBounds slo = {},
                           SimDuration period = Millis(100));
  RecoveryMonitor(const RecoveryMonitor&) = delete;
  RecoveryMonitor& operator=(const RecoveryMonitor&) = delete;

  // Begins periodic sampling (idempotent).
  void Start();

  // Stops sampling, closes open outage windows at the current simulation
  // time, probes the finding counters, and returns the report.
  MonitorReport Finalize();

  // Probes the testbed's defect counters for the paper's findings. Usable
  // standalone (the validation experiments reuse it).
  static std::vector<Finding> ProbeFindings(stack::Testbed& tb);

  // Aggregates the core elements' overload counters and the foreground
  // UE's congestion/backoff view into a degradation verdict. Standalone
  // for tests; Finalize() calls it with this monitor's bounds.
  static DegradationReport ProbeDegradation(stack::Testbed& tb,
                                            const SloBounds& slo);

 private:
  struct Tracker {
    std::string name;
    SimDuration slo = 0;
    bool established = false;
    bool ok = false;
    SimTime outage_started = 0;
    int outages = 0;
    SimDuration total_outage = 0;
    SimDuration longest_outage = 0;
  };

  void Sample();
  void Observe(Tracker& t, bool ok_now);

  bool MmOk() const;
  bool PsOk() const;
  bool CsOk() const;

  stack::Testbed& tb_;
  SloBounds slo_;
  SimDuration period_;
  bool running_ = false;
  Tracker mm_;
  Tracker ps_;
  Tracker cs_;
};

}  // namespace cnv::fault
