// In-memory trace collector attached to a simulated device (the stand-in
// for QXDM / XCAL-Mobile debugging mode).
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "trace/record.h"

namespace cnv::trace {

class Collector {
 public:
  explicit Collector(const sim::Simulator& sim) : sim_(sim) {}
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  void Add(TraceType type, nas::System system, std::string module,
           std::string description);

  void State(nas::System system, std::string module, std::string description) {
    Add(TraceType::kState, system, std::move(module), std::move(description));
  }
  void Msg(nas::System system, std::string module, std::string description) {
    Add(TraceType::kMsg, system, std::move(module), std::move(description));
  }
  void Event(nas::System system, std::string module,
             std::string description) {
    Add(TraceType::kEvent, system, std::move(module), std::move(description));
  }
  void Fault(nas::System system, std::string module, std::string description) {
    Add(TraceType::kFault, system, std::move(module), std::move(description));
  }
  void Recovery(nas::System system, std::string module,
                std::string description) {
    Add(TraceType::kRecovery, system, std::move(module),
        std::move(description));
  }

  const std::vector<TraceRecord>& records() const { return records_; }
  void Clear() { records_.clear(); }
  // Moves the collected records out, leaving the collector empty.
  std::vector<TraceRecord> TakeRecords() { return std::exchange(records_, {}); }

  // Live tap: invoked with every record the moment it is collected, after
  // it is appended to records(). Lets an online consumer (the rtv gateway)
  // verify a running testbed in real time instead of post-processing the
  // buffer. Pass nullptr to detach.
  using Tap = std::function<void(const TraceRecord&)>;
  void SetTap(Tap tap) { tap_ = std::move(tap); }

 private:
  const sim::Simulator& sim_;
  std::vector<TraceRecord> records_;
  Tap tap_;
};

}  // namespace cnv::trace
