#include "model/s4_model.h"

namespace cnv::model {

namespace {
constexpr std::uint8_t kBound = 2;
}

void S4Model::enabled(const State& s, std::vector<Action>& out) const {
  out.clear();
  if (config_.model_cs) {
    if (s.mm == Mm::kIdle && s.lus < kBound) out.push_back({Kind::kTriggerLu});
    if (s.mm == Mm::kLuInProgress) out.push_back({Kind::kLuComplete});
    if (s.mm == Mm::kWaitNetCmd) out.push_back({Kind::kNetCmdDone});
    if (!s.call_pending && !s.call_active && s.calls < kBound) {
      out.push_back({Kind::kUserDialsCall});
    }
    if (s.call_pending) {
      const bool mm_busy = s.mm != Mm::kIdle;
      if (config_.decoupled || !mm_busy) {
        out.push_back({Kind::kServeCall});
      } else {
        // TS 24.008 allows MM to hold or reject the CM service request
        // while the location update runs.
        out.push_back({Kind::kDeferCall});
        out.push_back({Kind::kRejectCall});
      }
    }
  }
  if (config_.model_ps) {
    if (s.gmm == Gmm::kIdle && s.raus < kBound) {
      out.push_back({Kind::kTriggerRau});
    }
    if (s.gmm == Gmm::kRauInProgress) out.push_back({Kind::kRauComplete});
    if (!s.data_pending && !s.data_active && s.datas < kBound) {
      out.push_back({Kind::kUserStartsData});
    }
    if (s.data_pending) {
      const bool gmm_busy = s.gmm != Gmm::kIdle;
      if (config_.decoupled || !gmm_busy) {
        out.push_back({Kind::kServeData});
      } else {
        out.push_back({Kind::kDeferData});
      }
    }
  }
}

S4Model::State S4Model::apply(const State& s, const Action& a) const {
  State n = s;
  switch (a.kind) {
    case Kind::kTriggerLu:
      n.mm = Mm::kLuInProgress;
      ++n.lus;
      break;
    case Kind::kLuComplete:
      // Chain effect (§6.1.2): after the update MM processes cross-layer
      // MM/RRC commands in MM-WAIT-FOR-NET-CMD before serving anything.
      n.mm = Mm::kWaitNetCmd;
      break;
    case Kind::kNetCmdDone:
      n.mm = Mm::kIdle;
      break;
    case Kind::kTriggerRau:
      n.gmm = Gmm::kRauInProgress;
      ++n.raus;
      break;
    case Kind::kRauComplete:
      n.gmm = Gmm::kIdle;
      break;
    case Kind::kUserDialsCall:
      n.call_pending = true;
      ++n.calls;
      break;
    case Kind::kServeCall:
      n.call_pending = false;
      n.call_active = true;
      break;
    case Kind::kDeferCall:
      n.call_delayed = true;
      break;
    case Kind::kRejectCall:
      n.call_pending = false;
      n.call_rejected = true;
      break;
    case Kind::kUserStartsData:
      n.data_pending = true;
      ++n.datas;
      break;
    case Kind::kServeData:
      n.data_pending = false;
      n.data_active = true;
      break;
    case Kind::kDeferData:
      n.data_delayed = true;
      break;
  }
  return n;
}

std::string S4Model::describe(const Action& a) const {
  switch (a.kind) {
    case Kind::kTriggerLu:
      return "MM starts location area update";
    case Kind::kLuComplete:
      return "location update done; MM enters MM-WAIT-FOR-NET-CMD";
    case Kind::kNetCmdDone:
      return "MM finishes pending network commands";
    case Kind::kTriggerRau:
      return "GMM starts routing area update";
    case Kind::kRauComplete:
      return "routing area update done";
    case Kind::kUserDialsCall:
      return "user dials an outgoing call (CM service request)";
    case Kind::kServeCall:
      return config_.decoupled
                 ? "MM serves the call concurrently (implicit location "
                   "update as a byproduct)"
                 : "MM serves the CM service request";
    case Kind::kDeferCall:
      return "MM defers the CM service request behind the location update "
             "(HOL blocking)";
    case Kind::kRejectCall:
      return "MM rejects the CM service request during the location update";
    case Kind::kUserStartsData:
      return "user starts PS data (SM request)";
    case Kind::kServeData:
      return "GMM serves the SM data request";
    case Kind::kDeferData:
      return "GMM defers the SM data request behind the routing area update "
             "(HOL blocking)";
  }
  return "?";
}

mck::PropertySet<S4Model::State> S4Model::Properties() {
  return {
      {kCallServiceOk,
       [](const State& s) { return !s.call_delayed && !s.call_rejected; },
       "an outgoing call request is neither rejected nor delayed without "
       "explicit user operation"},
      {kPacketServiceOk,
       [](const State& s) { return !s.data_delayed; },
       "a PS data request is served without artificial delay"},
  };
}

mck::ReductionSpec<S4Model> S4Model::reduction() const { return {}; }

std::size_t HashValue(const S4Model::State& s) { return mck::HashBytes(s); }

}  // namespace cnv::model
