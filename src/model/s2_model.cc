#include "model/s2_model.h"

namespace cnv::model {

namespace {
constexpr std::uint8_t kMaxAttachSends = 2;
constexpr std::uint8_t kMaxTaus = 1;
}  // namespace

void S2Model::enabled(const State& s, std::vector<Action>& out) const {
  out.clear();
  const bool unreliable = !config_.reliable_shim;

  if (s.ue == UeEmm::kDeregistered && s.uplink == Msg::kNone &&
      s.attach_sends == 0) {
    out.push_back({Kind::kUeSendAttach});
  }
  // Guard-timer expiry (T3410): no answer and nothing of ours in flight.
  if (s.ue == UeEmm::kWaitAccept && s.uplink == Msg::kNone &&
      s.downlink == Msg::kNone && s.attach_sends < kMaxAttachSends) {
    out.push_back({Kind::kUeResendAttach});
  }
  if (s.uplink != Msg::kNone) {
    out.push_back({Kind::kDeliverUplink});
    if (unreliable && config_.allow_duplicate &&
        s.uplink == Msg::kAttachRequest && s.deferred == Msg::kNone) {
      out.push_back({Kind::kDeferUplink});
    }
    if (unreliable && config_.allow_loss &&
        (s.uplink == Msg::kAttachRequest ||
         s.uplink == Msg::kAttachComplete)) {
      out.push_back({Kind::kLoseUplink});
    }
  }
  if (s.deferred != Msg::kNone) {
    if (s.mme == MmeEmm::kRegistered) {
      // TS 24.301: delete the bearer contexts, then reprocess the stale
      // request; both outcomes are stipulated as possible.
      out.push_back({Kind::kMmeRejectStaleAttach});
      out.push_back({Kind::kMmeAcceptStaleAttach});
    } else {
      out.push_back({Kind::kDeliverDeferred});
    }
  }
  if (s.downlink != Msg::kNone) {
    // Delivering an Attach Accept makes the UE send Attach Complete, so the
    // uplink slot must be free.
    if (s.downlink != Msg::kAttachAccept || s.uplink == Msg::kNone) {
      out.push_back({Kind::kDeliverDownlink});
    }
  }
  if (s.ue == UeEmm::kRegistered && s.uplink == Msg::kNone &&
      s.downlink == Msg::kNone && s.taus < kMaxTaus) {
    out.push_back({Kind::kUeTriggerTau});
  }
}

S2Model::State S2Model::apply(const State& s, const Action& a) const {
  State n = s;
  switch (a.kind) {
    case Kind::kUeSendAttach:
    case Kind::kUeResendAttach:
      n.uplink = Msg::kAttachRequest;
      n.ue = UeEmm::kWaitAccept;
      ++n.attach_sends;
      break;

    case Kind::kDeferUplink:
      n.deferred = s.uplink;
      n.uplink = Msg::kNone;
      break;

    case Kind::kLoseUplink:
      n.uplink = Msg::kNone;
      break;

    case Kind::kDeliverUplink:
    case Kind::kDeliverDeferred: {
      const Msg m = (a.kind == Kind::kDeliverUplink) ? s.uplink : s.deferred;
      if (a.kind == Kind::kDeliverUplink) {
        n.uplink = Msg::kNone;
      } else {
        n.deferred = Msg::kNone;
      }
      switch (m) {
        case Msg::kAttachRequest:
          // Fresh attach handling (MME deregistered or already waiting).
          n.mme = MmeEmm::kWaitComplete;
          n.downlink = Msg::kAttachAccept;
          break;
        case Msg::kAttachComplete:
          if (s.mme == MmeEmm::kWaitComplete) {
            n.mme = MmeEmm::kRegistered;
            n.mme_bearer = true;
          }
          break;
        case Msg::kTauRequest:
          if (s.mme == MmeEmm::kRegistered) {
            n.downlink = Msg::kTauAccept;
          } else {
            // The MME believes the attach never completed: implicit detach
            // (§5.2.1, lost-signal case).
            n.downlink = Msg::kTauRejectImplicitDetach;
            n.mme = MmeEmm::kDeregistered;
            n.mme_bearer = false;
          }
          break;
        default:
          break;
      }
      break;
    }

    case Kind::kDeliverDownlink:
      n.downlink = Msg::kNone;
      switch (s.downlink) {
        case Msg::kAttachAccept:
          n.ue = UeEmm::kRegistered;
          n.ue_bearer = true;
          n.uplink = Msg::kAttachComplete;
          break;
        case Msg::kTauAccept:
          n.ue = UeEmm::kRegistered;
          break;
        case Msg::kTauRejectImplicitDetach:
        case Msg::kAttachReject:
          n.ue = UeEmm::kDetached;
          n.ue_bearer = false;
          n.out_of_service = true;
          break;
        default:
          break;
      }
      break;

    case Kind::kUeTriggerTau:
      n.uplink = Msg::kTauRequest;
      n.ue = UeEmm::kWaitTauAnswer;
      ++n.taus;
      break;

    case Kind::kMmeRejectStaleAttach:
      n.deferred = Msg::kNone;
      n.mme = MmeEmm::kDeregistered;
      n.mme_bearer = false;
      n.downlink = Msg::kAttachReject;
      break;

    case Kind::kMmeAcceptStaleAttach:
      n.deferred = Msg::kNone;
      // The EPS bearer context is deleted and must be re-constructed;
      // packet service is unavailable during the transition (§5.2.1).
      n.mme = MmeEmm::kWaitComplete;
      n.mme_bearer = false;
      n.service_interrupted = true;
      n.downlink = Msg::kAttachAccept;
      break;
  }
  return n;
}

std::string S2Model::describe(const Action& a) const {
  switch (a.kind) {
    case Kind::kUeSendAttach:
      return "UE EMM sends Attach Request (via RRC)";
    case Kind::kUeResendAttach:
      return "T3410 expires; UE retransmits Attach Request via a new BS";
    case Kind::kDeferUplink:
      return "BS1 under heavy load defers delivery of the Attach Request";
    case Kind::kLoseUplink:
      return "RRC loses the uplink signal over the air";
    case Kind::kDeliverUplink:
      return "uplink signal delivered to the MME";
    case Kind::kDeliverDeferred:
      return "stale deferred signal finally reaches the MME";
    case Kind::kDeliverDownlink:
      return "downlink signal delivered to the UE";
    case Kind::kUeTriggerTau:
      return "UE triggers tracking area update";
    case Kind::kMmeRejectStaleAttach:
      return "MME deletes EPS bearer context and rejects the duplicate "
             "Attach Request";
    case Kind::kMmeAcceptStaleAttach:
      return "MME deletes EPS bearer context and re-accepts the duplicate "
             "Attach Request";
  }
  return "?";
}

mck::PropertySet<S2Model::State> S2Model::Properties() {
  return {
      {kPacketServiceOk,
       [](const State& s) { return !s.out_of_service; },
       "the device is never involuntarily detached from 4G"},
      {"PacketService_NoTransientLoss",
       [](const State& s) { return !s.service_interrupted; },
       "the EPS bearer is never torn down while the user is registered"},
  };
}

mck::ReductionSpec<S2Model> S2Model::reduction() const { return {}; }

std::size_t HashValue(const S2Model::State& s) { return mck::HashBytes(s); }

}  // namespace cnv::model
