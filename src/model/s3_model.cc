#include "model/s3_model.h"

namespace cnv::model {

namespace {
constexpr std::uint8_t kMaxCalls = 2;
}

bool S3Model::StuckIn3g(const State& s) const {
  // The call has ended, the device wants to go back to 4G (CSFB design),
  // 4G is available, yet the switch cannot be activated: the carrier uses
  // cell reselection, which requires RRC IDLE, and the ongoing PS session
  // pins RRC at FACH/DCH for its whole lifetime.
  return s.serving == Sys::k3G && s.call == Call::kEnded &&
         config_.policy == SwitchPolicy::kCellReselection &&
         !config_.fix_csfb_tag && s.rrc3g != Rrc3g::kIdle &&
         s.data != DataRate::kNone;
}

void S3Model::enabled(const State& s, std::vector<Action>& out) const {
  out.clear();
  if (s.data == DataRate::kNone) {
    if (config_.allow_low_rate) out.push_back({Kind::kStartData, DataRate::kLow});
    if (config_.allow_high_rate)
      out.push_back({Kind::kStartData, DataRate::kHigh});
  } else {
    out.push_back({Kind::kStopData, {}});
  }
  if (s.serving == Sys::k4G && s.call == Call::kNone && s.calls < kMaxCalls) {
    out.push_back({Kind::kMakeCsfbCall, {}});
  }
  if (s.call == Call::kActive) {
    out.push_back({Kind::kEndCall, {}});
  }
  // RRC inactivity demotion in 3G: only while no call holds the channel;
  // a low-rate session keeps at least FACH, a high-rate session keeps DCH.
  if (s.serving == Sys::k3G && s.call != Call::kActive &&
      s.rrc3g != Rrc3g::kIdle) {
    const bool can_leave_dch = s.data != DataRate::kHigh;
    const bool can_leave_fach = s.data == DataRate::kNone;
    if ((s.rrc3g == Rrc3g::kDch && can_leave_dch) ||
        (s.rrc3g == Rrc3g::kFach && can_leave_fach)) {
      out.push_back({Kind::kRrcDemote, {}});
    }
  }
  if (s.serving == Sys::k3G && s.call == Call::kEnded) {
    const bool switch_enabled = [&] {
      if (config_.fix_csfb_tag) return true;  // §8: BS forces a usable state
      switch (config_.policy) {
        case SwitchPolicy::kReleaseWithRedirect:
        case SwitchPolicy::kHandover:
          return true;  // both work from RRC non-IDLE
        case SwitchPolicy::kCellReselection:
          return s.rrc3g == Rrc3g::kIdle;
      }
      return false;
    }();
    if (switch_enabled) out.push_back({Kind::kSwitchBackTo4g, {}});
  }
}

S3Model::State S3Model::apply(const State& s, const Action& a) const {
  State n = s;
  switch (a.kind) {
    case Kind::kStartData:
      n.data = a.rate;
      if (s.serving == Sys::k3G) {
        n.pdp_active = true;
        n.rrc3g = (a.rate == DataRate::kHigh) ? Rrc3g::kDch : Rrc3g::kFach;
        if (s.call == Call::kActive) n.rrc3g = Rrc3g::kDch;
      } else {
        n.rrc4g = Rrc4g::kConnected;
      }
      break;

    case Kind::kStopData:
      n.data = DataRate::kNone;
      n.pdp_active = false;
      break;

    case Kind::kMakeCsfbCall:
      // 4G -> 3G fallback. The CS call plus any migrated PS session put
      // RRC at DCH (Figure 6b, step 1).
      n.serving = Sys::k3G;
      n.call = Call::kActive;
      ++n.calls;
      n.rrc3g = Rrc3g::kDch;
      n.rrc4g = Rrc4g::kIdle;
      n.pdp_active = s.data != DataRate::kNone;
      break;

    case Kind::kEndCall:
      n.call = Call::kEnded;
      // RRC remains at DCH if high-rate data is ongoing (Figure 6b, step
      // 2); with only low-rate data the demotion stops at FACH.
      break;

    case Kind::kRrcDemote:
      n.rrc3g = (s.rrc3g == Rrc3g::kDch) ? Rrc3g::kFach : Rrc3g::kIdle;
      break;

    case Kind::kSwitchBackTo4g:
      n.serving = Sys::k4G;
      n.call = Call::kNone;
      n.rrc3g = Rrc3g::kIdle;
      n.rrc4g = Rrc4g::kConnected;
      n.pdp_active = false;
      if (!config_.fix_csfb_tag &&
          config_.policy == SwitchPolicy::kReleaseWithRedirect &&
          s.data != DataRate::kNone) {
        // Forcing the RRC release disrupts the ongoing data session (§5.3.1).
        n.data_disrupted = true;
      }
      break;
  }
  return n;
}

std::string S3Model::describe(const Action& a) const {
  switch (a.kind) {
    case Kind::kStartData:
      return "user starts " + ToString(a.rate) + " PS session";
    case Kind::kStopData:
      return "PS data session ends";
    case Kind::kMakeCsfbCall:
      return "user makes CSFB call: 4G->3G fallback, 3G-RRC enters DCH";
    case Kind::kEndCall:
      return "CSFB call ends; device should return to 4G";
    case Kind::kRrcDemote:
      return "3G-RRC inactivity demotion";
    case Kind::kSwitchBackTo4g:
      return "switch back to 4G via " + ToString(config_.policy);
  }
  return "?";
}

mck::PropertySet<S3Model::State> S3Model::Properties() const {
  return {
      {kMmOk,
       [this](const State& s) { return !StuckIn3g(s); },
       "an inter-system switch request is served whenever both systems are "
       "available"},
  };
}

mck::ReductionSpec<S3Model> S3Model::reduction() const { return {}; }

std::size_t HashValue(const S3Model::State& s) { return mck::HashBytes(s); }

}  // namespace cnv::model
