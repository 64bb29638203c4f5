#include "model/s1_model.h"

#include "nas/context.h"

namespace cnv::model {

namespace {
constexpr std::uint8_t kMaxSwitches = 3;  // bounds the environment loop
}

S1Model::State S1Model::initial() const {
  // The device starts attached to 4G with an activated EPS bearer (§5.1.2).
  return State{};
}

void S1Model::enabled(const State& s, std::vector<Action>& out) const {
  out.clear();
  if (s.out_of_service) {
    out.push_back({Kind::kReattach, {}, {}});
    return;
  }
  if (s.serving == Sys::k4G && s.switches < kMaxSwitches) {
    // All three usage settings of §5.1.1 can trigger the 4G->3G switch.
    for (SwitchReason r : {SwitchReason::kMobility, SwitchReason::kCsfbCall,
                           SwitchReason::kLoadBalancing}) {
      out.push_back({Kind::kSwitchTo3G, r, {}});
    }
  }
  if (s.serving == Sys::k3G) {
    if (s.pdp_active) {
      // The network or device may deactivate the PDP context for any of the
      // Table 3 causes; all are enumerated (§3.2.1, bounded options).
      for (const auto& info : nas::AllPdpDeactCauses()) {
        out.push_back({Kind::kDeactivatePdp, {}, info.cause});
      }
    }
    if (config_.allow_user_data_toggle && s.data_enabled) {
      out.push_back({Kind::kUserDataOff, {}, {}});
    }
    if (config_.allow_user_data_toggle && !s.data_enabled) {
      out.push_back({Kind::kUserDataOn, {}, {}});
    }
    if (s.switches < kMaxSwitches) {
      out.push_back({Kind::kSwitchTo4G, {}, {}});
    }
  }
}

S1Model::State S1Model::apply(const State& s, const Action& a) const {
  State n = s;
  switch (a.kind) {
    case Kind::kSwitchTo3G:
      n.serving = Sys::k3G;
      ++n.switches;
      n.gmm_registered = true;
      // EPS bearer -> PDP context migration; the 4G-side reservation is
      // released after the conversion (§5.1.1).
      n.pdp_active = s.eps_active && s.data_enabled;
      n.eps_active = false;
      break;

    case Kind::kDeactivatePdp: {
      nas::PdpContext pdp;
      pdp.active = true;
      if (config_.fix_keep_context &&
          nas::RetainOnDeactivation(pdp, a.cause).has_value()) {
        // §8: keep (or modify) the context; it stays active.
        n.pdp_active = true;
      } else {
        n.pdp_active = false;
      }
      break;
    }

    case Kind::kUserDataOff:
      // Some phones deactivate all PDP contexts when mobile data is
      // disabled (observed on HTC One / LG Optimus G, §5.1.3).
      n.data_enabled = false;
      n.pdp_active = false;
      break;

    case Kind::kUserDataOn:
      n.data_enabled = true;
      n.pdp_active = true;  // PDP context re-activated on demand
      break;

    case Kind::kSwitchTo4G:
      ++n.switches;
      if (s.pdp_active) {
        // PDP -> EPS bearer translation during the tracking area update.
        n.serving = Sys::k4G;
        n.eps_active = true;
        n.emm_registered = true;
        n.pdp_active = false;
        n.gmm_registered = false;
      } else if (config_.fix_reactivate_bearer) {
        // §8 remedy: the device is still registered in 4G; activate a
        // fresh EPS bearer instead of detaching.
        n.serving = Sys::k4G;
        n.eps_active = true;
        n.emm_registered = true;
        n.gmm_registered = false;
      } else {
        // TS 24.301: 4G requires an EPS bearer context; none can be
        // constructed, so the TAU is rejected ("No EPS Bearer Context
        // Activated") and the device is detached -> out of service.
        n.serving = Sys::k4G;
        n.emm_registered = false;
        n.gmm_registered = false;
        n.eps_active = false;
        n.out_of_service = true;
      }
      break;

    case Kind::kReattach:
      n.out_of_service = false;
      n.emm_registered = true;
      n.eps_active = true;
      n.serving = Sys::k4G;
      break;
  }
  return n;
}

std::string S1Model::describe(const Action& a) const {
  switch (a.kind) {
    case Kind::kSwitchTo3G:
      return "4G->3G switch (" + ToString(a.reason) +
             "); EPS bearer context migrated to PDP context";
    case Kind::kDeactivatePdp:
      return "3G deactivates PDP context (cause: " + nas::ToString(a.cause) +
             ")";
    case Kind::kUserDataOff:
      return "user disables mobile data; phone deactivates all PDP contexts";
    case Kind::kUserDataOn:
      return "user re-enables mobile data";
    case Kind::kSwitchTo4G:
      return "3G->4G switch (tracking area update)";
    case Kind::kReattach:
      return "device re-attaches to 4G";
  }
  return "?";
}

mck::PropertySet<S1Model::State> S1Model::Properties() {
  return {
      {kPacketServiceOk,
       [](const State& s) {
         return !(s.out_of_service && !s.user_initiated_detach);
       },
       "packet service available once attached, unless explicitly "
       "deactivated by the user"},
  };
}

mck::ReductionSpec<S1Model> S1Model::reduction() const { return {}; }

std::size_t HashValue(const S1Model::State& s) { return mck::HashBytes(s); }

}  // namespace cnv::model
