// S1 screening model — unprotected shared context across 3G/4G (§5.1).
//
// Models the SM/GMM (3G) and ESM/EMM (4G) interaction around inter-system
// switches: the EPS bearer context and the PDP context are translations of
// each other, 4G mandates an active context while 3G does not, and 3G may
// deactivate the PDP context for any of the Table 3 causes. The property
// PacketService_OK is violated when the device ends up deregistered
// ("out of service") without the user ever asking to detach.
//
// Solution knobs (§8, cross-system coordination):
//  * `fix_keep_context`      — retain/modify the PDP context for avoidable
//                              deactivation causes instead of deleting it;
//  * `fix_reactivate_bearer` — on 3G->4G switch with no PDP context, stay
//                              registered and activate a fresh EPS bearer
//                              instead of detaching.
// With both fixes the model is violation-free.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mck/hash.h"
#include "mck/property.h"
#include "mck/reduction.h"
#include "model/vocab.h"
#include "nas/causes.h"

namespace cnv::model {

struct S1Model {
  struct Config {
    bool fix_keep_context = false;
    bool fix_reactivate_bearer = false;
    // Whether the user may toggle mobile data off (the WiFi-switch variant
    // the paper observed on HTC One / LG Optimus G).
    bool allow_user_data_toggle = true;
  };

  S1Model() = default;
  explicit S1Model(Config config) : config_(config) {}

  enum class Sys : std::uint8_t { k3G, k4G };

  struct State {
    Sys serving = Sys::k4G;
    bool emm_registered = true;   // 4G registration
    bool gmm_registered = false;  // 3G PS registration
    bool eps_active = true;       // EPS bearer context (UE + MME + gateways)
    bool pdp_active = false;      // PDP context (UE + SGSN)
    bool data_enabled = true;     // user's mobile-data switch
    bool out_of_service = false;  // deregistered from both systems
    bool user_initiated_detach = false;
    std::uint8_t switches = 0;  // bound on env switch actions

    bool operator==(const State&) const = default;
  };

  enum class Kind : std::uint8_t {
    kSwitchTo3G,      // carries a SwitchReason
    kDeactivatePdp,   // carries a PdpDeactCause
    kUserDataOff,
    kUserDataOn,
    kSwitchTo4G,      // TAU; succeeds or detaches depending on PDP context
    kReattach,        // recovery after an S1 detach
  };

  struct Action {
    Kind kind = Kind::kSwitchTo3G;
    SwitchReason reason = SwitchReason::kMobility;
    nas::PdpDeactCause cause = nas::PdpDeactCause::kRegularDeactivation;
  };

  State initial() const;
  void enabled(const State& s, std::vector<Action>& out) const;
  State apply(const State& s, const Action& a) const;
  std::string describe(const Action& a) const;

  // PacketService_OK (§3.2.2): the device must never be involuntarily
  // out of service.
  static mck::PropertySet<State> Properties();

  // Trivial reduction spec: a single-UE slice has no second component to
  // commute against and no symmetry orbit, so enabling --por/--symmetry on
  // a screening sweep is a sound no-op here (identical results).
  mck::ReductionSpec<S1Model> reduction() const;

  const Config& config() const { return config_; }

 private:
  Config config_{};
};

std::size_t HashValue(const S1Model::State& s);

}  // namespace cnv::model
