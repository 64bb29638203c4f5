// S2 screening model — out-of-sequenced signaling between EMM and RRC
// (§5.2). EMM assumes reliable, in-sequence signal transfer; RRC does not
// guarantee it. Two failure shapes are modeled exactly as in Figure 5:
//
//  * Lost signal: the Attach Complete is lost over the air. The UE believes
//    it is attached, the MME is still waiting; the next tracking area update
//    is rejected with "implicitly detached" and the UE deregisters.
//  * Duplicate signal: the Attach Request is deferred by a loaded BS1, the
//    UE retransmits via BS2 and completes the attach; the stale request then
//    reaches the MME, which per TS 24.301 deletes the bearer contexts and
//    reprocesses it — either rejecting (out of service) or re-accepting
//    (transient loss of packet service while the bearer is rebuilt).
//
// Solution knob: `reliable_shim` inserts the §8 slim layer between EMM and
// RRC, restoring reliable in-order end-to-end delivery (implemented for the
// validation phase in src/solution/shim_layer.h); at this abstraction level
// it removes the loss / defer transitions, and the model becomes
// violation-free.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mck/hash.h"
#include "mck/property.h"
#include "mck/reduction.h"
#include "model/vocab.h"

namespace cnv::model {

struct S2Model {
  struct Config {
    bool reliable_shim = false;
    bool allow_loss = true;       // exercise Figure 5(a)
    bool allow_duplicate = true;  // exercise Figure 5(b)
  };

  S2Model() = default;
  explicit S2Model(Config config) : config_(config) {}

  enum class Msg : std::uint8_t {
    kNone,
    kAttachRequest,
    kAttachAccept,
    kAttachComplete,
    kTauRequest,
    kTauAccept,
    kTauRejectImplicitDetach,
    kAttachReject,
  };

  enum class UeEmm : std::uint8_t {
    kDeregistered,
    kWaitAccept,    // attach request sent
    kRegistered,
    kWaitTauAnswer,
    kDetached,      // out of service after a reject
  };

  enum class MmeEmm : std::uint8_t {
    kDeregistered,
    kWaitComplete,  // accept sent, waiting for Attach Complete
    kRegistered,
  };

  struct State {
    UeEmm ue = UeEmm::kDeregistered;
    MmeEmm mme = MmeEmm::kDeregistered;
    bool ue_bearer = false;
    bool mme_bearer = false;
    Msg uplink = Msg::kNone;     // in flight UE -> MME
    Msg deferred = Msg::kNone;   // stale copy held by a loaded BS1
    Msg downlink = Msg::kNone;   // in flight MME -> UE
    std::uint8_t attach_sends = 0;
    std::uint8_t taus = 0;
    bool service_interrupted = false;  // bearer torn down while registered
    bool out_of_service = false;

    bool operator==(const State&) const = default;
  };

  enum class Kind : std::uint8_t {
    kUeSendAttach,
    kUeResendAttach,    // guard timer expiry
    kDeferUplink,       // BS1 under heavy load defers delivery
    kLoseUplink,        // lost over the air
    kDeliverUplink,
    kDeliverDeferred,   // the stale copy finally reaches the MME
    kDeliverDownlink,
    kUeTriggerTau,      // mobility / periodic tracking area update
    kMmeRejectStaleAttach,  // MME chooses to reject the reprocessed attach
    kMmeAcceptStaleAttach,  // ... or to accept it (bearer rebuilt)
  };

  struct Action {
    Kind kind = Kind::kUeSendAttach;
  };

  State initial() const { return State{}; }
  void enabled(const State& s, std::vector<Action>& out) const;
  State apply(const State& s, const Action& a) const;
  std::string describe(const Action& a) const;

  // PacketService_OK is violated by an involuntary detach; the secondary
  // invariant flags the transient teardown on the duplicate-accept path.
  static mck::PropertySet<State> Properties();

  // Trivial reduction spec: a single-UE slice has no second component to
  // commute against and no symmetry orbit, so enabling --por/--symmetry on
  // a screening sweep is a sound no-op here (identical results).
  mck::ReductionSpec<S2Model> reduction() const;

  const Config& config() const { return config_; }

 private:
  Config config_{};
};

std::size_t HashValue(const S2Model::State& s);

}  // namespace cnv::model
