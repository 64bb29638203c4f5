// S3 screening model — inconsistent cross-domain / cross-system RRC state
// transition (§5.3). A 4G user makes a CSFB call (falling back to 3G) while
// carrying a data session. When the call ends the device should return to
// 4G, but the RRC state is shared by the CS and PS domains: ongoing PS data
// keeps RRC at FACH/DCH, and if the carrier's switch-back option is
// "inter-system cell reselection" (which requires RRC IDLE) the device is
// stuck in 3G — the MM_OK property is violated.
//
// The carrier policy (Figure 6a) is a config knob, as are the data-session
// intensity and the §8 remedy (`fix_csfb_tag`: the BS tags the RRC
// connection as CSFB-induced and forces a proper state for switching back
// when the call ends).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mck/hash.h"
#include "mck/property.h"
#include "mck/reduction.h"
#include "model/vocab.h"

namespace cnv::model {

struct S3Model {
  struct Config {
    SwitchPolicy policy = SwitchPolicy::kCellReselection;
    // Which data intensities the environment may start (paper: prior work
    // covered low-rate; this paper adds high-rate).
    bool allow_low_rate = true;
    bool allow_high_rate = true;
    bool fix_csfb_tag = false;
  };

  S3Model() = default;
  explicit S3Model(Config config) : config_(config) {}

  enum class Sys : std::uint8_t { k3G, k4G };
  enum class Call : std::uint8_t { kNone, kActive, kEnded };

  struct State {
    Sys serving = Sys::k4G;
    Rrc3g rrc3g = Rrc3g::kIdle;
    Rrc4g rrc4g = Rrc4g::kConnected;
    Call call = Call::kNone;
    DataRate data = DataRate::kNone;
    bool pdp_active = false;       // PS session continues in 3G during CSFB
    bool data_disrupted = false;   // release-with-redirect side effect
    std::uint8_t calls = 0;        // bound on environment call loop

    bool operator==(const State&) const = default;
  };

  enum class Kind : std::uint8_t {
    kStartData,       // carries a DataRate
    kStopData,
    kMakeCsfbCall,    // 4G -> 3G fallback; RRC goes to DCH
    kEndCall,
    kRrcDemote,       // inactivity: DCH -> FACH -> IDLE (only without data)
    kSwitchBackTo4g,  // per-policy attempt to return to 4G
  };

  struct Action {
    Kind kind = Kind::kMakeCsfbCall;
    DataRate rate = DataRate::kNone;
  };

  State initial() const { return State{}; }
  void enabled(const State& s, std::vector<Action>& out) const;
  State apply(const State& s, const Action& a) const;
  std::string describe(const Action& a) const;

  // MM_OK (§3.2.2): an inter-system switch request must be served when both
  // systems are available. After a CSFB call ends the device must not be
  // stranded in 3G with no enabled path back to 4G.
  mck::PropertySet<State> Properties() const;

  // Trivial reduction spec: a single-UE slice has no second component to
  // commute against and no symmetry orbit, so enabling --por/--symmetry on
  // a screening sweep is a sound no-op here (identical results).
  mck::ReductionSpec<S3Model> reduction() const;

  // True when the post-call switch back to 4G cannot proceed in `s`.
  bool StuckIn3g(const State& s) const;

  const Config& config() const { return config_; }

 private:
  Config config_{};
};

std::size_t HashValue(const S3Model::State& s);

}  // namespace cnv::model
