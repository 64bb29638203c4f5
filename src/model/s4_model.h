// S4 screening model — head-of-line blocking between independent
// cross-layer procedures (§6.1). In 3G, outgoing CS calls (CM) and PS data
// requests (SM) are queued behind location/routing area updates running in
// the lower MM/GMM layer, although the two procedures are logically
// independent (serving the outbound request first would even update the
// location implicitly). The standards let MM defer — or outright reject —
// the CM service request while a location update runs, and MM additionally
// lingers in MM-WAIT-FOR-NET-CMD after the update (the "chain effect"
// adding ~4.3 s in the paper's measurements).
//
// Solution knob: `decoupled` gives MM/GMM two parallel threads (§8, layer
// extension) — one for location updates, one for service requests — which
// removes the deferral transitions entirely.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mck/hash.h"
#include "mck/property.h"
#include "mck/reduction.h"
#include "model/vocab.h"

namespace cnv::model {

struct S4Model {
  struct Config {
    bool decoupled = false;
    bool model_cs = true;  // CM/MM pair
    bool model_ps = true;  // SM/GMM pair
  };

  S4Model() = default;
  explicit S4Model(Config config) : config_(config) {}

  enum class Mm : std::uint8_t { kIdle, kLuInProgress, kWaitNetCmd };
  enum class Gmm : std::uint8_t { kIdle, kRauInProgress };

  struct State {
    Mm mm = Mm::kIdle;
    Gmm gmm = Gmm::kIdle;
    bool call_pending = false;
    bool call_active = false;
    bool data_pending = false;
    bool data_active = false;
    bool call_delayed = false;   // HOL blocking hit the CS request
    bool call_rejected = false;  // MM rejected outright (also allowed)
    bool data_delayed = false;   // HOL blocking hit the PS request
    std::uint8_t lus = 0;
    std::uint8_t raus = 0;
    std::uint8_t calls = 0;
    std::uint8_t datas = 0;

    bool operator==(const State&) const = default;
  };

  enum class Kind : std::uint8_t {
    kTriggerLu,      // any Table 4 scenario: roaming, periodic, post-CSFB
    kLuComplete,
    kNetCmdDone,     // leave MM-WAIT-FOR-NET-CMD
    kTriggerRau,
    kRauComplete,
    kUserDialsCall,
    kServeCall,
    kDeferCall,      // MM prioritizes the location update (the defect)
    kRejectCall,
    kUserStartsData,
    kServeData,
    kDeferData,
  };

  struct Action {
    Kind kind = Kind::kTriggerLu;
  };

  State initial() const { return State{}; }
  void enabled(const State& s, std::vector<Action>& out) const;
  State apply(const State& s, const Action& a) const;
  std::string describe(const Action& a) const;

  static mck::PropertySet<State> Properties();

  // Trivial reduction spec: a single-UE slice has no second component to
  // commute against and no symmetry orbit, so enabling --por/--symmetry on
  // a screening sweep is a sound no-op here (identical results).
  mck::ReductionSpec<S4Model> reduction() const;

  const Config& config() const { return config_; }

 private:
  Config config_{};
};

std::size_t HashValue(const S4Model::State& s);

}  // namespace cnv::model
