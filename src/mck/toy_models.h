// Small classic models used to test the checker itself: a bounded counter,
// Peterson's mutual-exclusion algorithm, a lossy ping/ack channel, and a
// deadlocking two-lock scheme. They double as engine microbenchmarks.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mck/hash.h"
#include "mck/reduction.h"

namespace cnv::mck::toys {

// --- Bounded counter: two workers increment a shared counter up to a cap.
// Property "below_cap" is violated exactly when the cap can be exceeded.
struct CounterModel {
  int cap = 4;
  bool buggy = false;  // if true, one worker can double-increment

  struct State {
    int value = 0;
    bool operator==(const State&) const = default;
  };
  struct Action {
    int amount = 0;
  };

  State initial() const { return {}; }
  void enabled(const State& s, std::vector<Action>& out) const;
  State apply(const State& s, const Action& a) const;
  std::string describe(const Action& a) const;
};

std::size_t HashValue(const CounterModel::State& s);

// --- Peterson's algorithm for two processes. Property "mutex" asserts the
// two processes are never simultaneously in the critical section; disabling
// `use_turn_variable` breaks the algorithm and must produce a counterexample.
struct PetersonModel {
  bool use_turn_variable = true;

  enum class Loc : std::uint8_t { kIdle, kWantFlag, kWantTurn, kWait, kCrit };

  struct State {
    std::array<Loc, 2> loc{Loc::kIdle, Loc::kIdle};
    std::array<bool, 2> flag{false, false};
    int turn = 0;
    bool operator==(const State&) const = default;
  };
  struct Action {
    int process = 0;
  };

  State initial() const { return {}; }
  void enabled(const State& s, std::vector<Action>& out) const;
  State apply(const State& s, const Action& a) const;
  std::string describe(const Action& a) const;

  static bool BothCritical(const State& s) {
    return s.loc[0] == Loc::kCrit && s.loc[1] == Loc::kCrit;
  }
};

std::size_t HashValue(const PetersonModel::State& s);

// --- Lossy ping: a sender transmits PING over a channel that may drop it;
// with `retransmit` the sender may resend, without it the system deadlocks
// waiting for an ack that never comes. Exercises deadlock detection and
// models the RRC unreliability at the heart of finding S2.
struct LossyPingModel {
  bool retransmit = true;

  struct State {
    bool ping_in_flight = false;
    bool ack_in_flight = false;
    bool receiver_got_ping = false;
    bool sender_got_ack = false;
    std::uint8_t sends = 0;
    bool operator==(const State&) const = default;
  };
  enum class Kind : std::uint8_t {
    kSend,
    kDropPing,
    kDeliverPing,
    kSendAck,
    kDeliverAck
  };
  struct Action {
    Kind kind = Kind::kSend;
  };

  State initial() const { return {}; }
  void enabled(const State& s, std::vector<Action>& out) const;
  State apply(const State& s, const Action& a) const;
  std::string describe(const Action& a) const;

  // Getting the ack is the protocol's successful termination.
  bool is_final(const State& s) const { return s.sender_got_ack; }
};

std::size_t HashValue(const LossyPingModel::State& s);

// --- Two processes taking two locks in opposite order: the classic
// deadlock. Used to verify deadlock detection reports a trace.
struct DeadlockModel {
  struct State {
    // lock holder: -1 free, 0 or 1 = process id
    std::array<int, 2> holder{-1, -1};
    std::array<int, 2> progress{0, 0};  // 0: none, 1: first lock, 2: both
    bool operator==(const State&) const = default;
  };
  struct Action {
    int process = 0;
  };

  State initial() const { return {}; }
  void enabled(const State& s, std::vector<Action>& out) const;
  State apply(const State& s, const Action& a) const;
  std::string describe(const Action& a) const;
};

std::size_t HashValue(const DeadlockModel::State& s);

// --- K independent workers, each stepping a private counter up to L. The
// poster child for state-space reduction: the full interleaving product has
// (L+1)^K states, but every action is local and invisible, so partial-order
// reduction collapses it to the K*L + 1 states of one serialized schedule —
// and the workers are interchangeable, so symmetry reduction alone brings
// the product down to the multiset space. The differential suite asserts
// both factors on this model.
struct IndepWorkersModel {
  int workers = 4;
  int steps = 4;

  static constexpr std::size_t kMaxWorkers = 8;

  struct State {
    std::array<std::uint8_t, kMaxWorkers> count{};
    bool operator==(const State&) const = default;
  };
  struct Action {
    int worker = 0;
  };

  State initial() const { return {}; }
  void enabled(const State& s, std::vector<Action>& out) const;
  State apply(const State& s, const Action& a) const;
  std::string describe(const Action& a) const;

  // Full spec: every worker is a closed component (no shared guards at
  // all), and workers permute freely.
  ReductionSpec<IndepWorkersModel> reduction() const;
};

std::size_t HashValue(const IndepWorkersModel::State& s);

}  // namespace cnv::mck::toys
