// fault_plan.hpp — deterministic fault schedules for MPC executions.
//
// A FaultPlan is a list of events, each pinned to a round (and, where it
// applies, a machine / message index). Plans are data, not code: the same
// plan against the same (strategy, seed, threads) configuration injects the
// same faults at the same barriers on every run, which is what lets the
// chaos suite assert bit-identical recovery. Plans come from three places:
// explicit construction, the CLI grammar parsed by parse(), or the seeded
// generator random() (a util::Rng stream, so a seed fully determines the
// schedule). The grammar is a hostile-input boundary: values are unsigned
// decimals (util/parse.hpp), each key appears at most once per event, and a
// plan holds at most kMaxPlanEvents events, checked before any allocation.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mpch::fault {

enum class FaultKind {
  CrashMachine,       ///< machine does not run in the round; its state is lost
  DropMessage,        ///< one delivered message vanishes at the barrier
  DuplicateMessage,   ///< one delivered message arrives twice
  KillSimulation,     ///< the whole execution dies between rounds
  // Byzantine (value-fault) verbs: the adversary corrupts state instead of
  // losing it. Silent by construction — detection is the job of
  // authenticated messaging and the quarantine policy, not the injector.
  FlipBit,            ///< one bit of a delivered inbox flips at the barrier
  ForgeMessage,       ///< one delivered message claims a spoofed sender
  GarbleOracle,       ///< one memoised random-oracle answer is corrupted
  TamperCheckpoint,   ///< a saved checkpoint is mutated after the fact
};

const char* to_string(FaultKind kind);

struct FaultEvent {
  FaultKind kind = FaultKind::KillSimulation;
  std::uint64_t round = 0;
  /// CrashMachine: the machine that dies. Drop/Duplicate/Flip/Forge: the
  /// receiving machine whose post-merge inbox is tampered with. Unused for
  /// kill, garble-oracle, and tamper-ckpt.
  std::uint64_t machine = 0;
  /// Drop/Duplicate/Forge: index into the receiver's merged inbox for the
  /// round. FlipBit: flat bit offset into the receiver's concatenated inbox
  /// payloads. GarbleOracle: index into the oracle's memo (sorted input
  /// order). TamperCheckpoint: bit offset into the encoded snapshot.
  std::uint64_t index = 0;
  /// ForgeMessage: the spoofed sender id written into the message. Unused
  /// by every other kind (kept 0 so plans compare and describe stably).
  std::uint64_t aux = 0;

  /// Human-readable provenance, e.g. "crash machine 2 in round 3".
  std::string describe() const;

  bool operator==(const FaultEvent&) const = default;
};

/// The most events one plan holds, random:events=N included (the scale of
/// the jobfile's per-line repeat cap).
inline constexpr std::uint64_t kMaxPlanEvents = 1ULL << 12;

struct FaultPlan {
  std::vector<FaultEvent> events;

  /// Parse the CLI grammar: semicolon-separated events, each
  /// `kind:key=value,...`:
  ///   crash:machine=2,round=3
  ///   drop:round=1,to=0,index=0
  ///   dup:round=2,to=3,index=1
  ///   kill:round=4
  ///   flip:machine=1,round=2,bit=5
  ///   forge:round=2,to=0,index=0,from=3
  ///   garble-oracle:round=3,entry=0
  ///   tamper-ckpt:round=3,bit=100
  ///   random:seed=7,events=3,rounds=10,machines=4
  /// Throws std::invalid_argument naming the offending token.
  static FaultPlan parse(std::string_view spec);

  /// A seeded schedule of `events` faults over rounds [0, max_round) and
  /// machines [0, machines): same seed, same plan, every time. Throws
  /// std::invalid_argument when `events` exceeds kMaxPlanEvents.
  static FaultPlan random(std::uint64_t seed, std::uint64_t events, std::uint64_t max_round,
                          std::uint64_t machines);

  std::string describe() const;

  bool operator==(const FaultPlan&) const = default;
};

}  // namespace mpch::fault
