#include "fault/fault_plan.hpp"

#include <algorithm>
#include <array>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "util/parse.hpp"
#include "util/rng.hpp"

namespace mpch::fault {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::CrashMachine: return "crash";
    case FaultKind::DropMessage: return "drop";
    case FaultKind::DuplicateMessage: return "dup";
    case FaultKind::KillSimulation: return "kill";
    case FaultKind::FlipBit: return "flip";
    case FaultKind::ForgeMessage: return "forge";
    case FaultKind::GarbleOracle: return "garble-oracle";
    case FaultKind::TamperCheckpoint: return "tamper-ckpt";
  }
  return "?";
}

std::string FaultEvent::describe() const {
  switch (kind) {
    case FaultKind::CrashMachine:
      return "crash machine " + std::to_string(machine) + " in round " + std::to_string(round);
    case FaultKind::DropMessage:
      return "drop message " + std::to_string(index) + " delivered to machine " +
             std::to_string(machine) + " after round " + std::to_string(round);
    case FaultKind::DuplicateMessage:
      return "duplicate message " + std::to_string(index) + " delivered to machine " +
             std::to_string(machine) + " after round " + std::to_string(round);
    case FaultKind::KillSimulation:
      return "kill the simulation before round " + std::to_string(round);
    case FaultKind::FlipBit:
      return "flip bit " + std::to_string(index) + " of machine " + std::to_string(machine) +
             "'s inbox after round " + std::to_string(round);
    case FaultKind::ForgeMessage:
      return "forge sender of message " + std::to_string(index) + " delivered to machine " +
             std::to_string(machine) + " after round " + std::to_string(round) +
             " (claim machine " + std::to_string(aux) + ")";
    case FaultKind::GarbleOracle:
      return "garble memoised oracle entry " + std::to_string(index) + " before round " +
             std::to_string(round);
    case FaultKind::TamperCheckpoint:
      return "tamper bit " + std::to_string(index) + " of the checkpoint taken after round " +
             std::to_string(round);
  }
  return "?";
}

namespace {

[[noreturn]] void fail(std::string_view token, const std::string& why) {
  throw std::invalid_argument("FaultPlan::parse: " + why + " in '" + std::string(token) + "'");
}

using Keys = std::array<std::string_view, 4>;

/// Each kind's keys for FaultEvent's round, machine, index and aux ("" =
/// unused), which is also the order a missing key is reported in.
constexpr std::pair<FaultKind, Keys> kEventKeys[] = {
    {FaultKind::CrashMachine, {"round", "machine"}},
    {FaultKind::DropMessage, {"round", "to", "index"}},
    {FaultKind::DuplicateMessage, {"round", "to", "index"}},
    {FaultKind::KillSimulation, {"round"}},
    {FaultKind::FlipBit, {"round", "machine", "bit"}},
    {FaultKind::ForgeMessage, {"round", "to", "index", "from"}},
    {FaultKind::GarbleOracle, {"round", "", "entry"}},
    {FaultKind::TamperCheckpoint, {"round", "", "bit"}},
};

/// Read the `key=value,...` list `fields` of `token`: one value per name of
/// `keys`, 0 for an unused one. Throws on a malformed, unknown, repeated or
/// missing key and on a value that is not an unsigned decimal.
std::array<std::uint64_t, 4> read_values(std::string_view token, std::string_view fields,
                                         const Keys& keys) {
  std::array<std::uint64_t, 4> values{};
  std::array<bool, 4> seen{};
  util::KeyValueList list(fields, ",");
  util::KeyValue kv;
  while (list.next(kv)) {
    const std::string key(kv.key);
    if (kv.error == util::KeyValueError::kRepeatedKey) fail(token, "repeated key '" + key + "'");
    if (kv.error != util::KeyValueError::kNone) {
      fail(token, "expected key=value, got '" + std::string(kv.field) + "'");
    }
    const std::size_t slot = std::find(keys.begin(), keys.end(), kv.key) - keys.begin();
    if (slot == keys.size()) fail(token, "unknown key '" + key + "'");
    const util::Decimal n = util::parse_decimal(kv.value);
    if (n.error != util::DecimalError::kNone) fail(token, "value of '" + key + "' is not a number");
    values[slot] = n.value;
    seen[slot] = true;
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (!keys[i].empty() && !seen[i]) fail(token, "missing '" + std::string(keys[i]) + "='");
  }
  return values;
}

/// Parse one `kind:key=value,...` token, appending its events to `plan`.
void parse_event(std::string_view token, FaultPlan& plan) {
  const std::size_t colon = token.find(':');
  const std::string_view kind = token.substr(0, colon);
  const std::string_view fields =
      colon == std::string_view::npos ? std::string_view() : token.substr(colon + 1);
  const auto check_room = [&](std::uint64_t adding) {
    if (adding > kMaxPlanEvents - plan.events.size()) {
      fail(token, "a plan holds at most " + std::to_string(kMaxPlanEvents) + " events");
    }
  };
  if (kind == "random") {
    const auto [seed, events, rounds, machines] =
        read_values(token, fields, {"seed", "events", "rounds", "machines"});
    check_room(events);
    const FaultPlan sub = FaultPlan::random(seed, events, rounds, machines);
    plan.events.insert(plan.events.end(), sub.events.begin(), sub.events.end());
    return;
  }
  const auto* grammar = std::begin(kEventKeys);
  while (grammar != std::end(kEventKeys) && to_string(grammar->first) != kind) ++grammar;
  if (grammar == std::end(kEventKeys)) {
    fail(token, "unknown fault kind '" + std::string(kind) +
                    "' (want crash|drop|dup|kill|flip|forge|garble-oracle|tamper-ckpt|random)");
  }
  const auto [round, machine, index, aux] = read_values(token, fields, grammar->second);
  check_room(1);
  plan.events.push_back({grammar->first, round, machine, index, aux});
}

}  // namespace

FaultPlan FaultPlan::parse(std::string_view spec) {
  FaultPlan plan;
  std::string_view rest = spec;
  std::string_view token;
  while (util::next_field(rest, ";", token)) parse_event(token, plan);
  if (plan.events.empty()) {
    throw std::invalid_argument("FaultPlan::parse: no events in '" + std::string(spec) + "'");
  }
  return plan;
}

FaultPlan FaultPlan::random(std::uint64_t seed, std::uint64_t events, std::uint64_t max_round,
                            std::uint64_t machines) {
  if (max_round == 0 || machines == 0) {
    throw std::invalid_argument("FaultPlan::random: rounds and machines must be nonzero");
  }
  if (events > kMaxPlanEvents) {
    throw std::invalid_argument("FaultPlan::random: a plan holds at most " +
                                std::to_string(kMaxPlanEvents) + " events, not " +
                                std::to_string(events));
  }
  util::Rng rng(seed ^ 0xFA17'FA17'FA17'FA17ULL);
  FaultPlan plan;
  plan.events.reserve(events);
  for (std::uint64_t i = 0; i < events; ++i) {
    FaultEvent ev;
    switch (rng.next_u64() % 4) {
      case 0: ev.kind = FaultKind::CrashMachine; break;
      case 1: ev.kind = FaultKind::DropMessage; break;
      case 2: ev.kind = FaultKind::DuplicateMessage; break;
      default: ev.kind = FaultKind::KillSimulation; break;
    }
    ev.round = rng.next_u64() % max_round;
    ev.machine = rng.next_u64() % machines;
    ev.index = rng.next_u64() % 4;  // small indices hit real messages most of the time
    plan.events.push_back(ev);
  }
  return plan;
}

std::string FaultPlan::describe() const {
  std::string out;
  for (const auto& ev : events) {
    if (!out.empty()) out += "; ";
    out += ev.describe();
  }
  return out.empty() ? "(no faults)" : out;
}

}  // namespace mpch::fault
