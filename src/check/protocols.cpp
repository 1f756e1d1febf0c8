// protocols.cpp — name-to-model dispatch, the mutation registry, --bound.
#include <iterator>
#include <stdexcept>
#include <utility>

#include "check/models.hpp"
#include "util/parse.hpp"

namespace mpch::check {

constexpr std::pair<std::string_view, std::uint64_t ModelBounds::*> kBoundKeys[] = {
    {"machines", &ModelBounds::machines}, {"rounds", &ModelBounds::rounds},
    {"messages", &ModelBounds::messages}, {"faults", &ModelBounds::faults},
    {"depth", &ModelBounds::depth},       {"states", &ModelBounds::states},
};

ModelBounds parse_bounds(std::string_view text) {
  const auto fail = [](const std::string& why) { throw std::invalid_argument("--bound " + why); };
  ModelBounds bounds;
  util::KeyValueList items(text, ",");
  util::KeyValue item;
  while (items.next(item)) {
    const std::string key(item.key);
    const util::Decimal value = util::parse_decimal(item.value);
    const auto* bound = std::begin(kBoundKeys);
    while (bound != std::end(kBoundKeys) && bound->first != key) ++bound;
    if (item.error == util::KeyValueError::kRepeatedKey) fail("key '" + key + "' appears twice");
    if (item.error != util::KeyValueError::kNone) {
      fail("item '" + std::string(item.field) + "' is not key=value");
    }
    if (value.error != util::DecimalError::kNone) {
      fail(key + "='" + std::string(item.value) + "' is not a number");
    }
    if (bound == std::end(kBoundKeys)) {
      fail("key '" + key + "' is not machines/rounds/messages/faults/depth/states");
    }
    bounds.*bound->second = value.value;
  }
  return bounds;
}

std::string bounds_summary(const ModelBounds& bounds) {
  std::string out;
  for (const auto& [name, field] : kBoundKeys) {
    out += (out.empty() ? "" : ",") + std::string(name) + "=" + std::to_string(bounds.*field);
  }
  return out;
}

const std::vector<std::string>& protocol_names() {
  static const std::vector<std::string> kNames = {"inbox", "broadcast", "recovery",
                                                  "quarantine"};
  return kNames;
}

const std::vector<MutationSpec>& mutation_registry() {
  static const std::vector<MutationSpec> kMutations = {
      {"skip-dedup", "inbox",
       "InboxAssembler accepts a re-delivered current seq (wire.hpp reject_duplicates off)"},
      {"drop-seq-check", "inbox",
       "InboxAssembler accepts an older seq and lowers its high-water mark "
       "(wire.hpp reject_reordered off)"},
      {"skip-broadcast-dedup", "broadcast",
       "RouterCore re-expands a re-delivered broadcast into duplicate inbox entries "
       "(router_core.hpp dedup_broadcasts off)"},
      {"resume-past-fault", "recovery",
       "plan_restart resumes after the fault instead of the checkpoint, committing the "
       "poisoned round (recovery_core.hpp resume_from_checkpoint off)"},
      {"undercount-lost-rounds", "recovery",
       "plan_restart omits the poisoned round from rounds_lost "
       "(recovery_core.hpp count_poisoned_round off)"},
      {"skip-retry-count", "quarantine",
       "failed attempts never count toward the retry limit "
       "(recovery_core.hpp count_retries off)"},
      {"skip-strike-count", "quarantine",
       "localised offenders never accumulate strikes "
       "(recovery_core.hpp count_strikes off)"},
  };
  return kMutations;
}

std::unique_ptr<Model> make_model(const std::string& protocol, const ModelBounds& bounds,
                                  const std::string& mutation) {
  const std::string m = mutation.empty() ? "none" : mutation;
  if (m != "none") {
    bool known = false;
    for (const MutationSpec& spec : mutation_registry()) {
      if (spec.name != m) continue;
      known = true;
      if (spec.protocol != protocol) {
        throw std::invalid_argument("mutation '" + m + "' belongs to protocol '" +
                                    spec.protocol + "', not '" + protocol + "'");
      }
    }
    if (!known) throw std::invalid_argument("unknown mutation '" + m + "'");
  }
  if (protocol == "inbox") return make_inbox_model(bounds, m);
  if (protocol == "broadcast") return make_broadcast_model(bounds, m);
  if (protocol == "recovery") return make_recovery_model(bounds, m);
  if (protocol == "quarantine") return make_quarantine_model(bounds, m);
  throw std::invalid_argument("unknown protocol '" + protocol +
                              "' — expected inbox, broadcast, recovery, or quarantine");
}

}  // namespace mpch::check
