// check_models_test.cpp — the four protocol models: clean trees verify, the
// mutation matrix kills every seeded bug, and counterexamples replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>

#include "check/explorer.hpp"
#include "check/models.hpp"

namespace mpch::check {
namespace {

ModelBounds small_bounds() {
  ModelBounds bounds;
  bounds.machines = 2;
  bounds.rounds = 2;
  bounds.messages = 2;
  bounds.faults = 1;
  return bounds;
}

TEST(CheckModels, RegistryNamesFourProtocols) {
  const std::vector<std::string>& names = protocol_names();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "inbox");
  EXPECT_EQ(names[1], "broadcast");
  EXPECT_EQ(names[2], "recovery");
  EXPECT_EQ(names[3], "quarantine");
}

TEST(CheckModels, EveryMutationBelongsToAKnownProtocol) {
  const std::vector<std::string>& names = protocol_names();
  std::set<std::string> seen;
  for (const MutationSpec& spec : mutation_registry()) {
    EXPECT_TRUE(std::find(names.begin(), names.end(), spec.protocol) != names.end())
        << spec.name << " claims unknown protocol " << spec.protocol;
    EXPECT_TRUE(seen.insert(spec.name).second) << "duplicate mutation " << spec.name;
    EXPECT_FALSE(spec.description.empty());
  }
  EXPECT_GE(seen.size(), 7u);
}

TEST(CheckModels, MakeModelRejectsUnknownNames) {
  EXPECT_THROW((void)make_model("carrier-pigeon", small_bounds()), std::invalid_argument);
  EXPECT_THROW((void)make_model("inbox", small_bounds(), "no-such-mutation"),
               std::invalid_argument);
  // A real mutation applied to the wrong protocol is also rejected.
  EXPECT_THROW((void)make_model("inbox", small_bounds(), "skip-retry-count"),
               std::invalid_argument);
}

TEST(CheckModels, CleanProtocolsExploreWithoutViolations) {
  for (const std::string& protocol : protocol_names()) {
    std::unique_ptr<Model> model = make_model(protocol, small_bounds());
    ExploreResult result = Explorer().run(*model);
    EXPECT_TRUE(result.ok()) << protocol << ": "
                             << (result.counterexample ? result.counterexample->violation
                                                       : std::string());
    EXPECT_GT(result.stats.states_explored, 0u) << protocol;
    EXPECT_GT(result.stats.terminal_states, 0u) << protocol;
    EXPECT_FALSE(result.stats.depth_bound_hit) << protocol;
    EXPECT_FALSE(result.stats.state_bound_hit) << protocol;
  }
}

// The in-tree mutation matrix: every seeded bug must yield a minimized
// counterexample that replays to the same violation on a fresh model. This
// is the checker's self-check — CI runs it on every push.
TEST(CheckModels, MutationMatrixKillsEverySeededBug) {
  for (const MutationSpec& spec : mutation_registry()) {
    std::unique_ptr<Model> mutant = make_model(spec.protocol, small_bounds(), spec.name);
    Explorer explorer;
    ExploreResult result = explorer.run(*mutant);
    ASSERT_FALSE(result.ok()) << spec.name << " survived exploration";
    ASSERT_TRUE(result.counterexample.has_value()) << spec.name;
    EXPECT_FALSE(result.counterexample->violation.empty()) << spec.name;
    EXPECT_FALSE(result.counterexample->schedule.empty()) << spec.name;

    // The minimized schedule must reproduce on a freshly built mutant.
    std::unique_ptr<Model> again = make_model(spec.protocol, small_bounds(), spec.name);
    ReplayOutcome outcome = explorer.replay(*again, result.counterexample->schedule);
    ASSERT_TRUE(outcome.violation.has_value()) << spec.name << " did not replay";
    EXPECT_EQ(*outcome.violation, result.counterexample->violation) << spec.name;

    // ...and must NOT reproduce on the clean protocol: the schedule
    // witnesses the bug, not a checker artefact.
    std::unique_ptr<Model> clean = make_model(spec.protocol, small_bounds());
    bool clean_violates = false;
    try {
      ReplayOutcome on_clean = explorer.replay(*clean, result.counterexample->schedule);
      clean_violates = on_clean.violation.has_value();
    } catch (const ReplayError&) {
      // Clean protocol refuses an action the mutant allowed — also fine.
    }
    EXPECT_FALSE(clean_violates) << spec.name << " schedule violates the clean protocol";
  }
}

TEST(CheckModels, DropSeqCheckCounterexampleIsAnOldDuplicate) {
  std::unique_ptr<Model> mutant = make_model("inbox", small_bounds(), "drop-seq-check");
  ExploreResult result = Explorer().run(*mutant);
  ASSERT_FALSE(result.ok());
  // The witness needs a re-delivery of an already-accepted frame: some
  // action in the shrunk schedule must be a duplicate.
  bool has_duplicate = false;
  for (const Action& a : result.counterexample->schedule) {
    if (a.label.find("duplicate") != std::string::npos) has_duplicate = true;
  }
  EXPECT_TRUE(has_duplicate);
}

TEST(CheckModels, InboxZeroMessageRoundIsASingleBarrier) {
  ModelBounds bounds = small_bounds();
  bounds.messages = 0;
  std::unique_ptr<Model> model = make_model("inbox", bounds);
  ExploreResult result = Explorer().run(*model);
  EXPECT_TRUE(result.ok());
  // Nothing to deliver: the only schedule is the empty-inbox barrier.
  EXPECT_EQ(result.stats.terminal_states, 1u);
}

TEST(CheckModels, SingleMachineProtocolsStillVerify) {
  ModelBounds bounds = small_bounds();
  bounds.machines = 1;
  for (const std::string& protocol : protocol_names()) {
    std::unique_ptr<Model> model = make_model(protocol, bounds);
    ExploreResult result = Explorer().run(*model);
    EXPECT_TRUE(result.ok()) << protocol;
  }
}

TEST(CheckModels, ZeroFaultBudgetLeavesOnlyCleanSchedules) {
  ModelBounds bounds = small_bounds();
  bounds.faults = 0;
  for (const std::string& protocol : {std::string("recovery"), std::string("quarantine")}) {
    std::unique_ptr<Model> model = make_model(protocol, bounds);
    ExploreResult result = Explorer().run(*model);
    EXPECT_TRUE(result.ok()) << protocol;
    // The adversary has no budget: exactly one (all-clean) schedule exists.
    EXPECT_EQ(result.stats.terminal_states, 1u) << protocol;
  }
}

TEST(CheckModels, LargerInboxBoundsStayExhaustive) {
  ModelBounds bounds = small_bounds();
  bounds.machines = 3;
  bounds.messages = 2;
  bounds.faults = 2;
  std::unique_ptr<Model> model = make_model("inbox", bounds);
  ExploreResult result = Explorer().run(*model);
  EXPECT_TRUE(result.ok());
  EXPECT_FALSE(result.stats.state_bound_hit);
  // Commuting deliveries collapse, via the sleep sets or the visited set.
  EXPECT_GT(result.stats.pruned_converged + result.stats.pruned_sleep, 0u);
}

TEST(CheckModels, FingerprintsAreResetStable) {
  // A model must fingerprint identically after reset() — replay-based
  // backtracking depends on it.
  for (const std::string& protocol : protocol_names()) {
    std::unique_ptr<Model> model = make_model(protocol, small_bounds());
    model->reset();
    const std::uint64_t first = model->fingerprint();
    std::vector<Action> acts = model->enabled();
    if (!acts.empty()) model->apply(acts.front().key);
    model->reset();
    EXPECT_EQ(model->fingerprint(), first) << protocol;
  }
}

TEST(CheckModels, ParseBoundsReadsUnsignedDecimalsOnce) {
  const ModelBounds bounds = parse_bounds("machines=3,,faults=0");
  EXPECT_EQ(bounds.machines, 3u);
  EXPECT_EQ(bounds.faults, 0u);
  EXPECT_EQ(bounds.rounds, ModelBounds{}.rounds);
  for (const char* bad : {"machines=2x", "machines=-1", "machines= 2", "machines=1,machines=2",
                          "machines", "=2", "widgets=2"}) {
    EXPECT_THROW((void)parse_bounds(bad), std::invalid_argument) << bad;
  }
}

TEST(CheckModels, BoundsSummaryRoundTrips) {
  ModelBounds bounds;
  bounds.machines = 4;
  bounds.rounds = 3;
  bounds.messages = 1;
  bounds.faults = 2;
  bounds.depth = 99;
  bounds.states = 12345;
  const std::string summary = bounds_summary(bounds);
  EXPECT_EQ(summary, "machines=4,rounds=3,messages=1,faults=2,depth=99,states=12345");
  const ModelBounds parsed = parse_bounds(summary);
  EXPECT_EQ(bounds_summary(parsed), summary);
  EXPECT_EQ(parsed.states, 12345u);
}

}  // namespace
}  // namespace mpch::check
