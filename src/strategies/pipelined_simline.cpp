#include "strategies/pipelined_simline.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

namespace mpch::strategies {

PipelinedSimLineStrategy::PipelinedSimLineStrategy(const core::LineParams& params,
                                                   OwnershipPlan plan)
    : params_(params), codec_(params), plan_(std::move(plan)), block_cache_(plan_.machines(), 1) {}

namespace {

/// Lengths of the public schedule's runs of consecutively owned blocks,
/// from node 1 on: the carrier covers one run per round. O(w), like the
/// schedule itself.
std::vector<std::uint64_t> owned_runs(const core::LineParams& params, const OwnershipPlan& plan) {
  std::vector<std::uint64_t> runs;
  std::uint64_t owner = 0;
  for (std::uint64_t i = 1; i <= params.w; ++i) {
    const std::uint64_t next = plan.owner_of((i - 1) % params.v + 1);
    if (runs.empty() || next != owner) runs.push_back(0);
    owner = next;
    ++runs.back();
  }
  return runs;
}

}  // namespace

std::uint64_t PipelinedSimLineStrategy::predicted_rounds() const {
  return owned_runs(params_, plan_).size();
}

std::uint64_t PipelinedSimLineStrategy::worst_round_advance() const {
  const std::vector<std::uint64_t> runs = owned_runs(params_, plan_);
  return runs.empty() ? 0 : *std::max_element(runs.begin(), runs.end());
}

void PipelinedSimLineStrategy::run_machine(mpc::MachineIo& io, hash::CountingOracle* oracle,
                                           const mpc::SharedTape& /*tape*/,
                                           mpc::RoundTrace& trace) {
  if (oracle == nullptr) {
    throw std::invalid_argument("PipelinedSimLineStrategy requires an oracle");
  }
  LineInbox inbox = parse_line_inbox(params_, block_cache_, io.machine, *io.inbox);

  // Bootstrap: node 1 consumes block 1; its owner starts with r_1 = 0^u.
  if (io.round == 0 && !inbox.frontier && inbox.blocks && plan_.owner_of(1) == io.machine) {
    inbox.frontier = Frontier::start(params_);
  }

  std::uint64_t advanced = 0;
  if (inbox.frontier && inbox.blocks) {
    Frontier f = *inbox.frontier;
    util::BitString last_answer;
    while (f.next_index <= params_.w && oracle->remaining_budget() > 0) {
      const util::BitString* x = inbox.blocks->find((f.next_index - 1) % params_.v + 1);
      if (x == nullptr) break;
      last_answer = oracle->query(codec_.encode_query(*x, f.r));
      f.r = codec_.decode_answer(last_answer).r;
      f.next_index += 1;
      ++advanced;
    }
    // `ell` carries the scheduled block x_{(i-1) mod v + 1} of node i.
    f.ell = (f.next_index - 1) % params_.v + 1;
    finish_or_hand_off(io, params_, plan_, f, advanced, std::move(last_answer));
  }
  trace.annotate("advance", advanced);

  if (inbox.blocks && !io.output.has_value()) {
    io.send(io.machine, *inbox.blocks_payload);
  }
}

}  // namespace mpch::strategies
