#include "strategies/full_memory.hpp"

#include <stdexcept>

namespace mpch::strategies {

FullMemoryStrategy::FullMemoryStrategy(const core::LineParams& params, OwnershipPlan plan)
    : params_(params), codec_(params), plan_(std::move(plan)) {}

std::uint64_t FullMemoryStrategy::required_local_memory() const {
  // Worst case the gather target receives one tagged BlockSet per machine.
  return plan_.machines() * (kTagBits + 32) + params_.v * (params_.ell_bits + params_.u);
}

analysis::ProtocolSpec FullMemoryStrategy::protocol_spec() const {
  const std::uint64_t share_bits =
      kTagBits + BlockSet::encoded_bits(params_, plan_.max_owned());
  const std::uint64_t gathered_bits = required_local_memory();

  analysis::ProtocolSpec spec;
  spec.protocol = name();
  spec.machines = plan_.machines();
  spec.max_rounds = 2;
  spec.needs_oracle = true;
  spec.clamps_queries_to_budget = false;

  // Round 0: every machine forwards its share to machine 0. The fan-in /
  // recv peaks of round 0 are the arrivals *for* round 1, all at machine 0.
  analysis::RoundEnvelope scatter;
  scatter.memory_bits = share_bits;
  scatter.oracle_queries = 0;
  scatter.fan_out = 1;
  scatter.fan_in = plan_.machines();
  scatter.sent_bits = share_bits;
  scatter.recv_bits = gathered_bits;
  scatter.max_message_bits = share_bits;
  scatter.witness_machine = 0;
  spec.prologue.push_back(scatter);

  // Round 1: machine 0 holds everything and walks the chain locally.
  analysis::RoundEnvelope walk;
  walk.memory_bits = gathered_bits;
  walk.oracle_queries = params_.w;
  walk.fan_out = 0;
  walk.fan_in = 0;
  walk.sent_bits = 0;
  walk.recv_bits = 0;
  walk.max_message_bits = 0;
  walk.witness_machine = 0;
  spec.steady = walk;
  return spec;
}

void FullMemoryStrategy::run_machine(mpc::MachineIo& io, hash::CountingOracle* oracle,
                                     const mpc::SharedTape& /*tape*/, mpc::RoundTrace& trace) {
  if (oracle == nullptr) throw std::invalid_argument("FullMemoryStrategy requires an oracle");

  if (io.round == 0) {
    // Ship our share to machine 0 verbatim.
    for (const auto& msg : *io.inbox) {
      io.send(0, msg.payload);
    }
    trace.annotate("advance", 0);
    return;
  }

  if (io.machine != 0) {
    trace.annotate("advance", 0);
    return;
  }

  // Machine 0: merge all block sets, then walk the whole chain locally.
  BlockSet all(params_);
  for (const auto& msg : *io.inbox) {
    BlockSet part = decode_blocks_message(params_, msg.payload);
    for (std::uint64_t idx : part.indices()) all.add(idx, *part.find(idx));
  }
  if (all.size() != params_.v) {
    throw std::logic_error("FullMemoryStrategy: gathered " + std::to_string(all.size()) +
                           " blocks, expected v=" + std::to_string(params_.v));
  }

  std::uint64_t ell = 1;
  util::BitString r(params_.u);
  util::BitString answer;
  for (std::uint64_t i = 1; i <= params_.w; ++i) {
    answer = oracle->query(codec_.encode_query(i, *all.find(ell), r));
    core::LineAnswer a = codec_.decode_answer(answer);
    ell = a.ell;
    r = a.r;
  }
  trace.annotate("advance", params_.w);
  io.output = answer;
}

}  // namespace mpch::strategies
