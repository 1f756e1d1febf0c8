#include "strategies/batch_pointer_chasing.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "util/serialize.hpp"

namespace mpch::strategies {

namespace {
constexpr std::uint64_t kDoneTag = 2;       // (inst, answer) to the collector
constexpr std::uint64_t kCollectedTag = 3;  // collector's running answer set
constexpr std::uint64_t kInstBits = 16;
}  // namespace

BatchPointerChasingStrategy::BatchPointerChasingStrategy(const core::LineParams& params,
                                                         OwnershipPlan plan,
                                                         std::uint64_t instances)
    : params_(params), codec_(params), plan_(std::move(plan)), instances_(instances) {
  if (instances_ == 0 || instances_ >= (1ULL << kInstBits)) {
    throw std::invalid_argument("BatchPointerChasingStrategy: instances out of range");
  }
}

std::vector<util::BitString> BatchPointerChasingStrategy::make_initial_memory(
    const std::vector<core::LineInput>& inputs) const {
  if (inputs.size() != instances_) {
    throw std::invalid_argument("BatchPointerChasingStrategy: wrong input count");
  }
  std::vector<util::BitString> shares(plan_.machines());
  for (std::uint64_t j = 0; j < plan_.machines(); ++j) {
    for (std::uint64_t inst = 0; inst < instances_; ++inst) {
      BlockSet set(params_);
      for (std::uint64_t b : plan_.owned_by(j)) set.add(b, inputs[inst].block(b));
      util::BitWriter w;
      w.write_uint(static_cast<std::uint64_t>(PayloadTag::kBlocks), kTagBits);
      w.write_uint(inst, kInstBits);
      w.write_bits(set.encode());
      shares[j] += w.take();
    }
  }
  return shares;
}

std::uint64_t BatchPointerChasingStrategy::required_local_memory() const {
  std::uint64_t per_instance_blocks =
      kTagBits + kInstBits + BlockSet::encoded_bits(params_, plan_.max_owned());
  std::uint64_t frontiers = instances_ * (kTagBits + kInstBits + Frontier::encoded_bits(params_));
  std::uint64_t done = instances_ * (kTagBits + kInstBits + params_.n);
  std::uint64_t collected = kTagBits + 16 + instances_ * (kInstBits + params_.n);
  return instances_ * per_instance_blocks + frontiers + done + collected;
}

analysis::ProtocolSpec BatchPointerChasingStrategy::protocol_spec() const {
  const std::uint64_t block_rec =
      kTagBits + kInstBits + BlockSet::encoded_bits(params_, plan_.max_owned());
  const std::uint64_t frontier_rec = kTagBits + kInstBits + Frontier::encoded_bits(params_);
  const std::uint64_t done_rec = kTagBits + kInstBits + params_.n;
  const std::uint64_t collected_rec = kTagBits + 16 + instances_ * (kInstBits + params_.n);

  analysis::ProtocolSpec spec;
  spec.protocol = name();
  spec.machines = plan_.machines();
  spec.max_rounds = instances_ * params_.w + 2;
  spec.needs_oracle = true;
  spec.clamps_queries_to_budget = true;

  analysis::RoundEnvelope env;
  env.memory_bits = required_local_memory();
  env.oracle_queries = instances_ * params_.w;
  // Per held instance: one frontier/done plus the blocks-to-self re-send;
  // machine 0 adds the collected set.
  env.fan_out = 2 * instances_ + 1;
  // Machine 0 worst case: own blocks + a frontier and a done per instance,
  // plus its previous collected set.
  env.fan_in = 3 * instances_ + 1;
  env.sent_bits = required_local_memory();
  env.recv_bits = required_local_memory();
  env.max_message_bits =
      std::max({block_rec, frontier_rec, done_rec, collected_rec});
  env.witness_machine = 0;  // collector
  spec.steady = env;
  return spec;
}

std::vector<util::BitString> BatchPointerChasingStrategy::parse_outputs(
    const core::LineParams& params, const util::BitString& output, std::uint64_t instances) {
  std::vector<util::BitString> answers(instances);
  util::BitReader r(output);
  if (r.read_uint(kTagBits) != kCollectedTag) {
    throw std::invalid_argument("BatchPointerChasing output: unexpected tag");
  }
  std::uint64_t count = r.read_uint(16);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t inst = r.read_uint(kInstBits);
    answers.at(inst) = r.read_bits(params.n);
  }
  return answers;
}

void BatchPointerChasingStrategy::run_machine(mpc::MachineIo& io, hash::CountingOracle* oracle,
                                              const mpc::SharedTape& /*tape*/,
                                              mpc::RoundTrace& trace) {
  if (oracle == nullptr) {
    throw std::invalid_argument("BatchPointerChasingStrategy requires an oracle");
  }

  // Parse the inbox. Round-0 shares concatenate per-instance block payloads
  // into one message; later rounds carry one message per payload. The block
  // payload format is self-delimiting, so parse sequentially either way.
  std::map<std::uint64_t, std::pair<util::BitString, std::shared_ptr<const BlockSet>>> blocks;
  std::map<std::uint64_t, Frontier> frontiers;
  std::map<std::uint64_t, util::BitString> collected;  // inst -> answer
  for (const auto& msg : *io.inbox) {
    // Messages may concatenate several records (round-0 shares do); `rest`
    // always holds the unparsed suffix and every slice is relative to it.
    util::BitString rest = msg.payload;
    while (rest.size() > 0) {
      util::BitReader r(rest);
      auto tag = r.read_uint(kTagBits);
      if (tag == static_cast<std::uint64_t>(PayloadTag::kBlocks)) {
        // The block count sizes the record, so the exact framed record (kept
        // for cheap re-sending) is sliced before anything is decoded, and
        // only a cache miss decodes it.
        std::uint64_t inst = r.read_uint(kInstBits);
        const std::uint64_t header_bits = kTagBits + kInstBits;
        const std::uint64_t record_bits =
            header_bits + BlockSet::encoded_bits(params_, r.read_uint(32));
        if (record_bits > rest.size()) {
          throw std::out_of_range("BatchPointerChasingStrategy: truncated block record");
        }
        util::BitString exact = rest.slice(0, record_bits);
        std::shared_ptr<const BlockSet> parsed = block_cache_.find_or_decode(exact, [&] {
          return BlockSet::decode(params_, exact.slice(header_bits, record_bits - header_bits));
        });
        blocks[inst] = {std::move(exact), std::move(parsed)};
        rest = rest.slice(record_bits, rest.size() - record_bits);
        continue;
      }
      if (tag == static_cast<std::uint64_t>(PayloadTag::kFrontier)) {
        std::uint64_t inst = r.read_uint(kInstBits);
        std::size_t consumed = 0;
        util::BitString body = rest.slice(r.position(), rest.size() - r.position());
        frontiers[inst] = Frontier::decode(params_, body, &consumed);
        rest = body.slice(consumed, body.size() - consumed);
        continue;
      }
      if (tag == kDoneTag) {
        std::uint64_t inst = r.read_uint(kInstBits);
        collected[inst] = r.read_bits(params_.n);
        rest = rest.slice(r.position(), rest.size() - r.position());
        continue;
      }
      if (tag == kCollectedTag) {
        std::uint64_t count = r.read_uint(16);
        for (std::uint64_t i = 0; i < count; ++i) {
          std::uint64_t inst = r.read_uint(kInstBits);
          collected[inst] = r.read_bits(params_.n);
        }
        rest = rest.slice(r.position(), rest.size() - r.position());
        continue;
      }
      throw std::invalid_argument("BatchPointerChasingStrategy: unknown payload tag");
    }
  }

  // Bootstrap every instance whose first block we own.
  if (io.round == 0 && plan_.owner_of(1) == io.machine) {
    for (std::uint64_t inst = 0; inst < instances_; ++inst) {
      frontiers.emplace(inst, Frontier::start(params_));
    }
  }

  // Advance every frontier we hold (instances interleave in one round).
  std::uint64_t advanced = 0;
  for (auto& [inst, f] : frontiers) {
    auto bit = blocks.find(inst);
    if (bit == blocks.end()) continue;
    util::BitString last_answer;
    const std::uint64_t walked = walk_owned(codec_, *bit->second.second, *oracle, f, last_answer);
    advanced += walked;
    if (f.next_index > params_.w && walked > 0) {
      util::BitWriter w;
      w.write_uint(kDoneTag, kTagBits);
      w.write_uint(inst, kInstBits);
      w.write_bits(last_answer);
      io.send(0, w.take());
    } else {
      util::BitWriter w;
      w.write_uint(static_cast<std::uint64_t>(PayloadTag::kFrontier), kTagBits);
      w.write_uint(inst, kInstBits);
      w.write_bits(f.encode(params_));
      io.send(plan_.owner_of(f.ell), w.take());
    }
  }
  trace.annotate("advance", advanced);

  // Collector duty on machine 0.
  bool finished = false;
  if (io.machine == 0 && !collected.empty()) {
    util::BitWriter w;
    w.write_uint(kCollectedTag, kTagBits);
    w.write_uint(collected.size(), 16);
    for (const auto& [inst, answer] : collected) {
      w.write_uint(inst, kInstBits);
      w.write_bits(answer);
    }
    if (collected.size() == instances_) {
      io.output = w.take();
      finished = true;
    } else {
      io.send(0, w.take());
    }
  }

  if (!finished) {
    for (const auto& [inst, payload] : blocks) io.send(io.machine, payload.first);
  }
}

}  // namespace mpch::strategies
