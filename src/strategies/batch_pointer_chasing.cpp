#include "strategies/batch_pointer_chasing.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>

#include "util/serialize.hpp"

namespace mpch::strategies {

namespace {
constexpr std::uint64_t kDoneTag = 2;       // (inst, answer) to the collector
constexpr std::uint64_t kCollectedTag = 3;  // collector's running answer set
constexpr std::uint64_t kInstBits = 16;

std::uint64_t checked_instances(std::uint64_t instances) {
  if (instances == 0 || instances >= (1ULL << kInstBits)) {
    throw std::invalid_argument("BatchPointerChasingStrategy: instances out of range");
  }
  return instances;
}
}  // namespace

BatchPointerChasingStrategy::BatchPointerChasingStrategy(const core::LineParams& params,
                                                         OwnershipPlan plan,
                                                         std::uint64_t instances)
    : params_(params),
      codec_(params),
      plan_(std::move(plan)),
      instances_(checked_instances(instances)),
      block_cache_(plan_.machines(), instances_),
      scratch_(plan_.machines() * instances_) {}

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
  if (io.machine >= plan_.machines()) {
    throw std::out_of_range("BatchPointerChasingStrategy: machine " + std::to_string(io.machine) +
                            " is outside its " + std::to_string(plan_.machines()) +
                            "-machine plan");
  }
  const std::span<InstanceView> row(scratch_.data() + io.machine * instances_, instances_);
  for (InstanceView& view : row) {
    view.blocks = nullptr;
    view.has_frontier = false;
    view.has_answer = false;
  }

  // Every record names its instance; an id the batch does not have would be
  // stored, walked or collected as if it were one of the k.
  auto instance = [&](util::BitReader& r, const char* kind) {
    const std::uint64_t inst = r.read_uint(kInstBits);
    if (inst >= instances_) {
      throw std::invalid_argument("BatchPointerChasingStrategy: " + std::string(kind) +
                                  " record names instance " + std::to_string(inst) +
                                  " >= k=" + std::to_string(instances_) + " in round " +
                                  std::to_string(io.round));
    }
    return inst;
  };
  auto take_answer = [&](util::BitReader& r, const char* kind) {
    InstanceView& view = row[instance(r, kind)];
    view.answer = r.read_bits(params_.n);
    view.has_answer = true;
  };

  // Parse the inbox. Round-0 shares concatenate per-instance block records
  // into one message; later rounds carry one record per message. Records
  // are self-delimiting, so one reader walks each message in place.
  for (const auto& msg : *io.inbox) {
    util::BitReader r(msg.payload);
    while (!r.exhausted()) {
      const std::size_t start = r.position();
      const std::uint64_t tag = r.read_uint(kTagBits);
      if (tag == static_cast<std::uint64_t>(PayloadTag::kBlocks)) {
        // The block count sizes the record, so a truncated one is refused
        // before anything is decoded, and only a cache miss decodes it. A
        // record that is its whole message is looked up in place; only the
        // records of a round-0 share are sliced out.
        const std::uint64_t inst = instance(r, "blocks");
        const std::uint64_t record_bits =
            kTagBits + kInstBits + BlockSet::encoded_bits(params_, r.read_uint(32));
        if (record_bits > msg.payload.size() - start) {
          throw std::out_of_range("BatchPointerChasingStrategy: truncated block record");
        }
        const bool whole = start == 0 && record_bits == msg.payload.size();
        const util::BitString sliced =
            whole ? util::BitString() : msg.payload.slice(start, record_bits);
        const util::BitString& record = whole ? msg.payload : sliced;
        row[inst].blocks = &block_cache_.parse(io.machine, inst, record, [&] {
          util::BitReader body(record);
          body.skip(kTagBits + kInstBits);
          return BlockSet::read(params_, body);
        });
        r.skip(start + record_bits - r.position());
      } else if (tag == static_cast<std::uint64_t>(PayloadTag::kFrontier)) {
        InstanceView& view = row[instance(r, "frontier")];
        view.frontier = Frontier::read(params_, r);
        view.has_frontier = true;
      } else if (tag == kDoneTag) {
        take_answer(r, "done");
      } else {  // kCollectedTag, the last of the four 2-bit tags
        const std::uint64_t count = r.read_uint(16);
        for (std::uint64_t i = 0; i < count; ++i) take_answer(r, "collected");
      }
    }
  }

  // Bootstrap every instance whose first block we own.
  if (io.round == 0 && plan_.owner_of(1) == io.machine) {
    for (InstanceView& view : row) {
      if (view.has_frontier) continue;
      view.frontier = Frontier::start(params_);
      view.has_frontier = true;
    }
  }

  // Advance every frontier we hold (instances interleave in one round). The
  // sends below keep one order: frontiers and dones by instance, then the
  // collector's set, then the block records by instance.
  std::uint64_t advanced = 0;
  for (std::uint64_t inst = 0; inst < instances_; ++inst) {
    InstanceView& view = row[inst];
    if (!view.has_frontier || view.blocks == nullptr) continue;
    Frontier& f = view.frontier;
    util::BitString last_answer;
    const std::uint64_t walked = walk_owned(codec_, *view.blocks, *oracle, f, last_answer);
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
  if (io.machine == 0) {
    const auto answers = static_cast<std::uint64_t>(
        std::count_if(row.begin(), row.end(), [](const InstanceView& v) { return v.has_answer; }));
    if (answers > 0) {
      util::BitWriter w;
      w.write_uint(kCollectedTag, kTagBits);
      w.write_uint(answers, 16);
      for (std::uint64_t inst = 0; inst < instances_; ++inst) {
        if (!row[inst].has_answer) continue;
        w.write_uint(inst, kInstBits);
        w.write_bits(row[inst].answer);
      }
      if (answers == instances_) {
        io.output = w.take();
        finished = true;
      } else {
        io.send(0, w.take());
      }
    }
  }

  if (!finished) {
    for (std::uint64_t inst = 0; inst < instances_; ++inst) {
      if (row[inst].blocks != nullptr) io.send(io.machine, block_cache_.payload(io.machine, inst));
    }
  }
}

}  // namespace mpch::strategies
