#include "strategies/block_store.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/serialize.hpp"

namespace mpch::strategies {

void BlockSet::add(std::uint64_t index, util::BitString value) {
  if (index == 0 || index > params_.v) {
    throw std::out_of_range("BlockSet::add: block index out of [1, v]");
  }
  if (value.size() != params_.u) {
    throw std::invalid_argument("BlockSet::add: block must be u bits");
  }
  blocks_[index] = std::move(value);
}

const util::BitString* BlockSet::find(std::uint64_t index) const {
  auto it = blocks_.find(index);
  return it == blocks_.end() ? nullptr : &it->second;
}

std::vector<std::uint64_t> BlockSet::indices() const {
  std::vector<std::uint64_t> out;
  out.reserve(blocks_.size());
  for (const auto& [idx, _] : blocks_) out.push_back(idx);
  std::sort(out.begin(), out.end());
  return out;
}

util::BitString BlockSet::encode() const {
  util::BitWriter w;
  w.write_uint(blocks_.size(), 32);
  for (std::uint64_t idx : indices()) {
    w.write_uint(idx, params_.ell_bits);
    w.write_bits(blocks_.at(idx));
  }
  return w.take();
}

BlockSet BlockSet::decode(const core::LineParams& params, const util::BitString& bits) {
  util::BitReader r(bits);
  return read(params, r);
}

BlockSet BlockSet::read(const core::LineParams& params, util::BitReader& reader) {
  std::uint64_t count = reader.read_uint(32);
  BlockSet out(params);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t idx = reader.read_uint(params.ell_bits);
    out.add(idx, reader.read_bits(params.u));
  }
  return out;
}

std::size_t BlockCache::slot_index(std::uint64_t machine, std::uint64_t record) const {
  if (record >= records_ || machine >= slots_.size() / records_) {
    throw std::out_of_range("BlockCache: no slot for machine " + std::to_string(machine) +
                            ", record " + std::to_string(record));
  }
  return machine * records_ + record;
}

std::uint64_t BlockSet::encoded_bits(const core::LineParams& params, std::uint64_t count) {
  return 32 + count * (params.ell_bits + params.u);
}

Frontier Frontier::start(const core::LineParams& params) {
  return Frontier{1, 1, util::BitString(params.u)};
}

util::BitString Frontier::encode(const core::LineParams& params) const {
  util::BitWriter w;
  w.write_uint(next_index, params.index_bits);
  w.write_uint(ell, params.ell_bits);
  if (r.size() != params.u) throw std::invalid_argument("Frontier::encode: r must be u bits");
  w.write_bits(r);
  return w.take();
}

Frontier Frontier::decode(const core::LineParams& params, const util::BitString& bits) {
  util::BitReader r(bits);
  return read(params, r);
}

Frontier Frontier::read(const core::LineParams& params, util::BitReader& reader) {
  Frontier f;
  f.next_index = reader.read_uint(params.index_bits);
  f.ell = reader.read_uint(params.ell_bits);
  f.r = reader.read_bits(params.u);
  return f;
}

std::uint64_t Frontier::encoded_bits(const core::LineParams& params) {
  return params.index_bits + params.ell_bits + params.u;
}

OwnershipPlan OwnershipPlan::round_robin(const core::LineParams& params, std::uint64_t machines) {
  if (machines == 0) throw std::invalid_argument("OwnershipPlan::round_robin: zero machines");
  OwnershipPlan plan;
  plan.owners_.resize(machines);
  for (std::uint64_t b = 1; b <= params.v; ++b) {
    std::uint64_t owner = (b - 1) % machines;
    plan.owners_[owner].push_back(b);
    plan.lookup_.emplace(b, owner);
  }
  return plan;
}

OwnershipPlan OwnershipPlan::windows(const core::LineParams& params, std::uint64_t machines,
                                     std::uint64_t window) {
  if (machines == 0) throw std::invalid_argument("OwnershipPlan::windows: zero machines");
  if (window == 0) throw std::invalid_argument("OwnershipPlan::windows: zero window");
  OwnershipPlan plan;
  plan.owners_.resize(machines);
  std::uint64_t num_windows = util::ceil_div(params.v, window);
  for (std::uint64_t wi = 0; wi < num_windows; ++wi) {
    std::uint64_t owner = wi % machines;
    for (std::uint64_t b = wi * window + 1; b <= std::min(params.v, (wi + 1) * window); ++b) {
      plan.owners_[owner].push_back(b);
      plan.lookup_.emplace(b, owner);
    }
  }
  for (auto& blocks : plan.owners_) std::sort(blocks.begin(), blocks.end());
  return plan;
}

OwnershipPlan OwnershipPlan::replicated(const core::LineParams& params, std::uint64_t machines,
                                        std::uint64_t per_machine) {
  if (machines == 0) throw std::invalid_argument("OwnershipPlan::replicated: zero machines");
  per_machine = std::min(per_machine, params.v);
  OwnershipPlan plan;
  plan.owners_.resize(machines);
  // Rotate starting offsets so the union covers as much of [v] as possible.
  std::uint64_t stride = std::max<std::uint64_t>(1, params.v / machines);
  for (std::uint64_t j = 0; j < machines; ++j) {
    for (std::uint64_t t = 0; t < per_machine; ++t) {
      std::uint64_t b = (j * stride + t) % params.v + 1;
      plan.owners_[j].push_back(b);
      plan.lookup_.emplace(b, j);  // keeps the first owner; any owner works
    }
    std::sort(plan.owners_[j].begin(), plan.owners_[j].end());
    plan.owners_[j].erase(std::unique(plan.owners_[j].begin(), plan.owners_[j].end()),
                          plan.owners_[j].end());
  }
  // A replication plan must still cover every block or pointer-chasing can
  // strand the frontier; fail loudly rather than at hand-off time.
  for (std::uint64_t b = 1; b <= params.v; ++b) {
    if (!plan.lookup_.count(b)) {
      throw std::invalid_argument(
          "OwnershipPlan::replicated: block " + std::to_string(b) +
          " uncovered (need machines*per_machine >= v with overlapping strides)");
    }
  }
  return plan;
}

std::uint64_t OwnershipPlan::owner_of(std::uint64_t index) const {
  auto it = lookup_.find(index);
  if (it == lookup_.end()) {
    throw std::logic_error("OwnershipPlan: block " + std::to_string(index) +
                           " has no owner; the plan must cover [1, v]");
  }
  return it->second;
}

std::uint64_t OwnershipPlan::max_owned() const {
  std::uint64_t best = 0;
  for (const auto& blocks : owners_) best = std::max<std::uint64_t>(best, blocks.size());
  return best;
}

std::uint64_t OwnershipPlan::heaviest_machine() const {
  std::uint64_t best = 0;
  for (std::uint64_t j = 1; j < owners_.size(); ++j) {
    if (owners_[j].size() > owners_[best].size()) best = j;
  }
  return best;
}

namespace {

util::BitString tagged(PayloadTag tag, const util::BitString& body) {
  util::BitWriter w;
  w.write_uint(static_cast<std::uint64_t>(tag), kTagBits);
  w.write_bits(body);
  return w.take();
}

PayloadTag read_tag(util::BitReader& reader) {
  const std::uint64_t tag = reader.read_uint(kTagBits);
  if (tag > static_cast<std::uint64_t>(PayloadTag::kFrontier)) {
    throw std::invalid_argument("unknown Line payload tag " + std::to_string(tag));
  }
  return static_cast<PayloadTag>(tag);
}

}  // namespace

std::vector<util::BitString> block_shares(const core::LineParams& params, const OwnershipPlan& plan,
                                          const core::LineInput& input) {
  std::vector<util::BitString> shares;
  shares.reserve(plan.machines());
  for (std::uint64_t j = 0; j < plan.machines(); ++j) {
    BlockSet set(params);
    for (std::uint64_t b : plan.owned_by(j)) set.add(b, input.block(b));
    shares.push_back(tagged(PayloadTag::kBlocks, set.encode()));
  }
  return shares;
}

util::BitString frontier_message(const core::LineParams& params, const Frontier& frontier) {
  return tagged(PayloadTag::kFrontier, frontier.encode(params));
}

BlockSet decode_blocks_message(const core::LineParams& params, const util::BitString& payload) {
  util::BitReader r(payload);
  if (read_tag(r) != PayloadTag::kBlocks) {
    throw std::invalid_argument("decode_blocks_message: not a blocks message");
  }
  return BlockSet::read(params, r);
}

LineInbox parse_line_inbox(const core::LineParams& params, BlockCache& cache,
                           std::uint64_t machine, const std::vector<mpc::Message>& inbox) {
  LineInbox out;
  for (const auto& msg : inbox) {
    util::BitReader r(msg.payload);
    if (read_tag(r) == PayloadTag::kBlocks) {
      out.blocks_payload = &msg.payload;
      out.blocks = &cache.parse(machine, 0, msg.payload, [&] { return BlockSet::read(params, r); });
    } else {
      Frontier f = Frontier::read(params, r);
      if (!out.frontier || f.next_index > out.frontier->next_index) out.frontier = std::move(f);
    }
  }
  return out;
}

}  // namespace mpch::strategies
