#include "strategies/block_store.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "strategies/pointer_chasing.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace mpch::strategies {
namespace {

using util::BitString;

core::LineParams params() { return core::LineParams::make(64, 16, 8, 100); }

TEST(BlockSet, AddFindContains) {
  core::LineParams p = params();
  BlockSet set(p);
  BitString x = BitString::from_uint(0xABCD, 16);
  set.add(3, x);
  EXPECT_TRUE(set.contains(3));
  EXPECT_FALSE(set.contains(4));
  ASSERT_NE(set.find(3), nullptr);
  EXPECT_EQ(*set.find(3), x);
  EXPECT_EQ(set.find(4), nullptr);
  EXPECT_EQ(set.size(), 1u);
}

TEST(BlockSet, RejectsBadIndexOrWidth) {
  core::LineParams p = params();
  BlockSet set(p);
  EXPECT_THROW(set.add(0, BitString(16)), std::out_of_range);
  EXPECT_THROW(set.add(9, BitString(16)), std::out_of_range);
  EXPECT_THROW(set.add(1, BitString(15)), std::invalid_argument);
}

TEST(BlockSet, EncodeDecodeRoundTrip) {
  core::LineParams p = params();
  util::Rng rng(1);
  BlockSet set(p);
  for (std::uint64_t b : {7, 2, 5}) {
    set.add(b, BitString::random(p.u, [&] { return rng.next_u64(); }));
  }
  BitString wire = set.encode();
  EXPECT_EQ(wire.size(), BlockSet::encoded_bits(p, 3));
  BlockSet decoded = BlockSet::decode(p, wire);
  EXPECT_EQ(decoded.size(), 3u);
  for (std::uint64_t b : {7, 2, 5}) {
    ASSERT_TRUE(decoded.contains(b));
    EXPECT_EQ(*decoded.find(b), *set.find(b));
  }
}

TEST(BlockSet, EmptyEncode) {
  core::LineParams p = params();
  BlockSet set(p);
  BlockSet decoded = BlockSet::decode(p, set.encode());
  EXPECT_EQ(decoded.size(), 0u);
}

TEST(BlockSet, IndicesSorted) {
  core::LineParams p = params();
  BlockSet set(p);
  for (std::uint64_t b : {6, 1, 4}) set.add(b, util::BitString(p.u));
  EXPECT_EQ(set.indices(), (std::vector<std::uint64_t>{1, 4, 6}));
}

/// A cache's decode callback for `wire` that counts its calls.
auto counting_decoder(const core::LineParams& p, const BitString& wire, int& decodes) {
  return [&p, &wire, &decodes] {
    ++decodes;
    return BlockSet::decode(p, wire);
  };
}

BlockSet one_block(const core::LineParams& p, std::uint64_t index, std::uint64_t value) {
  BlockSet set(p);
  set.add(index, BitString::from_uint(value, p.u));
  return set;
}

TEST(BlockCache, RepeatReturnsTheSameParse) {
  core::LineParams p = params();
  const BitString wire = one_block(p, 1, 0x1111).encode();
  BlockCache cache(2, 1);
  int decodes = 0;
  const BlockSet& first = cache.parse(0, 0, wire, counting_decoder(p, wire, decodes));
  const BitString copy = wire;  // equal bits in another buffer still hit
  const BlockSet& again = cache.parse(0, 0, copy, counting_decoder(p, copy, decodes));
  EXPECT_EQ(&first, &again);
  EXPECT_EQ(decodes, 1);
  EXPECT_EQ(cache.payload(0, 0), wire);
}

TEST(BlockCache, OneBitAwayDecodesAfresh) {
  core::LineParams p = params();
  const BitString wire = one_block(p, 1, 0x1111).encode();
  BlockCache cache(1, 1);
  int decodes = 0;
  ASSERT_EQ(*cache.parse(0, 0, wire, counting_decoder(p, wire, decodes)).find(1),
            BitString::from_uint(0x1111, p.u));
  // Flip the last bit of the block value: same length, one bit apart.
  BitString flipped = wire;
  flipped.set(flipped.size() - 1, !flipped.get(flipped.size() - 1));
  const BlockSet& parsed = cache.parse(0, 0, flipped, counting_decoder(p, flipped, decodes));
  EXPECT_EQ(decodes, 2);
  EXPECT_EQ(*parsed.find(1), BitString::from_uint(0x1110, p.u));
  EXPECT_EQ(cache.payload(0, 0), flipped);
}

TEST(BlockCache, MachineNeverGetsAnotherMachinesParse) {
  core::LineParams p = params();
  const BitString wire_a = one_block(p, 1, 0x1111).encode();
  const BitString wire_b = one_block(p, 2, 0x2222).encode();
  BlockCache cache(2, 1);
  int decodes = 0;
  const BlockSet& on_0 = cache.parse(0, 0, wire_a, counting_decoder(p, wire_a, decodes));
  // Machine 1 parses the very same payload itself, into its own slot.
  const BlockSet& on_1 = cache.parse(1, 0, wire_a, counting_decoder(p, wire_a, decodes));
  EXPECT_NE(&on_0, &on_1);
  EXPECT_EQ(decodes, 2);
  // A new payload on machine 1 leaves machine 0's parse as it was.
  EXPECT_TRUE(cache.parse(1, 0, wire_b, counting_decoder(p, wire_b, decodes)).contains(2));
  EXPECT_EQ(&cache.parse(0, 0, wire_a, counting_decoder(p, wire_a, decodes)), &on_0);
  EXPECT_EQ(decodes, 3);
  EXPECT_TRUE(on_0.contains(1));
  EXPECT_FALSE(on_0.contains(2));
}

TEST(BlockCache, SlotCountStaysFixedAcrossDistinctPayloads) {
  core::LineParams p = params();
  BlockCache cache(2, 3);
  ASSERT_EQ(cache.slots(), 6u);
  int decodes = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const BitString wire = one_block(p, i % p.v + 1, i).encode();
    const BlockSet& parsed = cache.parse(i % 2, i % 3, wire, counting_decoder(p, wire, decodes));
    EXPECT_EQ(*parsed.find(i % p.v + 1), BitString::from_uint(i, p.u)) << i;
  }
  EXPECT_EQ(decodes, 1000);
  EXPECT_EQ(cache.slots(), 6u);
}

TEST(BlockCache, NoSlotOutsideItsSizes) {
  core::LineParams p = params();
  const BitString wire = one_block(p, 1, 0x1111).encode();
  BlockCache cache(2, 3);
  int decodes = 0;
  EXPECT_THROW(cache.parse(2, 0, wire, counting_decoder(p, wire, decodes)), std::out_of_range);
  EXPECT_THROW(cache.parse(0, 3, wire, counting_decoder(p, wire, decodes)), std::out_of_range);
  EXPECT_EQ(decodes, 0);
}

TEST(Frontier, EncodeDecodeRoundTrip) {
  core::LineParams p = params();
  util::Rng rng(2);
  Frontier f;
  f.next_index = 57;
  f.ell = 6;
  f.r = BitString::random(p.u, [&] { return rng.next_u64(); });
  BitString wire = f.encode(p);
  EXPECT_EQ(wire.size(), Frontier::encoded_bits(p));
  Frontier decoded = Frontier::decode(p, wire);
  EXPECT_EQ(decoded.next_index, 57u);
  EXPECT_EQ(decoded.ell, 6u);
  EXPECT_EQ(decoded.r, f.r);
}

TEST(OwnershipPlan, RoundRobinCoversAllBlocks) {
  core::LineParams p = params();
  OwnershipPlan plan = OwnershipPlan::round_robin(p, 3);
  EXPECT_EQ(plan.machines(), 3u);
  std::uint64_t total = 0;
  for (std::uint64_t j = 0; j < 3; ++j) total += plan.owned_by(j).size();
  EXPECT_EQ(total, p.v);
  for (std::uint64_t b = 1; b <= p.v; ++b) {
    // The declared owner really owns the block.
    const auto& owned = plan.owned_by(plan.owner_of(b));
    EXPECT_NE(std::find(owned.begin(), owned.end(), b), owned.end());
  }
}

TEST(OwnershipPlan, WindowsAreContiguous) {
  core::LineParams p = params();  // v = 8
  OwnershipPlan plan = OwnershipPlan::windows(p, 2, 3);
  // Windows: [1..3]->m0, [4..6]->m1, [7..8]->m0.
  EXPECT_EQ(plan.owned_by(0), (std::vector<std::uint64_t>{1, 2, 3, 7, 8}));
  EXPECT_EQ(plan.owned_by(1), (std::vector<std::uint64_t>{4, 5, 6}));
}

TEST(OwnershipPlan, ReplicatedIncreasesPerMachineFraction) {
  core::LineParams p = params();
  OwnershipPlan plan = OwnershipPlan::replicated(p, 4, 6);
  for (std::uint64_t j = 0; j < 4; ++j) {
    EXPECT_EQ(plan.owned_by(j).size(), 6u) << j;
  }
  // Coverage: every block has some owner (6 per machine, stride v/m = 2).
  for (std::uint64_t b = 1; b <= p.v; ++b) {
    EXPECT_NO_THROW(plan.owner_of(b)) << b;
  }
}

TEST(OwnershipPlan, ReplicatedClampsToV) {
  core::LineParams p = params();
  OwnershipPlan plan = OwnershipPlan::replicated(p, 2, 100);
  EXPECT_EQ(plan.owned_by(0).size(), p.v);
  EXPECT_EQ(plan.max_owned(), p.v);
}

TEST(OwnershipPlan, ReplicatedRejectsUncoverablePlans) {
  core::LineParams p = core::LineParams::make(64, 16, 64, 100);  // v = 64
  // 8 machines x 4 blocks = 32 < 64: coverage impossible.
  EXPECT_THROW(OwnershipPlan::replicated(p, 8, 4), std::invalid_argument);
  // 16 machines x 4 = 64 with stride 4: exactly covers.
  EXPECT_NO_THROW(OwnershipPlan::replicated(p, 16, 4));
}

TEST(OwnershipPlan, AllFactoriesRejectZeroMachines) {
  core::LineParams p = params();
  EXPECT_THROW(OwnershipPlan::round_robin(p, 0), std::invalid_argument);
  EXPECT_THROW(OwnershipPlan::windows(p, 0, 2), std::invalid_argument);
  EXPECT_THROW(OwnershipPlan::replicated(p, 0, 2), std::invalid_argument);
}

TEST(OwnershipPlan, MaxOwned) {
  core::LineParams p = params();
  OwnershipPlan plan = OwnershipPlan::round_robin(p, 3);
  EXPECT_EQ(plan.max_owned(), 3u);  // ceil(8/3)
}

Frontier frontier_at(const core::LineParams& p, std::uint64_t next_index, std::uint64_t r) {
  return Frontier{next_index, 3, BitString::from_uint(r, p.u)};
}

std::vector<mpc::Message> inbox_of(const std::vector<BitString>& payloads) {
  std::vector<mpc::Message> inbox;
  for (const BitString& payload : payloads) inbox.push_back({0, 0, payload});
  return inbox;
}

TEST(LineInbox, UnknownTagThrows) {
  core::LineParams p = params();
  BlockCache cache(1, 1);
  for (std::uint64_t tag : {2, 3}) {
    util::BitWriter w;
    w.write_uint(tag, kTagBits);
    w.write_bits(frontier_at(p, 1, 0).encode(p));
    EXPECT_THROW(parse_line_inbox(p, cache, 0, inbox_of({w.take()})), std::invalid_argument)
        << tag;
  }
}

TEST(LineInbox, KeepsFurthestFrontierAndFirstOnTie) {
  core::LineParams p = params();
  BlockCache cache(1, 1);
  LineInbox parsed = parse_line_inbox(
      p, cache, 0,
      inbox_of({frontier_message(p, frontier_at(p, 5, 0xA)),
                frontier_message(p, frontier_at(p, 9, 0xB)),
                frontier_message(p, frontier_at(p, 9, 0xC)),
                frontier_message(p, frontier_at(p, 7, 0xD))}));
  ASSERT_TRUE(parsed.frontier.has_value());
  EXPECT_EQ(parsed.frontier->next_index, 9u);
  EXPECT_EQ(parsed.frontier->r, BitString::from_uint(0xB, p.u));
}

TEST(LineInbox, EmptyInboxHoldsNothing) {
  core::LineParams p = params();
  BlockCache cache(1, 1);
  LineInbox parsed = parse_line_inbox(p, cache, 0, {});
  EXPECT_EQ(parsed.blocks, nullptr);
  EXPECT_EQ(parsed.blocks_payload, nullptr);
  EXPECT_FALSE(parsed.frontier.has_value());
}

TEST(LineInbox, EachMachineParsesItsBlocksThroughItsOwnSlot) {
  core::LineParams p = params();
  util::Rng rng(3);
  core::LineInput input = core::LineInput::random(p, rng);
  const OwnershipPlan plan = OwnershipPlan::round_robin(p, 2);
  const std::vector<BitString> shares = block_shares(p, plan, input);
  BlockCache cache(2, 1);
  const std::vector<mpc::Message> inbox = inbox_of({shares[0]});
  LineInbox first = parse_line_inbox(p, cache, 0, inbox);
  LineInbox again = parse_line_inbox(p, cache, 0, inbox_of({shares[0]}));
  ASSERT_NE(first.blocks, nullptr);
  EXPECT_EQ(first.blocks, again.blocks);  // the cached parse, not a fresh decode
  LineInbox other = parse_line_inbox(p, cache, 1, inbox_of({shares[1]}));
  ASSERT_NE(other.blocks, nullptr);
  EXPECT_NE(other.blocks, first.blocks);
  EXPECT_EQ(other.blocks->indices(), plan.owned_by(1));
  EXPECT_EQ(first.blocks->indices(), plan.owned_by(0));
  EXPECT_THROW(parse_line_inbox(p, cache, 2, inbox), std::out_of_range);
}

TEST(LineInbox, SharesAndFrontierMessagesRoundTrip) {
  core::LineParams p = params();
  util::Rng rng(4);
  core::LineInput input = core::LineInput::random(p, rng);
  OwnershipPlan plan = OwnershipPlan::round_robin(p, 3);
  const std::vector<BitString> shares = block_shares(p, plan, input);
  ASSERT_EQ(shares.size(), 3u);
  const Frontier sent = frontier_at(p, 6, 0x5A);
  for (std::uint64_t j = 0; j < 3; ++j) {
    BlockCache cache(3, 1);
    const std::vector<mpc::Message> inbox =
        inbox_of({frontier_message(p, sent), shares[j]});
    LineInbox parsed = parse_line_inbox(p, cache, j, inbox);
    EXPECT_EQ(parsed.blocks_payload, &inbox[1].payload);
    ASSERT_NE(parsed.blocks, nullptr);
    EXPECT_EQ(parsed.blocks->indices(), plan.owned_by(j));
    for (std::uint64_t b : plan.owned_by(j)) EXPECT_EQ(*parsed.blocks->find(b), input.block(b));
    EXPECT_EQ(decode_blocks_message(p, shares[j]).indices(), plan.owned_by(j));
    ASSERT_TRUE(parsed.frontier.has_value());
    EXPECT_EQ(parsed.frontier->next_index, sent.next_index);
    EXPECT_EQ(parsed.frontier->ell, sent.ell);
    EXPECT_EQ(parsed.frontier->r, sent.r);
  }
  EXPECT_THROW(decode_blocks_message(p, frontier_message(p, sent)), std::invalid_argument);
}

TEST(LineInbox, HandOffToUncoveredBlockThrows) {
  core::LineParams p = params();
  OwnershipPlan plan = OwnershipPlan::round_robin(p, 2);
  EXPECT_THROW(plan.owner_of(p.v + 1), std::logic_error);
  mpc::MachineIo io;
  Frontier f = frontier_at(p, 2, 0);
  f.ell = p.v + 1;
  EXPECT_THROW(finish_or_hand_off(io, p, plan, f, 1, BitString(p.n)), std::logic_error);
  EXPECT_TRUE(io.outbox.empty());
}

}  // namespace
}  // namespace mpch::strategies
