// fault_checkpoint_test.cpp — the checkpoint wire format and its integrity
// guards: serialize -> deserialize -> serialize is byte-identical, every
// corruption class (magic, version, length, checksum, truncation, trailing
// bits) is rejected with a diagnostic naming what failed, file round-trips
// survive, make_resume_state re-verifies the oracle memo against the
// supplied oracle's seed, and the wire bytes of a real run's checkpoints
// match a digest recorded before the codec was rewritten.
#include "fault/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/line.hpp"
#include "hash/random_oracle.hpp"
#include "hash/sha256.hpp"
#include "hash_reference.hpp"
#include "mpc/simulation.hpp"
#include "strategies/pointer_chasing.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace mpch {
namespace {

using fault::Checkpoint;
using fault::CheckpointError;
using util::BitString;

/// A checkpoint exercising every field class: messages with odd bit lengths,
/// round stats with distinct peak witnesses, annotations, transcript records,
/// and a real oracle memo (so restore_table verification has true entries).
Checkpoint sample_checkpoint() {
  Checkpoint cp;
  cp.next_round = 4;
  cp.machines = 3;
  cp.local_memory_bits = 512;
  cp.query_budget = 9;
  cp.tape_seed = 5;

  cp.inboxes.resize(3);
  cp.inboxes[0].push_back({2, 0, BitString::from_uint(0b10110, 5)});
  cp.inboxes[1].push_back({0, 1, BitString::from_uint(0xABCD, 16)});
  cp.inboxes[1].push_back({1, 1, BitString(1)});
  // inbox 2 deliberately empty.

  for (std::uint64_t r = 0; r < 4; ++r) {
    mpc::RoundStats s;
    s.round = r;
    s.messages = 3 + r;
    s.communicated_bits = 100 * (r + 1);
    s.oracle_queries = 2 * r;
    s.max_inbox_bits = 64 + r;
    s.peak_memory_bits = {64 + r, r % 3};
    s.peak_queries = {2, 1};
    s.peak_fan_out = {3, 0};
    s.peak_fan_in = {2, 2};
    s.peak_sent_bits = {80, 1};
    s.peak_recv_bits = {64 + r, 0};
    s.peak_message_bits = {40, 2};
    cp.rounds.push_back(s);
  }
  cp.annotations["advance"] = {1, 2, 3, 5};
  cp.annotations["stall"] = {0, 0, 1, 0};

  hash::QueryRecord rec;
  rec.round = 2;
  rec.machine = 1;
  rec.seq = 0;
  rec.input = BitString::from_uint(7, 16);
  rec.output = BitString::from_uint(9, 16);
  cp.transcript.push_back(rec);

  hash::LazyRandomOracle oracle(16, 16, 1);
  oracle.query(BitString::from_uint(3, 16));
  oracle.query(BitString::from_uint(11, 16));
  cp.has_oracle = true;
  cp.oracle_in_bits = 16;
  cp.oracle_out_bits = 16;
  cp.oracle_total_queries = oracle.total_queries();
  cp.oracle_memo = oracle.touched_table();
  return cp;
}

TEST(Checkpoint, SerializeDeserializeSerializeIsByteIdentical) {
  Checkpoint cp = sample_checkpoint();
  BitString first = fault::serialize(cp);
  Checkpoint decoded = fault::deserialize(first);
  EXPECT_EQ(decoded, cp);
  BitString second = fault::serialize(decoded);
  EXPECT_EQ(first, second);
}

TEST(Checkpoint, PlainModelCheckpointRoundTrips) {
  Checkpoint cp = sample_checkpoint();
  cp.has_oracle = false;
  cp.oracle_in_bits = cp.oracle_out_bits = cp.oracle_total_queries = 0;
  cp.oracle_memo.clear();
  EXPECT_EQ(fault::deserialize(fault::serialize(cp)), cp);
}

TEST(Checkpoint, FlippedPayloadBitIsRejectedByChecksum) {
  BitString bits = fault::serialize(sample_checkpoint());
  const std::size_t header_bits = 8 * 8 + 64 + 64 + 64;
  std::size_t victim = header_bits + 129;  // any payload bit
  bits.set_uint(victim, 1, 1 - bits.get_uint(victim, 1));
  try {
    fault::deserialize(bits);
    FAIL() << "corrupted payload accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum mismatch"), std::string::npos) << e.what();
  }
}

TEST(Checkpoint, PayloadChecksumGoldenValues) {
  // The checksum sits after the 8 magic bytes, the version and the payload
  // length. Recorded before the checksum hashed in place; every checked-in
  // snapshot depends on these bytes.
  const std::vector<std::pair<std::size_t, std::uint64_t>> golden = {
      {0, 0x5a4ac262a7dd5a14ULL},
      {100, 0xb9c8100d005eec70ULL},
      {1000, 0x8b9f9b3d6844f849ULL},
      {69600, 0xd7623c5b77671bb4ULL}};
  for (const auto& [bits, value] : golden) {
    BitString payload(bits);
    for (std::size_t i = 0; i < bits; ++i) payload.set(i, ((i * 13 + 3) % 5) < 2);
    EXPECT_EQ(fault::frame_checkpoint_payload(payload).get_uint(192, 64), value)
        << bits << " payload bits";
    for (const auto& path : hash::reference::compress_paths()) {
      EXPECT_EQ(hash::reference::reference_payload_checksum(payload, path.fn), value)
          << path.name << ", " << bits << " payload bits";
    }
  }
}

TEST(Checkpoint, BadMagicIsRejected) {
  BitString bits = fault::serialize(sample_checkpoint());
  bits.set_uint(0, 8, 'X');
  try {
    fault::deserialize(bits);
    FAIL() << "bad magic accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("not a checkpoint snapshot"), std::string::npos)
        << e.what();
  }
}

TEST(Checkpoint, UnsupportedVersionIsRejected) {
  BitString bits = fault::serialize(sample_checkpoint());
  bits.set_uint(64, 64, Checkpoint::kVersion + 1);
  try {
    fault::deserialize(bits);
    FAIL() << "future version accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported checkpoint version"), std::string::npos)
        << e.what();
  }
}

TEST(Checkpoint, TruncatedSnapshotIsRejected) {
  BitString bits = fault::serialize(sample_checkpoint());
  BitString cut = bits.slice(0, bits.size() - 100);
  try {
    fault::deserialize(cut);
    FAIL() << "truncated snapshot accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos) << e.what();
  }
  // Cutting into the header itself is caught by the BitReader guard.
  EXPECT_THROW(fault::deserialize(bits.slice(0, 70)), CheckpointError);
}

TEST(Checkpoint, FileRoundTripAndMissingFile) {
  Checkpoint cp = sample_checkpoint();
  const std::string path = "checkpoint_test_roundtrip.ckpt";
  fault::save_checkpoint_file(path, cp);
  Checkpoint loaded = fault::load_checkpoint_file(path);
  EXPECT_EQ(loaded, cp);
  std::remove(path.c_str());

  try {
    fault::load_checkpoint_file("checkpoint_test_does_not_exist.ckpt");
    FAIL() << "missing file accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("cannot load checkpoint"), std::string::npos) << e.what();
  }
}

TEST(Checkpoint, ResumeStateRestoresOracleAndTrace) {
  Checkpoint cp = sample_checkpoint();
  hash::LazyRandomOracle fresh(16, 16, 1);  // same seed as sample_checkpoint's
  mpc::MpcResumeState state = fault::make_resume_state(cp, &fresh);
  EXPECT_EQ(state.next_round, cp.next_round);
  EXPECT_EQ(state.inboxes, cp.inboxes);
  EXPECT_EQ(state.trace.rounds(), cp.rounds);
  EXPECT_EQ(state.trace.annotations(), cp.annotations);
  ASSERT_NE(state.transcript, nullptr);
  EXPECT_EQ(state.transcript->records(), cp.transcript);
  EXPECT_EQ(fresh.total_queries(), cp.oracle_total_queries);
  EXPECT_EQ(fresh.touched_table(), cp.oracle_memo);
}

TEST(Checkpoint, ResumeStateRejectsWrongSeedOracle) {
  Checkpoint cp = sample_checkpoint();
  hash::LazyRandomOracle wrong_seed(16, 16, 2);
  try {
    fault::make_resume_state(cp, &wrong_seed);
    FAIL() << "memo from another oracle accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("memo rejected"), std::string::npos) << e.what();
  }
}

TEST(Checkpoint, ResumeStateRejectsMismatchedOracleShape) {
  Checkpoint cp = sample_checkpoint();
  hash::LazyRandomOracle narrow(8, 8, 1);
  EXPECT_THROW(fault::make_resume_state(cp, &narrow), CheckpointError);
  EXPECT_THROW(fault::make_resume_state(cp, nullptr), CheckpointError);
}

/// Serializes a checkpoint at every round barrier, checks that each wire
/// survives deserialize -> serialize unchanged, and folds every wire (its
/// bit length as 8 little-endian bytes, then its packed bytes) into one
/// SHA-256.
class WireDigest : public mpc::RoundObserver {
 public:
  WireDigest(mpc::MpcConfig config, const hash::LazyRandomOracle* oracle)
      : config_(config), oracle_(oracle) {}

  void after_round(const mpc::RoundSnapshot& snapshot) override {
    absorb(fault::serialize(fault::capture(snapshot, config_, oracle_)));
  }

  void absorb(const BitString& wire) {
    EXPECT_EQ(fault::serialize(fault::deserialize(wire)), wire) << "wire " << wires_;
    std::uint8_t length[8];
    hash::store_le64(length, wire.size());
    sha_.update(length, sizeof length);
    sha_.update(wire.bytes());
    ++wires_;
  }

  std::size_t wires() const { return wires_; }
  std::string hex() { return hash::Sha256::to_hex(sha_.digest()); }

 private:
  mpc::MpcConfig config_;
  const hash::LazyRandomOracle* oracle_;
  hash::Sha256 sha_;
  std::size_t wires_ = 0;
};

TEST(Checkpoint, PointerChasingWireBytesMatchGoldenDigest) {
  // Seed 1, checkpointed at every barrier, once plain and once with MAC
  // tags (which move every payload off byte alignment). The digest was
  // recorded with the BitString-append writer and the copying reader; a
  // codec change that moves one wire bit fails here.
  core::LineParams params = core::LineParams::make(64, 16, 8, 96);
  util::Rng rng(1);
  core::LineInput input = core::LineInput::random(params, rng);
  strategies::PointerChasingStrategy strat(params,
                                           strategies::OwnershipPlan::round_robin(params, 4));
  std::vector<BitString> initial = strat.make_initial_memory(input);

  hash::Sha256 runs;
  std::size_t wires = 0;
  for (bool authenticate : {false, true}) {
    mpc::MpcConfig config;
    config.machines = 4;
    config.local_memory_bits = 4 * strat.required_local_memory();  // room for tags
    config.query_budget = 1 << 20;
    config.tape_seed = 1;
    config.authenticate_messages = authenticate;
    auto oracle = std::make_shared<hash::LazyRandomOracle>(params.n, params.n, 1);
    WireDigest digest(config, oracle.get());
    digest.absorb(fault::serialize(fault::initial_checkpoint(config, initial, oracle.get())));
    mpc::MpcSimulation sim(config, oracle);
    ASSERT_TRUE(sim.run(strat, initial, &digest).completed);
    wires += digest.wires();
    runs.update(digest.hex());
  }
  EXPECT_EQ(wires, 148u);
  EXPECT_EQ(hash::Sha256::to_hex(runs.digest()),
            "6971b0c488a3bc5ebefb7c177297df30fc1c55b3ce6b2a5e2252f4fea5f6f1b3");
}

TEST(Checkpoint, InconsistentInboxCountIsRejected) {
  Checkpoint cp = sample_checkpoint();
  cp.inboxes.pop_back();
  EXPECT_THROW(fault::deserialize(fault::serialize(cp)), CheckpointError);
}

}  // namespace
}  // namespace mpch
