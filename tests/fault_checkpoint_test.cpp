// fault_checkpoint_test.cpp — the checkpoint wire format and its integrity
// guards: serialize -> deserialize -> serialize is byte-identical, every
// corruption class (magic, version, length, checksum, truncation, trailing
// bits) is rejected with a diagnostic naming what failed, file round-trips
// survive, make_resume_state rebuilds the oracle memo from the transcript
// and re-verifies it against the supplied oracle's seed, and the wire bytes
// of every catalog strategy's checkpoints match a recorded digest.
#include "fault/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hash/random_oracle.hpp"
#include "hash/sha256.hpp"
#include "hash_reference.hpp"
#include "mpc/simulation.hpp"
#include "serve/scenario.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace mpch {
namespace {

using fault::Checkpoint;
using fault::CheckpointError;
using util::BitString;

/// A checkpoint exercising every field class: messages with odd bit lengths,
/// round stats with distinct peak witnesses, annotations, and transcript
/// records of real oracle queries, one input asked twice (so restore_table
/// rebuilds a true memo from them).
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

  hash::LazyRandomOracle oracle(16, 16, 1);
  const std::uint64_t queried[] = {7, 3, 11, 7};
  for (std::uint64_t i = 0; i < 4; ++i) {
    hash::QueryRecord rec;
    rec.round = 1 + i / 2;
    rec.machine = i % 2;
    rec.seq = 0;
    rec.input = BitString::from_uint(queried[i], 16);
    rec.output = oracle.query(rec.input);
    cp.transcript.push_back(rec);
  }
  cp.has_oracle = true;
  cp.oracle_in_bits = 16;
  cp.oracle_out_bits = 16;
  return cp;
}

/// The sub-function a transcript names: its distinct inputs with their
/// answers, in sorted input order (touched_table()'s order).
std::vector<std::pair<BitString, BitString>> table_of(
    const std::vector<hash::QueryRecord>& records) {
  std::map<BitString, BitString> table;
  for (const auto& rec : records) table.emplace(rec.input, rec.output);
  return {table.begin(), table.end()};
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
  cp.oracle_in_bits = cp.oracle_out_bits = 0;
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

TEST(Checkpoint, PayloadChecksumMatchesReferenceAtEveryLength) {
  // Every payload length in 0..1,100 bits: each end offset inside a byte,
  // one- and two-block messages, and a head block filled from the payload
  // before whole blocks are hashed in place.
  util::SplitMix64 rng(1100);
  const auto paths = hash::reference::compress_paths();
  for (std::size_t bits = 0; bits <= 1100; ++bits) {
    const BitString payload = BitString::random(bits, [&] { return rng.next(); });
    const std::uint64_t stored = fault::frame_checkpoint_payload(payload).get_uint(192, 64);
    for (const auto& path : paths) {
      ASSERT_EQ(stored, hash::reference::reference_payload_checksum(payload, path.fn))
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
  EXPECT_EQ(fresh.total_queries(), cp.transcript.size());
  EXPECT_EQ(fresh.touched_table(), table_of(cp.transcript));
  EXPECT_EQ(fresh.touched_entries(), 3u);  // input 7 was asked twice
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

TEST(Checkpoint, ResumeStateRejectsRecordsThatDisagree) {
  // Two records give input 3 different answers: the first matches the
  // seed, so only the disagreement itself can reject the second.
  Checkpoint cp = sample_checkpoint();
  hash::QueryRecord rec = cp.transcript[1];
  rec.round = 3;
  rec.output.set(0, !rec.output.get(0));
  cp.transcript.push_back(rec);
  hash::LazyRandomOracle fresh(16, 16, 1);
  try {
    fault::make_resume_state(cp, &fresh);
    FAIL() << "two answers for one input accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("memo rejected"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("different answers"), std::string::npos) << e.what();
  }
}

TEST(Checkpoint, ResumeStateRejectsATranscriptOutOfOrder) {
  // Every record matches the seed, so the memo accepts them; only the
  // transcript's (round, machine, seq) order can reject the swap.
  Checkpoint cp = sample_checkpoint();
  std::swap(cp.transcript[0], cp.transcript[1]);
  hash::LazyRandomOracle fresh(16, 16, 1);
  try {
    fault::make_resume_state(cp, &fresh);
    FAIL() << "an out-of-order transcript accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("transcript rejected"), std::string::npos) << e.what();
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

/// One strategy's pinned wire digest: the serve catalog's scenario at seed
/// 1, checkpointed at every barrier, once plain and once with MAC tags.
struct GoldenWires {
  const char* strategy;
  std::size_t wires;
  const char* digest;
};

constexpr GoldenWires kGoldenWires[] = {
    {"pointer-chasing", 148,
     "d08ff21903c60b994983b627bdc573fa456019e02d3aa6553828091374710a1e"},
    {"batch-pointer-chasing", 212,
     "88abef131fb0565d71ed87d4cf54cfe90f016f4f4d3726dc7c20f4e2fb3dfb7b"},
    {"speculative", 164,
     "b1880f93edca6adfd015cf9c2dae10976c077cd4bbcf93fa8dfb0b8d5fc01b5e"},
    {"pipelined-simline", 130,
     "4c802a3e644cd2503f67726b8b8bb0332a69c878d9a72bcb40ae5ebf36650d5f"},
    {"colluding", 172,
     "797c0ee0c78f922967fc951c978e9aafc23e21e42450f222c3ef6dd53da069d6"},
    {"dictionary", 6,
     "b37633335ce0dcc8800482bba921d22ae1c39337e637975cab113d1f16f22c13"},
    {"full-memory", 6,
     "57a7e8ce66d2a72b226bea498bfa79673a177ba3546b4711028ec49fb929cac5"},
    {"ram-emulation", 128,
     "92054cc5ace8095220e09bd8ef61a15236725cfee9ed47be42e212d3a5e93858"},
};

TEST(Checkpoint, EveryStrategyWireBytesMatchGoldenDigest) {
  // The digests pin every message bit each strategy sends (plus the
  // version-2 wire format, whose oracle section holds only the domain and
  // range); MAC tags move every payload off byte alignment. A strategy or
  // codec change that moves one wire bit fails here.
  ASSERT_EQ(std::size(kGoldenWires), serve::strategy_names().size());
  for (std::size_t k = 0; k < std::size(kGoldenWires); ++k) {
    const GoldenWires& golden = kGoldenWires[k];
    SCOPED_TRACE(golden.strategy);
    ASSERT_EQ(serve::strategy_names()[k], golden.strategy);
    hash::Sha256 runs;
    std::size_t wires = 0;
    for (bool authenticate : {false, true}) {
      serve::Scenario sc = serve::make_scenario(golden.strategy, 1, 0);
      serve::apply_run_options(&sc, transport::TransportKind::kInProcess, 0, authenticate);
      std::shared_ptr<hash::LazyRandomOracle> oracle = sc.make_oracle();
      WireDigest digest(sc.config, oracle.get());
      digest.absorb(fault::serialize(fault::initial_checkpoint(sc.config, sc.initial, oracle.get())));
      mpc::MpcSimulation sim(sc.config, oracle);
      ASSERT_TRUE(sim.run(*sc.algo, sc.initial, &digest).completed);
      wires += digest.wires();
      runs.update(digest.hex());
    }
    EXPECT_EQ(wires, golden.wires);
    EXPECT_EQ(hash::Sha256::to_hex(runs.digest()), golden.digest);
  }
}

TEST(Checkpoint, InconsistentInboxCountIsRejected) {
  Checkpoint cp = sample_checkpoint();
  cp.inboxes.pop_back();
  EXPECT_THROW(fault::deserialize(fault::serialize(cp)), CheckpointError);
}

}  // namespace
}  // namespace mpch
