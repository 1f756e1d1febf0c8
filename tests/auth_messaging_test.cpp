// auth_messaging_test.cpp — MAC-tagged messaging and round attestation.
//
// The authentication layer (mpc/auth.hpp) must be invisible when off — the
// acceptance bar is *byte*-identical transcripts and checkpoints — and
// deterministic when on, across thread counts, with every tampering caught
// as a typed TamperViolation carrying machine/round/byte-offset provenance.
#include "mpc/auth.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fault/checkpoint.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "fault/recovery.hpp"
#include "hash/random_oracle.hpp"
#include "hash_reference.hpp"
#include "mpc/simulation.hpp"
#include "transport/socket.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace mpch::mpc {
namespace {

using util::BitString;

/// Plain-model ring: pass a token once around, origin outputs the hop count.
/// 16-bit payloads make tag arithmetic easy to eyeball (16 + 64 on the wire).
class RingAlgorithm final : public MpcAlgorithm {
 public:
  explicit RingAlgorithm(std::uint64_t machines) : machines_(machines) {}

  void run_machine(MachineIo& io, hash::CountingOracle*, const SharedTape&, RoundTrace&) override {
    for (const auto& msg : *io.inbox) {
      util::BitReader r(msg.payload);
      std::uint64_t hops = r.read_uint(16);
      if (hops >= machines_) {
        io.output = BitString::from_uint(hops, 16);
        return;
      }
      util::BitWriter w;
      w.write_uint(hops + 1, 16);
      io.send((io.machine + 1) % machines_, w.take());
    }
  }

  std::string name() const override { return "ring"; }

 private:
  std::uint64_t machines_;
};

MpcConfig ring_config(bool authenticate, std::uint64_t threads = 0) {
  MpcConfig c;
  c.machines = 3;
  c.local_memory_bits = 256;
  c.query_budget = 1;
  c.max_rounds = 16;
  c.tape_seed = 9;
  c.threads = threads;
  c.authenticate_messages = authenticate;
  return c;
}

std::vector<BitString> ring_input() {
  // Machine 0 holds the token with hop count 0.
  return {BitString::from_uint(0, 16), BitString(), BitString()};
}

MpcRunResult run_ring(const MpcConfig& c, RoundObserver* observer = nullptr) {
  RingAlgorithm algo(c.machines);
  MpcSimulation sim(c, nullptr);
  return sim.run(algo, ring_input(), observer);
}

TEST(MessageTag, DeterministicAndKeyedOnEveryInput) {
  BitString payload = BitString::from_uint(0xBEEF, 16);
  BitString tag = message_tag(9, 2, 0, 1, payload);
  EXPECT_EQ(tag.size(), kMessageTagBits);
  EXPECT_EQ(tag, message_tag(9, 2, 0, 1, payload));
  // Any input to the PRF changes the tag: seed, round, sender, receiver,
  // payload. That is what binds a tag to one delivery of one message.
  EXPECT_NE(tag, message_tag(10, 2, 0, 1, payload));
  EXPECT_NE(tag, message_tag(9, 3, 0, 1, payload));
  EXPECT_NE(tag, message_tag(9, 2, 2, 1, payload));
  EXPECT_NE(tag, message_tag(9, 2, 0, 2, payload));
  EXPECT_NE(tag, message_tag(9, 2, 0, 1, BitString::from_uint(0xBEEE, 16)));
}

TEST(MessageTag, VerifyAcceptsTaggedAndStripRecovers) {
  BitString payload = BitString::from_uint(0x1234, 16);
  Message msg{0, 1, payload + message_tag(9, 2, 0, 1, payload)};
  std::vector<Message> inbox = {msg};
  EXPECT_NO_THROW(verify_inbox_tags(9, 2, 1, inbox));
  std::vector<Message> plain = strip_tags(inbox);
  ASSERT_EQ(plain.size(), 1u);
  EXPECT_EQ(plain[0].payload, payload);
  EXPECT_EQ(plain[0].from, 0u);
}

TEST(MessageTag, TamperViolationCarriesProvenance) {
  BitString payload = BitString::from_uint(0x1234, 16);
  std::vector<Message> inbox = {{0, 1, payload + message_tag(9, 2, 0, 1, payload)},
                                {2, 1, payload + message_tag(9, 2, 2, 1, payload)}};
  // Flip one bit in the *second* message's payload (bit 3 of its bytes).
  inbox[1].payload.set(3, !inbox[1].payload.get(3));
  try {
    verify_inbox_tags(9, 2, 1, inbox);
    FAIL() << "tampered inbox verified";
  } catch (const TamperViolation& tv) {
    EXPECT_EQ(tv.machine(), 1u);
    EXPECT_EQ(tv.round(), 2u);
    EXPECT_EQ(tv.message_index(), 1u);
    // Bit offsets are reported at byte granularity from the inbox start:
    // message 0 occupies (16+64)/8 = 10 bytes.
    EXPECT_EQ(tv.byte_offset(), 10u);
  }
  // A payload shorter than one tag cannot be authentic at all.
  std::vector<Message> runt = {{0, 1, BitString::from_uint(1, 8)}};
  EXPECT_THROW(verify_inbox_tags(9, 2, 1, runt), TamperViolation);
}

/// A fixed bit pattern of `n` bits; `k` varies it between messages. The
/// golden values below were recorded on exactly these payloads.
BitString pattern(std::size_t n, unsigned k) {
  BitString b(n);
  for (std::size_t i = 0; i < n; ++i) b.set(i, ((i * k + 3) % 5) < 2);
  return b;
}

TEST(MessageTag, MatchesPrefixBuildingReferenceForEveryBodyLength) {
  // Bodies of 0..300 bits cover every offset of the body's end inside a
  // byte, so verify's mid-byte masking runs for seven in every eight.
  util::SplitMix64 rng(300);
  const auto paths = hash::reference::compress_paths();
  for (std::size_t body_bits = 0; body_bits <= 300; ++body_bits) {
    SCOPED_TRACE("body_bits=" + std::to_string(body_bits));
    const BitString body = BitString::random(body_bits, [&] { return rng.next(); });
    const BitString tag = message_tag(9, 5, 2, 0, body);
    for (const auto& path : paths) {
      ASSERT_EQ(tag, hash::reference::reference_message_tag(9, 5, 2, 0, body, path.fn))
          << path.name;
    }
    const std::vector<Message> inbox = {{2, 0, body + tag}};
    ASSERT_NO_THROW(verify_inbox_tags(9, 5, 0, inbox));
    ASSERT_EQ(strip_tags(inbox)[0].payload, body);
  }
}

TEST(MessageTag, GoldenValues) {
  // Recorded before the MAC hashed in place; every tag on the wire depends
  // on these bytes, so they must never move.
  const std::vector<std::pair<std::size_t, std::uint64_t>> golden = {
      {0, 0x55577a274da6fe1bULL},
      {13, 0x9ac6945f86eb5486ULL},
      {16, 0x9e5dde5cb2094b7dULL},
      {64, 0xdf3d5ca63bdaf8aaULL},
      {300, 0xdcaa735477deca3bULL}};
  for (const auto& [bits, value] : golden) {
    const BitString body = pattern(bits, 7);
    EXPECT_EQ(message_tag(7, 3, 1, 2, body).get_uint(0, 64), value) << bits << " body bits";
    for (const auto& path : hash::reference::compress_paths()) {
      EXPECT_EQ(hash::reference::reference_message_tag(7, 3, 1, 2, body, path.fn).get_uint(0, 64),
                value)
          << path.name << ", " << bits << " body bits";
    }
  }
}

TEST(Attestation, GoldenValuesAndReference) {
  const std::vector<Message> inbox = {{0, 2, pattern(77, 3)}, {1, 2, pattern(128, 11)}};
  EXPECT_EQ(attestation_digest(7, 3, 2, inbox), 0x255f612c7b2dad9dULL);
  EXPECT_EQ(attestation_digest(7, 3, 2, {}), 0x98de5be38b1e25d0ULL);
  for (const auto& path : hash::reference::compress_paths()) {
    EXPECT_EQ(hash::reference::reference_attestation_digest(7, 3, 2, inbox, path.fn),
              0x255f612c7b2dad9dULL)
        << path.name;
    EXPECT_EQ(hash::reference::reference_attestation_digest(7, 3, 2, {}, path.fn),
              0x98de5be38b1e25d0ULL)
        << path.name;
  }
}

/// Two tagged messages to machine 1 in round 2 whose 13-bit bodies end
/// mid-byte: each body's last byte also carries the first three tag bits.
/// Message 0 takes 77 bits, so message 1 starts at byte offset 9.
std::vector<Message> mid_byte_inbox() {
  const BitString a = pattern(13, 3);
  const BitString b = pattern(13, 7);
  return {{0, 1, a + message_tag(9, 2, 0, 1, a)}, {2, 1, b + message_tag(9, 2, 2, 1, b)}};
}

void expect_mismatch_in_message_1(const std::vector<Message>& inbox) {
  try {
    verify_inbox_tags(9, 2, 1, inbox);
    FAIL() << "tampered inbox verified";
  } catch (const TamperViolation& tv) {
    EXPECT_EQ(tv.machine(), 1u);
    EXPECT_EQ(tv.round(), 2u);
    EXPECT_EQ(tv.message_index(), 1u);
    EXPECT_EQ(tv.byte_offset(), 9u);
    EXPECT_STREQ(tv.what(),
                 "authentication failed: message 1 delivered to machine 1 after round 2 "
                 "(claimed sender 2, byte offset 9 in the inbox) does not match its MAC tag");
  }
}

TEST(MessageTag, MidByteBodyVerifies) {
  EXPECT_NO_THROW(verify_inbox_tags(9, 2, 1, mid_byte_inbox()));
}

TEST(MessageTag, FlippedLastBodyBitInSharedByteIsCaught) {
  std::vector<Message> inbox = mid_byte_inbox();
  inbox[1].payload.set(12, !inbox[1].payload.get(12));
  expect_mismatch_in_message_1(inbox);
}

TEST(MessageTag, FlippedFirstTagBitInSharedByteIsCaught) {
  std::vector<Message> inbox = mid_byte_inbox();
  inbox[1].payload.set(13, !inbox[1].payload.get(13));
  expect_mismatch_in_message_1(inbox);
}

TEST(MessageTag, EmptyBodyVerifiesAndRuntIsRejected) {
  // A bare 64-bit tag is a valid message with an empty body.
  const std::vector<Message> empty = {{0, 1, message_tag(9, 2, 0, 1, BitString())}};
  ASSERT_EQ(empty[0].payload.size(), kMessageTagBits);
  EXPECT_NO_THROW(verify_inbox_tags(9, 2, 1, empty));
  EXPECT_EQ(strip_tags(empty)[0].payload, BitString());

  // One bit short of a tag: rejected before any hashing, as a runt.
  BitString runt = empty[0].payload;
  runt.truncate(kMessageTagBits - 1);
  try {
    verify_inbox_tags(9, 2, 1, {{0, 1, runt}});
    FAIL() << "63-bit payload verified";
  } catch (const TamperViolation& tv) {
    EXPECT_EQ(tv.message_index(), 0u);
    EXPECT_EQ(tv.byte_offset(), 0u);
    EXPECT_STREQ(tv.what(),
                 "authentication failed: message 0 delivered to machine 1 after round 2 "
                 "(byte offset 0 in the inbox) is 63 bits, too short to carry a tag");
  }
}

TEST(Attestation, DigestsAreDeterministicAndContentBound) {
  std::vector<Message> inbox = {{0, 1, BitString::from_uint(7, 24)}};
  std::uint64_t d = attestation_digest(9, 4, 1, inbox);
  EXPECT_EQ(d, attestation_digest(9, 4, 1, inbox));
  EXPECT_NE(d, attestation_digest(9, 5, 1, inbox));
  EXPECT_NE(d, attestation_digest(9, 4, 2, inbox));
  std::vector<Message> other = {{0, 1, BitString::from_uint(8, 24)}};
  EXPECT_NE(d, attestation_digest(9, 4, 1, other));

  std::vector<std::vector<Message>> inboxes = {inbox, other};
  std::vector<std::uint64_t> ds = attestation_digests(9, 4, inboxes);
  ASSERT_EQ(ds.size(), 2u);
  EXPECT_EQ(ds[0], attestation_digest(9, 4, 0, inbox));
  EXPECT_EQ(ds[1], attestation_digest(9, 4, 1, other));
}

TEST(AuthMessaging, OffMeansByteIdenticalTranscriptsAndCheckpoints) {
  // Two auth-off runs serialise to byte-identical checkpoints (determinism),
  // and the wire shows no tag: a ring hop is exactly 16 payload bits.
  fault::Checkpointer a(ring_config(false), nullptr, 1, "", true);
  fault::Checkpointer b(ring_config(false), nullptr, 1, "", true);
  MpcRunResult ra = run_ring(ring_config(false), &a);
  MpcRunResult rb = run_ring(ring_config(false), &b);
  ASSERT_TRUE(ra.completed);
  ASSERT_TRUE(a.latest_encoded().has_value());
  EXPECT_EQ(*a.latest_encoded(), *b.latest_encoded());
  for (const auto& stats : ra.trace.rounds()) {
    if (stats.peak_message_bits.value != 0) {
      EXPECT_EQ(stats.peak_message_bits.value, 16u);
    }
  }
  EXPECT_EQ(ra.output, rb.output);
}

TEST(AuthMessaging, OnAddsExactlyOneTagPerMessageAndPreservesOutput) {
  MpcRunResult off = run_ring(ring_config(false));
  MpcRunResult on = run_ring(ring_config(true));
  ASSERT_TRUE(off.completed);
  ASSERT_TRUE(on.completed);
  // The algorithm sees stripped payloads: behaviour (output, round count)
  // is unchanged; only the wire accounting grows by kMessageTagBits.
  EXPECT_EQ(off.output, on.output);
  EXPECT_EQ(off.rounds_used, on.rounds_used);
  for (const auto& stats : on.trace.rounds()) {
    if (stats.peak_message_bits.value != 0) {
      EXPECT_EQ(stats.peak_message_bits.value, 16u + kMessageTagBits);
    }
  }
}

TEST(AuthMessaging, OnIsDeterministicAcrossThreadCounts) {
  MpcRunResult base = run_ring(ring_config(true, 1));
  for (std::uint64_t threads : {std::uint64_t{2}, std::uint64_t{8}}) {
    MpcRunResult r = run_ring(ring_config(true, threads));
    EXPECT_EQ(base.output, r.output) << "threads=" << threads;
    EXPECT_EQ(base.rounds_used, r.rounds_used) << "threads=" << threads;
    EXPECT_EQ(base.trace.rounds(), r.trace.rounds()) << "threads=" << threads;
  }
}

/// Observer that computes every round barrier's attestation vector from
/// the snapshot (the round loop computes none).
struct AttestationRecorder : RoundObserver {
  explicit AttestationRecorder(std::uint64_t tape_seed) : seed(tape_seed) {}
  std::uint64_t seed;
  std::vector<std::vector<std::uint64_t>> per_round;
  void after_round(const RoundSnapshot& snapshot) override {
    ASSERT_NE(snapshot.next_inboxes, nullptr);
    per_round.push_back(attestation_digests(seed, snapshot.round, *snapshot.next_inboxes));
  }
};

TEST(Attestation, SnapshotDigestsAreThreadInvariant) {
  AttestationRecorder serial(ring_config(true, 1).tape_seed);
  AttestationRecorder parallel(ring_config(true, 8).tape_seed);
  run_ring(ring_config(true, 1), &serial);
  run_ring(ring_config(true, 8), &parallel);
  ASSERT_FALSE(serial.per_round.empty());
  EXPECT_EQ(serial.per_round, parallel.per_round);
}

TEST(AuthMessaging, CheckpointResumeReverifiesTags) {
  // Capture a mid-run snapshot under auth, corrupt one inbox payload bit in
  // the decoded struct, and resume: the tag re-verification at entry must
  // throw TamperViolation instead of running on the poisoned state.
  MpcConfig c = ring_config(true);
  c.max_rounds = 2;  // stop mid-ring so the snapshot has an in-flight message
  fault::Checkpointer ckpt(c, nullptr, 1, "", false);
  run_ring(c, &ckpt);
  ASSERT_TRUE(ckpt.latest().has_value());
  fault::Checkpoint cp = *ckpt.latest();
  ASSERT_GT(cp.next_round, 0u);
  bool corrupted = false;
  for (auto& inbox : cp.inboxes) {
    for (auto& msg : inbox) {
      msg.payload.set(0, !msg.payload.get(0));
      corrupted = true;
      break;
    }
    if (corrupted) break;
  }
  ASSERT_TRUE(corrupted) << "no message crossed the final barrier";
  MpcResumeState rs = fault::make_resume_state(cp, nullptr);
  RingAlgorithm algo(c.machines);
  MpcConfig resumed = c;
  resumed.max_rounds = 16;  // room to continue past the captured boundary
  MpcSimulation sim(resumed, nullptr);
  EXPECT_THROW(sim.resume(algo, std::move(rs)), TamperViolation);
}

// ---- RO-MAC over the socket wire path ----
//
// With the socket backend the tagged payloads cross a real process boundary
// as MPCF frames. The ring is the sharpest possible lens for provenance
// equality: exactly one message per round, so a wire-level attack and its
// in-process FaultInjector twin must yield *identical* TamperViolations.
// (Round r's token travels machine r%3 -> (r+1)%3; round 2 delivers to
// machine 0.)

// TSan cannot follow fork()ed routers; MPCH_SKIP_SOCKET_TRANSPORT=1 skips
// the socket-path tests so the rest of this suite still runs under it.
bool skip_socket_backend() {
  const char* v = std::getenv("MPCH_SKIP_SOCKET_TRANSPORT");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

MpcRunResult run_ring_over_socket(const MpcConfig& c,
                                  std::function<void(transport::WireFrame&)> tamper) {
  RingAlgorithm algo(c.machines);
  MpcSimulation sim(c, nullptr);
  sim.set_transport_factory([tamper = std::move(tamper)] {
    transport::TransportOptions options;
    options.processes = 2;
    auto t = std::make_unique<transport::SocketTransport>(options);
    if (tamper) t->set_wire_tamper(tamper);
    return t;
  });
  return sim.run(algo, ring_input());
}

TEST(AuthMessaging, UntamperedSocketRunMatchesInProcess) {
  if (skip_socket_backend()) GTEST_SKIP() << "MPCH_SKIP_SOCKET_TRANSPORT set";
  MpcRunResult in_process = run_ring(ring_config(true));
  MpcRunResult socket = run_ring_over_socket(ring_config(true), nullptr);
  ASSERT_TRUE(socket.completed);
  EXPECT_EQ(in_process.output, socket.output);
  EXPECT_EQ(in_process.rounds_used, socket.rounds_used);
  EXPECT_EQ(in_process.trace.rounds(), socket.trace.rounds());
}

std::optional<TamperViolation> catch_violation(const std::function<void()>& run) {
  try {
    run();
  } catch (const TamperViolation& tv) {
    return tv;
  }
  return std::nullopt;
}

TEST(AuthMessaging, WireFlipOverSocketMatchesInProcessTamperProvenance) {
  if (skip_socket_backend()) GTEST_SKIP() << "MPCH_SKIP_SOCKET_TRANSPORT set";
  fault::FaultInjector injector(fault::FaultPlan::parse("flip:machine=0,round=2,bit=2"),
                                /*fail_stop=*/false);
  std::optional<TamperViolation> in_process =
      catch_violation([&] { run_ring(ring_config(true), &injector); });
  std::optional<TamperViolation> wire = catch_violation([] {
    run_ring_over_socket(ring_config(true), [](transport::WireFrame& frame) {
      if (frame.round == 2) frame.payload.set(2, !frame.payload.get(2));
    });
  });
  ASSERT_TRUE(in_process.has_value()) << "in-process flip went undetected";
  ASSERT_TRUE(wire.has_value()) << "wire flip went undetected";
  EXPECT_EQ(wire->machine(), 0u);
  EXPECT_EQ(wire->round(), 2u);
  EXPECT_EQ(wire->message_index(), 0u);
  EXPECT_EQ(wire->byte_offset(), 0u);
  EXPECT_EQ(in_process->machine(), wire->machine());
  EXPECT_EQ(in_process->round(), wire->round());
  EXPECT_EQ(in_process->message_index(), wire->message_index());
  EXPECT_EQ(in_process->byte_offset(), wire->byte_offset());
}

TEST(AuthMessaging, WireForgeOverSocketMatchesInProcessTamperProvenance) {
  // Round 2's token genuinely comes from machine 2; spoof it as machine 1.
  // The tag binds the true sender, so verification at the receiver rejects
  // the forged provenance on both paths identically.
  if (skip_socket_backend()) GTEST_SKIP() << "MPCH_SKIP_SOCKET_TRANSPORT set";
  fault::FaultInjector injector(fault::FaultPlan::parse("forge:round=2,to=0,index=0,from=1"),
                                /*fail_stop=*/false);
  std::optional<TamperViolation> in_process =
      catch_violation([&] { run_ring(ring_config(true), &injector); });
  std::optional<TamperViolation> wire = catch_violation([] {
    run_ring_over_socket(ring_config(true), [](transport::WireFrame& frame) {
      if (frame.round == 2) frame.from = 1;
    });
  });
  ASSERT_TRUE(in_process.has_value()) << "in-process forge went undetected";
  ASSERT_TRUE(wire.has_value()) << "wire forge went undetected";
  EXPECT_EQ(wire->machine(), 0u);
  EXPECT_EQ(wire->round(), 2u);
  EXPECT_EQ(in_process->machine(), wire->machine());
  EXPECT_EQ(in_process->round(), wire->round());
  EXPECT_EQ(in_process->message_index(), wire->message_index());
  EXPECT_EQ(in_process->byte_offset(), wire->byte_offset());
}

}  // namespace
}  // namespace mpch::mpc
