// Replays the checked-in fuzz seed corpora (fuzz/corpus/) through the same
// entry points the libFuzzer harnesses drive. The harnesses themselves need
// clang (MPCH_FUZZ); this test keeps the corpus contract enforced under the
// stock g++ build: every corpus input must either parse or be rejected
// through the *typed* error path — CheckpointError for snapshots,
// std::invalid_argument for plans — never via std::length_error, bad_alloc,
// or a crash. New fuzzer-found inputs get checked in here as regressions.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bitstring_differential.hpp"
#include "check/explorer.hpp"
#include "check/models.hpp"
#include "check/trace.hpp"
#include "fault/checkpoint.hpp"
#include "fault/fault_plan.hpp"
#include "ram/machine.hpp"
#include "reduce/reduction_file.hpp"
#include "serve/job_spec.hpp"
#include "sha256_differential.hpp"
#include "transport/wire.hpp"
#include "util/bitstring.hpp"
#include "util/json.hpp"
#include "verify/program_decoder.hpp"
#include "verify/verifier.hpp"

namespace {

using mpch::fault::Checkpoint;
using mpch::fault::CheckpointError;
using mpch::fault::FaultPlan;
using mpch::util::BitString;

std::filesystem::path corpus_root() { return MPCH_FUZZ_CORPUS_DIR; }

std::vector<std::uint8_t> read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open corpus file " << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(FuzzCorpusReplay, BitStringCorpusMatchesReference) {
  // Mirrors fuzz/fuzz_bitstring.cpp: every seed op sequence must leave the
  // word-level BitString and the bit-at-a-time reference in agreement.
  std::size_t replayed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(corpus_root() / "bitstring")) {
    SCOPED_TRACE(entry.path().string());
    std::vector<std::uint8_t> bytes = read_file(entry.path());
    const std::optional<std::string> diff =
        mpch::util::run_bitstring_differential(bytes.data(), bytes.size());
    EXPECT_FALSE(diff.has_value()) << *diff;
    ++replayed;
  }
  EXPECT_GE(replayed, 10u) << "bitstring corpus went missing — check fuzz/corpus/bitstring";
}

TEST(FuzzCorpusReplay, Sha256CorpusMatchesScalarReference) {
  // Mirrors fuzz/fuzz_sha256.cpp: every seed message, fed to the dispatched
  // Sha256 in its split pieces, must hash like the scalar one-shot.
  std::size_t replayed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(corpus_root() / "sha256")) {
    SCOPED_TRACE(entry.path().string());
    std::vector<std::uint8_t> bytes = read_file(entry.path());
    const std::optional<std::string> diff =
        mpch::hash::run_sha256_differential(bytes.data(), bytes.size());
    EXPECT_FALSE(diff.has_value()) << *diff;
    ++replayed;
  }
  EXPECT_GE(replayed, 8u) << "sha256 corpus went missing — check fuzz/corpus/sha256";
}

/// A corpus seed's wire cut to the payload length its header declares, or
/// nothing when the seed is too short for a header or not padded past it.
/// Seeds are stored as whole bytes, so a real snapshot carries up to 7
/// padding bits that the raw path rejects as "truncated or padded".
std::optional<BitString> cut_to_declared_length(const BitString& bits) {
  constexpr std::size_t kHeaderBits = 256;  // magic, version, length, checksum
  if (bits.size() < kHeaderBits) return std::nullopt;
  const std::uint64_t payload_bits = bits.get_uint(128, 64);
  if (payload_bits >= bits.size() - kHeaderBits) return std::nullopt;
  return bits.slice(0, kHeaderBits + payload_bits);
}

TEST(FuzzCorpusReplay, CheckpointCorpusRejectsOrParsesTyped) {
  std::size_t replayed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(corpus_root() / "checkpoint")) {
    SCOPED_TRACE(entry.path().string());
    BitString bits = BitString::from_bytes(read_file(entry.path()));
    // Raw header path, the wire cut to its declared length, and the
    // checksummed-framed payload path, exactly as in
    // fuzz/fuzz_checkpoint_load.cpp. CheckpointError is the only acceptable
    // rejection; any other escape fails the test.
    try {
      (void)mpch::fault::deserialize(bits);
    } catch (const CheckpointError&) {
    }
    if (const std::optional<BitString> cut = cut_to_declared_length(bits)) {
      try {
        (void)mpch::fault::deserialize(*cut);
      } catch (const CheckpointError&) {
      }
    }
    try {
      (void)mpch::fault::deserialize(mpch::fault::frame_checkpoint_payload(bits));
    } catch (const CheckpointError&) {
    }
    ++replayed;
  }
  EXPECT_GE(replayed, 5u) << "checkpoint corpus went missing — check fuzz/corpus/checkpoint";
}

TEST(FuzzCorpusReplay, ValidFullSeedParsesAndReserializes) {
  // valid_full.bin is a real snapshot stored as 264 bytes: cut to the
  // 2,105 bits its header declares, it passes the checksum end to end and
  // re-encodes to the same bits.
  const BitString bits =
      BitString::from_bytes(read_file(corpus_root() / "checkpoint" / "valid_full.bin"));
  ASSERT_EQ(bits.size(), 2112u);
  const std::optional<BitString> cut = cut_to_declared_length(bits);
  ASSERT_TRUE(cut.has_value());
  ASSERT_EQ(cut->size(), 2105u);
  const Checkpoint cp = mpch::fault::deserialize(*cut);
  EXPECT_EQ(cp.next_round, 1u);
  EXPECT_EQ(mpch::fault::serialize(cp), *cut);
}

TEST(FuzzCorpusReplay, FaultPlanCorpusRejectsOrParsesTyped) {
  std::size_t replayed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(corpus_root() / "fault_plan")) {
    SCOPED_TRACE(entry.path().string());
    std::vector<std::uint8_t> bytes = read_file(entry.path());
    std::string spec(bytes.begin(), bytes.end());
    try {
      FaultPlan plan = FaultPlan::parse(spec);
      (void)plan.describe();
    } catch (const std::invalid_argument&) {
    }
    ++replayed;
  }
  EXPECT_GE(replayed, 10u) << "fault-plan corpus went missing — check fuzz/corpus/fault_plan";
}

TEST(FuzzCorpusReplay, JobSpecCorpusRejectsOrParsesTyped) {
  // Mirrors fuzz/fuzz_job_spec.cpp: the jobfile grammar must accept or
  // reject through JobSpecError only — hostile repeat counts, duplicate
  // keys, unknown verbs, truncation, and binary garbage all included.
  std::size_t replayed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(corpus_root() / "job_spec")) {
    SCOPED_TRACE(entry.path().string());
    std::vector<std::uint8_t> bytes = read_file(entry.path());
    std::string text(bytes.begin(), bytes.end());
    try {
      const std::vector<mpch::serve::JobSpec> jobs = mpch::serve::parse_jobfile(text);
      for (const auto& job : jobs) (void)job.describe();
    } catch (const mpch::serve::JobSpecError&) {
    }
    ++replayed;
  }
  EXPECT_GE(replayed, 12u) << "job-spec corpus went missing — check fuzz/corpus/job_spec";
}

TEST(FuzzCorpusReplay, RamProgramCorpusRejectsOrVerifiesTyped) {
  // Mirrors fuzz/fuzz_ram_verify.cpp: decode, attempt construction, run the
  // full verifier pipeline, render both report formats. std::invalid_argument
  // is the only acceptable rejection at each layer.
  std::size_t replayed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(corpus_root() / "ram_program")) {
    SCOPED_TRACE(entry.path().string());
    std::vector<std::uint8_t> bytes = read_file(entry.path());
    try {
      const std::vector<mpch::ram::Instruction> program =
          mpch::verify::decode_program(bytes.data(), bytes.size());
      try {
        mpch::ram::RamMachine machine(program, {});
        (void)machine;
      } catch (const std::invalid_argument&) {
      }
      mpch::verify::VerifyOptions options;
      options.memory.words = 8;
      options.memory.values = {0, 7};
      const mpch::verify::VerifyReport report =
          mpch::verify::verify_program("corpus", program, options);
      (void)report.format();
      mpch::util::JsonWriter json;
      report.to_json(json);
    } catch (const std::invalid_argument&) {
    }
    ++replayed;
  }
  EXPECT_GE(replayed, 8u) << "RAM-program corpus went missing — check fuzz/corpus/ram_program";
}

// The bug class the framed harness exists for: element counts larger than
// the remaining payload must be rejected as CheckpointError before any
// resize() can turn them into std::length_error or an OOM.
TEST(FuzzCorpusReplay, HostileInboxCountIsTypedRejection) {
  BitString payload;
  for (int i = 0; i < 5; ++i) payload += BitString::from_uint(0, 64);  // header fields
  payload += BitString::from_uint(0xffff'ffff'ffffULL, 64);            // inbox count
  EXPECT_THROW((void)mpch::fault::deserialize(mpch::fault::frame_checkpoint_payload(payload)),
               CheckpointError);
}

TEST(FuzzCorpusReplay, HostileStringLengthIsTypedRejection) {
  // Annotation key whose byte length would wrap the bits multiply.
  BitString payload;
  for (int i = 0; i < 5; ++i) payload += BitString::from_uint(0, 64);
  payload += BitString::from_uint(0, 64);                        // no inboxes
  payload += BitString::from_uint(0, 64);                        // no round stats
  payload += BitString::from_uint(1, 64);                        // one annotation
  payload += BitString::from_uint(0x2000'0000'0000'0000ULL, 64); // its key length, in bytes
  EXPECT_THROW((void)mpch::fault::deserialize(mpch::fault::frame_checkpoint_payload(payload)),
               CheckpointError);
}

TEST(FuzzCorpusReplay, ValidCorpusSeedStillDecodes) {
  // empty_payload.bin is a checksummed frame around zero payload bits: it
  // must fail *inside* the payload parser (truncated), proving the corpus
  // still reaches past the header gates.
  BitString bits = BitString::from_bytes(read_file(corpus_root() / "checkpoint" /
                                                   "empty_payload.bin"));
  EXPECT_THROW(
      {
        try {
          (void)mpch::fault::deserialize(bits);
        } catch (const CheckpointError& e) {
          EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos) << e.what();
          throw;
        }
      },
      CheckpointError);
}

TEST(FuzzCorpusReplay, VersionOneSnapshotIsRejected) {
  // v1_with_memo.bin is a version-1 checkpoint, which also stored the
  // oracle memo and query counter. This build rebuilds both from the
  // transcript and refuses the old layout by its version field.
  BitString bits = BitString::from_bytes(read_file(corpus_root() / "checkpoint" /
                                                   "v1_with_memo.bin"));
  try {
    (void)mpch::fault::deserialize(bits);
    FAIL() << "version-1 snapshot accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported checkpoint version 1"), std::string::npos)
        << e.what();
  }
}

TEST(FuzzCorpusReplay, ModelTraceCorpusRejectsOrParsesTyped) {
  // Mirrors fuzz/fuzz_model_trace.cpp: parse, and round-trip whatever
  // parses. TraceError is the only acceptable rejection.
  std::size_t replayed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(corpus_root() / "model_trace")) {
    SCOPED_TRACE(entry.path().string());
    std::vector<std::uint8_t> bytes = read_file(entry.path());
    std::string text(bytes.begin(), bytes.end());
    try {
      const mpch::check::TraceFile trace = mpch::check::parse_trace(text);
      EXPECT_EQ(mpch::check::parse_trace(mpch::check::encode_trace(trace)), trace);
    } catch (const mpch::check::TraceError&) {
    }
    ++replayed;
  }
  EXPECT_GE(replayed, 9u) << "model-trace corpus went missing — check fuzz/corpus/model_trace";
}

TEST(FuzzCorpusReplay, ModelTraceMutationSeedsStillReproduce) {
  // The six <mutation>.trace seeds are live counterexamples written by
  // `mpch-model --mutation-matrix --trace-dir`: each must still load, build
  // its recorded mutant at the default bounds, and replay to a violation.
  // A seed that stops reproducing means the trace format, the model, or the
  // mutation drifted — regenerate the corpus in the same change.
  std::size_t reproduced = 0;
  for (const mpch::check::MutationSpec& spec : mpch::check::mutation_registry()) {
    SCOPED_TRACE(spec.name);
    const mpch::check::TraceFile trace =
        mpch::check::load_trace((corpus_root() / "model_trace" / (spec.name + ".trace")).string());
    EXPECT_EQ(trace.protocol, spec.protocol);
    EXPECT_EQ(trace.mutation, spec.name);
    std::unique_ptr<mpch::check::Model> model =
        mpch::check::make_model(trace.protocol, mpch::check::ModelBounds{}, trace.mutation);
    const mpch::check::ReplayOutcome outcome =
        mpch::check::Explorer().replay(*model, trace.schedule);
    ASSERT_TRUE(outcome.violation.has_value());
    EXPECT_EQ(*outcome.violation, trace.violation);
    ++reproduced;
  }
  EXPECT_GE(reproduced, 6u);
}

TEST(FuzzCorpusReplay, ReductionFileCorpusRejectsOrParsesTyped) {
  // Mirrors fuzz/fuzz_reduction_file.cpp: parse, and walk whatever parses
  // through describe()/leaf_count(). ReductionError is the only acceptable
  // rejection — hostile compose pyramids, zero scales, u64 overflow, binary
  // garbage, and truncation all included.
  std::size_t replayed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(corpus_root() / "reduction_file")) {
    SCOPED_TRACE(entry.path().string());
    std::vector<std::uint8_t> bytes = read_file(entry.path());
    std::string text(bytes.begin(), bytes.end());
    try {
      const std::vector<mpch::reduce::Reduction> reductions =
          mpch::reduce::parse_reduction_file(text);
      for (const auto& r : reductions) {
        (void)r.describe();
        (void)r.term.leaf_count();
      }
    } catch (const mpch::reduce::ReductionError&) {
    }
    ++replayed;
  }
  EXPECT_GE(replayed, 10u) << "reduction-file corpus went missing — check fuzz/corpus/reduction_file";
}

TEST(FuzzCorpusReplay, ReductionFileValidSeedsStillParse) {
  // The valid seeds must pass every gate — a corpus that rejects everything
  // no longer covers the happy path the fuzzer mutates from.
  for (const char* name : {"valid_auth.red", "valid_regroup.red", "valid_via_list.red",
                           "valid_nested.red", "valid_bare_auth.red"}) {
    SCOPED_TRACE(name);
    std::vector<std::uint8_t> bytes = read_file(corpus_root() / "reduction_file" / name);
    std::string text(bytes.begin(), bytes.end());
    EXPECT_NO_THROW((void)mpch::reduce::parse_reduction_file(text));
  }
}

TEST(FuzzCorpusReplay, WireFrameCorpusRejectsOrAssemblesTyped) {
  // Mirrors fuzz/fuzz_wire_frame.cpp: decode with the shrunk payload cap,
  // then push every data frame through an InboxAssembler. WireError
  // is the only acceptable rejection; std::length_error, bad_alloc, or a
  // crash from a trusted length prefix fails the test.
  std::size_t replayed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(corpus_root() / "wire_frame")) {
    SCOPED_TRACE(entry.path().string());
    std::vector<std::uint8_t> bytes = read_file(entry.path());
    try {
      std::vector<mpch::transport::WireFrame> frames =
          mpch::transport::decode_frames(bytes, /*max_payload_bits=*/1 << 16);
      mpch::transport::InboxAssembler assembler(/*machine=*/0, /*round=*/0);
      for (auto& frame : frames) {
        if (frame.type == mpch::transport::FrameType::kData) {
          assembler.add(frame.from, frame.seq, std::move(frame.payload));
        }
      }
      (void)assembler.take();
    } catch (const mpch::transport::WireError&) {
    }
    ++replayed;
  }
  EXPECT_GE(replayed, 12u) << "wire-frame corpus went missing — check fuzz/corpus/wire_frame";
}

TEST(FuzzCorpusReplay, WireFrameValidSeedsStillDecode) {
  // The valid seeds must actually pass every gate — a corpus that rejects
  // everything no longer covers the happy path the fuzzer mutates from.
  for (const char* name : {"valid_data.bin", "valid_two_senders.bin", "valid_controls.bin"}) {
    SCOPED_TRACE(name);
    std::vector<std::uint8_t> bytes = read_file(corpus_root() / "wire_frame" / name);
    EXPECT_NO_THROW((void)mpch::transport::decode_frames(bytes));
  }
}

}  // namespace
