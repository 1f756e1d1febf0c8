// Structural + hygiene passes of the static verifier: bytecode rejection,
// CFG construction, unreachable-code and use-before-def warnings, and the
// corpus cleanliness bar (every checked-in program must verify with zero
// findings).
#include "verify/cfg.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "ram/programs.hpp"
#include "util/json.hpp"
#include "verify/verifier.hpp"

namespace mpch::verify {
namespace {

using namespace ram::asm_ops;

bool has_finding(const VerifyReport& report, FindingKind kind) {
  return std::any_of(report.findings.begin(), report.findings.end(),
                     [kind](const Finding& f) { return f.kind == kind; });
}

TEST(VerifyStructural, RejectsOutOfRangeJump) {
  const VerifyReport report =
      verify_program("bad-jump", {loadi(0, 1), jmp(999), halt()});
  EXPECT_FALSE(report.ok());
  EXPECT_FALSE(report.structurally_valid);
  ASSERT_TRUE(has_finding(report, FindingKind::kBadJumpTarget));
  for (const Finding& f : report.findings) {
    if (f.kind != FindingKind::kBadJumpTarget) continue;
    EXPECT_EQ(f.severity, Severity::kError);
    EXPECT_EQ(f.pc, 1u);
  }
  // A structurally invalid program never reaches the analysis pass.
  EXPECT_FALSE(report.facts.has_value());
}

TEST(VerifyStructural, RejectsBadRegister) {
  const VerifyReport report =
      verify_program("bad-reg", {{ram::Opcode::kAdd, 9, 0, 0, 0}, halt()});
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_finding(report, FindingKind::kBadRegister));
}

TEST(VerifyStructural, RejectsBadOpcode) {
  const VerifyReport report =
      verify_program("bad-op", {{static_cast<ram::Opcode>(200), 0, 0, 0, 0}, halt()});
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_finding(report, FindingKind::kBadOpcode));
}

TEST(VerifyStructural, RejectsEmptyProgram) {
  const VerifyReport report = verify_program("empty", {});
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_finding(report, FindingKind::kEmptyProgram));
}

TEST(VerifyStructural, RejectsFallingOffTheEnd) {
  const VerifyReport report = verify_program("falls-off", {loadi(0, 1)});
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_finding(report, FindingKind::kFallsOffEnd));

  // The fallthrough arm of a conditional branch at the last pc also falls off.
  const VerifyReport cond = verify_program("cond-falls-off", {loadi(0, 0), jz(0, 0)});
  EXPECT_FALSE(cond.ok());
  EXPECT_TRUE(has_finding(cond, FindingKind::kFallsOffEnd));
}

TEST(VerifyHygiene, UnreachableCodeIsAWarningNotAnError) {
  const VerifyReport report =
      verify_program("dead-code", {jmp(2), loadi(0, 1), halt()});
  EXPECT_TRUE(report.ok());      // warnings do not reject
  EXPECT_FALSE(report.clean());  // but the program is not corpus-clean
  ASSERT_TRUE(has_finding(report, FindingKind::kUnreachableCode));
  for (const Finding& f : report.findings) {
    if (f.kind == FindingKind::kUnreachableCode) {
      EXPECT_EQ(f.severity, Severity::kWarning);
    }
  }
}

TEST(VerifyHygiene, UseBeforeDefWarnsOnImplicitZeroReads) {
  // R1 and R2 are read without ever being written: legal (registers start at
  // zero) but almost always a bug in hand-written bytecode.
  const VerifyReport report = verify_program("ubd", {add(0, 1, 2), halt()});
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(has_finding(report, FindingKind::kUseBeforeDef));
}

TEST(VerifyHygiene, WrittenRegistersDoNotWarn) {
  const VerifyReport report =
      verify_program("defined", {loadi(1, 2), loadi(2, 3), add(0, 1, 2), halt()});
  EXPECT_TRUE(report.clean()) << report.format();
}

TEST(VerifyCorpus, EveryCheckedInProgramIsClean) {
  for (const auto& entry : ram::programs::corpus()) {
    VerifyOptions options;
    options.memory = MemoryModel::from_words(entry.memory);
    const VerifyReport report = verify_program(entry.name, entry.program, options);
    EXPECT_TRUE(report.clean()) << entry.name << ":\n" << report.format();
    ASSERT_TRUE(report.facts.has_value()) << entry.name;
    EXPECT_TRUE(report.facts->terminates) << entry.name;
  }
}

TEST(VerifyCorpus, SumReportJsonGolden) {
  // mpch-verify --format json prints this object inside its "programs" array.
  const std::vector<ram::programs::NamedProgram> corpus = ram::programs::corpus();
  const ram::programs::NamedProgram& sum = corpus.front();
  ASSERT_EQ(sum.name, "sum");
  VerifyOptions options;
  options.memory = MemoryModel::from_words(sum.memory);
  util::JsonWriter w;
  verify_program(sum.name, sum.program, options).to_json(w);
  EXPECT_EQ(w.str(),
            "{\"program\":\"sum\",\"ok\":true,\"clean\":true,\"structurally_valid\":true,"
            "\"findings\":[],\"facts\":{\"terminates\":true,\"max_steps\":59,\"max_loads\":9,"
            "\"max_stores\":0,\"touched_words\":8,\"load_addrs\":[0,7],\"loops\":[{\"header_pc\":4,"
            "\"bounded\":true,\"max_trips\":8,\"note\":\"guard at pc 4, gap 8, stride 1\"}]}}");
}

TEST(VerifyCfg, FindsTheSumLoop) {
  const auto prog = ram::programs::sum(8);
  Cfg cfg(prog);
  EXPECT_TRUE(cfg.reducible());
  ASSERT_EQ(cfg.loops().size(), 1u);
  const NaturalLoop& loop = cfg.loops()[0];
  // The loop header is the block holding the guard at pc 4.
  EXPECT_EQ(cfg.blocks()[loop.header].first, 4u);
  EXPECT_TRUE(loop.contains_block(cfg.block_of(6)));   // body load
  EXPECT_FALSE(loop.contains_block(cfg.block_of(10)));  // halt is outside
}

TEST(VerifyCfg, StraightLineHasNoLoops) {
  Cfg cfg({loadi(0, 1), loadi(1, 2), add(2, 0, 1), halt()});
  EXPECT_TRUE(cfg.reducible());
  EXPECT_TRUE(cfg.loops().empty());
  ASSERT_FALSE(cfg.blocks().empty());
}

TEST(VerifyCfg, ThrowsOnStructurallyInvalidProgram) {
  EXPECT_THROW(Cfg({jmp(999)}), std::invalid_argument);
  EXPECT_THROW(Cfg({}), std::invalid_argument);
}

}  // namespace
}  // namespace mpch::verify
