#include "verify/verifier.hpp"

#include <algorithm>
#include <array>
#include <sstream>

#include "util/json.hpp"
#include "verify/cfg.hpp"

namespace mpch::verify {

using ram::Instruction;
using ram::Opcode;

namespace {

/// Registers an instruction reads (before its own write takes effect).
std::vector<std::uint8_t> read_registers(const Instruction& ins) {
  switch (ins.op) {
    case Opcode::kLoadImm:
    case Opcode::kJump:
    case Opcode::kHalt:
      return {};
    case Opcode::kLoad:
      return {ins.b};
    case Opcode::kStore:
      return {ins.a, ins.b};
    case Opcode::kMov:
      return {ins.b};
    case Opcode::kJumpIfZero:
    case Opcode::kJumpIfNotZero:
      return {ins.a};
    default:  // three-operand ALU
      return {ins.b, ins.c};
  }
}

void structural_pass(const std::vector<Instruction>& program, std::vector<Finding>& findings) {
  for (std::uint64_t pc = 0; pc < program.size(); ++pc) {
    const Instruction& ins = program[pc];
    const auto raw_op = static_cast<std::uint8_t>(ins.op);
    if (raw_op > static_cast<std::uint8_t>(Opcode::kHalt)) {
      findings.push_back({FindingKind::kBadOpcode, Severity::kError, pc,
                          "opcode " + std::to_string(raw_op) + " outside the instruction set"});
      continue;  // cannot classify the rest of this instruction
    }
    for (std::uint8_t reg : {ins.a, ins.b, ins.c}) {
      if (reg >= ram::kNumRegisters) {
        findings.push_back({FindingKind::kBadRegister, Severity::kError, pc,
                            "register " + std::to_string(reg) + " >= " +
                                std::to_string(ram::kNumRegisters)});
        break;
      }
    }
    if (ins.op == Opcode::kJump || ins.op == Opcode::kJumpIfZero ||
        ins.op == Opcode::kJumpIfNotZero) {
      if (ins.imm >= program.size()) {
        findings.push_back({FindingKind::kBadJumpTarget, Severity::kError, pc,
                            "jump target " + std::to_string(ins.imm) + " past program end " +
                                std::to_string(program.size())});
      }
    }
  }
  if (has_errors(findings)) return;
  for (std::uint64_t pc = 0; pc < program.size(); ++pc) {
    for (std::uint64_t succ : Cfg::successor_pcs(program, pc)) {
      if (succ >= program.size()) {
        findings.push_back({FindingKind::kFallsOffEnd, Severity::kError, pc,
                            "execution can step past the last instruction (missing halt?)"});
      }
    }
  }
}

void hygiene_pass(const std::vector<Instruction>& program, const Cfg& cfg,
                  std::vector<Finding>& findings) {
  for (std::uint64_t b = 0; b < cfg.blocks().size(); ++b) {
    if (!cfg.block_reachable(b)) {
      findings.push_back({FindingKind::kUnreachableCode, Severity::kWarning,
                          cfg.blocks()[b].first,
                          "instructions " + std::to_string(cfg.blocks()[b].first) + ".." +
                              std::to_string(cfg.blocks()[b].last) +
                              " are unreachable from pc 0"});
    }
  }

  // Must-written-before dataflow: meet = intersection over predecessors,
  // entry starts with nothing written. A read outside the must set relies on
  // the implicit zero initialization — defined behavior, hence a warning.
  std::vector<std::uint8_t> in(program.size(), 0xFF);
  std::vector<bool> reached(program.size(), false);
  in[0] = 0;
  reached[0] = true;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::uint64_t pc = 0; pc < program.size(); ++pc) {
      if (!reached[pc]) continue;
      std::uint8_t out = in[pc];
      const Instruction& ins = program[pc];
      const bool writes = ins.op != Opcode::kStore && ins.op != Opcode::kJump &&
                          ins.op != Opcode::kJumpIfZero && ins.op != Opcode::kJumpIfNotZero &&
                          ins.op != Opcode::kHalt;
      if (writes) out = static_cast<std::uint8_t>(out | (1u << ins.a));
      for (std::uint64_t succ : Cfg::successor_pcs(program, pc)) {
        const std::uint8_t met = in[succ] & out;
        if (!reached[succ] || met != in[succ]) {
          reached[succ] = true;
          in[succ] = met;
          changed = true;
        }
      }
    }
  }
  std::array<bool, ram::kNumRegisters> reported{};
  for (std::uint64_t pc = 0; pc < program.size(); ++pc) {
    if (!reached[pc]) continue;
    for (std::uint8_t reg : read_registers(program[pc])) {
      if ((in[pc] >> reg) & 1) continue;
      if (reported[reg]) continue;
      reported[reg] = true;
      findings.push_back({FindingKind::kUseBeforeDef, Severity::kWarning, pc,
                          "register " + std::to_string(reg) +
                              " read before any write (implicit zero)"});
    }
  }
}

}  // namespace

VerifyReport verify_program(const std::string& name, const std::vector<Instruction>& program,
                            const VerifyOptions& options) {
  VerifyReport report;
  report.program = name;
  if (program.empty()) {
    report.findings.push_back(
        {FindingKind::kEmptyProgram, Severity::kError, 0, "program has no instructions"});
    return report;
  }
  structural_pass(program, report.findings);
  if (has_errors(report.findings)) return report;
  report.structurally_valid = true;

  const Cfg cfg(program);
  hygiene_pass(program, cfg, report.findings);

  if (options.analyze) {
    ProgramFacts facts = analyze_program(program, options.memory);
    report.findings.insert(report.findings.end(), facts.findings.begin(), facts.findings.end());
    facts.findings.clear();
    report.facts = std::move(facts);
  }
  return report;
}

std::string VerifyReport::format() const {
  std::ostringstream os;
  os << program << ": " << (ok() ? (clean() ? "PASS" : "PASS (with warnings)") : "FAIL");
  if (facts) {
    os << "\n  " << facts->summary();
    for (const LoopFact& loop : facts->loops) {
      os << "\n  loop@" << loop.header_pc << ": "
         << (loop.bounded ? "trips <= " + std::to_string(loop.max_trips) : "UNBOUNDED") << " ("
         << loop.note << ")";
    }
  }
  for (const Finding& finding : findings) os << "\n  " << finding.to_string();
  return os.str();
}

void VerifyReport::to_json(util::JsonWriter& w) const {
  auto interval = [&w](const char* name, const Interval& iv) {
    w.key(name).begin_array().value(iv.lo).value(iv.hi).end_array();
  };
  w.begin_object();
  w.member("program", program);
  w.member("ok", ok());
  w.member("clean", clean());
  w.member("structurally_valid", structurally_valid);
  w.key("findings").begin_array();
  for (const Finding& f : findings) {
    w.begin_object();
    w.member("kind", finding_kind_name(f.kind));
    w.member("severity", severity_name(f.severity));
    w.member("pc", f.pc);
    w.member("message", f.message);
    w.end_object();
  }
  w.end_array();
  if (facts) {
    w.key("facts").begin_object();
    w.member("terminates", facts->terminates);
    if (facts->terminates) {
      w.member("max_steps", facts->max_steps);
      w.member("max_loads", facts->max_loads);
      w.member("max_stores", facts->max_stores);
    }
    w.member("touched_words", facts->touched_words);
    if (facts->has_loads) interval("load_addrs", facts->load_addrs);
    if (facts->has_stores) interval("store_addrs", facts->store_addrs);
    w.key("loops").begin_array();
    for (const LoopFact& loop : facts->loops) {
      w.begin_object();
      w.member("header_pc", loop.header_pc);
      w.member("bounded", loop.bounded);
      if (loop.bounded) w.member("max_trips", loop.max_trips);
      w.member("note", loop.note);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
}

}  // namespace mpch::verify
