#include "serve/job_spec.hpp"

#include <algorithm>
#include <sstream>

#include "fault/fault_plan.hpp"
#include "fault/recovery.hpp"
#include "util/parse.hpp"

namespace mpch::serve {

namespace {

/// What the jobfile splits on: the C locale's whitespace.
constexpr std::string_view kSpace = " \t\n\v\f\r";

[[noreturn]] void bad_value(std::string_view value, std::string_view key,
                            std::uint64_t line_number, const char* is_not) {
  throw JobSpecError(line_number, "value '" + std::string(value) + "' for key '" +
                                      std::string(key) + "' " + is_not);
}

std::uint64_t parse_u64(std::string_view value, std::string_view key, std::uint64_t line_number) {
  const util::Decimal n = util::parse_decimal(value);
  if (n.error == util::DecimalError::kNone) return n.value;
  bad_value(value, key, line_number,
            n.error == util::DecimalError::kOverflow ? "overflows 64 bits" : "is not a number");
}

bool parse_bool(std::string_view value, std::string_view key, std::uint64_t line_number) {
  if (value == "true" || value == "1") return true;
  if (value == "false" || value == "0") return false;
  bad_value(value, key, line_number, "is not a boolean (true|false|1|0)");
}

}  // namespace

const char* job_verb_name(JobVerb verb) {
  switch (verb) {
    case JobVerb::kSimulate:
      return "simulate";
    case JobVerb::kChaos:
      return "chaos";
    case JobVerb::kVerify:
      return "verify";
  }
  return "?";
}

std::string JobSpec::describe() const {
  std::ostringstream out;
  out << job_verb_name(verb) << " strategy=" << strategy << " seed=" << seed;
  if (threads != 0) out << " threads=" << threads;
  if (transport != transport::TransportKind::kInProcess) {
    out << " transport=" << transport::to_string(transport);
  }
  if (authenticate) out << " authenticate=true";
  if (budget_bits != 0) out << " budget-bits=" << budget_bits;
  if (verb == JobVerb::kChaos) {
    out << " plan=" << plan << " policy=" << policy << " every=" << every;
  }
  return out.str();
}

namespace {

/// Parse one job line (no comments/blank handling, no repeat expansion —
/// repeat is returned via *repeat).
JobSpec parse_job_line(std::string_view line, std::uint64_t line_number,
                       std::uint64_t* repeat) {
  std::string_view verb_token;
  if (!util::next_field(line, kSpace, verb_token)) {
    throw JobSpecError(line_number, "empty job line");
  }

  JobSpec spec;
  spec.source_line = line_number;
  if (verb_token == "simulate") {
    spec.verb = JobVerb::kSimulate;
  } else if (verb_token == "chaos") {
    spec.verb = JobVerb::kChaos;
  } else if (verb_token == "verify") {
    spec.verb = JobVerb::kVerify;
  } else {
    throw JobSpecError(line_number, "unknown verb '" + std::string(verb_token) +
                                        "' (want simulate|chaos|verify)");
  }

  std::uint64_t repeat_count = 1;
  util::KeyValueList fields(line, kSpace);
  util::KeyValue field;
  while (fields.next(field)) {
    const auto [token, key, value, error] = field;
    if (error == util::KeyValueError::kRepeatedKey) {
      throw JobSpecError(line_number, "duplicate key '" + std::string(key) + "'");
    }
    if (error != util::KeyValueError::kNone) {
      throw JobSpecError(line_number,
                         "malformed token '" + std::string(token) + "' (want key=value)");
    }

    if ((key == "plan" || key == "policy" || key == "every") && spec.verb != JobVerb::kChaos) {
      throw JobSpecError(line_number, "key '" + std::string(key) + "' is only valid on chaos jobs");
    }
    if (key == "strategy") {
      if (value.empty()) throw JobSpecError(line_number, "empty value for key 'strategy'");
      spec.strategy = value;
    } else if (key == "seed") {
      spec.seed = parse_u64(value, key, line_number);
    } else if (key == "threads") {
      spec.threads = parse_u64(value, key, line_number);
    } else if (key == "repeat") {
      repeat_count = parse_u64(value, key, line_number);
      if (repeat_count == 0) {
        throw JobSpecError(line_number, "repeat=0 describes no jobs");
      }
      if (repeat_count > kMaxRepeat) {
        throw JobSpecError(line_number, "repeat=" + std::string(value) +
                                            " exceeds the per-line cap of " +
                                            std::to_string(kMaxRepeat));
      }
    } else if (key == "transport") {
      try {
        spec.transport = transport::parse_transport_kind(std::string(value));
      } catch (const std::invalid_argument& e) {
        throw JobSpecError(line_number, e.what());
      }
    } else if (key == "transport-procs") {
      spec.transport_processes = parse_u64(value, key, line_number);
    } else if (key == "authenticate") {
      spec.authenticate = parse_bool(value, key, line_number);
    } else if (key == "budget-bits") {
      spec.budget_bits = parse_u64(value, key, line_number);
    } else if (key == "plan") {
      try {
        (void)fault::FaultPlan::parse(value);
      } catch (const std::invalid_argument& e) {
        throw JobSpecError(line_number, std::string("bad fault plan: ") + e.what());
      }
      spec.plan = value;  // non-empty: an empty plan has no events
    } else if (key == "policy") {
      if (!fault::parse_policy(value).has_value()) {
        throw JobSpecError(line_number, fault::unknown_policy_message(value));
      }
      spec.policy = value;
    } else if (key == "every") {
      spec.every = parse_u64(value, key, line_number);
      if (spec.every == 0) {
        throw JobSpecError(line_number, "every=0 would never checkpoint");
      }
    } else {
      throw JobSpecError(line_number, "unknown key '" + std::string(key) + "'");
    }
  }

  if (spec.strategy.empty()) {
    throw JobSpecError(line_number, "missing required key 'strategy'");
  }
  if (spec.verb == JobVerb::kChaos && spec.plan.empty()) {
    throw JobSpecError(line_number, "chaos jobs require a plan=... key");
  }
  *repeat = repeat_count;
  return spec;
}

}  // namespace

std::vector<JobSpec> parse_jobfile(const std::string& text) {
  if (text.size() > kMaxJobfileBytes) {
    throw JobSpecError(1, "file exceeds " + std::to_string(kMaxJobfileBytes) + " bytes");
  }
  std::vector<JobSpec> jobs;
  std::string_view rest = text;
  for (std::uint64_t line_number = 1; !rest.empty(); ++line_number) {
    std::string_view line = rest.substr(0, rest.find('\n'));
    rest.remove_prefix(std::min(line.size() + 1, rest.size()));
    line = line.substr(0, line.find('#'));
    if (line.find_first_not_of(" \t\r") == std::string_view::npos) continue;

    std::uint64_t repeat = 1;
    JobSpec spec = parse_job_line(line, line_number, &repeat);
    if (jobs.size() + repeat > kMaxJobs) {
      throw JobSpecError(line_number,
                         "jobfile expands past the " + std::to_string(kMaxJobs) + "-job cap");
    }
    for (std::uint64_t i = 0; i < repeat; ++i) {
      jobs.push_back(spec);
      jobs.back().seed = spec.seed + i;
    }
  }
  return jobs;
}

}  // namespace mpch::serve
