#include "serve/job_spec.hpp"

#include <set>
#include <sstream>

#include "fault/fault_plan.hpp"
#include "fault/recovery.hpp"

namespace mpch::serve {

namespace {

/// Strict u64: all digits, no sign, no overflow. The CLI layer is lenient;
/// this boundary is not.
std::uint64_t parse_u64(const std::string& value, const std::string& key,
                        std::uint64_t line_number) {
  if (value.empty()) {
    throw JobSpecError(line_number, "empty value for key '" + key + "'");
  }
  std::uint64_t out = 0;
  for (char c : value) {
    if (c < '0' || c > '9') {
      throw JobSpecError(line_number,
                         "value '" + value + "' for key '" + key + "' is not a number");
    }
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (out > (UINT64_MAX - digit) / 10) {
      throw JobSpecError(line_number,
                         "value '" + value + "' for key '" + key + "' overflows 64 bits");
    }
    out = out * 10 + digit;
  }
  return out;
}

bool parse_bool(const std::string& value, const std::string& key, std::uint64_t line_number) {
  if (value == "true" || value == "1") return true;
  if (value == "false" || value == "0") return false;
  throw JobSpecError(line_number, "value '" + value + "' for key '" + key +
                                      "' is not a boolean (true|false|1|0)");
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

JobSpec parse_job_line(const std::string& line, std::uint64_t line_number,
                       std::uint64_t* repeat) {
  std::istringstream tokens(line);
  std::string verb_token;
  tokens >> verb_token;
  if (verb_token.empty()) {
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
    throw JobSpecError(line_number, "unknown verb '" + verb_token +
                                        "' (want simulate|chaos|verify)");
  }

  std::uint64_t repeat_count = 1;
  std::set<std::string> seen;
  std::string token;
  bool has_plan = false;
  while (tokens >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw JobSpecError(line_number, "malformed token '" + token + "' (want key=value)");
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (!seen.insert(key).second) {
      throw JobSpecError(line_number, "duplicate key '" + key + "'");
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
        throw JobSpecError(line_number, "repeat=" + value + " exceeds the per-line cap of " +
                                            std::to_string(kMaxRepeat));
      }
    } else if (key == "transport") {
      try {
        spec.transport = transport::parse_transport_kind(value);
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
      if (spec.verb != JobVerb::kChaos) {
        throw JobSpecError(line_number, "key 'plan' is only valid on chaos jobs");
      }
      try {
        (void)fault::FaultPlan::parse(value);
      } catch (const std::invalid_argument& e) {
        throw JobSpecError(line_number, std::string("bad fault plan: ") + e.what());
      }
      spec.plan = value;
      has_plan = true;
    } else if (key == "policy") {
      if (spec.verb != JobVerb::kChaos) {
        throw JobSpecError(line_number, "key 'policy' is only valid on chaos jobs");
      }
      if (!fault::parse_policy(value).has_value()) {
        throw JobSpecError(line_number, fault::unknown_policy_message(value));
      }
      spec.policy = value;
    } else if (key == "every") {
      if (spec.verb != JobVerb::kChaos) {
        throw JobSpecError(line_number, "key 'every' is only valid on chaos jobs");
      }
      spec.every = parse_u64(value, key, line_number);
      if (spec.every == 0) {
        throw JobSpecError(line_number, "every=0 would never checkpoint");
      }
    } else {
      throw JobSpecError(line_number, "unknown key '" + key + "'");
    }
  }

  if (spec.strategy.empty()) {
    throw JobSpecError(line_number, "missing required key 'strategy'");
  }
  if (spec.verb == JobVerb::kChaos && !has_plan) {
    throw JobSpecError(line_number, "chaos jobs require a plan=... key");
  }
  *repeat = repeat_count;
  return spec;
}

std::vector<JobSpec> parse_jobfile(const std::string& text) {
  std::vector<JobSpec> jobs;
  std::istringstream lines(text);
  std::string line;
  std::uint64_t line_number = 0;
  while (std::getline(lines, line)) {
    ++line_number;
    const std::size_t comment = line.find('#');
    if (comment != std::string::npos) line.resize(comment);
    const std::size_t content = line.find_first_not_of(" \t\r");
    if (content == std::string::npos) continue;

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
