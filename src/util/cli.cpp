#include "util/cli.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "util/parse.hpp"

namespace mpch::util {

namespace {

[[noreturn]] void bad_value(const std::string& name, const std::string& value,
                            const std::string& want) {
  throw CliError("--" + name + ": '" + value + "' is not " + want);
}

}  // namespace

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    if (body.empty()) throw CliError("bare '--'");
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[body] = argv[++i];
    } else {
      values_[body] = "true";  // boolean flag
    }
  }
}

const std::string* CliArgs::value_of(const std::string& name) const {
  queried_[name] = true;
  auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

std::string CliArgs::get_string(const std::string& name, const std::string& fallback) const {
  const std::string* v = value_of(name);
  return v == nullptr ? fallback : *v;
}

std::uint64_t CliArgs::get_u64(const std::string& name, std::uint64_t fallback) const {
  const std::string* v = value_of(name);
  if (v == nullptr) return fallback;
  const Decimal n = parse_decimal(*v);
  if (n.error == DecimalError::kOverflow) bad_value(name, *v, "an integer below 2^64");
  if (n.error != DecimalError::kNone) bad_value(name, *v, "an unsigned decimal integer");
  return n.value;
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const std::string* v = value_of(name);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const double out = std::strtod(v->c_str(), &end);
  if (v->empty() || std::isspace(static_cast<unsigned char>(v->front())) ||
      end != v->c_str() + v->size() || errno == ERANGE) {
    bad_value(name, *v, "a number");
  }
  return out;
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  const std::string* v = value_of(name);
  if (v == nullptr) return fallback;
  if (*v == "true" || *v == "1" || *v == "yes") return true;
  if (*v == "false" || *v == "0" || *v == "no") return false;
  bad_value(name, *v, "a boolean (true|false|1|0|yes|no)");
}

std::string CliArgs::get_choice(const std::string& name, const std::string& fallback,
                                const std::vector<std::string>& allowed) const {
  const std::string* v = value_of(name);
  if (v == nullptr) return fallback;
  std::string choices;
  for (const std::string& choice : allowed) {
    if (*v == choice) return *v;
    choices += (choices.empty() ? "" : "|") + choice;
  }
  bad_value(name, *v, "one of " + choices);
}

std::vector<std::string> CliArgs::unused() const {
  std::vector<std::string> out;
  for (const auto& [name, _] : values_) {
    if (!queried_.count(name)) out.push_back(name);
  }
  return out;
}

void CliArgs::reject_unknown() const {
  const std::vector<std::string> names = unused();
  if (!names.empty()) throw CliError("unknown flag --" + names.front());
}

int run_tool(const char* tool, int argc, const char* const* argv,
             int (*body)(const CliArgs& args)) {
  try {
    return body(CliArgs(argc, argv));
  } catch (const std::invalid_argument& e) {
    std::cerr << tool << ": " << e.what() << "\n";
    return 2;
  }
}

std::string read_input(const std::string& path, std::size_t max_bytes) {
  std::ifstream file;
  if (path != "-") {
    file.open(path, std::ios::binary);
    if (!file) throw CliError("cannot open '" + path + "'");
  }
  std::istream& in = path == "-" ? std::cin : file;
  std::string text;
  char buf[1 << 12];
  while (text.size() <= max_bytes && in) {
    in.read(buf, static_cast<std::streamsize>(
                     std::min<std::size_t>(sizeof(buf), max_bytes + 1 - text.size())));
    text.append(buf, static_cast<std::size_t>(in.gcount()));
  }
  if (in.bad()) throw CliError("cannot read '" + path + "'");
  return text;
}

}  // namespace mpch::util
