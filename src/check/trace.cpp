#include "check/trace.hpp"

#include <fstream>
#include <sstream>

#include "util/cli.hpp"
#include "util/parse.hpp"

namespace mpch::check {

namespace {

constexpr const char* kHeader = "mpch-model-trace v1";

/// One-line fields must stay one line and within the line cap. Tokens
/// (protocol/mutation names) also reject spaces so the key-value line grammar
/// stays unambiguous.
void require_field(const std::string& value, const char* name, bool allow_empty,
                   bool token = false) {
  const auto fail = [name](const char* why) {
    throw std::invalid_argument(std::string("trace encode: field '") + name + "' " + why);
  };
  if (!allow_empty && value.empty()) fail("is empty");
  if (value.size() > kMaxTraceLineBytes / 2) fail("is overlong");
  if (value.find_first_of("\n\r") != std::string::npos) fail("contains a line break");
  if (token && value.find(' ') != std::string::npos) fail("contains a space");
}

/// Field values share encode_trace's length ceiling, so anything the parser
/// accepts is guaranteed to re-encode (the fuzz harness round-trips on it).
void require_parsed_field(const std::string& value, const char* name, std::size_t line_no) {
  if (value.size() > kMaxTraceLineBytes / 2) {
    throw TraceError("trace: line " + std::to_string(line_no) + ": " + name + " is overlong");
  }
}

/// Split "prefix rest-of-line"; throws TraceError when `line` does not start
/// with `prefix` + space, or when a `token` value contains a space.
std::string expect_prefixed(const std::string& line, const std::string& prefix,
                            std::size_t line_no, bool token = false) {
  if (line.size() <= prefix.size() + 1 || line.compare(0, prefix.size(), prefix) != 0 ||
      line[prefix.size()] != ' ') {
    throw TraceError("trace: line " + std::to_string(line_no) + " must be '" + prefix +
                     " <value>', got '" + line.substr(0, 32) + "'");
  }
  std::string value = line.substr(prefix.size() + 1);
  require_parsed_field(value, prefix.c_str(), line_no);
  if (token && value.find(' ') != std::string::npos) {
    throw TraceError("trace: line " + std::to_string(line_no) + ": " + prefix +
                     " contains a space");
  }
  return value;
}

std::uint64_t parse_u64(std::string_view text, const char* what, std::size_t line_no) {
  const util::Decimal n = util::parse_decimal(text);
  if (n.error == util::DecimalError::kNone) return n.value;
  throw TraceError("trace: line " + std::to_string(line_no) + ": " + what +
                   (n.error == util::DecimalError::kOverflow ? " overflows u64"
                                                             : " is not a decimal number"));
}

/// Pull the next '\n'-terminated line; enforces the line cap and rejects
/// truncation (a final line without '\n' means the file was cut short).
std::string next_line(const std::string& text, std::size_t& pos, std::size_t& line_no) {
  ++line_no;
  if (pos >= text.size()) {
    throw TraceError("trace: truncated at line " + std::to_string(line_no) +
                     " — file ends before the schedule does");
  }
  const std::size_t nl = text.find('\n', pos);
  if (nl == std::string::npos) {
    throw TraceError("trace: line " + std::to_string(line_no) +
                     " is not newline-terminated (truncated file)");
  }
  if (nl - pos > kMaxTraceLineBytes) {
    throw TraceError("trace: line " + std::to_string(line_no) + " exceeds " +
                     std::to_string(kMaxTraceLineBytes) + " bytes");
  }
  std::string line = text.substr(pos, nl - pos);
  if (line.find('\r') != std::string::npos) {
    throw TraceError("trace: line " + std::to_string(line_no) +
                     " contains a CR byte — traces are LF-only");
  }
  pos = nl + 1;
  return line;
}

}  // namespace

std::string encode_trace(const TraceFile& trace) {
  require_field(trace.protocol, "protocol", /*allow_empty=*/false, /*token=*/true);
  require_field(trace.mutation, "mutation", /*allow_empty=*/false, /*token=*/true);
  require_field(trace.bound, "bound", /*allow_empty=*/true);
  require_field(trace.violation, "violation", /*allow_empty=*/false);
  if (trace.schedule.size() > kMaxTraceActions) {
    throw std::invalid_argument("trace encode: schedule exceeds kMaxTraceActions");
  }
  std::ostringstream out;
  out << kHeader << '\n';
  out << "protocol " << trace.protocol << '\n';
  out << "mutation " << trace.mutation << '\n';
  if (!trace.bound.empty()) out << "bound " << trace.bound << '\n';
  out << "violation " << trace.violation << '\n';
  out << "actions " << trace.schedule.size() << '\n';
  for (const Action& a : trace.schedule) {
    require_field(a.label, "action label", /*allow_empty=*/false);
    out << a.key << ' ' << a.label << '\n';
  }
  out << "end\n";
  return out.str();
}

TraceFile parse_trace(const std::string& text) {
  if (text.size() > kMaxTraceFileBytes) {
    throw TraceError("trace: file exceeds " + std::to_string(kMaxTraceFileBytes) + " bytes");
  }
  std::size_t pos = 0;
  std::size_t line_no = 0;
  if (next_line(text, pos, line_no) != kHeader) {
    throw TraceError(std::string("trace: line 1 must be the header '") + kHeader + "'");
  }

  TraceFile out;
  // next_line must run (and bump line_no) before expect_prefixed reads it —
  // keep the calls on separate statements, never nested in an argument list.
  std::string field = next_line(text, pos, line_no);
  out.protocol = expect_prefixed(field, "protocol", line_no, /*token=*/true);
  field = next_line(text, pos, line_no);
  out.mutation = expect_prefixed(field, "mutation", line_no, /*token=*/true);

  std::string line = next_line(text, pos, line_no);
  if (line.compare(0, 6, "bound ") == 0) {
    out.bound = line.substr(6);
    require_parsed_field(out.bound, "bound", line_no);
    line = next_line(text, pos, line_no);
  }
  out.violation = expect_prefixed(line, "violation", line_no);

  field = next_line(text, pos, line_no);
  const std::uint64_t count =
      parse_u64(expect_prefixed(field, "actions", line_no), "action count", line_no);
  if (count > kMaxTraceActions) {
    throw TraceError("trace: line " + std::to_string(line_no) + ": action count " +
                     std::to_string(count) + " exceeds the ceiling of " +
                     std::to_string(kMaxTraceActions));
  }
  out.schedule.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    line = next_line(text, pos, line_no);
    const std::size_t sp = line.find(' ');
    if (sp == std::string::npos || sp == 0 || sp + 1 >= line.size()) {
      throw TraceError("trace: line " + std::to_string(line_no) +
                       " must be '<key> <label>' for schedule step " + std::to_string(i + 1));
    }
    Action a;
    a.key = parse_u64(std::string_view(line).substr(0, sp), "action key", line_no);
    a.label = line.substr(sp + 1);
    require_parsed_field(a.label, "action label", line_no);
    out.schedule.push_back(std::move(a));
  }
  if (next_line(text, pos, line_no) != "end") {
    throw TraceError("trace: line " + std::to_string(line_no) +
                     " must be the 'end' terminator after " + std::to_string(count) +
                     " schedule step(s)");
  }
  if (pos != text.size()) {
    throw TraceError("trace: trailing bytes after the 'end' terminator (line " +
                     std::to_string(line_no + 1) + ")");
  }
  return out;
}

TraceFile load_trace(const std::string& path) {
  std::string text;
  try {
    text = util::read_input(path, kMaxTraceFileBytes);
  } catch (const util::CliError& e) {
    throw TraceError(std::string("trace: ") + e.what());
  }
  return parse_trace(text);
}

void save_trace(const std::string& path, const TraceFile& trace) {
  const std::string text = encode_trace(trace);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("trace: cannot open '" + path + "' for writing");
  out << text;
  out.flush();
  if (!out) throw std::runtime_error("trace: write failed on '" + path + "'");
}

}  // namespace mpch::check
