// json.hpp — a small shared JSON writer for the CLI/bench emitters.
//
// The six tools' --format json output and the reports' to_json(JsonWriter&)
// methods (AnalysisReport, VerifyReport, ReductionReport) all go through
// this writer; the tools keep no JSON escaper of their own. It is a
// streaming writer, not a DOM: keys and values append in call order
// (deterministic output — same calls, same bytes), commas and nesting are
// managed by an explicit container stack, and strings are escaped per RFC
// 8259 (quote, backslash, and control characters; everything else passes
// through byte-for-byte).
//
// Misuse (a value where a key is required, end_object inside an array, ...)
// throws std::logic_error: the writer is for trusted in-process emitters, so
// a structural mistake is a bug to surface loudly, not an input to tolerate.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mpch::util {

class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Object member key; must be directly inside an object, and must be
  /// followed by exactly one value (or container) before the next key.
  JsonWriter& key(const std::string& name);

  JsonWriter& value(const std::string& v);
  JsonWriter& value(const char* v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v);
  /// Doubles render with up to `decimals` fractional digits, trailing zeros
  /// trimmed — matches util::format_double so tables and JSON agree.
  JsonWriter& value_double(double v, int decimals = 3);
  JsonWriter& value_null();

  /// Shorthand for key(name).value(v).
  template <typename V>
  JsonWriter& member(const std::string& name, const V& v) {
    key(name);
    return value(v);
  }
  JsonWriter& member_double(const std::string& name, double v, int decimals = 3) {
    key(name);
    return value_double(v, decimals);
  }

  /// The document so far. Valid JSON once every container is closed.
  const std::string& str() const { return out_; }
  bool complete() const { return stack_.empty() && started_; }

  static std::string escape(const std::string& raw);

 private:
  enum class Frame : std::uint8_t { kObject, kArray };

  void begin_value(bool is_key);

  std::string out_;
  std::vector<Frame> stack_;
  std::vector<bool> first_in_frame_;
  bool expecting_value_ = false;  ///< a key was written, its value is pending
  bool started_ = false;
};

}  // namespace mpch::util
