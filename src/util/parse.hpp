// parse.hpp — the one reader of unsigned decimals and key=value lists.
//
// Every text grammar (CLI flags, the jobfile, fault plans, mpch-model's
// --bound, model traces, reduction files) reads its numbers here, so one rule
// decides what a number is: a non-empty run of ASCII digits — no sign, no
// whitespace, no suffix — below 2^64. Leading zeros are allowed ("007" is 7).
// Neither reader throws: each grammar words a failure in its own typed error.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string_view>

namespace mpch::util {

enum class DecimalError : std::uint8_t { kNone, kNotANumber, kOverflow };

struct Decimal {
  std::uint64_t value = 0;  ///< 0 unless error == kNone
  DecimalError error = DecimalError::kNone;
};

/// Read the whole of `text` as an unsigned decimal. kOverflow means digits
/// only but a value of 2^64 or more; any other failure is kNotANumber.
inline Decimal parse_decimal(std::string_view text) {
  if (text.empty()) return {0, DecimalError::kNotANumber};
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return {0, DecimalError::kNotANumber};
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) {
      const bool digits_only = text.find_first_not_of("0123456789") == std::string_view::npos;
      return {0, digits_only ? DecimalError::kOverflow : DecimalError::kNotANumber};
    }
    value = value * 10 + digit;
  }
  return {value, DecimalError::kNone};
}

/// Pop the next non-empty field of `rest`, split at any byte of
/// `separators`, into `field`; false when only separators remain.
inline bool next_field(std::string_view& rest, std::string_view separators,
                       std::string_view& field) {
  rest.remove_prefix(std::min(rest.find_first_not_of(separators), rest.size()));
  if (rest.empty()) return false;
  field = rest.substr(0, rest.find_first_of(separators));
  rest.remove_prefix(field.size());
  return true;
}

enum class KeyValueError : std::uint8_t { kNone, kMissingEquals, kEmptyKey, kRepeatedKey };

/// One field of a key=value list, as views into the list's text.
struct KeyValue {
  std::string_view field;  ///< the whole field, for error messages
  std::string_view key;    ///< before the first '='
  std::string_view value;  ///< after the first '='; may be empty
  KeyValueError error = KeyValueError::kNone;
};

/// The fields of a key=value list split at any byte of `separators`; empty
/// fields are skipped. A key is checked against the earlier ones by
/// rescanning them: quadratic in the fields read, which every grammar bounds
/// by stopping at its first unknown key.
class KeyValueList {
 public:
  KeyValueList(std::string_view text, std::string_view separators)
      : text_(text), rest_(text), separators_(separators) {}

  /// The next field into `out`, with `out.error` set when it is malformed;
  /// false at the end of the list.
  bool next(KeyValue& out) {
    std::string_view earlier = text_.substr(0, text_.size() - rest_.size());
    if (!next_field(rest_, separators_, out.field)) return false;
    const std::size_t eq = out.field.find('=');
    out.key = out.field.substr(0, eq);
    out.value = eq == std::string_view::npos ? std::string_view() : out.field.substr(eq + 1);
    out.error = eq == std::string_view::npos ? KeyValueError::kMissingEquals
                : eq == 0                    ? KeyValueError::kEmptyKey
                                             : KeyValueError::kNone;
    std::string_view field;
    while (out.error == KeyValueError::kNone && next_field(earlier, separators_, field)) {
      if (field.substr(0, field.find('=')) == out.key) out.error = KeyValueError::kRepeatedKey;
    }
    return true;
  }

 private:
  std::string_view text_;
  std::string_view rest_;  ///< the unread suffix of text_
  std::string_view separators_;
};

}  // namespace mpch::util
