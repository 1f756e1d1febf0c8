// parse_test.cpp — the shared unsigned-decimal reader and key=value splitter
// (util/parse.hpp) that every text grammar reads through.
#include "util/parse.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

namespace mpch::util {
namespace {

TEST(ParseDecimal, AcceptsOnlyWholeUnsignedDecimalsBelow2To64) {
  struct Case {
    std::string_view text;
    DecimalError error;
    std::uint64_t value;
  };
  const Case cases[] = {
      {"", DecimalError::kNotANumber, 0},
      {"0", DecimalError::kNone, 0},
      {"007", DecimalError::kNone, 7},
      {"18446744073709551615", DecimalError::kNone, UINT64_MAX},
      {"18446744073709551616", DecimalError::kOverflow, 0},
      {"99999999999999999999x", DecimalError::kNotANumber, 0},
      {"-1", DecimalError::kNotANumber, 0},
      {"+1", DecimalError::kNotANumber, 0},
      {" 1", DecimalError::kNotANumber, 0},
      {"1 ", DecimalError::kNotANumber, 0},
      {"1x", DecimalError::kNotANumber, 0},
      {"0x10", DecimalError::kNotANumber, 0},
  };
  for (const Case& c : cases) {
    const Decimal got = parse_decimal(c.text);
    EXPECT_EQ(got.error, c.error) << "'" << c.text << "'";
    EXPECT_EQ(got.value, c.value) << "'" << c.text << "'";
  }
}

/// Every field of `text` split at `separators`, as "key=value" or the
/// field's error tag.
std::vector<std::string> fields_of(std::string_view text, std::string_view separators) {
  std::vector<std::string> out;
  KeyValueList list(text, separators);
  KeyValue kv;
  while (list.next(kv)) {
    switch (kv.error) {
      case KeyValueError::kNone:
        out.push_back(std::string(kv.key) + "=" + std::string(kv.value));
        break;
      case KeyValueError::kMissingEquals:
        out.push_back("missing-equals:" + std::string(kv.field));
        break;
      case KeyValueError::kEmptyKey:
        out.push_back("empty-key:" + std::string(kv.field));
        break;
      case KeyValueError::kRepeatedKey:
        out.push_back("repeated-key:" + std::string(kv.key));
        break;
    }
  }
  return out;
}

using Fields = std::vector<std::string>;

TEST(KeyValueList, SplitsAtTheSeparatorsAndSkipsEmptyFields) {
  EXPECT_EQ(fields_of("a=1,b=2", ","), (Fields{"a=1", "b=2"}));
  EXPECT_EQ(fields_of(",a=1,,b=2,", ","), (Fields{"a=1", "b=2"}));
  EXPECT_EQ(fields_of(" a=1 \t b=x=y\r", " \t\r"), (Fields{"a=1", "b=x=y"}));
  EXPECT_EQ(fields_of("", ","), Fields{});
  EXPECT_EQ(fields_of(",,", ","), Fields{});
}

TEST(KeyValueList, FlagsMalformedAndRepeatedFields) {
  EXPECT_EQ(fields_of("a=1,b", ","), (Fields{"a=1", "missing-equals:b"}));
  EXPECT_EQ(fields_of("=1", ","), Fields{"empty-key:=1"});
  EXPECT_EQ(fields_of("a=1,b=2,a=3", ","), (Fields{"a=1", "b=2", "repeated-key:a"}));
  EXPECT_EQ(fields_of("a=", ","), Fields{"a="});  // an empty value is the grammar's call
  EXPECT_EQ(fields_of("ab=1,a=2", ","), (Fields{"ab=1", "a=2"}));
}

TEST(KeyValueList, FieldsAreViewsIntoTheText) {
  const std::string text = "key=value";
  KeyValueList list(text, ",");
  KeyValue kv;
  ASSERT_TRUE(list.next(kv));
  EXPECT_EQ(kv.key.data(), text.data());
  EXPECT_EQ(kv.value.data(), text.data() + 4);
  EXPECT_FALSE(list.next(kv));
}

}  // namespace
}  // namespace mpch::util
