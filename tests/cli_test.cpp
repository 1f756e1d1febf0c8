#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace mpch::util {
namespace {

CliArgs make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return CliArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(CliArgs, EqualsForm) {
  CliArgs args = make({"--w=128", "--name=test"});
  EXPECT_EQ(args.get_u64("w", 0), 128u);
  EXPECT_EQ(args.get_string("name", ""), "test");
}

TEST(CliArgs, SpaceForm) {
  CliArgs args = make({"--w", "64"});
  EXPECT_EQ(args.get_u64("w", 0), 64u);
}

TEST(CliArgs, BooleanFlag) {
  CliArgs args = make({"--csv"});
  EXPECT_TRUE(args.get_bool("csv", false));
  EXPECT_FALSE(args.get_bool("other", false));
}

TEST(CliArgs, FallbacksUsed) {
  CliArgs args = make({});
  EXPECT_EQ(args.get_u64("missing", 7), 7u);
  EXPECT_EQ(args.get_double("missing", 2.5), 2.5);
  EXPECT_EQ(args.get_string("missing", "dflt"), "dflt");
}

TEST(CliArgs, PositionalCollected) {
  CliArgs args = make({"file1", "--flag", "file2"});
  // "file2" follows a flag without '=', so it binds as its value.
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "file1");
  EXPECT_EQ(args.get_string("flag", ""), "file2");
}

TEST(CliArgs, UnusedDetectsTypos) {
  CliArgs args = make({"--used=1", "--typo=2"});
  args.get_u64("used", 0);
  auto unused = args.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(CliArgs, DoubleParsing) {
  CliArgs args = make({"--frac=0.75"});
  EXPECT_DOUBLE_EQ(args.get_double("frac", 0), 0.75);
}

TEST(CliArgs, BoolVariants) {
  CliArgs args = make({"--a=true", "--b=1", "--c=yes", "--d=no"});
  EXPECT_TRUE(args.get_bool("a", false));
  EXPECT_TRUE(args.get_bool("b", false));
  EXPECT_TRUE(args.get_bool("c", false));
  EXPECT_FALSE(args.get_bool("d", true));
}

TEST(CliArgs, RejectsBareDashes) {
  std::vector<const char*> argv{"prog", "--"};
  EXPECT_THROW(CliArgs(2, argv.data()), std::invalid_argument);
}

/// The CliError message get_* throws for `--name=value`, or "" if none.
template <typename Get>
std::string error_of(const char* arg, Get get) {
  CliArgs args = make({arg});
  try {
    get(args);
  } catch (const CliError& e) {
    return e.what();
  }
  return "";
}

TEST(CliArgs, U64RejectsAnythingButWholeUnsignedDecimals) {
  auto u64 = [](const CliArgs& a) { return a.get_u64("n", 0); };
  for (const char* bad : {"--n=-1", "--n=12abc", "--n=2x", "--n=", "--n=+3", "--n= 4", "--n=0x10",
                          "--n=1.5", "--n=18446744073709551616", "--n=99999999999999999999"}) {
    const std::string msg = error_of(bad, u64);
    EXPECT_NE(msg.find("--n"), std::string::npos) << bad << ": '" << msg << "'";
  }
  EXPECT_EQ(make({"--n=18446744073709551615"}).get_u64("n", 0), UINT64_MAX);
  EXPECT_EQ(make({"--n=007"}).get_u64("n", 0), 7u);
}

TEST(CliArgs, DoubleMustConsumeTheWholeValue) {
  auto dbl = [](const CliArgs& a) { return a.get_double("x", 0); };
  for (const char* bad : {"--x=0.5x", "--x=abc", "--x=", "--x= 1", "--x=1e999"}) {
    EXPECT_NE(error_of(bad, dbl).find("--x"), std::string::npos) << bad;
  }
  EXPECT_DOUBLE_EQ(make({"--x=-2.5e1"}).get_double("x", 0), -25.0);
}

TEST(CliArgs, BoolAcceptsOnlyTheSixSpellings) {
  CliArgs args = make({"--a=false", "--b=0", "--c=no"});
  EXPECT_FALSE(args.get_bool("a", true));
  EXPECT_FALSE(args.get_bool("b", true));
  EXPECT_FALSE(args.get_bool("c", true));
  auto flag = [](const CliArgs& a) { return a.get_bool("f", false); };
  for (const char* bad : {"--f=ture", "--f=TRUE", "--f=2", "--f=on", "--f="}) {
    EXPECT_NE(error_of(bad, flag).find("--f"), std::string::npos) << bad;
  }
}

TEST(CliArgs, ChoiceIsOneOfTheAllowedValues) {
  const std::vector<std::string> formats{"text", "json"};
  EXPECT_EQ(make({"--format=json"}).get_choice("format", "text", formats), "json");
  EXPECT_EQ(make({}).get_choice("format", "text", formats), "text");
  auto format = [&formats](const CliArgs& a) { return a.get_choice("format", "text", formats); };
  EXPECT_EQ(error_of("--format=xml", format), "--format: 'xml' is not one of text|json");
  for (const char* bad : {"--format=JSON", "--format=", "--format=text "}) {
    EXPECT_NE(error_of(bad, format).find("--format"), std::string::npos) << bad;
  }
}

TEST(CliArgs, RejectUnknownNamesTheFirstUnreadFlag) {
  CliArgs args = make({"--used=1", "--typo=2"});
  args.get_u64("used", 0);
  try {
    args.reject_unknown();
    FAIL() << "unknown flag accepted";
  } catch (const CliError& e) {
    EXPECT_EQ(std::string(e.what()), "unknown flag --typo");
  }
  args.get_string("typo", "");
  EXPECT_NO_THROW(args.reject_unknown());
}

TEST(CliArgs, RunToolTurnsCliErrorsIntoExitTwo) {
  std::vector<const char*> ok{"prog", "--n=5"};
  std::vector<const char*> bad{"prog", "--n=5x"};
  std::vector<const char*> unknown{"prog", "--n=5", "--typo"};
  auto body = [](const CliArgs& args) {
    const std::uint64_t n = args.get_u64("n", 0);
    args.reject_unknown();
    return static_cast<int>(n);
  };
  EXPECT_EQ(run_tool("prog", 2, ok.data(), body), 5);
  testing::internal::CaptureStderr();
  EXPECT_EQ(run_tool("prog", 2, bad.data(), body), 2);
  EXPECT_EQ(run_tool("prog", 3, unknown.data(), body), 2);
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "prog: --n: '5x' is not an unsigned decimal integer\n"
            "prog: unknown flag --typo\n");
}

// read_input reads at most one byte past its cap, across its internal
// read chunks, so a grammar's own size check sees every oversized file as
// exactly cap + 1 bytes, and holds no more than that in memory.
TEST(ReadInput, ReadsAtMostOneBytePastTheCap) {
  const std::size_t cap = 5000;
  const std::string path = ::testing::TempDir() + "cli_read_input.txt";
  const auto read_sized = [&](std::size_t size) {
    std::string text(size, 'x');
    for (std::size_t i = 0; i < size; ++i) text[i] = static_cast<char>('a' + i % 26);
    std::ofstream(path, std::ios::binary) << text;
    std::string got = read_input(path, cap);
    EXPECT_EQ(got, text.substr(0, cap + 1)) << size << " bytes";
    return got;
  };
  EXPECT_EQ(read_sized(0).size(), 0u);
  EXPECT_EQ(read_sized(cap).size(), cap);
  EXPECT_EQ(read_sized(cap + 1).size(), cap + 1);
  const std::string oversized = read_sized(3 * cap);
  EXPECT_EQ(oversized.size(), cap + 1);
  EXPECT_LE(oversized.capacity(), cap + 1);
  std::remove(path.c_str());
  EXPECT_THROW((void)read_input(path, cap), CliError);
}

}  // namespace
}  // namespace mpch::util
