// The shared experiment-harness flag grammar (bench/bench_cli.h): one
// parser, one --help.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench_cli.h"

namespace {

using nbv6::bench::Cli;

/// argv builder: keeps the strings alive and hands out char* the way
/// main() receives them.
struct Argv {
  explicit Argv(std::vector<std::string> args) : store(std::move(args)) {
    ptrs.push_back(const_cast<char*>("prog"));
    for (auto& a : store) ptrs.push_back(a.data());
  }
  int argc() { return static_cast<int>(ptrs.size()); }
  char** argv() { return ptrs.data(); }
  std::vector<std::string> store;
  std::vector<char*> ptrs;
};

TEST(BenchCli, ParsesEqualsAndSpaceForms) {
  int n = 1;
  std::uint64_t seed = 0;
  double frac = 0.0;
  std::string name = "default";
  Cli cli("t", "test");
  cli.flag_int("n", &n, "");
  cli.flag_u64("seed", &seed, "");
  cli.flag_double("frac", &frac, "");
  cli.flag_string("name", &name, "");
  Argv a({"--n=42", "--seed", "123456789012345", "--frac=0.25", "--name",
          "abc"});
  ASSERT_TRUE(cli.parse(a.argc(), a.argv()));
  EXPECT_EQ(n, 42);
  EXPECT_EQ(seed, 123456789012345ull);
  EXPECT_DOUBLE_EQ(frac, 0.25);
  EXPECT_EQ(name, "abc");
}

TEST(BenchCli, BoolFlagsBareAndExplicit) {
  bool on = false;
  bool off = true;
  Cli cli("t", "test");
  cli.flag_bool("on", &on, "");
  cli.flag_bool("off", &off, "");
  Argv a({"--on", "--off=false"});
  ASSERT_TRUE(cli.parse(a.argc(), a.argv()));
  EXPECT_TRUE(on);
  EXPECT_FALSE(off);
}

TEST(BenchCli, UnknownFlagFailsWithExitCode2) {
  Cli cli("t", "test");
  Argv a({"--nope=1"});
  EXPECT_FALSE(cli.parse(a.argc(), a.argv()));
  EXPECT_EQ(cli.exit_code(), 2);
}

TEST(BenchCli, MalformedValueFails) {
  int n = 0;
  Cli cli("t", "test");
  cli.flag_int("n", &n, "");
  Argv a({"--n=not_a_number"});
  EXPECT_FALSE(cli.parse(a.argc(), a.argv()));
  EXPECT_EQ(cli.exit_code(), 2);
}

TEST(BenchCli, MissingValueFails) {
  int n = 0;
  Cli cli("t", "test");
  cli.flag_int("n", &n, "");
  Argv a({"--n"});
  EXPECT_FALSE(cli.parse(a.argc(), a.argv()));
  EXPECT_EQ(cli.exit_code(), 2);
}

TEST(BenchCli, HelpReturnsFalseWithExitCode0) {
  Cli cli("t", "test");
  Argv a({"--help"});
  EXPECT_FALSE(cli.parse(a.argc(), a.argv()));
  EXPECT_EQ(cli.exit_code(), 0);
}

TEST(BenchCli, PositionalsConsumeInOrder) {
  std::string first = "f-default";
  std::string second = "s-default";
  Cli cli("t", "test");
  cli.positional("first", &first, "");
  cli.positional("second", &second, "");
  Argv a({"one"});
  ASSERT_TRUE(cli.parse(a.argc(), a.argv()));
  EXPECT_EQ(first, "one");
  EXPECT_EQ(second, "s-default");  // optional: default survives

  Argv b({"one", "two", "three"});
  Cli cli2("t", "test");
  cli2.positional("first", &first, "");
  cli2.positional("second", &second, "");
  EXPECT_FALSE(cli2.parse(b.argc(), b.argv()));  // third has no slot
  EXPECT_EQ(cli2.exit_code(), 2);
}

}  // namespace
