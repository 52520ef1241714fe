// Edge-case coverage for util::FlagSet, the flag vocabulary every bench and
// example binary (and --scenario in particular) is built on: value spelling
// (--name value vs --name=value), boolean forms and negation, unknown-flag
// reporting, positional collection, and typed range checks.

#include <gtest/gtest.h>

#include "util/flags.h"

namespace p2p {
namespace util {
namespace {

// Builds argv-shaped storage for a parse call.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : args_(std::move(args)) {
    ptrs_.push_back(const_cast<char*>("prog"));
    for (const std::string& a : args_) ptrs_.push_back(const_cast<char*>(a.c_str()));
  }
  int argc() const { return static_cast<int>(ptrs_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> args_;
  std::vector<char*> ptrs_;
};

TEST(FlagSetTest, EqualsAndSpaceFormsAreEquivalent) {
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"--n=42", "--s=hi"},
        std::vector<std::string>{"--n", "42", "--s", "hi"},
        std::vector<std::string>{"--n=42", "--s", "hi"}}) {
    int64_t n = 0;
    std::string s;
    FlagSet flags;
    flags.Int64("n", &n, "a number");
    flags.String("s", &s, "a string");
    Argv argv(args);
    ASSERT_TRUE(flags.Parse(argv.argc(), argv.argv()).ok());
    EXPECT_EQ(n, 42);
    EXPECT_EQ(s, "hi");
  }
}

TEST(FlagSetTest, BoolForms) {
  // Bare, =true/=false, =1/=0, and --no- negation.
  struct Case {
    std::string arg;
    bool expected;
  };
  for (const Case& c : {Case{"--b", true}, Case{"--b=true", true},
                        Case{"--b=1", true}, Case{"--b=false", false},
                        Case{"--b=0", false}, Case{"--no-b", false}}) {
    bool b = !c.expected;  // start from the opposite to prove assignment
    FlagSet flags;
    flags.Bool("b", &b, "a flag");
    Argv argv({c.arg});
    ASSERT_TRUE(flags.Parse(argv.argc(), argv.argv()).ok()) << c.arg;
    EXPECT_EQ(b, c.expected) << c.arg;
  }

  // A bool flag never consumes the next token as its value.
  bool b = false;
  FlagSet flags;
  flags.Bool("b", &b, "a flag");
  Argv argv({"--b", "positional"});
  ASSERT_TRUE(flags.Parse(argv.argc(), argv.argv()).ok());
  EXPECT_TRUE(b);
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "positional");
}

TEST(FlagSetTest, BoolNegationRejectsValuesAndBadSpellings) {
  bool b = true;
  FlagSet flags;
  flags.Bool("b", &b, "a flag");
  Argv argv({"--no-b=true"});
  EXPECT_TRUE(flags.Parse(argv.argc(), argv.argv()).IsInvalidArgument());

  bool b2 = true;
  FlagSet flags2;
  flags2.Bool("b", &b2, "a flag");
  Argv argv2({"--b=maybe"});
  EXPECT_TRUE(flags2.Parse(argv2.argc(), argv2.argv()).IsInvalidArgument());
}

TEST(FlagSetTest, NoNegationForNonBools) {
  int64_t n = 0;
  FlagSet flags;
  flags.Int64("n", &n, "a number");
  Argv argv({"--no-n=4"});
  const Status st = flags.Parse(argv.argc(), argv.argv());
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.message().find("no-n"), std::string::npos);
}

TEST(FlagSetTest, UnknownFlagsAreNamed) {
  FlagSet flags;
  Argv argv({"--definitely-not-a-flag=1"});
  const Status st = flags.Parse(argv.argc(), argv.argv());
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.message().find("definitely-not-a-flag"), std::string::npos);
}

TEST(FlagSetTest, MissingValueAtEndOfArgv) {
  int64_t n = 0;
  FlagSet flags;
  flags.Int64("n", &n, "a number");
  Argv argv({"--n"});
  const Status st = flags.Parse(argv.argc(), argv.argv());
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.message().find("expects a value"), std::string::npos);
}

TEST(FlagSetTest, PositionalCollectionPreservesOrder) {
  int64_t n = 0;
  FlagSet flags;
  flags.Int64("n", &n, "a number");
  Argv argv({"alpha", "--n=1", "beta", "gamma"});
  ASSERT_TRUE(flags.Parse(argv.argc(), argv.argv()).ok());
  EXPECT_EQ(flags.positional(),
            (std::vector<std::string>{"alpha", "beta", "gamma"}));
}

TEST(FlagSetTest, TypedRangeChecks) {
  // 4294967298 is the --replicates value a narrowing cast read as 2.
  for (const char* arg : {"--small=4294967296", "--small=4294967298"}) {
    int small = 0;
    FlagSet flags;
    flags.Int32("small", &small, "an int32");
    Argv argv({arg});
    EXPECT_TRUE(flags.Parse(argv.argc(), argv.argv()).IsOutOfRange()) << arg;
  }

  // 4294967396 is the --peers value a narrowing cast read as 100.
  for (const char* arg : {"--u=-1", "--u=-5", "--u=4294967396"}) {
    uint32_t u = 0;
    FlagSet flags2;
    flags2.UInt32("u", &u, "a uint32");
    Argv argv2({arg});
    EXPECT_TRUE(flags2.Parse(argv2.argc(), argv2.argv()).IsOutOfRange())
        << arg;
  }

  double d = 0.0;
  FlagSet flags3;
  flags3.Double("d", &d, "a double");
  Argv argv3({"--d=not-a-number"});
  EXPECT_TRUE(flags3.Parse(argv3.argc(), argv3.argv()).IsInvalidArgument());
}

TEST(FlagSetTest, DoublesMustBeFinite) {
  for (const std::string value : {"nan", "inf", "-inf", "1e999"}) {
    double x = 1.5;
    FlagSet flags;
    flags.Double("x", &x, "a double");
    Argv argv({"--x=" + value});
    const Status st = flags.Parse(argv.argc(), argv.argv());
    EXPECT_TRUE(st.IsInvalidArgument()) << value;
    EXPECT_EQ(st.message(), "not a number: '" + value + "'");
    EXPECT_EQ(x, 1.5) << value;  // the bound variable keeps its value
  }
  double x = 0.0;
  FlagSet flags;
  flags.Double("x", &x, "a double");
  Argv argv({"--x=-2.5e3"});
  ASSERT_TRUE(flags.Parse(argv.argc(), argv.argv()).ok());
  EXPECT_EQ(x, -2500.0);
}

TEST(FlagSetTest, UsageListsFlagsAndDefaults) {
  int64_t n = 7;
  bool b = true;
  FlagSet flags;
  flags.Int64("n", &n, "a number");
  flags.Bool("b", &b, "a flag");
  const std::string usage = flags.Usage("prog");
  EXPECT_NE(usage.find("--n=<value>"), std::string::npos);
  EXPECT_NE(usage.find("(default: 7)"), std::string::npos);
  EXPECT_NE(usage.find("--b"), std::string::npos);
  EXPECT_NE(usage.find("(default: true)"), std::string::npos);
}

}  // namespace
}  // namespace util
}  // namespace p2p
