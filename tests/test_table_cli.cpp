// Tests for util/table.h and util/cli.h — the presentation layer of the
// bench binaries and examples.

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "util/cli.h"
#include "util/table.h"

namespace udring {
namespace {

TEST(Table, AlignsColumnsAndPrintsRule) {
  Table table({"n", "k", "moves"});
  table.add_row({"64", "8", "812"});
  table.add_row({"4096", "256", "1234567"});
  std::ostringstream out;
  out << table;
  const std::string text = out.str();
  EXPECT_NE(text.find("n"), std::string::npos);
  EXPECT_NE(text.find("1234567"), std::string::npos);
  EXPECT_NE(text.find("---"), std::string::npos);
  // Header line and rule and 2 rows → at least 4 lines.
  EXPECT_GE(std::count(text.begin(), text.end(), '\n'), 4);
}

TEST(Table, PadsShortRows) {
  Table table({"a", "b", "c"});
  table.add_row({"only"});
  std::ostringstream out;
  EXPECT_NO_THROW(out << table);
  EXPECT_EQ(table.rows(), 1u);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(std::size_t{42}), "42");
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(PrintSection, EmitsTitle) {
  std::ostringstream out;
  print_section(out, "Table 1");
  EXPECT_NE(out.str().find("== Table 1"), std::string::npos);
}

TEST(Cli, ParsesEqualsAndBooleanForms) {
  const char* argv[] = {"prog", "--n=64", "--k=8", "--verbose", "pos1"};
  Cli cli(5, argv);
  EXPECT_EQ(cli.get_size("n", 0, "ring size"), 64u);
  EXPECT_EQ(cli.get_size("k", 0, "agents"), 8u);
  EXPECT_TRUE(cli.get_flag("verbose", "chatty"));
  EXPECT_FALSE(cli.get_flag("quiet", "silent"));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
}

TEST(Cli, DefaultsApplyWhenAbsent) {
  const char* argv[] = {"prog"};
  Cli cli(1, argv);
  EXPECT_EQ(cli.get_size("n", 128, "ring size"), 128u);
  EXPECT_EQ(cli.get_u64("seed", 42, "rng seed"), 42u);
  EXPECT_EQ(cli.get("name", "label", "fallback").value(), "fallback");
}

TEST(Cli, UnknownFlagsAreRejectedByName) {
  const char* argv[] = {"prog", "--n=6", "--frontier=8", "--bogus"};
  Cli cli(4, argv);
  EXPECT_EQ(cli.get_size("n", 0, "ring size"), 6u);
  try {
    cli.reject_unknown_flags();
    FAIL() << "unknown flags were accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(),
                 "unknown flag(s): --bogus, --frontier (see --help)");
  }
  (void)cli.get_flag("bogus", "registered now");
  (void)cli.get_size("frontier", 0, "registered now");
  EXPECT_NO_THROW(cli.reject_unknown_flags());
}

TEST(Cli, NumbersMustBeWholeUnsignedDecimals) {
  for (const char* bad : {"--n=6x", "--n=-1", "--n=", "--n=+6", "--n= 6",
                          "--n=18446744073709551616"}) {
    const char* argv[] = {"prog", bad};
    Cli cli(2, argv);
    EXPECT_THROW((void)cli.get_size("n", 0, "ring size"), std::invalid_argument)
        << bad;
    EXPECT_THROW((void)cli.get_u64("n", 0, "ring size"), std::invalid_argument)
        << bad;
  }
  const char* argv[] = {"prog", "--n=6x"};
  Cli cli(2, argv);
  try {
    (void)cli.get_size("n", 0, "ring size");
    FAIL() << "6x was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(), "--n: expected an unsigned decimal, got '6x'");
  }
  const char* max_argv[] = {"prog", "--seed=18446744073709551615"};
  Cli max_cli(2, max_argv);
  EXPECT_EQ(max_cli.get_u64("seed", 0, "rng seed"), 18446744073709551615u);
}

TEST(Cli, HelpFlagDetected) {
  const char* argv[] = {"prog", "--help"};
  Cli cli(2, argv);
  EXPECT_TRUE(cli.wants_help());
  testing::internal::CaptureStdout();
  (void)cli.get_size("n", 1, "ring size");
  cli.print_help("test program");
  const std::string help = testing::internal::GetCapturedStdout();
  EXPECT_NE(help.find("--n"), std::string::npos);
  EXPECT_NE(help.find("ring size"), std::string::npos);
}

}  // namespace
}  // namespace udring
