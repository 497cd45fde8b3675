#include "pal/config.hpp"

#include <gtest/gtest.h>

namespace insitu::pal {
namespace {

TEST(Config, FromArgsParsesKeyValueAndPositional) {
  const char* argv[] = {"prog", "grid=64", "--steps=10", "input.osc",
                        "machine=cori"};
  Config cfg = Config::from_args(5, argv);
  EXPECT_EQ(cfg.get_string_or("grid", ""), "64");
  EXPECT_EQ(cfg.get_int_or("steps", 0), 10);
  EXPECT_EQ(cfg.get_string_or("machine", ""), "cori");
  ASSERT_EQ(cfg.positional().size(), 1u);
  EXPECT_EQ(cfg.positional()[0], "input.osc");
}

TEST(Config, FromArgsParsesFlagValueAndBareSwitch) {
  const char* argv[] = {"prog",    "--trace", "out.json", "--verbose",
                        "--steps", "10",      "grid=64",  "--metrics=m.csv"};
  Config cfg = Config::from_args(8, argv);
  EXPECT_EQ(cfg.get_string_or("trace", ""), "out.json");
  EXPECT_TRUE(cfg.get_bool_or("verbose", false));  // bare switch -> true
  EXPECT_EQ(cfg.get_int_or("steps", 0), 10);
  EXPECT_EQ(cfg.get_string_or("grid", ""), "64");
  EXPECT_EQ(cfg.get_string_or("metrics", ""), "m.csv");
  EXPECT_TRUE(cfg.positional().empty());
}

TEST(Config, FromArgsSwitchBeforeKeyValueStaysBoolean) {
  // "--flag key=value": the key=value token is not consumed as the flag's
  // value.
  const char* argv[] = {"prog", "--flag", "grid=64"};
  Config cfg = Config::from_args(3, argv);
  EXPECT_TRUE(cfg.get_bool_or("flag", false));
  EXPECT_EQ(cfg.get_int_or("grid", 0), 64);
}

TEST(Config, TypedAccessors) {
  Config cfg;
  cfg.set("n", "42");
  cfg.set("x", "2.5");
  cfg.set("flag", "true");
  cfg.set("flag2", "OFF");
  EXPECT_EQ(cfg.get_int_or("n", 0), 42);
  EXPECT_DOUBLE_EQ(cfg.get_double_or("x", 0.0), 2.5);
  EXPECT_TRUE(cfg.get_bool_or("flag", false));
  EXPECT_FALSE(cfg.get_bool_or("flag2", true));
}

TEST(Config, MissingKeyReturnsNotFound) {
  Config cfg;
  auto r = cfg.get_string("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(Config, MalformedIntIsInvalidArgument) {
  Config cfg;
  cfg.set("n", "12x");
  auto r = cfg.get_int("n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(Config, MalformedBoolIsInvalidArgument) {
  Config cfg;
  cfg.set("b", "maybe");
  EXPECT_FALSE(cfg.get_bool("b").ok());
}

TEST(Config, FromTextSectionsAndComments) {
  const char* text = R"(
# oscillator input deck
[simulation]
grid = 32
steps = 5

[analysis]
bins = 64
; alt comment style
window = 10
)";
  auto cfg = Config::from_text(text);
  ASSERT_TRUE(cfg.ok());
  EXPECT_EQ(cfg->get_int_or("simulation.grid", 0), 32);
  EXPECT_EQ(cfg->get_int_or("analysis.bins", 0), 64);
  EXPECT_EQ(cfg->get_int_or("analysis.window", 0), 10);
}

TEST(Config, FromTextRejectsGarbage) {
  auto cfg = Config::from_text("this is not a key value line");
  EXPECT_FALSE(cfg.ok());
}

TEST(Config, FromTextRejectsUnterminatedSection) {
  auto cfg = Config::from_text("[oops\nk=v");
  EXPECT_FALSE(cfg.ok());
}

TEST(Config, KeysInSection) {
  Config cfg;
  cfg.set("a.x", "1");
  cfg.set("a.y", "2");
  cfg.set("b.z", "3");
  auto keys = cfg.keys_in_section("a");
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "x");
  EXPECT_EQ(keys[1], "y");
}

TEST(StringUtil, TrimAndSplit) {
  EXPECT_EQ(trim("  hi  "), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n "), "");
  auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

}  // namespace
}  // namespace insitu::pal
