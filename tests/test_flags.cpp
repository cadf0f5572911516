#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/flags.h"

namespace muri {
namespace {

Flags parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, EqualsForm) {
  const Flags f = parse({"--trace=3", "--noise=0.5"});
  EXPECT_EQ(f.get("trace"), "3");
  EXPECT_DOUBLE_EQ(f.get_double("noise", 0), 0.5);
}

TEST(Flags, SpaceForm) {
  const Flags f = parse({"--scheduler", "Muri-L", "--machines", "16"});
  EXPECT_EQ(f.get("scheduler"), "Muri-L");
  EXPECT_EQ(f.get_int("machines", 0), 16);
}

TEST(Flags, BareBooleanSwitch) {
  const Flags f = parse({"--series", "--known"});
  EXPECT_TRUE(f.get_bool("series"));
  EXPECT_TRUE(f.get_bool("known"));
  EXPECT_FALSE(f.get_bool("absent"));
  EXPECT_TRUE(f.get_bool("absent", true));
}

TEST(Flags, BooleanValueForms) {
  EXPECT_TRUE(parse({"--x=true"}).get_bool("x"));
  EXPECT_TRUE(parse({"--x=1"}).get_bool("x"));
  EXPECT_TRUE(parse({"--x=on"}).get_bool("x"));
  EXPECT_FALSE(parse({"--x=false"}).get_bool("x"));
  EXPECT_FALSE(parse({"--x=0"}).get_bool("x"));
  EXPECT_THROW(parse({"--x=maybe"}).get_bool("x"), std::invalid_argument);
}

TEST(Flags, BareSwitchBeforeAnotherFlagTakesNoValue) {
  const Flags f = parse({"--series", "--trace", "2"});
  EXPECT_TRUE(f.get_bool("series"));
  EXPECT_EQ(f.get("trace"), "2");
}

TEST(Flags, PositionalArguments) {
  const Flags f = parse({"shufflenet", "--gpus", "4", "gpt2"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "shufflenet");
  EXPECT_EQ(f.positional()[1], "gpt2");
  EXPECT_EQ(f.get_int("gpus", 1), 4);
}

TEST(Flags, Fallbacks) {
  const Flags f = parse({});
  EXPECT_EQ(f.get("missing", "dflt"), "dflt");
  EXPECT_EQ(f.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(f.get_double("missing", 2.5), 2.5);
}

TEST(Flags, BadNumbersThrow) {
  EXPECT_THROW(parse({"--n=abc"}).get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(parse({"--x=abc"}).get_double("x", 0), std::invalid_argument);
}

TEST(Flags, UnreadReportsTypos) {
  const Flags f = parse({"--trace=1", "--tarce=2"});
  EXPECT_EQ(f.get("trace"), "1");
  const auto unread = f.unread();
  ASSERT_EQ(unread.size(), 1u);
  EXPECT_EQ(unread[0], "tarce");
}

TEST(Flags, HasMarksAsRead) {
  const Flags f = parse({"--csv=/tmp/x"});
  EXPECT_TRUE(f.has("csv"));
  EXPECT_TRUE(f.unread().empty());
}

TEST(Flags, WarnUnreadWritesOneLinePerDeadFlag) {
  const Flags f =
      parse({"--wal=x.wal", "--threads=4", "--resume", "--seed", "3"});
  EXPECT_EQ(f.get("wal"), "x.wal");
  EXPECT_EQ(f.get_int("seed", 1), 3);
  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(warn_unread(f, out), 2);
  std::rewind(out);
  std::string text;
  for (int c = std::fgetc(out); c != EOF; c = std::fgetc(out)) {
    text += static_cast<char>(c);
  }
  std::fclose(out);
  EXPECT_EQ(text,
            "warning: unused flag --resume\n"
            "warning: unused flag --threads\n");
  // Once every flag is read, nothing is written.
  EXPECT_TRUE(f.get_bool("resume"));
  EXPECT_EQ(f.get_int("threads", 0), 4);
  std::FILE* quiet = std::tmpfile();
  ASSERT_NE(quiet, nullptr);
  EXPECT_EQ(warn_unread(f, quiet), 0);
  EXPECT_EQ(std::ftell(quiet), 0);
  std::fclose(quiet);
}

}  // namespace
}  // namespace muri
