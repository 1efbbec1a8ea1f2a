// parallel_for, Flags, and Table.
#include <atomic>
#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "util/flags.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

namespace tiv {
namespace {

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> visits(kN);
  parallel_for(kN, [&](std::size_t i) { ++visits[i]; });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ParallelFor, HandlesZeroAndOne) {
  int calls = 0;
  parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, ChunksCoverRangeWithoutOverlap) {
  constexpr std::size_t kN = 5000;
  std::vector<std::atomic<int>> visits(kN);
  parallel_for_chunks(kN, [&](std::size_t b, std::size_t e) {
    ASSERT_LE(b, e);
    for (std::size_t i = b; i < e; ++i) ++visits[i];
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ParallelFor, ThreadCountOverride) {
  set_parallel_thread_count(1);
  EXPECT_EQ(parallel_thread_count(), 1u);
  // Single-threaded execution must still visit everything.
  std::size_t sum = 0;  // no atomics needed with 1 thread
  parallel_for(100, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum, 4950u);
  set_parallel_thread_count(0);
  EXPECT_GE(parallel_thread_count(), 1u);
}

Flags make_flags(std::vector<const char*> argv) {
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, ParsesEqualsForm) {
  const auto f = make_flags({"prog", "--hosts=500", "--name=ds2"});
  EXPECT_EQ(f.get_int("hosts", 0), 500);
  EXPECT_EQ(f.get_string("name", ""), "ds2");
}

TEST(Flags, ParsesSpaceForm) {
  const auto f = make_flags({"prog", "--hosts", "500"});
  EXPECT_EQ(f.get_int("hosts", 0), 500);
}

TEST(Flags, BareBooleanAndExplicit) {
  const auto f = make_flags({"prog", "--full", "--fast=false"});
  EXPECT_TRUE(f.get_bool("full", false));
  EXPECT_FALSE(f.get_bool("fast", true));
  EXPECT_TRUE(f.get_bool("absent", true));
}

TEST(Flags, DefaultsWhenAbsent) {
  const auto f = make_flags({"prog"});
  EXPECT_EQ(f.get_int("x", 7), 7);
  EXPECT_DOUBLE_EQ(f.get_double("y", 2.5), 2.5);
  EXPECT_FALSE(f.has("x"));
}

TEST(Flags, RejectsNonFlagToken) {
  EXPECT_THROW(make_flags({"prog", "positional"}), std::invalid_argument);
}

TEST(Flags, RejectsBadInteger) {
  for (const char* arg : {"--n=abc", "--n=12abc"}) {
    const auto f = make_flags({"prog", arg});
    EXPECT_THROW(f.get_int("n", 0), std::invalid_argument) << arg;
  }
}

TEST(Flags, UnsignedGetterIsRangeChecked) {
  const auto f = make_flags(
      {"prog", "--runs=4294967295", "--seed=18446744073709551615"});
  EXPECT_EQ(f.get_uint<std::uint32_t>("runs", 1), 4294967295u);
  EXPECT_EQ(f.get_uint<std::uint64_t>("seed", 0), 18446744073709551615u);
  EXPECT_EQ(f.get_uint<std::size_t>("absent", 7), 7u);
  // Negative values, values past the target type, and anything but plain
  // digits are errors, never a wrapped count.
  for (const char* arg : {"--n=-1", "--n=4294967296", "--n=+5", "--n= 5",
                          "--n=12abc", "--n=", "--n=99999999999999999999"}) {
    const auto g = make_flags({"prog", arg});
    EXPECT_THROW(g.get_uint<std::uint32_t>("n", 0), std::invalid_argument)
        << arg;
  }
}

TEST(Flags, RejectsBadDouble) {
  for (const char* arg : {"--x=abc", "--x=0.5x"}) {
    const auto f = make_flags({"prog", arg});
    EXPECT_THROW(f.get_double("x", 0.0), std::invalid_argument) << arg;
  }
}

TEST(Flags, RejectsBadBoolean) {
  const auto f = make_flags({"prog", "--b=maybe"});
  EXPECT_THROW(f.get_bool("b", false), std::invalid_argument);
}

TEST(Flags, UnconsumedDetectsTypos) {
  const auto f = make_flags({"prog", "--hosts=5", "--typo=1"});
  EXPECT_EQ(f.get_int("hosts", 0), 5);
  const auto unknown = f.unconsumed();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
  EXPECT_THROW(reject_unknown_flags(f), std::invalid_argument);
}

TEST(Flags, RejectUnknownPassesWhenAllConsumed) {
  const auto f = make_flags({"prog", "--hosts=5"});
  EXPECT_EQ(f.get_int("hosts", 0), 5);
  EXPECT_NO_THROW(reject_unknown_flags(f));
}

TEST(Table, AlignsColumnsAndUnderlines) {
  Table t({"a", "long_header"});
  t.add_row({"x", "1"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("long_header"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  EXPECT_NE(out.find("x"), std::string::npos);
}

TEST(Table, FormatDoubleHandlesNan) {
  EXPECT_EQ(format_double(std::nan(""), 2), "-");
  EXPECT_EQ(format_double(1.5, 2), "1.50");
}

}  // namespace
}  // namespace tiv
