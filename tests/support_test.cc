/**
 * @file
 * Unit tests for the support layer: strings, stats, tables, PRNG,
 * diagnostics.
 */
#include <gtest/gtest.h>

#include <sstream>

#include "support/diag.h"
#include "support/prng.h"
#include "support/stats.h"
#include "support/strings.h"
#include "support/table.h"

namespace ldx {
namespace {

TEST(StringsTest, SplitPreservesEmptyFields)
{
    auto parts = splitString("a,,b,", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "");
    EXPECT_EQ(parts[2], "b");
    EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, SplitSingleField)
{
    auto parts = splitString("abc", ',');
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0], "abc");
}

TEST(StringsTest, JoinRoundTrip)
{
    std::vector<std::string> parts = {"x", "y", "z"};
    EXPECT_EQ(joinStrings(parts, ", "), "x, y, z");
    EXPECT_EQ(joinStrings({}, ","), "");
}

TEST(StringsTest, PrefixSuffix)
{
    EXPECT_TRUE(startsWith("net:host", "net:"));
    EXPECT_FALSE(startsWith("ne", "net:"));
    EXPECT_TRUE(endsWith("a.txt", ".txt"));
    EXPECT_FALSE(endsWith("txt", "a.txt"));
}

TEST(StringsTest, Trim)
{
    EXPECT_EQ(trimString("  hi \t\n"), "hi");
    EXPECT_EQ(trimString("   "), "");
    EXPECT_EQ(trimString("x"), "x");
}

TEST(StringsTest, EscapeBytes)
{
    EXPECT_EQ(escapeBytes("ab"), "ab");
    EXPECT_EQ(escapeBytes(std::string("\x01z", 2)), "\\x01z");
    EXPECT_EQ(escapeBytes("abcdef", 3), "abc...");
}

TEST(StatsTest, MinMaxMeanStddev)
{
    RunningStats s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.stddev(), 2.1380899, 1e-6);
}

TEST(StatsTest, EmptyAndSingle)
{
    RunningStats s;
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.stddev(), 0.0);
    s.add(3.0);
    EXPECT_EQ(s.stddev(), 0.0);
    EXPECT_NEAR(s.geomean(), 3.0, 1e-12);
}

TEST(StatsTest, Geomean)
{
    RunningStats s;
    s.add(1.0);
    s.add(100.0);
    EXPECT_NEAR(s.geomean(), 10.0, 1e-9);
}

TEST(StatsTest, Percentiles)
{
    RunningStats s;
    // Insertion order must not matter.
    for (double v : {9.0, 1.0, 5.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0})
        s.add(v);
    EXPECT_NEAR(s.p50(), 5.5, 1e-12);
    EXPECT_NEAR(s.percentile(0.0), 1.0, 1e-12);
    EXPECT_NEAR(s.percentile(100.0), 10.0, 1e-12);
    // Linear interpolation between order statistics.
    EXPECT_NEAR(s.p95(), 9.55, 1e-12);
    EXPECT_NEAR(s.p99(), 9.91, 1e-12);
}

TEST(StatsTest, PercentileEdgeCases)
{
    RunningStats s;
    EXPECT_EQ(s.p50(), 0.0);
    s.add(42.0);
    EXPECT_DOUBLE_EQ(s.p50(), 42.0);
    EXPECT_DOUBLE_EQ(s.p99(), 42.0);
}

TEST(StatsTest, EmptyStreamPinsEveryAggregateToZero)
{
    // The profiler and exporter serialize these unconditionally; an
    // idle stream must be all-zero, never inf/NaN/stale.
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.min(), 0.0);
    EXPECT_EQ(s.max(), 0.0);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.stddev(), 0.0);
    EXPECT_EQ(s.geomean(), 0.0);
    EXPECT_EQ(s.percentile(0.0), 0.0);
    EXPECT_EQ(s.percentile(100.0), 0.0);
}

TEST(StatsTest, GeomeanNonPositiveSamplePinsToZero)
{
    // log(0)/log(-x) would poison the accumulator with -inf/NaN.
    RunningStats zero;
    zero.add(4.0);
    zero.add(0.0);
    EXPECT_EQ(zero.geomean(), 0.0);
    RunningStats neg;
    neg.add(4.0);
    neg.add(-1.0);
    EXPECT_EQ(neg.geomean(), 0.0);
}

TEST(TableTest, AlignsColumns)
{
    TextTable t({"a", "bb"});
    t.addRow({"xxx", "y"});
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("| a   | bb |"), std::string::npos);
    EXPECT_NE(out.find("| xxx | y  |"), std::string::npos);
}

TEST(TableTest, ArityMismatchPanics)
{
    TextTable t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), PanicError);
}

TEST(PrngTest, DeterministicAndSeedSensitive)
{
    Prng a(42), b(42), c(43);
    EXPECT_EQ(a.next(), b.next());
    Prng a2(42);
    EXPECT_NE(a2.next(), c.next());
}

TEST(PrngTest, RangeBounds)
{
    Prng p(7);
    for (int i = 0; i < 1000; ++i) {
        auto v = p.range(-3, 5);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 5);
    }
}

TEST(PrngTest, BelowNeverReachesBound)
{
    Prng p(11);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(p.below(7), 7u);
}

TEST(PrngTest, DiscardMatchesDrawing)
{
    for (std::uint64_t n : {0u, 1u, 2u, 1000u, 100003u}) {
        Prng drawn(99), skipped(99);
        for (std::uint64_t i = 0; i < n; ++i)
            drawn.next();
        skipped.discard(n);
        EXPECT_EQ(drawn.next(), skipped.next()) << n;
    }
}

TEST(DiagTest, FatalAndPanicTypes)
{
    EXPECT_THROW(fatal("user"), FatalError);
    EXPECT_THROW(panic("bug"), PanicError);
    try {
        panic("oops");
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("oops"),
                  std::string::npos);
    }
}

TEST(DiagTest, CheckInvariantPassesAndFails)
{
    EXPECT_NO_THROW(checkInvariant(true, "fine"));
    EXPECT_THROW(checkInvariant(false, "broken"), PanicError);
}

TEST(TableFormatTest, Numbers)
{
    EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
    EXPECT_EQ(formatPercent(0.0608), "6.08%");
    EXPECT_EQ(formatPercent(1.5, 0), "150%");
}

} // namespace
} // namespace ldx
