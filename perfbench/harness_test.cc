/**
 * @file
 * Tests of the benchmark's own helpers: nearest-rank percentiles and
 * the samples-beyond count that decides whether a tail percentile is
 * supported, and determinism of the seeded arrival schedule.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "common.hh"
#include "harness.hh"

namespace perfbench {
namespace {

std::vector<double>
oneToN(std::size_t n)
{
    std::vector<double> values(n);
    std::iota(values.begin(), values.end(), 1.0);
    return values;
}

TEST(Percentile, NearestRankOnKnownSamples)
{
    EXPECT_EQ(percentile(oneToN(100), 0.50).value, 50.0);
    EXPECT_EQ(percentile(oneToN(100), 0.99).value, 99.0);
    EXPECT_EQ(percentile(oneToN(1000), 0.99).value, 990.0);
    EXPECT_EQ(percentile(oneToN(5), 0.50).value, 3.0);
    EXPECT_EQ(percentile(oneToN(5), 1.0).value, 5.0);
    EXPECT_EQ(percentile(oneToN(5), 0.0).value, 1.0);
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

TEST(Percentile, OrderOfSamplesDoesNotMatter)
{
    std::vector<double> values = oneToN(1000);
    std::reverse(values.begin(), values.end());
    EXPECT_EQ(percentile(values, 0.99).value, 990.0);
}

TEST(Percentile, CountsSamplesBeyondTheRank)
{
    const Percentile p99 = percentile(oneToN(1000), 0.99);
    EXPECT_EQ(p99.samples, 1000u);
    EXPECT_EQ(p99.beyond, 10u);
    EXPECT_TRUE(supported(p99));

    // 999 samples leave only 9 above the p99: not supported.
    const Percentile short_p99 = percentile(oneToN(999), 0.99);
    EXPECT_EQ(short_p99.beyond, 9u);
    EXPECT_FALSE(supported(short_p99));
}

TEST(Percentile, EmptySampleReadsZero)
{
    const Percentile empty = percentile({}, 0.5);
    EXPECT_EQ(empty.value, 0.0);
    EXPECT_EQ(empty.samples, 0u);
    EXPECT_FALSE(supported(empty, 0));
}

TEST(Geomean, OfKnownValues)
{
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_EQ(geomean({}), 0.0);
}

TEST(Schedule, SameSeedSameSchedule)
{
    const auto a = poissonSchedule(7, 80.0, 5.0, 2);
    const auto b = poissonSchedule(7, 80.0, 5.0, 2);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].due_s, b[i].due_s);
        EXPECT_EQ(a[i].stream, b[i].stream);
    }
}

TEST(Schedule, OtherSeedOtherTimesSameCount)
{
    const auto a = poissonSchedule(7, 80.0, 5.0, 2);
    const auto b = poissonSchedule(8, 80.0, 5.0, 2);
    ASSERT_EQ(a.size(), 400u);
    ASSERT_EQ(b.size(), 400u);
    std::size_t same = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        same += a[i].due_s == b[i].due_s;
    EXPECT_LT(same, 5u);
}

TEST(Schedule, SortedInsideTheRunAndSplitEvenly)
{
    const auto schedule = poissonSchedule(11, 200.0, 3.0, 2);
    std::size_t per_stream[2] = {0, 0};
    double previous = 0.0;
    double gaps = 0.0;
    for (const Arrival &arrival : schedule) {
        EXPECT_GE(arrival.due_s, previous);
        EXPECT_LT(arrival.due_s, 3.0);
        gaps += arrival.due_s - previous;
        previous = arrival.due_s;
        ++per_stream[arrival.stream];
    }
    EXPECT_EQ(per_stream[0], 300u);
    EXPECT_EQ(per_stream[1], 300u);
    // Exponential gaps: the mean gap is about 1 / rate.
    EXPECT_NEAR(gaps / static_cast<double>(schedule.size()), 1.0 / 200.0,
                0.5e-3);
}

TEST(RateWindows, FixedCountWindowsOverTheirDuration)
{
    RateWindows windows(4);
    const Clock::time_point t0{};
    const auto at = [&](int ms) { return t0 + std::chrono::milliseconds(ms); };
    for (int ms : {0, 10, 20, 30, 40}) // window 1: 4 replies in 40 ms
        windows.count(at(ms));
    for (int ms : {60, 80, 100, 120}) // window 2: 4 replies in 80 ms
        windows.count(at(ms));
    const std::vector<double> rates = windows.rates();
    ASSERT_EQ(rates.size(), 2u);
    EXPECT_NEAR(rates[0], 100.0, 1e-9);
    EXPECT_NEAR(rates[1], 50.0, 1e-9);
}

TEST(RateWindows, ShortRunReportsItsPartialWindow)
{
    RateWindows windows(100);
    const Clock::time_point t0{};
    for (int ms : {0, 10, 20})
        windows.count(t0 + std::chrono::milliseconds(ms));
    const std::vector<double> rates = windows.rates();
    ASSERT_EQ(rates.size(), 1u);
    EXPECT_NEAR(rates[0], 100.0, 1e-9);
}

TEST(ClassPercentile, MedianOverSegmentsWhenEachSupportsIt)
{
    Phase phase;
    std::vector<double> &values = phase.latency_us["a"];
    for (int segment = 0; segment < 3; ++segment) {
        // The second segment stalls: a longer tail, ten times slower.
        const bool stalled = segment == 1;
        for (int i = 1; i <= 1000; ++i)
            values.push_back(i <= (stalled ? 960 : 980)
                                 ? static_cast<double>(i)
                                 : (stalled ? 10000.0 : 1000.0));
        phase.endSegment();
    }
    const Percentile p99 = classPercentile(phase, "a", 0.99);
    EXPECT_EQ(p99.value, 1000.0);
    EXPECT_EQ(p99.samples, 3000u);
    EXPECT_EQ(percentile(values, 0.99).value, 10000.0);
}

TEST(ClassPercentile, PooledWhenASegmentIsTooSmall)
{
    Phase phase;
    std::vector<double> &values = phase.latency_us["a"];
    for (int segment = 0; segment < 3; ++segment) {
        for (int i = 1; i <= 500; ++i)
            values.push_back(static_cast<double>(i + 1000 * segment));
        phase.endSegment();
    }
    EXPECT_EQ(classPercentile(phase, "a", 0.99).value,
              percentile(values, 0.99).value);
    // The median needs far fewer samples: per-segment medians.
    EXPECT_EQ(classPercentile(phase, "a", 0.50).value, 1250.0);
}

TEST(SubSeed, IndependentPerPurpose)
{
    EXPECT_EQ(subSeed(1, "arrivals"), subSeed(1, "arrivals"));
    EXPECT_NE(subSeed(1, "arrivals"), subSeed(2, "arrivals"));
    EXPECT_NE(subSeed(1, "arrivals"), subSeed(1, "frames/alex7"));
}

} // namespace
} // namespace perfbench
