/** @file Unit tests for the histogram. */

#include <gtest/gtest.h>

#include "stats/histogram.hh"
#include "stats/stat_set.hh"

using namespace dsm;

TEST(Histogram, EmptyDefaults)
{
    Histogram h;
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.percentile(0.5), 0u);
    EXPECT_EQ(h.fraction(3), 0.0);
}

TEST(Histogram, MeanAndMax)
{
    Histogram h;
    h.add(1);
    h.add(2);
    h.add(3);
    h.add(10);
    EXPECT_EQ(h.samples(), 4u);
    EXPECT_DOUBLE_EQ(h.mean(), 4.0);
    EXPECT_EQ(h.max(), 10u);
}

TEST(Histogram, WeightedAdd)
{
    Histogram h;
    h.add(2, 5);
    EXPECT_EQ(h.samples(), 5u);
    EXPECT_EQ(h.count(2), 5u);
    EXPECT_DOUBLE_EQ(h.mean(), 2.0);
}

TEST(Histogram, Fractions)
{
    Histogram h;
    h.add(1, 3);
    h.add(2, 1);
    EXPECT_DOUBLE_EQ(h.fraction(1), 0.75);
    EXPECT_DOUBLE_EQ(h.fraction(2), 0.25);
    EXPECT_DOUBLE_EQ(h.fraction(9), 0.0);
}

TEST(Histogram, Percentiles)
{
    Histogram h;
    for (int v = 1; v <= 100; ++v)
        h.add(static_cast<std::uint64_t>(v));
    EXPECT_EQ(h.percentile(0.5), 50u);
    EXPECT_EQ(h.percentile(0.99), 99u);
    EXPECT_EQ(h.percentile(1.0), 100u);
}

TEST(Histogram, NearestRankSingleSample)
{
    // Nearest-rank: any nonzero quantile of one sample is that sample.
    Histogram h;
    h.add(5);
    EXPECT_EQ(h.percentile(0.01), 5u);
    EXPECT_EQ(h.percentile(0.5), 5u);
    EXPECT_EQ(h.percentile(1.0), 5u);
}

TEST(Histogram, NearestRankTwoSamples)
{
    // rank = ceil(q * n): q=0.5 of two samples is the first, anything
    // above lands on the second.
    Histogram h;
    h.add(1);
    h.add(100);
    EXPECT_EQ(h.percentile(0.5), 1u);
    EXPECT_EQ(h.percentile(0.75), 100u);
    EXPECT_EQ(h.percentile(0.95), 100u);
    EXPECT_EQ(h.percentile(1.0), 100u);
}

TEST(Histogram, PercentileOneIsMax)
{
    Histogram h;
    h.add(3);
    h.add(7);
    h.add(9);
    EXPECT_EQ(h.percentile(1.0), h.max());
}

TEST(Histogram, ClearResets)
{
    Histogram h;
    h.add(7);
    h.clear();
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_EQ(h.count(7), 0u);
    EXPECT_EQ(h.max(), 0u);
}

TEST(Histogram, SummaryMentionsCountAndMean)
{
    Histogram h;
    h.add(4);
    std::string s = h.summary();
    EXPECT_NE(s.find("n=1"), std::string::npos);
    EXPECT_NE(s.find("mean=4.00"), std::string::npos);
}

TEST(Histogram, ZeroCountAddIsANoOp)
{
    Histogram h;
    h.add(3);
    h.add(1000, 0);
    EXPECT_EQ(h.samples(), 1u);
    EXPECT_EQ(h.sum(), 3u);
    EXPECT_EQ(h.max(), 3u);
    EXPECT_EQ(h.buckets().size(), 4u);
    EXPECT_EQ(h.percentile(1.0), 3u);
}

TEST(LatencyStat, BulkSampleEqualsRepeatedSamples)
{
    LatencyStat bulk, one;
    bulk.sample(5);
    one.sample(5);
    bulk.sample(17, 1000);
    for (int i = 0; i < 1000; ++i)
        one.sample(17);
    EXPECT_EQ(bulk.count, one.count);
    EXPECT_EQ(bulk.sum, one.sum);
    EXPECT_EQ(bulk.max, one.max);
    EXPECT_EQ(bulk.dist.buckets(), one.dist.buckets());
    EXPECT_EQ(bulk.p99(), one.p99());
}

TEST(LatencyStat, ZeroCountSampleIsANoOp)
{
    LatencyStat s;
    s.sample(9);
    s.sample(4000, 0);
    EXPECT_EQ(s.count, 1u);
    EXPECT_EQ(s.sum, 9u);
    EXPECT_EQ(s.max, 9u);
    EXPECT_EQ(s.dist.max(), 9u >> LatencyStat::BUCKET_SHIFT);
}
