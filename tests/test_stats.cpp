/**
 * @file
 * Tests for the statistics primitives: streaming moments, exact
 * percentiles, histograms, and the geometric mean, including the
 * merge-equals-bulk property of OnlineStats.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iomanip>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"

namespace v10 {
namespace {

TEST(OnlineStats, EmptyIsZero)
{
    OnlineStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.min(), 0.0);
    EXPECT_EQ(s.max(), 0.0);
}

TEST(OnlineStats, BasicMoments)
{
    OnlineStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_EQ(s.min(), 2.0);
    EXPECT_EQ(s.max(), 9.0);
    EXPECT_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, MergeMatchesBulk)
{
    Rng rng(5);
    OnlineStats bulk;
    OnlineStats a;
    OnlineStats b;
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.normal(3.0, 1.5);
        bulk.add(x);
        (i % 3 == 0 ? a : b).add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), bulk.count());
    EXPECT_NEAR(a.mean(), bulk.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), bulk.variance(), 1e-9);
    EXPECT_EQ(a.min(), bulk.min());
    EXPECT_EQ(a.max(), bulk.max());
}

TEST(OnlineStats, MergeWithEmpty)
{
    OnlineStats a;
    OnlineStats b;
    a.add(1.0);
    a.merge(b); // empty rhs
    EXPECT_EQ(a.count(), 1u);
    b.merge(a); // empty lhs
    EXPECT_EQ(b.count(), 1u);
    EXPECT_EQ(b.mean(), 1.0);
}

TEST(SampleSet, PercentilesExact)
{
    SampleSet s;
    for (int i = 1; i <= 100; ++i)
        s.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
    EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
    EXPECT_NEAR(s.p95(), 95.05, 1e-9);
    EXPECT_DOUBLE_EQ(s.mean(), 50.5);
    EXPECT_EQ(s.min(), 1.0);
    EXPECT_EQ(s.max(), 100.0);
}

TEST(SampleSet, UnsortedInsertOrderIrrelevant)
{
    SampleSet s;
    for (double x : {9.0, 1.0, 5.0, 3.0, 7.0})
        s.add(x);
    EXPECT_EQ(s.min(), 1.0);
    EXPECT_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.percentile(50), 5.0);
}

TEST(SampleSet, QueriesInterleavedWithAdds)
{
    SampleSet s;
    s.add(10.0);
    EXPECT_EQ(s.max(), 10.0);
    s.add(20.0);
    EXPECT_EQ(s.max(), 20.0); // sorted cache must refresh
    s.add(5.0);
    EXPECT_EQ(s.min(), 5.0);
}

TEST(SampleSet, EmptyIsZero)
{
    SampleSet s;
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.percentile(50), 0.0);
    EXPECT_EQ(s.count(), 0u);
}

TEST(SampleSet, SingleSample)
{
    SampleSet s;
    s.add(7.5);
    EXPECT_EQ(s.percentile(0), 7.5);
    EXPECT_EQ(s.percentile(50), 7.5);
    EXPECT_EQ(s.percentile(100), 7.5);
}

TEST(LogHistogram, EmptyIsZero)
{
    LogHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.min(), 0.0);
    EXPECT_EQ(h.max(), 0.0);
    EXPECT_EQ(h.percentile(50.0), 0.0);
}

TEST(LogHistogram, ExactSideStats)
{
    LogHistogram h;
    for (double x : {3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0})
        h.add(x);
    EXPECT_EQ(h.count(), 8u);
    EXPECT_DOUBLE_EQ(h.sum(), 31.0);
    EXPECT_DOUBLE_EQ(h.mean(), 31.0 / 8.0);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 9.0);
}

TEST(LogHistogram, QuantileErrorBoundedVsExactSort)
{
    // The HDR replacement for sort-based percentiles targets the
    // floor-rank order statistic (the same rank convention as
    // SampleSet before interpolation) and must land within the
    // advertised relative error — half a sub-bucket, 1/(2S) — of
    // that exact-sort value, across shapes that cover the serving
    // latency regimes: heavy-tailed, uniform, and multi-octave
    // lognormal.
    Rng rng(20260808);
    for (int shape = 0; shape < 3; ++shape) {
        LogHistogram h;
        std::vector<double> sorted;
        for (int i = 0; i < 20000; ++i) {
            double x = 0.0;
            switch (shape) {
              case 0: x = rng.exponential(250.0); break;
              case 1: x = 1.0 + rng.uniform() * 9999.0; break;
              default:
                x = std::exp(rng.normal(5.0, 1.5));
                break;
            }
            h.add(x);
            sorted.push_back(x);
        }
        std::sort(sorted.begin(), sorted.end());
        const double bound =
            1.0 / (2.0 * static_cast<double>(h.subBuckets())) +
            1e-12;
        for (double p : {1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
            const double rank =
                p / 100.0 * static_cast<double>(sorted.size() - 1);
            const double want = sorted[static_cast<std::size_t>(rank)];
            const double got = h.percentile(p);
            EXPECT_LE(std::abs(got - want), bound * want)
                << "shape " << shape << " p" << p << ": got " << got
                << " want " << want;
        }
        EXPECT_DOUBLE_EQ(h.percentile(0.0), sorted.front());
        EXPECT_DOUBLE_EQ(h.percentile(100.0), sorted.back());
    }
}

TEST(LogHistogram, QuantileClampedToObservedRange)
{
    LogHistogram h;
    h.add(100.0);
    h.add(101.0);
    EXPECT_GE(h.percentile(0.0), 100.0);
    EXPECT_LE(h.percentile(100.0), 101.0);
}

TEST(LogHistogram, ZeroAndNegativeCollapseToZeroBucket)
{
    LogHistogram h;
    h.add(0.0);
    h.add(-5.0);
    h.add(10.0);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.min(), -5.0);
    // The rank-1 sample sits in the non-positive bucket, whose
    // representative is 0 clamped into [min, max] — here exactly
    // the true median.
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), -5.0);
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 10.0);
}

TEST(LogHistogram, MergeIsOrderIndependentAndMatchesBulk)
{
    Rng rng(99);
    LogHistogram bulk;
    LogHistogram a;
    LogHistogram b;
    for (int i = 0; i < 5000; ++i) {
        const double x = rng.exponential(40.0);
        bulk.add(x);
        (i % 3 == 0 ? a : b).add(x);
    }
    LogHistogram ab;
    ab.merge(a);
    ab.merge(b);
    LogHistogram ba;
    ba.merge(b);
    ba.merge(a);
    EXPECT_EQ(ab.count(), bulk.count());
    EXPECT_DOUBLE_EQ(ab.sum(), ba.sum());
    for (double p : {10.0, 50.0, 99.0}) {
        EXPECT_DOUBLE_EQ(ab.percentile(p), ba.percentile(p));
        EXPECT_DOUBLE_EQ(ab.percentile(p), bulk.percentile(p));
    }
}

/**
 * Reference: the ordered-map bucket store LogHistogram used before
 * its dense window, with the same key function and side stats. The
 * dense store must answer every query bit-identically.
 */
class MapLogHistogram
{
  public:
    explicit MapLogHistogram(std::size_t sub) : sub_(sub) {}

    void
    add(double x)
    {
        if (count_ == 0) {
            min_ = max_ = x;
        } else {
            min_ = std::min(min_, x);
            max_ = std::max(max_, x);
        }
        ++count_;
        sum_ += x;
        if (!(x > 0.0)) {
            ++zero_;
            return;
        }
        int exp = 0;
        const double mant = std::frexp(x, &exp);
        auto idx = static_cast<std::int64_t>(
            (mant - 0.5) * 2.0 * static_cast<double>(sub_));
        idx = std::clamp<std::int64_t>(
            idx, 0, static_cast<std::int64_t>(sub_) - 1);
        ++buckets_[static_cast<std::int64_t>(exp) *
                       static_cast<std::int64_t>(sub_) +
                   idx];
    }

    void
    merge(const MapLogHistogram &other)
    {
        if (other.count_ == 0)
            return;
        if (count_ == 0) {
            min_ = other.min_;
            max_ = other.max_;
        } else {
            min_ = std::min(min_, other.min_);
            max_ = std::max(max_, other.max_);
        }
        count_ += other.count_;
        sum_ += other.sum_;
        zero_ += other.zero_;
        for (const auto &[key, n] : other.buckets_)
            buckets_[key] += n;
    }

    double
    percentile(double p) const
    {
        if (count_ == 0)
            return 0.0;
        if (p <= 0.0)
            return min_;
        if (p >= 100.0)
            return max_;
        const double rank = p / 100.0 * static_cast<double>(count_ - 1);
        const auto target = static_cast<std::uint64_t>(rank);
        std::uint64_t cum = zero_;
        if (target < cum)
            return std::clamp(0.0, min_, max_);
        for (const auto &[key, n] : buckets_) {
            cum += n;
            if (target < cum)
                return std::clamp(mid(key), min_, max_);
        }
        return max_;
    }

    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }

    void
    reset()
    {
        *this = MapLogHistogram(sub_);
    }

  private:
    double
    mid(std::int64_t key) const
    {
        const auto sub = static_cast<std::int64_t>(sub_);
        std::int64_t exp = key / sub;
        std::int64_t idx = key % sub;
        if (idx < 0) {
            idx += sub;
            --exp;
        }
        const double mant =
            0.5 + (static_cast<double>(idx) + 0.5) /
                      (2.0 * static_cast<double>(sub_));
        return std::ldexp(mant, static_cast<int>(exp));
    }

    std::size_t sub_;
    std::map<std::int64_t, std::uint64_t> buckets_;
    std::uint64_t zero_ = 0;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** Bitwise double equality (distinguishes -0.0 and +0.0). */
::testing::AssertionResult
sameBits(double a, double b)
{
    std::uint64_t ua = 0;
    std::uint64_t ub = 0;
    std::memcpy(&ua, &a, sizeof a);
    std::memcpy(&ub, &b, sizeof b);
    if (ua == ub)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << std::setprecision(17) << a << " vs " << b;
}

void
expectSameAnswers(const LogHistogram &dense, const MapLogHistogram &ref,
                  const char *what)
{
    EXPECT_EQ(dense.count(), ref.count()) << what;
    EXPECT_TRUE(sameBits(dense.mean(), ref.mean())) << what;
    EXPECT_TRUE(sameBits(dense.sum(), ref.sum())) << what;
    EXPECT_TRUE(sameBits(dense.min(), ref.min())) << what;
    EXPECT_TRUE(sameBits(dense.max(), ref.max())) << what;
    for (double p : {-1.0, 0.0, 0.1, 1.0, 10.0, 25.0, 50.0, 75.0, 90.0,
                     99.0, 99.9, 99.99, 100.0, 150.0})
        EXPECT_TRUE(sameBits(dense.percentile(p), ref.percentile(p)))
            << what << " p" << p;
}

TEST(LogHistogram, DenseBucketsAnswerLikeTheMapReference)
{
    const double kTiny = std::numeric_limits<double>::denorm_min();
    const double kHuge = std::numeric_limits<double>::max();
    const std::vector<std::vector<double>> sets = {
        {},
        {0.0},
        {-3.0, -0.0, 0.0},
        {kTiny, 1e-310, 2.2250738585072014e-308, 1e-300},
        {kHuge, 1e300, 1e200},
        {kTiny, kHuge, 0.0, -1.0, 1.0},
        {5.0, 5.0, 5.0, 4.999999, 5.000001},
    };
    Rng rng(4242);
    std::vector<double> spread;
    for (int i = 0; i < 4000; ++i) {
        // Latency-like bulk, plus zeros, negatives, tiny and huge
        // outliers interleaved so the window grows both ways.
        spread.push_back(rng.lognormal(300.0, 2.0));
        if (i % 97 == 0)
            spread.push_back(0.0);
        if (i % 131 == 0)
            spread.push_back(-rng.exponential(10.0));
        if (i % 499 == 0)
            spread.push_back(rng.exponential(1e-200));
        if (i % 701 == 0)
            spread.push_back(rng.exponential(1e250));
    }
    std::vector<std::vector<double>> all = sets;
    all.push_back(spread);

    for (std::size_t sub : {std::size_t{1}, std::size_t{7},
                            std::size_t{64}}) {
        for (std::size_t s = 0; s < all.size(); ++s) {
            LogHistogram dense(sub);
            MapLogHistogram ref(sub);
            for (double x : all[s]) {
                dense.add(x);
                ref.add(x);
            }
            const std::string what = "sub " + std::to_string(sub) +
                                     " set " + std::to_string(s);
            expectSameAnswers(dense, ref, what.c_str());

            // Merge into a histogram holding a disjoint window (and
            // into an empty one), then reset and reuse.
            LogHistogram dense2(sub);
            MapLogHistogram ref2(sub);
            for (double x : {1e-5, 3.0, 7e12}) {
                dense2.add(x);
                ref2.add(x);
            }
            dense2.merge(dense);
            ref2.merge(ref);
            expectSameAnswers(dense2, ref2, (what + " merged").c_str());
            LogHistogram empty(sub);
            MapLogHistogram emptyRef(sub);
            empty.merge(dense2);
            emptyRef.merge(ref2);
            expectSameAnswers(empty, emptyRef,
                              (what + " into empty").c_str());
            dense.merge(LogHistogram(sub));
            ref.merge(MapLogHistogram(sub));
            expectSameAnswers(dense, ref, (what + " + empty").c_str());

            dense.reset();
            ref.reset();
            expectSameAnswers(dense, ref, (what + " reset").c_str());
            for (double x : {2.0, 0.5, 1e9}) {
                dense.add(x);
                ref.add(x);
            }
            expectSameAnswers(dense, ref, (what + " reused").c_str());
        }
    }
}

TEST(Geomean, KnownValues)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 9.0}), 6.0);
    EXPECT_NEAR(geomean({1.0, 2.0, 4.0}), 2.0, 1e-12);
    EXPECT_EQ(geomean({}), 0.0);
    EXPECT_EQ(geomean({1.0, 0.0}), 0.0);
    EXPECT_EQ(geomean({1.0, -2.0}), 0.0);
}

} // namespace
} // namespace v10
