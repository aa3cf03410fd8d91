/**
 * @file
 * Property tests for the open-loop arrival generators: Poisson
 * moments against theory, diurnal periodicity, bursty
 * over-dispersion, seeded determinism, duration-prefix stability,
 * and disjoint-stream independence (docs/SERVING.md).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "serve/arrival.h"

namespace v10 {
namespace {

/** Count arrivals into fixed-width bins over [0, duration). */
std::vector<double>
binCounts(const std::vector<double> &times, double durationSec,
          double binSec)
{
    const auto bins =
        static_cast<std::size_t>(durationSec / binSec);
    std::vector<double> counts(bins, 0.0);
    for (double t : times) {
        const auto b = static_cast<std::size_t>(t / binSec);
        if (b < bins)
            counts[b] += 1.0;
    }
    return counts;
}

double
mean(const std::vector<double> &xs)
{
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    return xs.empty() ? 0.0 : sum / static_cast<double>(xs.size());
}

double
variance(const std::vector<double> &xs)
{
    const double m = mean(xs);
    double sum = 0.0;
    for (double x : xs)
        sum += (x - m) * (x - m);
    return xs.empty() ? 0.0 : sum / static_cast<double>(xs.size());
}

TEST(ArrivalPoisson, MeanAndVarianceMatchTheory)
{
    ArrivalSpec spec;
    spec.kind = ArrivalKind::Poisson;
    spec.rps = 200.0;
    const double duration = 100.0;
    ArrivalProcess process(spec, 42);
    const std::vector<double> times = process.generate(duration);

    // Count ~ Poisson(rps * duration): mean within 3 sigma.
    const double expected = spec.rps * duration;
    EXPECT_NEAR(static_cast<double>(times.size()), expected,
                3.0 * std::sqrt(expected));

    // Per-bin counts ~ Poisson(rps * bin): index of dispersion
    // (variance / mean) is 1 for a Poisson process.
    const std::vector<double> counts =
        binCounts(times, duration, 0.1);
    const double iod = variance(counts) / mean(counts);
    EXPECT_NEAR(iod, 1.0, 0.15);

    // Inter-arrival gaps are exponential with mean 1 / rps.
    std::vector<double> gaps;
    for (std::size_t i = 1; i < times.size(); ++i)
        gaps.push_back(times[i] - times[i - 1]);
    EXPECT_NEAR(mean(gaps), 1.0 / spec.rps, 0.05 / spec.rps);
    // Exponential: stddev equals the mean.
    EXPECT_NEAR(std::sqrt(variance(gaps)), 1.0 / spec.rps,
                0.1 / spec.rps);
}

TEST(ArrivalPoisson, TimesAreStrictlyIncreasingInHorizon)
{
    ArrivalSpec spec;
    spec.rps = 500.0;
    ArrivalProcess process(spec, 7);
    const std::vector<double> times = process.generate(10.0);
    ASSERT_FALSE(times.empty());
    EXPECT_GE(times.front(), 0.0);
    EXPECT_LT(times.back(), 10.0);
    for (std::size_t i = 1; i < times.size(); ++i)
        EXPECT_GT(times[i], times[i - 1]);
}

TEST(ArrivalDiurnal, PeriodicityShowsInPhaseCounts)
{
    ArrivalSpec spec;
    spec.kind = ArrivalKind::Diurnal;
    spec.rps = 100.0;
    spec.amplitude = 0.8;
    spec.periodSec = 10.0;
    const double duration = 200.0;
    ArrivalProcess process(spec, 11);
    const std::vector<double> times = process.generate(duration);

    // The mean rate is preserved: thinning only reshapes in time.
    const double expected = spec.rps * duration;
    EXPECT_NEAR(static_cast<double>(times.size()), expected,
                4.0 * std::sqrt(expected));

    // sin > 0 in the first half of each period, so the first half
    // carries rate rps * (1 + 2a/pi) and the second rps * (1 -
    // 2a/pi): the per-half ratio must show the modulation.
    double first = 0.0;
    double second = 0.0;
    for (double t : times) {
        const double phase = std::fmod(t, spec.periodSec);
        (phase < spec.periodSec / 2.0 ? first : second) += 1.0;
    }
    const double up = 1.0 + 2.0 * spec.amplitude / M_PI;
    const double down = 1.0 - 2.0 * spec.amplitude / M_PI;
    EXPECT_NEAR(first / second, up / down, 0.15 * up / down);
}

TEST(ArrivalDiurnal, ZeroAmplitudeIsPoissonLike)
{
    ArrivalSpec spec;
    spec.kind = ArrivalKind::Diurnal;
    spec.rps = 150.0;
    spec.amplitude = 0.0;
    ArrivalProcess process(spec, 3);
    const std::vector<double> times = process.generate(100.0);
    const std::vector<double> counts = binCounts(times, 100.0, 0.2);
    EXPECT_NEAR(variance(counts) / mean(counts), 1.0, 0.2);
}

TEST(ArrivalBursty, OverdispersedAgainstPoisson)
{
    ArrivalSpec spec;
    spec.kind = ArrivalKind::Bursty;
    spec.rps = 100.0;
    spec.meanOnSec = 0.2;
    spec.meanOffSec = 0.8;
    const double duration = 400.0;
    ArrivalProcess process(spec, 99);
    const std::vector<double> times = process.generate(duration);

    // Long-run mean stays rps (on-rate is rps / duty).
    const double expected = spec.rps * duration;
    EXPECT_NEAR(static_cast<double>(times.size()), expected,
                0.1 * expected);

    // Markov modulation makes counts over-dispersed: the index of
    // dispersion clearly exceeds the Poisson value of 1.
    const std::vector<double> counts =
        binCounts(times, duration, 0.5);
    EXPECT_GT(variance(counts) / mean(counts), 1.5);
}

TEST(ArrivalProcess, SameSeedSameStream)
{
    for (ArrivalKind kind :
         {ArrivalKind::Poisson, ArrivalKind::Diurnal,
          ArrivalKind::Bursty}) {
        ArrivalSpec spec;
        spec.kind = kind;
        spec.rps = 80.0;
        ArrivalProcess a(spec, 1234);
        ArrivalProcess b(spec, 1234);
        EXPECT_EQ(a.generate(20.0), b.generate(20.0))
            << arrivalKindName(kind);
    }
}

TEST(ArrivalProcess, GenerateIsAPrefixFunctionOfDuration)
{
    for (ArrivalKind kind :
         {ArrivalKind::Poisson, ArrivalKind::Diurnal,
          ArrivalKind::Bursty}) {
        ArrivalSpec spec;
        spec.kind = kind;
        spec.rps = 60.0;
        ArrivalProcess a(spec, 5);
        ArrivalProcess b(spec, 5);
        const std::vector<double> shorter = a.generate(5.0);
        const std::vector<double> longer = b.generate(15.0);
        ASSERT_LE(shorter.size(), longer.size())
            << arrivalKindName(kind);
        for (std::size_t i = 0; i < shorter.size(); ++i)
            EXPECT_EQ(shorter[i], longer[i])
                << arrivalKindName(kind);
    }
}

TEST(ArrivalProcess, DerivedStreamsAreDisjoint)
{
    ArrivalSpec spec;
    spec.rps = 100.0;
    const std::uint64_t run_seed = 17;
    ArrivalProcess a(spec, Rng::deriveStream(run_seed, 0));
    ArrivalProcess b(spec, Rng::deriveStream(run_seed, 1));
    const std::vector<double> sa = a.generate(10.0);
    const std::vector<double> sb = b.generate(10.0);
    ASSERT_FALSE(sa.empty());
    ASSERT_FALSE(sb.empty());
    EXPECT_NE(sa, sb);

    // Independence in the second-moment sense: the per-bin counts
    // of distinct streams are (nearly) uncorrelated.
    const std::vector<double> ca = binCounts(sa, 10.0, 0.1);
    const std::vector<double> cb = binCounts(sb, 10.0, 0.1);
    const double ma = mean(ca);
    const double mb = mean(cb);
    double cov = 0.0;
    for (std::size_t i = 0; i < ca.size(); ++i)
        cov += (ca[i] - ma) * (cb[i] - mb);
    cov /= static_cast<double>(ca.size());
    const double corr =
        cov / std::sqrt(variance(ca) * variance(cb));
    EXPECT_LT(std::fabs(corr), 0.2);
}

/**
 * Reference generators: the materialized whole-horizon loops the
 * lazy next() replaced, kept verbatim as an oracle for its RNG draw
 * order.
 */
std::vector<double>
referenceStream(const ArrivalSpec &spec, std::uint64_t seed,
                double durationSec)
{
    constexpr double kTwoPi = 6.283185307179586476925286766559;
    Rng rng(seed);
    std::vector<double> times;
    if (durationSec == 0.0 || spec.rps == 0.0)
        return times;
    switch (spec.kind) {
      case ArrivalKind::Poisson: {
        const double mean_gap = 1.0 / spec.rps;
        for (double t = rng.exponential(mean_gap); t < durationSec;
             t += rng.exponential(mean_gap))
            times.push_back(t);
        break;
      }
      case ArrivalKind::Diurnal: {
        const double lambda_max = spec.rps * (1.0 + spec.amplitude);
        const double mean_gap = 1.0 / lambda_max;
        for (double t = rng.exponential(mean_gap); t < durationSec;
             t += rng.exponential(mean_gap)) {
            const double lambda_t =
                spec.rps * (1.0 + spec.amplitude *
                                      std::sin(kTwoPi * t /
                                               spec.periodSec));
            if (rng.bernoulli(lambda_t / lambda_max))
                times.push_back(t);
        }
        break;
      }
      case ArrivalKind::Bursty: {
        const double duty =
            spec.meanOnSec / (spec.meanOnSec + spec.meanOffSec);
        const double on_gap = 1.0 / (spec.rps / duty);
        bool on = rng.bernoulli(duty);
        double t = 0.0;
        double state_end =
            rng.exponential(on ? spec.meanOnSec : spec.meanOffSec);
        while (t < durationSec) {
            if (!on) {
                t = state_end;
                on = true;
                state_end = t + rng.exponential(spec.meanOnSec);
                continue;
            }
            const double next = t + rng.exponential(on_gap);
            if (next >= state_end) {
                t = state_end;
                on = false;
                state_end = t + rng.exponential(spec.meanOffSec);
                continue;
            }
            t = next;
            if (t < durationSec)
                times.push_back(t);
        }
        break;
      }
    }
    return times;
}

TEST(ArrivalProcess, NextSequenceEqualsGenerateForEveryHorizon)
{
    for (ArrivalKind kind :
         {ArrivalKind::Poisson, ArrivalKind::Diurnal,
          ArrivalKind::Bursty}) {
        for (std::uint64_t seed : {1ull, 7ull, 99ull, 123457ull}) {
            ArrivalSpec spec;
            spec.kind = kind;
            spec.rps = 45.0;
            spec.periodSec = 4.0;
            spec.meanOnSec = 0.3;
            spec.meanOffSec = 0.7;
            for (double d : {0.25, 3.0, 17.5}) {
                const std::vector<double> expected =
                    referenceStream(spec, seed, d);
                ArrivalProcess whole(spec, seed);
                EXPECT_EQ(whole.generate(d), expected)
                    << arrivalKindName(kind) << " seed " << seed
                    << " d " << d;
                // next() yields the same prefix, then a time past
                // the horizon, strictly increasing throughout.
                ArrivalProcess lazy(spec, seed);
                double prev = 0.0;
                for (double t : expected) {
                    const double got = lazy.next();
                    ASSERT_EQ(got, t) << arrivalKindName(kind)
                                      << " seed " << seed;
                    prev = got;
                }
                const double beyond = lazy.next();
                EXPECT_GE(beyond, d);
                EXPECT_GT(beyond, prev);
            }
        }
    }
}

TEST(ArrivalProcess, ZeroRateNextIsInfinite)
{
    ArrivalSpec spec;
    spec.rps = 0.0;
    for (ArrivalKind kind :
         {ArrivalKind::Poisson, ArrivalKind::Diurnal,
          ArrivalKind::Bursty}) {
        spec.kind = kind;
        ArrivalProcess idle(spec, 3);
        EXPECT_TRUE(std::isinf(idle.next()));
        EXPECT_TRUE(std::isinf(idle.next()));
    }
}

TEST(ArrivalProcess, ZeroRateAndZeroDurationAreEmpty)
{
    ArrivalSpec spec;
    spec.rps = 0.0;
    ArrivalProcess idle(spec, 1);
    EXPECT_TRUE(idle.generate(10.0).empty());
    spec.rps = 50.0;
    ArrivalProcess busy(spec, 1);
    EXPECT_TRUE(busy.generate(0.0).empty());
}

TEST(ArrivalSpec, CheckRejectsBadFields)
{
    ArrivalSpec spec;
    spec.rps = -1.0;
    EXPECT_FALSE(spec.check());

    spec.rps = 10.0;
    spec.kind = ArrivalKind::Diurnal;
    spec.amplitude = 1.0;
    EXPECT_FALSE(spec.check());
    spec.amplitude = 0.5;
    spec.periodSec = 0.0;
    EXPECT_FALSE(spec.check());
    spec.periodSec = 60.0;
    EXPECT_TRUE(spec.check());

    spec.kind = ArrivalKind::Bursty;
    spec.meanOnSec = -0.1;
    EXPECT_FALSE(spec.check());
    spec.meanOnSec = 0.5;
    spec.meanOffSec = 0.0;
    EXPECT_FALSE(spec.check());
    spec.meanOffSec = 1.0;
    EXPECT_TRUE(spec.check());
}

TEST(MergeArrivalStreams, OrdersByTimeThenTenantThenSeq)
{
    const std::vector<std::vector<double>> streams = {
        {0.5, 1.0, 2.0},
        {0.25, 1.0},
        {1.0},
    };
    const std::vector<ArrivalEvent> feed =
        mergeArrivalStreams(streams);
    ASSERT_EQ(feed.size(), 6u);
    EXPECT_DOUBLE_EQ(feed[0].timeSec, 0.25);
    EXPECT_EQ(feed[0].tenant, 1u);
    EXPECT_DOUBLE_EQ(feed[1].timeSec, 0.5);
    EXPECT_EQ(feed[1].tenant, 0u);
    // The 1.0 tie resolves by tenant index.
    EXPECT_EQ(feed[2].tenant, 0u);
    EXPECT_EQ(feed[3].tenant, 1u);
    EXPECT_EQ(feed[4].tenant, 2u);
    EXPECT_DOUBLE_EQ(feed[5].timeSec, 2.0);
    for (std::size_t i = 1; i < feed.size(); ++i)
        EXPECT_LE(feed[i - 1].timeSec, feed[i].timeSec);
}

TEST(ArrivalKind, NamesRoundTrip)
{
    for (ArrivalKind kind :
         {ArrivalKind::Poisson, ArrivalKind::Diurnal,
          ArrivalKind::Bursty}) {
        const auto parsed =
            tryArrivalKindFromName(arrivalKindName(kind));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, kind);
    }
    EXPECT_FALSE(tryArrivalKindFromName("weekly").has_value());
}

} // namespace
} // namespace v10
