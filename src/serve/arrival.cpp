#include "serve/arrival.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/log.h"

namespace v10 {

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

Status
requireFinitePositive(double v, const char *field,
                      const std::string &what)
{
    if (!std::isfinite(v) || v <= 0.0)
        return parseError(what + ": " + field + " must be positive",
                          "", 0, field);
    return Status::ok();
}

} // namespace

const char *
arrivalKindName(ArrivalKind kind)
{
    switch (kind) {
      case ArrivalKind::Poisson: return "poisson";
      case ArrivalKind::Diurnal: return "diurnal";
      case ArrivalKind::Bursty:  return "bursty";
    }
    panic("arrivalKindName: bad kind");
}

std::optional<ArrivalKind>
tryArrivalKindFromName(const std::string &name)
{
    if (name == "poisson")
        return ArrivalKind::Poisson;
    if (name == "diurnal")
        return ArrivalKind::Diurnal;
    if (name == "bursty")
        return ArrivalKind::Bursty;
    return std::nullopt;
}

Status
ArrivalSpec::check(const std::string &what) const
{
    if (!std::isfinite(rps) || rps < 0.0)
        return parseError(what +
                              ": mean rate must be finite and "
                              "non-negative",
                          "", 0, "rps");
    switch (kind) {
      case ArrivalKind::Poisson:
        break;
      case ArrivalKind::Diurnal:
        if (!std::isfinite(amplitude) || amplitude < 0.0 ||
            amplitude >= 1.0)
            return parseError(what +
                                  ": diurnal amplitude must lie in "
                                  "[0, 1)",
                              "", 0, "amplitude");
        if (Status s = requireFinitePositive(periodSec, "periodSec",
                                             what);
            !s)
            return s;
        break;
      case ArrivalKind::Bursty:
        if (Status s = requireFinitePositive(meanOnSec, "meanOnSec",
                                             what);
            !s)
            return s;
        if (Status s = requireFinitePositive(meanOffSec,
                                             "meanOffSec", what);
            !s)
            return s;
        break;
    }
    return Status::ok();
}

ArrivalProcess::ArrivalProcess(ArrivalSpec spec, std::uint64_t seed)
    : spec_(spec), rng_(seed)
{
    spec_.check().orDie();
    if (spec_.rps == 0.0)
        return;
    switch (spec_.kind) {
      case ArrivalKind::Poisson:
        gap_ = 1.0 / spec_.rps;
        break;
      case ArrivalKind::Diurnal:
        lambdaMax_ = spec_.rps * (1.0 + spec_.amplitude);
        gap_ = 1.0 / lambdaMax_;
        break;
      case ArrivalKind::Bursty: {
        const double duty =
            spec_.meanOnSec / (spec_.meanOnSec + spec_.meanOffSec);
        gap_ = 1.0 / (spec_.rps / duty);
        // Start in the stationary state distribution so the stream
        // has no startup transient.
        on_ = rng_.bernoulli(duty);
        stateEnd_ = rng_.exponential(on_ ? spec_.meanOnSec
                                         : spec_.meanOffSec);
        break;
      }
    }
}

double
ArrivalProcess::stepPoisson(double &t)
{
    t += rng_.exponential(gap_);
    return t;
}

double
ArrivalProcess::stepDiurnal(double &t)
{
    // Lewis-Shedler thinning against the envelope rate
    // lambda_max = rps * (1 + amplitude): candidate arrivals come
    // from a homogeneous Poisson process at lambda_max and survive
    // with probability lambda(t) / lambda_max.
    while (true) {
        t += rng_.exponential(gap_);
        const double lambda_t =
            spec_.rps *
            (1.0 + spec_.amplitude *
                       std::sin(kTwoPi * t / spec_.periodSec));
        if (rng_.bernoulli(lambda_t / lambdaMax_))
            return t;
    }
}

double
ArrivalProcess::stepBursty(double &t, bool &on, double &stateEnd)
{
    // Two-state MMPP: exponential dwells in on/off states; the
    // on-state rate is rps / duty so the long-run mean stays rps.
    while (true) {
        if (!on) {
            // Idle: jump to the end of the off dwell.
            t = stateEnd;
            on = true;
            stateEnd = t + rng_.exponential(spec_.meanOnSec);
            continue;
        }
        const double next = t + rng_.exponential(gap_);
        if (next >= stateEnd) {
            // The burst ended before the next arrival fired.
            t = stateEnd;
            on = false;
            stateEnd = t + rng_.exponential(spec_.meanOffSec);
            continue;
        }
        t = next;
        return t;
    }
}

double
ArrivalProcess::next()
{
    if (spec_.rps == 0.0)
        return std::numeric_limits<double>::infinity();
    switch (spec_.kind) {
      case ArrivalKind::Poisson: return stepPoisson(t_);
      case ArrivalKind::Diurnal: return stepDiurnal(t_);
      case ArrivalKind::Bursty:  return stepBursty(t_, on_, stateEnd_);
    }
    panic("ArrivalProcess::next: bad kind");
}

std::vector<double>
ArrivalProcess::generate(double durationSec)
{
    if (!std::isfinite(durationSec) || durationSec < 0.0)
        panic("ArrivalProcess::generate: bad duration ",
              durationSec);
    std::vector<double> times;
    if (durationSec == 0.0 || spec_.rps == 0.0)
        return times;
    times.reserve(static_cast<std::size_t>(
        spec_.rps * durationSec * 1.1 + 16.0));
    // next() until the horizon, with the clock in locals so the
    // loop keeps it in registers across push_back.
    double t = t_;
    bool on = on_;
    double stateEnd = stateEnd_;
    auto collect = [&](auto step) {
        for (double x = step(); x < durationSec; x = step())
            times.push_back(x);
    };
    switch (spec_.kind) {
      case ArrivalKind::Poisson:
        collect([&] { return stepPoisson(t); });
        break;
      case ArrivalKind::Diurnal:
        collect([&] { return stepDiurnal(t); });
        break;
      case ArrivalKind::Bursty:
        collect([&] { return stepBursty(t, on, stateEnd); });
        break;
    }
    t_ = t;
    on_ = on;
    stateEnd_ = stateEnd;
    return times;
}

std::vector<ArrivalEvent>
mergeArrivalStreams(const std::vector<std::vector<double>> &streams)
{
    std::size_t total = 0;
    for (const auto &stream : streams)
        total += stream.size();
    std::vector<ArrivalEvent> feed;
    feed.reserve(total);
    for (std::size_t tenant = 0; tenant < streams.size(); ++tenant) {
        const auto &stream = streams[tenant];
        for (std::size_t seq = 0; seq < stream.size(); ++seq)
            feed.push_back(ArrivalEvent{
                stream[seq], static_cast<std::uint32_t>(tenant),
                static_cast<std::uint64_t>(seq)});
    }
    std::sort(feed.begin(), feed.end(),
              [](const ArrivalEvent &a, const ArrivalEvent &b) {
                  if (a.timeSec != b.timeSec)
                      return a.timeSec < b.timeSec;
                  if (a.tenant != b.tenant)
                      return a.tenant < b.tenant;
                  return a.seq < b.seq;
              });
    return feed;
}

} // namespace v10
