/**
 * @file
 * Open-loop arrival processes for fleet-scale traffic serving
 * (ROADMAP "Fleet-scale online serving"): seeded, deterministic
 * per-tenant request streams merged into one event-ordered feed.
 *
 * Three generator families cover the canonical serving shapes:
 *  - Poisson: memoryless constant-rate arrivals (the M/M/1 anchor
 *    the analytic validation tests check against);
 *  - Diurnal: a sinusoid-modulated rate lambda(t) = r*(1 + a*sin)
 *    sampled exactly by Lewis-Shedler thinning;
 *  - Bursty: a two-state Markov-modulated (on/off) Poisson process
 *    whose index of dispersion exceeds 1.
 *
 * Determinism contract: a stream is a pure function of (spec, seed).
 * Per-tenant seeds are derived with Rng::deriveStream so tenant
 * streams are disjoint and independent of pool ordering, and the
 * merged feed breaks time ties by (tenant, seq) so it is identical
 * across platforms and jobs counts.
 */

#ifndef V10_SERVE_ARRIVAL_H
#define V10_SERVE_ARRIVAL_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"

namespace v10 {

/** Arrival process families. */
enum class ArrivalKind {
    Poisson,
    Diurnal,
    Bursty,
};

/** Printable name of an arrival kind. */
const char *arrivalKindName(ArrivalKind kind);

/** Parse "poisson" / "diurnal" / "bursty" (case-sensitive). */
std::optional<ArrivalKind>
tryArrivalKindFromName(const std::string &name);

/**
 * One tenant's offered-load specification. Only the fields of the
 * selected kind are read; rps is always the *mean* offered rate, so
 * swapping kinds at a fixed rps keeps total offered load constant.
 */
struct ArrivalSpec
{
    ArrivalKind kind = ArrivalKind::Poisson;
    double rps = 0.0; ///< mean offered rate (requests/second)

    /** Diurnal: relative amplitude in [0, 1) and period of the
     * sinusoid; lambda(t) = rps * (1 + amplitude * sin(2*pi*t/T)). */
    double amplitude = 0.5;
    double periodSec = 60.0;

    /** Bursty (MMPP on/off): mean exponential dwell in the burst
     * (on) and idle (off) states. The on-state rate is scaled to
     * rps / duty so the long-run mean stays rps. */
    double meanOnSec = 0.5;
    double meanOffSec = 1.0;

    /** Structured validation (finite fields, rate >= 0, amplitude in
     * [0, 1), positive period/dwells). @p what labels diagnostics. */
    Status check(const std::string &what = "arrival") const;
};

/**
 * Deterministic generator for one tenant's stream. Construct with
 * the tenant's derived seed, then pull arrivals one at a time with
 * next() (the serve loop holds one pending time per tenant) or
 * generate() a whole horizon; repeated construction yields the
 * identical stream.
 */
class ArrivalProcess
{
  public:
    /** @param spec validated arrival spec (check() must pass)
     *  @param seed per-stream seed (Rng::deriveStream of the run
     *         seed and the tenant index) */
    ArrivalProcess(ArrivalSpec spec, std::uint64_t seed);

    /** The spec driving this process. */
    const ArrivalSpec &spec() const { return spec_; }

    /**
     * The next arrival time, strictly after the previous one
     * (ascending); +infinity forever when the rate is 0. O(1)
     * memory: the process carries only its clock, RNG and (bursty)
     * on/off dwell state.
     */
    double next();

    /**
     * All arrival times in [0, durationSec), ascending: next() until
     * the horizon. A fresh ArrivalProcess with the same (spec, seed)
     * returns the same vector for any duration prefix.
     */
    std::vector<double> generate(double durationSec);

  private:
    /** One arrival of each kind, advancing the given clock state. */
    double stepPoisson(double &t);
    double stepDiurnal(double &t);
    double stepBursty(double &t, bool &on, double &stateEnd);

    ArrivalSpec spec_;
    Rng rng_;
    double t_ = 0.0;        ///< last time drawn (or dwell boundary)
    double gap_ = 0.0;      ///< mean candidate inter-arrival gap
    double lambdaMax_ = 0.0; ///< diurnal thinning envelope
    bool on_ = false;        ///< bursty: inside a burst
    double stateEnd_ = 0.0;  ///< bursty: end of the current dwell
};

/** One request in the merged fleet feed. */
struct ArrivalEvent
{
    double timeSec = 0.0;      ///< arrival time
    std::uint32_t tenant = 0;  ///< index into the tenant list
    std::uint64_t seq = 0;     ///< per-tenant request sequence number
};

/**
 * Merge per-tenant streams (streams[i] = tenant i's ascending
 * times) into one feed ordered by (time, tenant, seq). The
 * tie-break makes the merge a pure function of its inputs.
 */
std::vector<ArrivalEvent>
mergeArrivalStreams(const std::vector<std::vector<double>> &streams);

} // namespace v10

#endif // V10_SERVE_ARRIVAL_H
