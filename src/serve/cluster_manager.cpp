#include "serve/cluster_manager.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <utility>

#include "common/annotations.h"
#include "common/log.h"
#include "common/parallel_executor.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "metrics/interval_sampler.h"
#include "metrics/stat_registry.h"
#include "trace/attribution.h"
#include "trace/request_tracer.h"
#include "workload/model_zoo.h"

namespace v10 {

namespace {

/** Stream-id space separation: tenants draw arrival streams below
 * the core salt, cores draw service streams above it, and the
 * flood-burst thinning draws live above both. */
constexpr std::uint64_t kCoreStreamSalt = 1ull << 32;
constexpr std::uint64_t kFloodStreamSalt = 1ull << 33;

/** One flood source: an antagonist flood profile or a
 * serve-granularity `flood` fault site. Each hit on a base arrival
 * appends `burst` copies of it to the tenant's stream. */
struct FloodSource
{
    double prob = 0.0;
    std::uint64_t burst = 0;
    double afterSec = 0.0;
    double untilSec = 0.0; ///< 0 = never ends
    std::uint64_t maxCount = 0;
    int tenant = -1; ///< -1 = every tenant

    bool
    appliesTo(std::size_t t) const
    {
        return tenant < 0 || static_cast<std::size_t>(tenant) == t;
    }

    /** A cap shared by every tenant, used up in tenant-index order. */
    bool globalCap() const { return tenant < 0 && maxCount > 0; }
};

/** Flood thinning for one base arrival of @p tenant at @p t: one
 * uniform draw per source live for the tenant at t (always-draw, so
 * sequences are stable under rate changes), calling hit(k) for each
 * source k whose draw fires. */
template <typename Hit>
void
drawFloods(const std::vector<FloodSource> &sources, std::size_t tenant,
           double t, Rng &rng, Hit &&hit)
{
    for (std::size_t k = 0; k < sources.size(); ++k) {
        const FloodSource &s = sources[k];
        if (!s.appliesTo(tenant))
            continue;
        if (t < s.afterSec || (s.untilSec > 0.0 && t >= s.untilSec))
            continue;
        if (rng.uniform() < s.prob)
            hit(k);
    }
}

/** One completion of a split tenant (see CoreSim::split), buffered
 * inside the completing core and folded serially in core-index
 * order at the epoch's end, so the tenant's floating-point sums keep
 * one order for any --jobs value. */
struct CompletionRec
{
    std::uint32_t tenant = 0; ///< global tenant index
    bool violated = false;
    double latencyUs = 0.0;
    double queueUs = 0.0;
    double serviceUs = 0.0;
    double soloUs = 0.0;
    double endSec = 0.0; ///< completion time (SLO bucket key)
};

/** Static per-tenant antagonist context, shared by every core. */
struct TenantStatic
{
    std::vector<AntagonistProfile> hogs;   ///< HbmHog windows
    std::vector<AntagonistProfile> thrash; ///< Thrash windows
};

/** One waiting request: (arrival time, seq) FIFO entry. */
struct Waiting
{
    double timeSec = 0.0;
    std::uint64_t seq = 0;
};

/** One tenant's bounded FIFO of waiting requests: a ring that grows
 * on demand up to the queue capacity and never holds more. */
class WaitQueue
{
  public:
    std::size_t size() const { return size_; }

    void
    push(const Waiting &w, std::size_t capacity)
    {
        if (size_ == ring_.size())
            grow(capacity);
        std::size_t slot = head_ + size_;
        if (slot >= ring_.size())
            slot -= ring_.size();
        ring_[slot] = w;
        ++size_;
    }

    Waiting
    pop()
    {
        const Waiting w = ring_[head_];
        if (++head_ == ring_.size())
            head_ = 0;
        --size_;
        return w;
    }

    void clear() { *this = WaitQueue(); }

  private:
    void
    grow(std::size_t capacity)
    {
        const std::size_t want =
            std::min(std::max<std::size_t>(2 * ring_.size(), 4),
                     capacity);
        std::vector<Waiting> ring(want);
        for (std::size_t k = 0; k < size_; ++k)
            ring[k] = ring_[(head_ + k) % ring_.size()];
        ring_ = std::move(ring);
        head_ = 0;
    }

    std::vector<Waiting> ring_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

/** One tenant's serving totals, folded as its requests complete. */
struct TenantAccum
{
    LogHistogram latencyUs;
    std::uint64_t offered = 0;
    std::uint64_t completed = 0;
    std::uint64_t shed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t violations = 0;
    double queueUs = 0.0;
    double serviceUs = 0.0;
    double soloUs = 0.0;

    void
    add(const CompletionRec &r)
    {
        latencyUs.add(r.latencyUs);
        ++completed;
        if (r.violated)
            ++violations;
        queueUs += r.queueUs;
        serviceUs += r.serviceUs;
        soloUs += r.soloUs;
    }
};

/**
 * One tenant's live state on its current host core: its lazily
 * generated arrival stream, waiting queue, SCFQ clock and serving
 * totals. The flow moves wholesale between cores on
 * migrate/isolate (queue, stream and totals handed over, SCFQ
 * virtual time reset); the in-flight request, if any, finishes on
 * the old core from captured parameters.
 */
struct V10_DOMAIN_LOCAL TenantFlow
{
    explicit TenantFlow(ArrivalProcess p) : process(std::move(p)) {}

    // --- read by the per-event scans -------------------------------
    /** Time of the next un-consumed arrival; +inf when the stream
     * has none left before the horizon. */
    double nextSec = std::numeric_limits<double>::infinity();
    double vtime = 0.0; ///< SCFQ virtual finish time
    bool active = true; ///< consuming arrivals (churn/evict)
    std::uint32_t tenant = 0; ///< global index (trace IDs)
    WaitQueue queue;

    // --- arrival stream: base process plus flood burst copies ------
    ArrivalProcess process;
    std::uint64_t cursor = 0; ///< arrivals consumed (the next seq)
    /** Live flood sources, or nullptr when none applies. */
    const std::vector<FloodSource> *floods = nullptr;
    /** Per source: hits this tenant may still fire. */
    std::vector<std::uint64_t> floodLeft;
    Rng floodRng{0};
    std::uint64_t floodPending = 0; ///< burst copies at nextSec

    // --- service parameters ---------------------------------------
    double serviceMeanSec = 0.0; ///< after the collocation speedup
    double soloMeanSec = 0.0;    ///< solo-run calibration
    double weight = 1.0;
    double sloTargetUs = 0.0;
    /** Admission gate bucket; nullptr = admit everything. */
    TokenBucket *bucket = nullptr;
    const TenantStatic *stat = nullptr;

    TenantAccum accum;

    std::size_t queued() const { return queue.size(); }

    /** Pull the next base arrival, dropping it past @p horizon. */
    void
    advance(double horizon)
    {
        const double t = process.next();
        nextSec = t < horizon ? t : std::numeric_limits<double>::infinity();
    }

    /**
     * Consume the arrival at nextSec and return its seq. A base
     * arrival draws the flood thinning; each hit queues burst copies
     * at the same time, served before the next base arrival.
     */
    std::uint64_t
    take(double horizon)
    {
        const std::uint64_t seq = cursor++;
        if (floodPending > 0) {
            --floodPending;
        } else if (floods != nullptr) {
            drawFloods(*floods, tenant, nextSec, floodRng,
                       [&](std::size_t k) {
                           if (floodLeft[k] == 0)
                               return;
                           --floodLeft[k];
                           floodPending += (*floods)[k].burst;
                       });
        }
        if (floodPending == 0)
            advance(horizon);
        return seq;
    }
};

/**
 * One core's persistent serving state: a single server draining
 * bounded per-tenant FIFO queues under self-clocked weighted fair
 * queueing, advanced one control epoch at a time. With a single
 * epoch (no resilience feature active) runEpoch() performs exactly
 * the classic single-pass simulation — same event order, same RNG
 * draw sites, same floating-point accumulation — so legacy runs
 * stay byte-identical. Trace/observability inputs only *record*;
 * service draws and scheduling never depend on them.
 *
 * Completions fold into the tenant's totals, its SloMonitor row and
 * its attribution row where they happen. Within an epoch every flow
 * is resident on exactly one core, so those rows have one writer —
 * except for a split tenant, whose in-flight request was left on
 * its old core by a migration; its completions are buffered and
 * folded by the manager after the epoch.
 */
class V10_DOMAIN_LOCAL CoreSim
{
  public:
    // --- immutable run context -------------------------------------
    std::size_t index = 0;
    Rng rng{0};
    std::uint64_t traceSeed = 0;
    std::uint64_t spanSampleN = 0;
    TraceSampler spanSampler{1};
    ServiceDist dist = ServiceDist::Exponential;
    double cv = 1.0;
    std::size_t queueCapacity = 64;
    double durationSec = 1.0;
    std::size_t sampleTicks = 0;
    double tickSec = 0.0;
    /** Tenant rows this core writes for its residents; the
     * attribution collector is nullptr when no charges are kept. */
    SloMonitor *monitor = nullptr;
    AttributionCollector *attrib = nullptr;
    /** split[t] != 0: tenant t's completions this epoch are
     * buffered (read-only while cores run). */
    const std::vector<char> *split = nullptr;

    /** Resident flows, ascending by tenant index: the deterministic
     * tie-break everywhere. */
    std::vector<TenantFlow> flows;

    // --- server state ---------------------------------------------
    double vclock = 0.0;
    bool busy = false;
    double busyUntil = 0.0;
    double servedStart = 0.0;
    double servedArrival = 0.0;
    std::uint64_t servedSeq = 0;
    std::uint32_t servedTenant = 0;
    /** Captured at service start so finish() never dereferences a
     * flow that migrated away mid-service. */
    double servedSloTargetUs = 0.0;
    double servedSpeed = 1.0;
    std::size_t waiting = 0; ///< total queued across tenants

    // --- whole-run accounting -------------------------------------
    double lastT = 0.0;
    std::size_t nextTick = 1;
    double depthArea = 0.0;
    double busyArea = 0.0;
    double depthPeak = 0.0;
    double busySec = 0.0;
    double endSec = 0.0; ///< last completion (>= duration horizon)
    std::uint64_t served = 0;
    std::vector<double> depthSamples;
    std::vector<double> inflightSamples;
    std::vector<RequestSpan> spans;

    /** This epoch's completions of split tenants. */
    std::vector<CompletionRec> splitCompletions;

    /** The resident flow of tenant @p t (panics if absent). */
    TenantFlow &flow(std::size_t t) { return *resident(t); }

    /** Remove and return tenant @p t's flow. */
    TenantFlow
    release(std::size_t t)
    {
        const auto it = resident(t);
        TenantFlow out = std::move(*it);
        flows.erase(it);
        return out;
    }

    /** Adopt a flow, keeping ascending tenant order. */
    void
    adopt(TenantFlow f)
    {
        flows.insert(lowerBound(f.tenant), std::move(f));
    }

    /** Time-weighted occupancy accounting plus the optional fixed
     * sim-time tick series; called with the state still describing
     * (lastT, now]. */
    void
    advanceTime(double now)
    {
        if (now < lastT)
            return;
        while (sampleTicks > 0 && nextTick <= sampleTicks &&
               static_cast<double>(nextTick) * tickSec <= now) {
            depthSamples.push_back(static_cast<double>(waiting));
            inflightSamples.push_back(busy ? 1.0 : 0.0);
            ++nextTick;
        }
        depthArea += static_cast<double>(waiting) * (now - lastT);
        busyArea += (busy ? 1.0 : 0.0) * (now - lastT);
        lastT = now;
    }

    /** One service draw at the tenant's mean, inflated by any live
     * HBM-hog windows. Exactly one RNG draw regardless of the
     * inflation factor, so draw sequences stay aligned. */
    double
    drawService(const TenantFlow &f, double now)
    {
        double mean = f.serviceMeanSec;
        if (f.stat != nullptr) {
            for (const AntagonistProfile &p : f.stat->hogs) {
                if (p.activeAt(now))
                    mean *= p.effectiveMagnitude();
            }
        }
        switch (dist) {
          case ServiceDist::Deterministic: return mean;
          case ServiceDist::Exponential:
            return rng.exponential(mean);
          case ServiceDist::Lognormal:
            return rng.lognormal(mean, cv);
        }
        panic("CoreSim: bad service distribution");
    }

    /** Pick the nonempty queue with the least virtual time (ties to
     * the lowest tenant index) and put it in service. */
    void
    startNext(double now)
    {
        TenantFlow *pick = nullptr;
        for (TenantFlow &f : flows) {
            if (f.queued() == 0)
                continue;
            if (pick == nullptr || f.vtime < pick->vtime)
                pick = &f;
        }
        if (pick == nullptr)
            return;
        TenantFlow &f = *pick;
        servedTenant = f.tenant;
        const Waiting w = f.queue.pop();
        servedArrival = w.timeSec;
        servedSeq = w.seq;
        --waiting;
        double service = drawService(f, now);
        // Preemption thrashing: a queued co-resident with a live
        // thrash window inflicts per-start overhead, charged to the
        // thrasher in the attribution matrix.
        for (const TenantFlow &g : flows) {
            if (&g == pick || g.stat == nullptr ||
                g.stat->thrash.empty() || g.queued() == 0)
                continue;
            double frac = 0.0;
            for (const AntagonistProfile &p : g.stat->thrash) {
                if (p.activeAt(now))
                    frac += p.effectiveMagnitude();
            }
            if (frac <= 0.0)
                continue;
            const double overhead = frac * f.serviceMeanSec;
            service += overhead;
            if (attrib != nullptr)
                attrib->chargeQueueWait(f.tenant, g.tenant,
                                        overhead * 1e6);
        }
        vclock = std::max(vclock, f.vtime);
        f.vtime = vclock + service / f.weight;
        busy = true;
        servedStart = now;
        busyUntil = now + service;
        busySec += service;
        servedSloTargetUs = f.sloTargetUs;
        servedSpeed = f.serviceMeanSec > 0.0
                          ? f.soloMeanSec / f.serviceMeanSec
                          : 1.0;
    }

    /** Restart an idle server after a queue handoff (migration). */
    void
    kickIdle(double now)
    {
        if (!busy)
            startNext(now);
    }

    void
    finish()
    {
        const double latencyUs = (busyUntil - servedArrival) * 1e6;
        const double queueUs = (servedStart - servedArrival) * 1e6;
        const double serviceUs = (busyUntil - servedStart) * 1e6;
        // Solo-equivalent of this draw: the same work at the
        // tenant's calibrated solo rate.
        const double soloUs = serviceUs * servedSpeed;
        ++served;
        const double target = servedSloTargetUs;
        const bool violated = target > 0.0 && latencyUs > target;
        const CompletionRec rec{servedTenant, violated, latencyUs,
                                queueUs,      serviceUs, soloUs,
                                busyUntil};
        if ((*split)[servedTenant] != 0) {
            splitCompletions.push_back(rec);
        } else {
            flow(servedTenant).accum.add(rec);
            monitor->addBucket(servedTenant,
                               monitor->bucketIndex(busyUntil), 1,
                               violated ? 1 : 0);
        }
        if (attrib != nullptr) {
            // Head-of-line blocking: each co-resident flow whose
            // head request waited out this service accrues the
            // service time, charged to the tenant that held the
            // server. Charging per flow (not per queued request)
            // keeps the perpetrator score proportional to the
            // blocker's server occupancy — a flooder's deep
            // self-inflicted queue must not inflate its victims'
            // columns.
            for (const TenantFlow &g : flows) {
                if (g.tenant == servedTenant || g.queued() == 0)
                    continue;
                attrib->chargeQueueWait(g.tenant, servedTenant,
                                        serviceUs);
            }
        }
        if (spanSampleN > 0) {
            const TraceContext ctx = TraceContext::make(
                traceSeed, servedTenant, servedSeq);
            if (spanSampler.sampled(ctx.traceId)) {
                RequestSpan span;
                span.ctx = ctx;
                span.core = index;
                span.arrivalUs = servedArrival * 1e6;
                span.startUs = servedStart * 1e6;
                span.endUs = busyUntil * 1e6;
                span.soloUs = soloUs;
                span.sloTargetUs = target;
                span.violated = violated;
                spans.push_back(std::move(span));
            }
        }
        endSec = std::max(endSec, busyUntil);
        busy = false;
    }

    /** Record a span for an arrival that never entered the queue
     * (admission rejection or queue-full shed). */
    void
    dropSpan(const TenantFlow &f, double atSec, std::uint64_t seq,
             bool wasRejected)
    {
        if (spanSampleN == 0)
            return;
        const TraceContext ctx =
            TraceContext::make(traceSeed, f.tenant, seq);
        if (!spanSampler.sampled(ctx.traceId))
            return;
        RequestSpan span;
        span.ctx = ctx;
        span.core = index;
        span.arrivalUs = atSec * 1e6;
        span.startUs = span.arrivalUs;
        span.endUs = span.arrivalUs;
        span.sloTargetUs = f.sloTargetUs;
        span.shed = !wasRejected;
        span.rejected = wasRejected;
        spans.push_back(std::move(span));
    }

    /**
     * Advance to @p epochEnd. Non-final epochs process arrivals
     * strictly before the boundary and defer completions landing on
     * or past it; the final epoch consumes every remaining arrival
     * and drains all queues (completions past the horizon allowed).
     */
    void
    runEpoch(double epochEnd, bool isFinal)
    {
        const double bound =
            isFinal ? std::numeric_limits<double>::infinity()
                    : epochEnd;
        while (true) {
            // Next arrival among active flows (ascending tenant
            // order breaks exact-time ties toward the lowest index).
            TenantFlow *at = nullptr;
            double atTime = 0.0;
            for (TenantFlow &f : flows) {
                if (!f.active || f.nextSec >= bound)
                    continue;
                if (at == nullptr || f.nextSec < atTime) {
                    at = &f;
                    atTime = f.nextSec;
                }
            }
            // Completions fire before arrivals carrying the same
            // timestamp: the server frees the slot first.
            if (busy && (at == nullptr || busyUntil <= atTime)) {
                if (!isFinal && busyUntil >= epochEnd)
                    break; // lands on/after the boundary: defer
                const double now = busyUntil;
                advanceTime(now);
                finish();
                startNext(now);
                continue;
            }
            if (at == nullptr)
                break;
            TenantFlow &f = *at;
            const std::uint64_t seq = f.take(durationSec);
            ++f.accum.offered;
            advanceTime(atTime);
            if (f.bucket != nullptr && !f.bucket->tryAdmit(atTime)) {
                ++f.accum.rejected;
                dropSpan(f, atTime, seq, /*wasRejected=*/true);
            } else if (f.queued() >= queueCapacity) {
                ++f.accum.shed; // bounded queue: load-shed
                dropSpan(f, atTime, seq, /*wasRejected=*/false);
            } else {
                f.queue.push(Waiting{atTime, seq}, queueCapacity);
                ++waiting;
                depthPeak = std::max(depthPeak,
                                     static_cast<double>(waiting));
                if (!busy)
                    startNext(atTime);
            }
        }
        if (!isFinal) {
            // Close the occupancy integrals at the boundary: the
            // control step may hand queues between cores.
            advanceTime(epochEnd);
            return;
        }
        // Close the integrals at the drain point and emit any
        // remaining (idle) ticks.
        advanceTime(std::max(endSec, durationSec));
        while (sampleTicks > 0 && nextTick <= sampleTicks) {
            depthSamples.push_back(0.0);
            inflightSamples.push_back(0.0);
            ++nextTick;
        }
    }

  private:
    std::vector<TenantFlow>::iterator
    lowerBound(std::size_t t)
    {
        return std::lower_bound(
            flows.begin(), flows.end(), t,
            [](const TenantFlow &f, std::size_t key) {
                return f.tenant < key;
            });
    }

    std::vector<TenantFlow>::iterator
    resident(std::size_t t)
    {
        const auto it = lowerBound(t);
        if (it == flows.end() || it->tenant != t)
            panic("serve: tenant ", t, " not resident on core ", index);
        return it;
    }
};

} // namespace

Result<std::vector<SloTier>>
parseSloSpec(const std::string &spec)
{
    std::vector<SloTier> tiers;
    for (const std::string &part : split(spec, ',')) {
        if (part.empty())
            return parseError("slo: empty tier", "", 0, spec);
        const auto colon = part.find(':');
        std::string target = part.substr(0, colon);
        SloTier tier;
        if (colon != std::string::npos) {
            const std::string weight = part.substr(colon + 1);
            const auto w = parseDouble(weight);
            if (!w || !std::isfinite(*w) || *w <= 0.0)
                return parseError("slo: weight must be a positive "
                                  "number",
                                  "", 0, weight);
            tier.weight = *w;
        }
        if (!target.empty() && target.back() == 'x') {
            tier.relative = true;
            target.pop_back();
        } else {
            tier.relative = false;
        }
        const auto v = parseDouble(target);
        if (!v || !std::isfinite(*v) || *v <= 0.0)
            return parseError("slo: target must be a positive "
                              "number or <mult>x",
                              "", 0, part);
        tier.value = *v;
        tiers.push_back(tier);
    }
    if (tiers.empty())
        return parseError("slo: expected target[:weight][,...]", "",
                          0, spec);
    return tiers;
}

const char *
placementPolicyName(PlacementPolicy policy)
{
    switch (policy) {
      case PlacementPolicy::RoundRobin:  return "round-robin";
      case PlacementPolicy::LeastLoaded: return "least-loaded";
      case PlacementPolicy::Advisor:     return "advisor";
    }
    panic("placementPolicyName: bad policy");
}

std::optional<PlacementPolicy>
tryPlacementPolicyFromName(const std::string &name)
{
    if (name == "round-robin")
        return PlacementPolicy::RoundRobin;
    if (name == "least-loaded")
        return PlacementPolicy::LeastLoaded;
    if (name == "advisor")
        return PlacementPolicy::Advisor;
    return std::nullopt;
}

const char *
serviceDistName(ServiceDist dist)
{
    switch (dist) {
      case ServiceDist::Deterministic: return "det";
      case ServiceDist::Exponential:   return "exp";
      case ServiceDist::Lognormal:     return "lognormal";
    }
    panic("serviceDistName: bad dist");
}

std::optional<ServiceDist>
tryServiceDistFromName(const std::string &name)
{
    if (name == "det")
        return ServiceDist::Deterministic;
    if (name == "exp")
        return ServiceDist::Exponential;
    if (name == "lognormal")
        return ServiceDist::Lognormal;
    return std::nullopt;
}

ClusterManager::ClusterManager(ServeConfig config)
    : config_(config), runner_(config.core)
{
}

Status
ClusterManager::checkConfig() const
{
    if (config_.numCores == 0)
        return parseError("serve: fleet needs at least one core",
                          "", 0, "numCores");
    if (!std::isfinite(config_.durationSec) ||
        config_.durationSec <= 0.0)
        return parseError("serve: duration must be positive", "", 0,
                          "durationSec");
    if (config_.queueCapacity == 0)
        return parseError("serve: per-tenant queue capacity must "
                          "be >= 1",
                          "", 0, "queueCapacity");
    if (config_.serviceDist == ServiceDist::Lognormal &&
        (!std::isfinite(config_.serviceCv) ||
         config_.serviceCv <= 0.0))
        return parseError("serve: lognormal service cv must be "
                          "positive",
                          "", 0, "serviceCv");
    return Status::ok();
}

Status
ClusterManager::addTenant(ServeTenant tenant)
{
    if (tenant.name.empty())
        return parseError("serve: tenant name must be non-empty",
                          "", 0, "name");
    for (const ServeTenant &existing : tenants_) {
        if (existing.name == tenant.name)
            return parseError("serve: duplicate tenant name", "", 0,
                              tenant.name);
    }
    if (tryFindModel(tenant.model) == nullptr)
        return parseError("serve: unknown model", "", 0,
                          tenant.model);
    if (Status s = tenant.arrival.check("serve: tenant '" +
                                        tenant.name + "' arrival");
        !s)
        return s;
    if (!std::isfinite(tenant.slo.latencyTargetUs) ||
        tenant.slo.latencyTargetUs < 0.0)
        return parseError("serve: SLO latency target must be "
                          "finite and non-negative",
                          "", 0, tenant.name);
    if (!std::isfinite(tenant.slo.weight) ||
        tenant.slo.weight <= 0.0)
        return parseError("serve: SLO weight must be positive", "",
                          0, tenant.name);
    if (!std::isfinite(tenant.serviceUsOverride) ||
        tenant.serviceUsOverride < 0.0)
        return parseError("serve: service override must be finite "
                          "and non-negative",
                          "", 0, tenant.name);
    tenants_.push_back(std::move(tenant));
    service_us_cache_.push_back(0.0);
    return Status::ok();
}

double
ClusterManager::serviceUs(std::size_t index)
{
    if (index >= tenants_.size())
        panic("ClusterManager::serviceUs: bad tenant index ", index);
    if (service_us_cache_[index] > 0.0)
        return service_us_cache_[index];
    const ServeTenant &t = tenants_[index];
    double us = t.serviceUsOverride;
    if (us <= 0.0) {
        const double rate =
            runner_.singleTenantRps(t.model, t.batch);
        if (rate <= 0.0)
            panic("ClusterManager::serviceUs: non-positive "
                  "calibrated rate for ",
                  t.model);
        us = 1e6 / rate;
    }
    service_us_cache_[index] = us;
    return us;
}

Result<ServePlacement>
ClusterManager::placeAdvisor()
{
    // Train the §3.4 advisor on the distinct pooled models, then
    // greedily pair tenants whose models clear the predicted-gain
    // threshold; pairs serve faster by the predicted gain.
    if (advisor_fleet_ == nullptr) {
        ClusterConfig fleet;
        fleet.core = config_.core;
        fleet.numCores = config_.numCores;
        fleet.collocationThreshold = config_.collocationThreshold;
        fleet.jobs = config_.jobs;
        auto cluster = std::make_unique<NpuCluster>(fleet);
        std::vector<std::string> distinct;
        for (const ServeTenant &t : tenants_) {
            if (std::find(distinct.begin(), distinct.end(),
                          t.model) == distinct.end())
                distinct.push_back(t.model);
        }
        for (const std::string &model : distinct) {
            if (Status s = cluster->tryAddWorkload(model); !s)
                return s.error();
        }
        if (Status s = cluster->tryTrainAdvisor(
                config_.advisorProfileRequests);
            !s)
            return s.error();
        advisor_fleet_ = std::move(cluster);
    }

    // Pairwise predicted gain, cached per model pair.
    std::map<std::pair<std::string, std::string>, double> gains;
    auto gain_of = [&](const std::string &a, const std::string &b) {
        auto key = a <= b ? std::make_pair(a, b)
                          : std::make_pair(b, a);
        auto it = gains.find(key);
        if (it == gains.end())
            it = gains
                     .emplace(key, advisor_fleet_->predictedGain(
                                       key.first, key.second))
                     .first;
        return it->second;
    };

    struct Candidate
    {
        std::size_t a, b;
        double gain;
    };
    std::vector<Candidate> candidates;
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
        for (std::size_t j = i + 1; j < tenants_.size(); ++j) {
            const double g =
                gain_of(tenants_[i].model, tenants_[j].model);
            if (g >= config_.collocationThreshold)
                candidates.push_back(Candidate{i, j, g});
        }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate &x, const Candidate &y) {
                  if (x.gain != y.gain)
                      return x.gain > y.gain;
                  if (x.a != y.a)
                      return x.a < y.a;
                  return x.b < y.b;
              });

    ServePlacement placement;
    placement.tenantSpeed.assign(tenants_.size(), 1.0);
    std::vector<bool> paired(tenants_.size(), false);
    std::vector<std::vector<std::size_t>> groups;
    for (const Candidate &c : candidates) {
        if (paired[c.a] || paired[c.b])
            continue;
        paired[c.a] = paired[c.b] = true;
        groups.push_back({c.a, c.b});
        // The predicted STP gain becomes the pair's service speed
        // factor (capped at the two-tenant concurrency limit).
        const double speed = std::min(std::max(c.gain, 1.0), 2.0);
        placement.tenantSpeed[c.a] = speed;
        placement.tenantSpeed[c.b] = speed;
    }
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
        if (!paired[i])
            groups.push_back({i});
    }

    // Spill groups to the least-loaded core (offered erlangs,
    // adjusted for the pair speedup).
    placement.coreTenants.assign(config_.numCores, {});
    placement.tenantCore.assign(tenants_.size(), 0);
    std::vector<double> load(config_.numCores, 0.0);
    for (const auto &group : groups) {
        std::size_t best = 0;
        for (std::size_t c = 1; c < config_.numCores; ++c) {
            if (load[c] < load[best])
                best = c;
        }
        for (std::size_t idx : group) {
            placement.coreTenants[best].push_back(idx);
            placement.tenantCore[idx] = best;
            load[best] += tenants_[idx].arrival.rps *
                          (serviceUs(idx) * 1e-6) /
                          placement.tenantSpeed[idx];
        }
    }
    return placement;
}

Result<ServePlacement>
ClusterManager::place()
{
    if (Status s = checkConfig(); !s)
        return s.error();
    if (tenants_.empty())
        return parseError("serve: no tenants admitted", "", 0,
                          "tenants");

    if (config_.policy == PlacementPolicy::Advisor)
        return placeAdvisor();

    ServePlacement placement;
    placement.coreTenants.assign(config_.numCores, {});
    placement.tenantSpeed.assign(tenants_.size(), 1.0);
    placement.tenantCore.assign(tenants_.size(), 0);

    if (config_.policy == PlacementPolicy::RoundRobin) {
        for (std::size_t i = 0; i < tenants_.size(); ++i) {
            const std::size_t core = i % config_.numCores;
            placement.coreTenants[core].push_back(i);
            placement.tenantCore[i] = core;
        }
        return placement;
    }

    // LeastLoaded: heaviest tenants first onto the emptiest core.
    std::vector<std::size_t> order(tenants_.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::vector<double> erlangs(tenants_.size());
    for (std::size_t i = 0; i < tenants_.size(); ++i)
        erlangs[i] =
            tenants_[i].arrival.rps * (serviceUs(i) * 1e-6);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  if (erlangs[a] != erlangs[b])
                      return erlangs[a] > erlangs[b];
                  return a < b;
              });
    std::vector<double> load(config_.numCores, 0.0);
    for (std::size_t idx : order) {
        std::size_t best = 0;
        for (std::size_t c = 1; c < config_.numCores; ++c) {
            if (load[c] < load[best])
                best = c;
        }
        placement.coreTenants[best].push_back(idx);
        placement.tenantCore[idx] = best;
        load[best] += erlangs[idx];
    }
    // Keep each core's resident list in tenant order so the core
    // simulation is independent of the placement visit order.
    for (auto &residents : placement.coreTenants)
        std::sort(residents.begin(), residents.end());
    return placement;
}

std::size_t
ClusterManager::repairCore(
    std::size_t tenant, std::size_t current,
    const std::vector<std::vector<std::size_t>> &residents)
{
    // Re-pair a recovering tenant: prefer the advisor's best
    // predicted gain against a candidate core's residents (when the
    // advisor was trained), break ties toward the emptiest core,
    // then the lowest index. Never the isolation core it leaves.
    std::size_t best = current;
    double bestGain = -1.0;
    std::size_t bestCount = 0;
    for (std::size_t c = 0; c < residents.size(); ++c) {
        if (c == current)
            continue;
        double gain = 0.0;
        if (advisor_fleet_ != nullptr) {
            for (std::size_t other : residents[c]) {
                if (other == tenant)
                    continue;
                gain = std::max(
                    gain, advisor_fleet_->predictedGain(
                              tenants_[tenant].model,
                              tenants_[other].model));
            }
        }
        const std::size_t count = residents[c].size();
        if (best == current || gain > bestGain ||
            (gain == bestGain && count < bestCount)) {
            best = c;
            bestGain = gain;
            bestCount = count;
        }
    }
    return best;
}

Result<ServingReport>
ClusterManager::run()
{
    auto placement_or = place();
    if (!placement_or.ok())
        return placement_or.error();
    const ServePlacement placement = placement_or.take();
    const std::size_t n = tenants_.size();

    // Validate the resilience surface up front (defaults all pass).
    if (Status s = config_.admission.check(); !s)
        return s.error();
    if (Status s = config_.detector.check(); !s)
        return s.error();
    if (Status s = config_.ladder.check(); !s)
        return s.error();
    if (Status s = config_.churn.check(config_.durationSec); !s)
        return s.error();
    if (Status s = config_.antagonists.check(n,
                                             config_.durationSec);
        !s)
        return s.error();

    // Resolve churn tenant names and walk the plan's state machine:
    // a tenant whose first event is a join starts dormant; joins
    // require a dormant tenant, leaves/migrates an active one.
    struct PlannedChurn
    {
        ChurnEvent event;
        std::size_t tenant = 0;
        std::size_t epoch = 0; ///< boundary index on the epoch grid
    };
    std::vector<PlannedChurn> churn;
    std::vector<bool> startsInactive(n, false);
    {
        std::vector<bool> active(n, true);
        std::vector<bool> seen(n, false);
        for (const ChurnEvent &ev : config_.churn.events()) {
            std::size_t idx = n;
            for (std::size_t i = 0; i < n; ++i) {
                if (tenants_[i].name == ev.tenant) {
                    idx = i;
                    break;
                }
            }
            if (idx == n)
                return parseError("churn: unknown tenant", "", 0,
                                  ev.tenant);
            if (!seen[idx]) {
                seen[idx] = true;
                if (ev.action == ChurnAction::Join) {
                    startsInactive[idx] = true;
                    active[idx] = false;
                }
            }
            if (ev.action == ChurnAction::Join) {
                if (active[idx])
                    return parseError(
                        "churn: tenant already joined", "", 0,
                        ev.spec());
                active[idx] = true;
            } else {
                if (!active[idx])
                    return parseError(
                        "churn: tenant is not active", "", 0,
                        ev.spec());
                if (ev.action == ChurnAction::Leave)
                    active[idx] = false;
                if (ev.action == ChurnAction::Migrate &&
                    ev.core >= 0 &&
                    static_cast<std::size_t>(ev.core) >=
                        config_.numCores)
                    return parseError(
                        "churn: migrate core out of range", "", 0,
                        ev.spec());
            }
            churn.push_back(PlannedChurn{ev, idx, 0});
        }
    }

    // Control grid: one epoch per SLO-monitor bucket when any
    // resilience feature is live, else the classic single pass.
    const bool resilience = config_.resilienceActive();
    const std::size_t E = resilience ? SloMonitor::kBuckets : 1;
    const double epochSec =
        config_.durationSec / static_cast<double>(E);
    for (PlannedChurn &pc : churn) {
        const auto snapped = static_cast<std::size_t>(
            std::llround(pc.event.atSec / epochSec));
        pc.epoch = std::min(std::max<std::size_t>(snapped, 1),
                            E > 1 ? E - 1 : 1);
    }

    // Flood augmentation: antagonist flood profiles and
    // serve-granularity fault-plan flood sites thin each base
    // arrival with a per-tenant derived stream and add burst copies
    // at its time. Streams are generated lazily per flow, so the
    // one order-dependent case — a cap shared by every tenant, used
    // up in tenant-index order — gets each tenant's share from a
    // counting pre-pass.
    std::vector<FloodSource> floodSources;
    for (const AntagonistProfile &p :
         config_.antagonists.profiles()) {
        if (p.kind != AntagonistKind::Flood)
            continue;
        FloodSource src;
        src.prob = p.rate;
        src.burst =
            static_cast<std::uint64_t>(p.effectiveMagnitude());
        src.afterSec = p.afterSec;
        src.untilSec = p.untilSec;
        src.tenant = p.tenant;
        floodSources.push_back(src);
    }
    if (config_.faults != nullptr) {
        const double cyclesPerSec = config_.core.freqGHz * 1e9;
        for (const FaultSite &site : config_.faults->sites()) {
            // Cycle-level kinds have no serve-layer analogue.
            if (site.kind != FaultKind::TraceFlood)
                continue;
            FloodSource src;
            src.prob = site.rate;
            src.burst = static_cast<std::uint64_t>(
                site.effectiveMagnitude());
            src.afterSec =
                cyclesPerSec > 0.0
                    ? static_cast<double>(site.after) / cyclesPerSec
                    : 0.0;
            src.maxCount = site.maxCount;
            src.tenant = site.tenant;
            floodSources.push_back(src);
        }
    }
    auto arrivalProcess = [&](std::size_t i) {
        // Derived seeds make every stream a pure function of (run
        // seed, tenant index).
        return ArrivalProcess(tenants_[i].arrival,
                              Rng::deriveStream(config_.seed, i));
    };
    auto floodRng = [&](std::size_t i) {
        return Rng(Rng::deriveStream(config_.seed,
                                     kFloodStreamSalt + i));
    };
    const std::uint64_t kUncapped =
        std::numeric_limits<std::uint64_t>::max();
    // floodLeft[i][k]: hits of source k tenant i may still fire
    // (empty when no source applies to tenant i).
    std::vector<std::vector<std::uint64_t>> floodLeft(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (std::none_of(floodSources.begin(), floodSources.end(),
                         [&](const FloodSource &s) {
                             return s.appliesTo(i);
                         }))
            continue;
        for (const FloodSource &s : floodSources)
            floodLeft[i].push_back(s.globalCap()   ? 0 // pre-pass
                                   : s.maxCount > 0 ? s.maxCount
                                                    : kUncapped);
    }
    std::vector<std::uint64_t> capLeft(floodSources.size(), 0);
    for (std::size_t k = 0; k < floodSources.size(); ++k) {
        if (floodSources[k].globalCap())
            capLeft[k] = floodSources[k].maxCount;
    }
    auto capsLeft = [&] {
        return std::any_of(capLeft.begin(), capLeft.end(),
                           [](std::uint64_t c) { return c > 0; });
    };
    for (std::size_t i = 0; i < n && capsLeft(); ++i) {
        // Count tenant i's hits on each shared cap over its whole
        // stream (stopping once every cap is covered); its share is
        // the first min(hits, left) of them.
        std::vector<std::uint64_t> hits(floodSources.size(), 0);
        auto covered = [&] {
            for (std::size_t k = 0; k < capLeft.size(); ++k) {
                if (hits[k] < capLeft[k])
                    return false;
            }
            return true;
        };
        ArrivalProcess process = arrivalProcess(i);
        Rng frng = floodRng(i);
        for (double t = process.next();
             t < config_.durationSec && !covered(); t = process.next())
            drawFloods(floodSources, i, t, frng,
                       [&](std::size_t k) { ++hits[k]; });
        for (std::size_t k = 0; k < capLeft.size(); ++k) {
            if (!floodSources[k].globalCap())
                continue;
            const std::uint64_t share = std::min(hits[k], capLeft[k]);
            floodLeft[i][k] = share;
            capLeft[k] -= share;
        }
    }

    // Resolve service means up front (cache fills are not
    // thread-safe, and the fan-out workers read them).
    for (std::size_t i = 0; i < n; ++i)
        (void)serviceUs(i);

    // Static antagonist context, admission gate, attribution
    // collector (external when attached), quarantine controller.
    std::vector<TenantStatic> statics(n);
    for (const AntagonistProfile &p :
         config_.antagonists.profiles()) {
        if (p.kind == AntagonistKind::HbmHog)
            statics[static_cast<std::size_t>(p.tenant)]
                .hogs.push_back(p);
        else if (p.kind == AntagonistKind::Thrash)
            statics[static_cast<std::size_t>(p.tenant)]
                .thrash.push_back(p);
    }

    AdmissionGate gate(n, config_.admission);
    for (std::size_t i = 0; i < n; ++i)
        gate.configure(i, tenants_[i].arrival.rps);

    AttributionCollector internalAttrib;
    AttributionCollector *attrib =
        attribution_ != nullptr ? attribution_ : &internalAttrib;
    const bool needCharges = resilience || attribution_ != nullptr;
    if (needCharges) {
        for (std::size_t i = 0; i < n; ++i) {
            // The detector reads chargedUs() by dense index, so the
            // collector must be fresh (dense index == serve index).
            const std::size_t dense = attrib->addTenant(
                static_cast<WorkloadId>(i), tenants_[i].name);
            if (dense != i)
                return parseError(
                    "serve: attribution collector already holds "
                    "tenants; attach a fresh one",
                    "", 0, tenants_[i].name);
        }
    }

    QuarantineController controller(n, config_.detector,
                                    config_.ladder);

    // Persistent per-core simulations seeded from the placement.
    // Completions fold into the flows' totals and these rows as they
    // happen; split[t] marks a tenant whose completions this epoch
    // are buffered instead (set at each epoch start).
    SloMonitor monitor(n, config_.durationSec, config_.sloPolicy);
    std::vector<char> split(n, 0);
    const std::uint64_t spanSampleN =
        tracer_ != nullptr ? tracer_->sampler().n : 0;
    std::vector<CoreSim> sims(config_.numCores);
    std::vector<std::size_t> tenantCore = placement.tenantCore;
    for (std::size_t c = 0; c < config_.numCores; ++c) {
        CoreSim &sim = sims[c];
        sim.index = c;
        sim.rng = Rng(
            Rng::deriveStream(config_.seed, kCoreStreamSalt + c));
        sim.traceSeed = config_.seed;
        sim.spanSampleN = spanSampleN;
        sim.spanSampler = TraceSampler{spanSampleN};
        sim.dist = config_.serviceDist;
        sim.cv = config_.serviceCv;
        sim.queueCapacity = config_.queueCapacity;
        sim.durationSec = config_.durationSec;
        sim.sampleTicks = config_.queueSampleTicks;
        sim.tickSec =
            config_.queueSampleTicks > 0
                ? config_.durationSec /
                      static_cast<double>(config_.queueSampleTicks)
                : 0.0;
        sim.monitor = &monitor;
        sim.attrib = needCharges ? attrib : nullptr;
        sim.split = &split;
        sim.endSec = config_.durationSec;
        sim.flows.reserve(placement.coreTenants[c].size());
        for (std::size_t idx : placement.coreTenants[c]) {
            TenantFlow f(arrivalProcess(idx));
            f.tenant = static_cast<std::uint32_t>(idx);
            if (!floodLeft[idx].empty()) {
                f.floods = &floodSources;
                f.floodLeft = std::move(floodLeft[idx]);
                f.floodRng = floodRng(idx);
            }
            f.advance(config_.durationSec);
            f.soloMeanSec = serviceUs(idx) * 1e-6;
            f.serviceMeanSec =
                f.soloMeanSec / placement.tenantSpeed[idx];
            f.weight = tenants_[idx].slo.weight;
            f.sloTargetUs = tenants_[idx].slo.latencyTargetUs;
            f.bucket = gate.bucket(idx);
            f.stat = &statics[idx];
            f.active = !startsInactive[idx];
            sim.adopt(std::move(f));
        }
    }

    // Churn/quarantine bookkeeping surfaced in the report.
    std::vector<char> activeNow(n, 1);
    for (std::size_t i = 0; i < n; ++i)
        activeNow[i] = startsInactive[i] ? 0 : 1;
    std::vector<double> joinSecV(n, 0.0);
    std::vector<double> leaveSecV(n, 0.0);
    std::vector<std::uint64_t> migrationsV(n, 0);

    // Hand one tenant's flow (waiting queue included) to another
    // core at an epoch boundary; the in-flight request, if any,
    // finishes on the source core from captured parameters.
    auto migrateFlow = [&](std::size_t t, std::size_t dest,
                           double now) {
        const std::size_t src = tenantCore[t];
        if (dest == src)
            return;
        CoreSim &s = sims[src];
        CoreSim &d = sims[dest];
        TenantFlow f = s.release(t);
        s.waiting -= f.queued();
        d.waiting += f.queued();
        d.depthPeak = std::max(d.depthPeak,
                               static_cast<double>(d.waiting));
        f.vtime = 0.0; // SCFQ state is per-core: rejoin at vclock
        const bool hasWork = f.queued() > 0;
        d.adopt(std::move(f));
        tenantCore[t] = dest;
        if (hasWork)
            d.kickIdle(now); // idle server must notice the handoff
    };

    // Dedicated core for an isolated antagonist: the emptiest other
    // core (ties to the lowest index); stay if already alone.
    auto isolationCore = [&](std::size_t t) {
        const std::size_t cur = tenantCore[t];
        if (sims[cur].flows.size() <= 1)
            return cur;
        std::size_t best = cur;
        std::size_t bestCount =
            std::numeric_limits<std::size_t>::max();
        for (std::size_t c = 0; c < config_.numCores; ++c) {
            if (c == cur)
                continue;
            if (sims[c].flows.size() < bestCount) {
                best = c;
                bestCount = sims[c].flows.size();
            }
        }
        return best;
    };

    auto residentLists = [&]() {
        std::vector<std::vector<std::size_t>> lists(
            config_.numCores);
        for (std::size_t c = 0; c < config_.numCores; ++c) {
            for (const TenantFlow &f : sims[c].flows)
                lists[c].push_back(f.tenant);
        }
        return lists;
    };

    std::vector<double> prevCharged(n, 0.0);

    ServingReport report;
    std::size_t churnCursor = 0;
    ParallelExecutor exec(config_.jobs);

    for (std::size_t e = 0; e < E; ++e) {
        const bool isFinal = e + 1 == E;
        const double epochEnd =
            isFinal ? config_.durationSec
                    : static_cast<double>(e + 1) * epochSec;

        // A tenant whose in-flight request a migration left on its
        // old core is split: two cores may complete its requests
        // this epoch, so those completions are buffered.
        std::vector<std::size_t> splitTenants;
        for (std::size_t c = 0; c < config_.numCores; ++c) {
            const CoreSim &sim = sims[c];
            if (sim.busy && tenantCore[sim.servedTenant] != c &&
                split[sim.servedTenant] == 0) {
                split[sim.servedTenant] = 1;
                splitTenants.push_back(sim.servedTenant);
            }
        }

        // Independent per-core epoch simulations; each worker only
        // touches its own CoreSim, its residents' token buckets, and
        // its residents' SloMonitor and attribution rows.
        exec.forEach(config_.numCores, [&](std::size_t c) {
            sims[c].runEpoch(epochEnd, isFinal);
        });

        // Split tenants fold serially in core-index order: the same
        // accumulation order (and FP results) for any --jobs value.
        for (CoreSim &sim : sims) {
            for (const CompletionRec &r : sim.splitCompletions) {
                sims[tenantCore[r.tenant]].flow(r.tenant).accum.add(r);
                monitor.addBucket(r.tenant,
                                  monitor.bucketIndex(r.endSec), 1,
                                  r.violated ? 1 : 0);
            }
            sim.splitCompletions.clear();
        }
        for (std::size_t t : splitTenants)
            split[t] = 0;
        if (isFinal)
            break;

        // --- serial control step at the boundary ------------------
        const double boundary = epochEnd;

        // 1) Churn events snapped to this boundary, in plan order.
        while (churnCursor < churn.size() &&
               churn[churnCursor].epoch == e + 1) {
            const PlannedChurn &pc = churn[churnCursor++];
            const std::size_t t = pc.tenant;
            const std::size_t cur = tenantCore[t];
            ChurnRecord rec;
            rec.timeSec = boundary;
            rec.action = churnActionName(pc.event.action);
            rec.tenant = tenants_[t].name;
            rec.fromCore = cur;
            rec.toCore = cur;
            switch (pc.event.action) {
              case ChurnAction::Join: {
                TenantFlow &f = sims[cur].flow(t);
                f.active = true;
                // Arrivals before the join never happened: skip
                // them un-counted (their seqs stay used).
                while (f.nextSec < boundary)
                    (void)f.take(config_.durationSec);
                activeNow[t] = 1;
                joinSecV[t] = boundary;
                leaveSecV[t] = 0.0;
                break;
              }
              case ChurnAction::Leave: {
                TenantFlow &f = sims[cur].flow(t);
                f.active = false; // queue drains gracefully
                activeNow[t] = 0;
                leaveSecV[t] = boundary;
                break;
              }
              case ChurnAction::Migrate: {
                std::size_t dest;
                if (pc.event.core >= 0) {
                    dest =
                        static_cast<std::size_t>(pc.event.core);
                } else {
                    // Least-loaded: fewest resident flows, ties to
                    // the lowest index, never the source core.
                    dest = cur;
                    std::size_t bestCount =
                        std::numeric_limits<std::size_t>::max();
                    for (std::size_t c = 0; c < config_.numCores;
                         ++c) {
                        if (c == cur)
                            continue;
                        if (sims[c].flows.size() < bestCount) {
                            dest = c;
                            bestCount = sims[c].flows.size();
                        }
                    }
                }
                rec.toCore = dest;
                ++migrationsV[t];
                migrateFlow(t, dest, boundary);
                break;
              }
            }
            report.churnEvents.push_back(std::move(rec));
        }

        // 2) AIMD admission adaptation from the online burn-rate
        //    signal (SLO monitor data through this epoch).
        if (gate.enabled()) {
            for (std::size_t t = 0; t < n; ++t) {
                if (!activeNow[t] ||
                    controller.stage(t) ==
                        QuarantineStage::Evicted)
                    continue;
                const BurnRateStatus st =
                    monitor.statusAt(t, boundary);
                const AdmissionGate::Change change =
                    gate.adapt(t, st.alert);
                if (change == AdmissionGate::Change::Held)
                    continue;
                AdmissionRecord rec;
                rec.timeSec = boundary;
                rec.epoch = e + 1;
                rec.tenant = tenants_[t].name;
                rec.action =
                    change == AdmissionGate::Change::Decreased
                        ? "decrease"
                        : "recover";
                rec.rateRps = gate.rateRps(t);
                report.admissionEvents.push_back(std::move(rec));
            }
        }

        // 3) Antagonist detection and the quarantine ladder: the
        //    epoch perpetrator score is the queue-wait the tenant
        //    inflicted this epoch per microsecond of epoch (mean
        //    co-runner requests stalled behind it).
        if (needCharges) {
            const double epochUs = epochSec * 1e6;
            for (std::size_t t = 0; t < n; ++t) {
                const double total = attrib->chargedUs(t);
                const double score =
                    (total - prevCharged[t]) / epochUs;
                prevCharged[t] = total;
                QuarantineController::Transition tr;
                if (!controller.observe(t, score, &tr))
                    continue;
                QuarantineRecord rec;
                rec.timeSec = boundary;
                rec.epoch = e + 1;
                rec.tenant = tenants_[t].name;
                rec.from = quarantineStageName(tr.from);
                rec.to = quarantineStageName(tr.to);
                rec.strikes = tr.strikes;
                rec.score = tr.score;
                report.quarantineEvents.push_back(std::move(rec));
                auto refreshBucket = [&] {
                    sims[tenantCore[t]].flow(t).bucket =
                        gate.bucket(t);
                };
                switch (tr.to) {
                  case QuarantineStage::Throttled:
                    if (tr.from == QuarantineStage::Isolated) {
                        // De-escalation: keep the throttle, re-pair
                        // with the best-matched survivors.
                        migrateFlow(t,
                                    repairCore(t, tenantCore[t],
                                               residentLists()),
                                    boundary);
                    } else {
                        gate.throttle(
                            t, config_.ladder.throttleFactor);
                        refreshBucket();
                    }
                    break;
                  case QuarantineStage::Isolated:
                    migrateFlow(t, isolationCore(t), boundary);
                    break;
                  case QuarantineStage::Evicted: {
                    gate.block(t);
                    refreshBucket();
                    CoreSim &host = sims[tenantCore[t]];
                    TenantFlow &f = host.flow(t);
                    f.active = false;
                    activeNow[t] = 0;
                    const std::size_t dropped = f.queued();
                    f.accum.shed += dropped; // queue dropped
                    host.waiting -= dropped;
                    f.queue.clear();
                    break;
                  }
                  case QuarantineStage::Healthy:
                    gate.release(t);
                    refreshBucket();
                    break;
                }
            }
        }
    }

    report.policy = placementPolicyName(config_.policy);
    report.durationSec = config_.durationSec;
    report.cores = config_.numCores;
    report.controlEpochs = E;
    report.admissionEnabled = gate.enabled();
    report.tenants.resize(n);

    double util_sum = 0.0;
    for (std::size_t c = 0; c < config_.numCores; ++c) {
        const CoreSim &sim = sims[c];
        CoreServingStats core;
        core.index = c;
        core.served = sim.served;
        core.busySec = sim.busySec;
        core.util =
            sim.endSec > 0.0 ? sim.busySec / sim.endSec : 0.0;
        const double horizon =
            std::max(sim.endSec, config_.durationSec);
        if (horizon > 0.0) {
            core.queueDepthMean = sim.depthArea / horizon;
            core.inFlightMean = sim.busyArea / horizon;
        }
        core.queueDepthPeak = sim.depthPeak;
        for (const TenantFlow &f : sim.flows) {
            core.tenants.push_back(tenants_[f.tenant].name);
            core.speedFactor = placement.tenantSpeed[f.tenant];
        }
        if (!sim.flows.empty()) {
            ++report.coresUsed;
            util_sum += core.util;
        }
        report.coreStats.push_back(std::move(core));
    }

    for (std::size_t i = 0; i < n; ++i) {
        const ServeTenant &t = tenants_[i];
        const TenantFlow &f = sims[tenantCore[i]].flow(i);
        const TenantAccum &a = f.accum;
        TenantServingStats &ts = report.tenants[i];
        ts.name = t.name;
        ts.model = t.model;
        ts.core = tenantCore[i];
        ts.offered = a.offered;
        ts.completed = a.completed;
        ts.shed = a.shed;
        ts.rejected = a.rejected;
        ts.inFlightAtEnd = f.queued();
        ts.sloViolations = a.violations;
        ts.sloTargetUs = t.slo.latencyTargetUs;
        ts.weight = t.slo.weight;
        ts.offeredRps = static_cast<double>(ts.offered) /
                        config_.durationSec;
        ts.goodputRps =
            static_cast<double>(ts.completed - ts.sloViolations) /
            config_.durationSec;
        ts.meanUs = a.latencyUs.mean();
        ts.p50Us = a.latencyUs.percentile(50.0);
        ts.p99Us = a.latencyUs.percentile(99.0);
        ts.p999Us = a.latencyUs.percentile(99.9);
        ts.maxUs = a.latencyUs.max();
        ts.attribQueueUs = a.queueUs;
        ts.attribServiceUs = a.serviceUs;
        ts.attribSoloUs = a.soloUs;
        ts.attribInflationUs = a.serviceUs - a.soloUs;
        ts.attribSojournUs = a.queueUs + a.serviceUs;
        if (gate.enabled() ||
            controller.stage(i) != QuarantineStage::Healthy) {
            ts.admitRpsBase = gate.baseRps(i);
            ts.admitRpsFinal = gate.rateRps(i);
            ts.admitDecreases = gate.decreases(i);
            ts.admitIncreases = gate.increases(i);
        }
        ts.quarantineStage =
            quarantineStageName(controller.stage(i));
        ts.strikes = controller.strikes(i);
        ts.peakAntagonistScore = controller.peakScore(i);
        ts.joinSec = joinSecV[i];
        ts.leaveSec = leaveSecV[i];
        ts.migrations = migrationsV[i];
    }

    for (std::size_t i = 0; i < n; ++i) {
        const BurnRateStatus burn = monitor.status(i);
        report.tenants[i].burnShort = burn.shortBurn;
        report.tenants[i].burnLong = burn.longBurn;
        report.tenants[i].sloAlert = burn.alert;
        if (burn.alert)
            ++report.sloAlerts;
    }
    for (const TenantServingStats &ts : report.tenants) {
        report.offered += ts.offered;
        report.completed += ts.completed;
        report.shed += ts.shed;
        report.rejected += ts.rejected;
        report.inFlightAtEnd += ts.inFlightAtEnd;
        report.sloViolations += ts.sloViolations;
        report.goodputRps += ts.goodputRps;
    }
    report.meanCoreUtil =
        report.coresUsed > 0
            ? util_sum / static_cast<double>(report.coresUsed)
            : 0.0;
    // Conservation self-check: a leaked shed/reject path is a bug,
    // surfaced as a structured error rather than silent drift.
    if (Status s = report.checkConservation(); !s)
        return s.error();

    if (tracer_ != nullptr) {
        // Merge per-core span lists into one deterministic total
        // order: (arrival, tenant, seq) — identical for any jobs
        // value because the per-core lists themselves are.
        std::vector<RequestSpan> merged;
        for (const CoreSim &sim : sims) {
            for (const RequestSpan &s : sim.spans) {
                RequestSpan span = s;
                span.tenant = tenants_[span.ctx.tenant].name;
                merged.push_back(std::move(span));
            }
        }
        std::sort(merged.begin(), merged.end(),
                  [](const RequestSpan &a, const RequestSpan &b) {
                      if (a.arrivalUs != b.arrivalUs)
                          return a.arrivalUs < b.arrivalUs;
                      if (a.ctx.tenant != b.ctx.tenant)
                          return a.ctx.tenant < b.ctx.tenant;
                      return a.ctx.seq < b.ctx.seq;
                  });
        for (RequestSpan &span : merged)
            tracer_->add(std::move(span));
    }

    if (sampler_ != nullptr && config_.queueSampleTicks > 0) {
        // Per-core occupancy series as sampler columns, one row per
        // tick; cycle timestamps come from the core clock so the
        // Chrome counter tracks line up with the rest of the trace.
        for (std::size_t c = 0; c < config_.numCores; ++c) {
            const std::string prefix =
                "core" + std::to_string(c);
            sampler_->addManualColumn(prefix + ".queue_depth");
            sampler_->addManualColumn(prefix + ".in_flight");
        }
        const double cyclesPerSec = config_.core.freqGHz * 1e9;
        const double tickSec =
            config_.durationSec /
            static_cast<double>(config_.queueSampleTicks);
        std::vector<double> row(config_.numCores * 2, 0.0);
        for (std::size_t k = 0; k < config_.queueSampleTicks; ++k) {
            for (std::size_t c = 0; c < config_.numCores; ++c) {
                const CoreSim &sim = sims[c];
                row[c * 2] = k < sim.depthSamples.size()
                                 ? sim.depthSamples[k]
                                 : 0.0;
                row[c * 2 + 1] = k < sim.inflightSamples.size()
                                     ? sim.inflightSamples[k]
                                     : 0.0;
            }
            const auto cycle = static_cast<Cycles>(
                static_cast<double>(k + 1) * tickSec *
                cyclesPerSec);
            sampler_->appendRow(cycle, row);
        }
    }

    if (stats_ != nullptr)
        registerServingStats(*stats_, report);
    return report;
}

} // namespace v10
