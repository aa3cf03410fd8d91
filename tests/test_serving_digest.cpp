/**
 * @file
 * Literal golden digests of the serving documents. Each scenario's
 * full --stats-json document (writeServingDocumentJson) and its
 * request-span JSONL are hashed with 64-bit FNV-1a and compared to a
 * recorded constant, serially and at --jobs 4. A change to the serve
 * loop that keeps these digests keeps every byte of the output.
 *
 * Scenarios:
 *  - a one-epoch fleet run (no resilience feature: the classic
 *    single pass);
 *  - the CI chaos configuration (admission, churn, an hbm-hog, a
 *    flood fault, the quarantine ladder: 64 control epochs);
 *  - a tenant that migrates while its request is in service at the
 *    boundary, so two cores complete its requests in one epoch.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "metrics/stat_registry.h"
#include "serve/cluster_manager.h"
#include "serve/serving_report.h"
#include "sim/fault_plan.h"
#include "trace/attribution.h"
#include "trace/request_tracer.h"
#include "workload/model_zoo.h"

namespace v10 {
namespace {

std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/** Both documents of one run, as digests. */
struct Digests
{
    std::uint64_t document = 0;
    std::uint64_t spans = 0;
};

/** The CLI's `serve --tenants 100 --cores 32 --duration 2 --util 0.7
 * --arrivals mixed --slo 25x:1,50x:2 --service-us 400 --seed 11`
 * fleet: tenants cycle through the zoo. */
ServeConfig
fleetConfig()
{
    ServeConfig cfg;
    cfg.numCores = 32;
    cfg.durationSec = 2.0;
    cfg.seed = 11;
    return cfg;
}

void
addFleetTenants(ClusterManager &manager)
{
    const std::size_t n = 100;
    const double service_us = 400.0;
    const double erlangs = 0.7 * 32.0 / static_cast<double>(n);
    const SloTier tiers[2] = {SloTier{true, 25.0, 1.0},
                              SloTier{true, 50.0, 2.0}};
    for (std::size_t i = 0; i < n; ++i) {
        ServeTenant t;
        t.model = modelZoo()[i % modelZoo().size()].abbrev;
        t.name = t.model + "#" + std::to_string(i);
        t.serviceUsOverride = service_us;
        t.arrival.kind = static_cast<ArrivalKind>(i % 3);
        t.arrival.rps = erlangs / (service_us * 1e-6);
        t.slo.latencyTargetUs = tiers[i % 2].value * service_us;
        t.slo.weight = tiers[i % 2].weight;
        ASSERT_TRUE(manager.addTenant(std::move(t)));
    }
}

/** Run @p manager with a registry, attribution (when the resilience
 * loop is live) and a tracer sampling 1/@p sampleN, and digest the
 * stats document and the span JSONL as the CLI writes them. */
Digests
runAndDigest(ClusterManager &manager, std::uint64_t sampleN,
             const std::string &arrivals)
{
    StatRegistry registry;
    manager.setStats(&registry);
    AttributionCollector attribution;
    const bool resilience = manager.config().resilienceActive();
    if (resilience)
        manager.setAttribution(&attribution);
    RequestTracer tracer(sampleN);
    manager.setRequestTracer(&tracer);
    auto report = manager.run();
    EXPECT_TRUE(report.ok());
    if (!report.ok())
        return {};
    if (resilience)
        attribution.registerStats(registry);
    ServeManifest manifest;
    manifest.policy = placementPolicyName(manager.config().policy);
    manifest.arrivals = arrivals;
    manifest.cores = manager.config().numCores;
    manifest.tenants = manager.tenantCount();
    manifest.durationSec = manager.config().durationSec;
    manifest.seed = manager.config().seed;
    std::ostringstream doc;
    writeServingDocumentJson(doc, manifest, report.value(), &registry);
    std::ostringstream spans;
    tracer.writeJsonl(spans);
    return Digests{fnv1a(doc.str()), fnv1a(spans.str())};
}

Digests
fleetDigests(std::size_t jobs)
{
    ServeConfig cfg = fleetConfig();
    cfg.jobs = jobs;
    ClusterManager manager(cfg);
    addFleetTenants(manager);
    return runAndDigest(manager, 1, "mixed");
}

/** The CI chaos smoke: the fleet plus churn, an hbm-hog, a flood
 * fault, admission and the detector/ladder knobs it passes. */
Digests
chaosDigests(std::size_t jobs)
{
    ServeConfig cfg = fleetConfig();
    cfg.jobs = jobs;
    cfg.admission.enabled = true;
    cfg.admission.headroom = 4.0;
    cfg.churn = ChurnPlan::parse(
                    "join:tenant=RNRS#40:at=0.5,"
                    "leave:tenant=RtNt#41:at=1.5,"
                    "migrate:tenant=SMask#42:at=1.0:core=23")
                    .take();
    cfg.antagonists =
        AntagonistPlan::parse(
            "hbm-hog:tenant=11:mag=3.5:after=0.6:until=0.8")
            .take();
    const FaultPlan faults =
        FaultPlan::parse("flood:rate=0.5:mag=3:tenant=30:count=4")
            .take();
    cfg.faults = &faults;
    cfg.detector.hiScore = 0.9;
    cfg.detector.loScore = 0.3;
    cfg.ladder.throttleStrikes = 1;
    cfg.ladder.isolateStrikes = 8;
    cfg.ladder.evictStrikes = 16;
    cfg.ladder.throttleFactor = 0.2;
    cfg.ladder.recoveryEpochs = 16;
    ClusterManager manager(cfg);
    addFleetTenants(manager);
    return runAndDigest(manager, 1, "mixed");
}

/**
 * Three tenants on three cores (round-robin: Ti on core i). T0 and
 * T1 are overloaded with a 15 ms deterministic service time and sit
 * alone on their cores, so each core is serving its tenant at every
 * 20 ms boundary. T0 migrates to core 2 at 0.4 s and T1 to core 0 at
 * 0.8 s: each time the old core finishes the in-flight request while
 * the new core serves the tenant's queue, both inside the next epoch
 * (once with the old core's index below the new one, once above).
 */
Digests
splitDigests(std::size_t jobs)
{
    ServeConfig cfg;
    cfg.numCores = 3;
    cfg.durationSec = 1.28; // 64 epochs of 20 ms
    cfg.seed = 5;
    cfg.queueCapacity = 8;
    cfg.policy = PlacementPolicy::RoundRobin;
    cfg.serviceDist = ServiceDist::Deterministic;
    cfg.jobs = jobs;
    cfg.churn = ChurnPlan::parse("migrate:tenant=BERT#0:at=0.4:core=2,"
                                 "migrate:tenant=BERT#1:at=0.8:core=0")
                    .take();
    ClusterManager manager(cfg);
    const double service_us[3] = {15000.0, 15000.0, 5000.0};
    const double rps[3] = {100.0, 100.0, 60.0};
    for (std::size_t i = 0; i < 3; ++i) {
        ServeTenant t;
        t.model = "BERT";
        t.name = "BERT#" + std::to_string(i);
        t.serviceUsOverride = service_us[i];
        t.arrival.rps = rps[i];
        t.slo.latencyTargetUs = 4.0 * service_us[i];
        EXPECT_TRUE(manager.addTenant(std::move(t)));
    }
    return runAndDigest(manager, 1, "poisson");
}

/** Golden digests; a mismatch means the serving output moved. */
constexpr std::uint64_t kFleetDocument = 0xa384a608fafe7325ull;
constexpr std::uint64_t kFleetSpans = 0x10f6fef73621a365ull;
constexpr std::uint64_t kChaosDocument = 0x85f161b46d040f7eull;
constexpr std::uint64_t kChaosSpans = 0x6d2883259d9c75d2ull;
constexpr std::uint64_t kSplitDocument = 0x905b8818f4bf959eull;
constexpr std::uint64_t kSplitSpans = 0xb7e05511b51e8e33ull;

void
expectDigests(Digests (*run)(std::size_t), std::uint64_t document,
              std::uint64_t spans)
{
    for (std::size_t jobs : {1u, 4u}) {
        const Digests d = run(jobs);
        EXPECT_EQ(d.document, document)
            << "jobs=" << jobs << " document 0x" << std::hex
            << d.document;
        EXPECT_EQ(d.spans, spans)
            << "jobs=" << jobs << " spans 0x" << std::hex << d.spans;
    }
}

TEST(ServingDigest, OneEpochFleet)
{
    expectDigests(fleetDigests, kFleetDocument, kFleetSpans);
}

TEST(ServingDigest, CiChaosConfiguration)
{
    expectDigests(chaosDigests, kChaosDocument, kChaosSpans);
}

TEST(ServingDigest, MigrationWithRequestInService)
{
    expectDigests(splitDigests, kSplitDocument, kSplitSpans);
}

} // namespace
} // namespace v10
