/**
 * @file
 * Golden scheduling-sequence regression tests: a small fixed
 * scenario must produce exactly the same dispatch sequence on every
 * build. Guards the determinism contract and catches accidental
 * changes to dispatch/preemption ordering that aggregate statistics
 * might mask.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "metrics/timeline.h"
#include "npu/npu_core.h"
#include "sched/op_scheduler.h"
#include "sched/scheduler_factory.h"
#include "sim/fault_plan.h"
#include "sim/simulator.h"
#include "v10/experiment.h"
#include "workload/model_zoo.h"
#include "workload/trace_io.h"
#include "workload/workload.h"

namespace v10 {
namespace {

TensorOperator
makeOp(OpId id, OpKind kind, Cycles cycles)
{
    TensorOperator op;
    op.id = id;
    op.kind = kind;
    op.name = std::string(kind == OpKind::SA ? "S" : "V") +
              std::to_string(id);
    op.computeCycles = cycles;
    op.saRows = kind == OpKind::SA ? cycles - 384 : 0;
    op.vuElements = kind == OpKind::VU ? cycles * 1024 : 0;
    op.flops = 1.0;
    op.dmaBytes = 512;
    op.workingSetBytes = 512;
    if (id > 0)
        op.deps = {static_cast<std::uint32_t>(id - 1)};
    return op;
}

Workload
tinyWorkload(const char *model, std::vector<TensorOperator> ops)
{
    RequestTrace trace;
    trace.ops = std::move(ops);
    for (const auto &op : trace.ops) {
        if (op.kind == OpKind::SA)
            trace.saCycles += op.computeCycles;
        else
            trace.vuCycles += op.computeCycles;
        trace.totalFlops += op.flops;
        trace.totalDmaBytes += op.dmaBytes;
    }
    return Workload(findModel(model), 32, std::move(trace));
}

/** Record the FU/tenant/op dispatch order via the timeline. */
std::string
dispatchSequence(OperatorScheduler::Variant variant)
{
    const NpuConfig cfg;
    const Workload a =
        tinyWorkload("BERT", {makeOp(0, OpKind::SA, 50000),
                              makeOp(1, OpKind::VU, 4000)});
    const Workload b =
        tinyWorkload("DLRM", {makeOp(0, OpKind::SA, 2000),
                              makeOp(1, OpKind::VU, 20000)});

    Simulator sim;
    NpuCore core(sim, cfg, 2,
                 variant == OperatorScheduler::Variant::Full);
    TimelineTracer timeline(cfg.freqGHz * 1e3);
    OperatorScheduler sched(
        sim, core, {TenantSpec{&a, 1.0}, TenantSpec{&b, 1.0}},
        variant);
    sched.setTimeline(&timeline);
    sched.run(2, 0);

    // The first dozen slices pin the dispatch order exactly.
    std::ostringstream os;
    const auto labels = timeline.sliceLabels();
    for (std::size_t i = 0; i < labels.size() && i < 12; ++i)
        os << labels[i] << '\n';
    os << "total=" << timeline.sliceCount()
       << " preempts=" << timeline.preemptionCount();
    return os.str();
}

TEST(GoldenSchedule, SequenceIsStableAcrossRuns)
{
    // Literal expectations, so the sequence is pinned across builds
    // and engine changes, not only across two runs of one binary.
    EXPECT_EQ(dispatchSequence(OperatorScheduler::Variant::Base),
              "sa0:BERT@32:S0@3\n"
              "sa0:DLRM@32:S0@50003\n"
              "vu0:BERT@32:V1@50003\n"
              "sa0:BERT@32:S0@54003\n"
              "vu0:DLRM@32:V1@54003\n"
              "sa0:DLRM@32:S0@104003\n"
              "vu0:BERT@32:V1@104003\n"
              "sa0:BERT@32:S0@108003!\n"
              "vu0:DLRM@32:V1@108003\n"
              "total=9 preempts=1");
    EXPECT_EQ(dispatchSequence(OperatorScheduler::Variant::Full),
              "sa0:BERT@32:S0@3!\n"
              "sa0:DLRM@32:S0@32768\n"
              "sa0:BERT@32:S0@35152\n"
              "vu0:DLRM@32:V1@35152\n"
              "sa0:DLRM@32:S0@55152\n"
              "vu0:BERT@32:V1@55152\n"
              "sa0:BERT@32:S0@59152!\n"
              "vu0:DLRM@32:V1@59152\n"
              "sa0:DLRM@32:S0@98304\n"
              "sa0:BERT@32:S0@100688\n"
              "vu0:DLRM@32:V1@100688\n"
              "sa0:DLRM@32:S0@120688\n"
              "total=15 preempts=4");
}

/**
 * One MNST+NCF pair under @p kind with a fixed runaway fault plan,
 * reduced to integers only: events fired, final cycle, preemptions,
 * and per-tenant completed requests and SA/VU busy cycles. Any
 * change to the engine's (cycle, insertion) event order moves these.
 */
std::string
faultedPairDigest(SchedulerKind kind)
{
    const Result<FaultPlan> plan =
        FaultPlan::parse("runaway:rate=0.1:mag=4");
    if (!plan.ok())
        return "bad plan";
    ExperimentRunner runner{NpuConfig{}};
    std::vector<TenantSpec> specs;
    for (const char *model : {"MNST", "NCF"})
        specs.push_back(TenantSpec{
            &runner.workload(model, runner.resolveBatch(model, 0)),
            1.0});

    SchedulerOptions options;
    options.resilience.faults = &plan.value();
    options.resilience.faultSeed = 7;
    Simulator sim;
    NpuCore core(sim, runner.config(), 2, reservesSaContexts(kind));
    auto sched = makeScheduler(kind, sim, core, std::move(specs),
                               options);
    sched->setResilience(options.resilience);
    const RunStats stats = sched->run(4, 1);

    std::uint64_t preemptions = 0;
    std::ostringstream os;
    os << "events=" << sim.eventsRun() << " now=" << sim.now();
    for (const WorkloadRunStats &w : stats.workloads) {
        preemptions += w.preemptions;
        os << " | req=" << w.requests << " sa=" << w.saComputeCycles
           << " vu=" << w.vuComputeCycles;
    }
    os << " | preempts=" << preemptions
       << " faults=" << stats.faultsInjected;
    return os.str();
}

TEST(GoldenSchedule, FaultedPairPmt)
{
    EXPECT_EQ(faultedPairDigest(SchedulerKind::Pmt),
              "events=2635 now=33645981"
              " | req=7 sa=6809333 vu=5048253"
              " | req=4 sa=2408000 vu=9302130"
              " | preempts=24 faults=87");
}

TEST(GoldenSchedule, FaultedPairV10Base)
{
    EXPECT_EQ(faultedPairDigest(SchedulerKind::V10Base),
              "events=2681 now=26659392"
              " | req=11 sa=10760554 vu=7857945"
              " | req=4 sa=2408000 vu=9571302"
              " | preempts=0 faults=93");
}

TEST(GoldenSchedule, FaultedPairV10Fair)
{
    EXPECT_EQ(faultedPairDigest(SchedulerKind::V10Fair),
              "events=2681 now=26659392"
              " | req=11 sa=10760554 vu=7857945"
              " | req=4 sa=2408000 vu=9571302"
              " | preempts=0 faults=93");
}

TEST(GoldenSchedule, FaultedPairV10Full)
{
    EXPECT_EQ(faultedPairDigest(SchedulerKind::V10Full),
              "events=3350 now=25599209"
              " | req=8 sa=7341207 vu=6174162"
              " | req=4 sa=4214000 vu=9314145"
              " | preempts=311 faults=87");
}

TEST(GoldenSchedule, FaultedPairPrema)
{
    EXPECT_EQ(faultedPairDigest(SchedulerKind::Prema),
              "events=2761 now=36003820"
              " | req=8 sa=8341818 vu=5314676"
              " | req=4 sa=3476171 vu=9134157"
              " | preempts=14 faults=87");
}

TEST(GoldenSchedule, VariantsProduceDistinctSchedules)
{
    const std::string base =
        dispatchSequence(OperatorScheduler::Variant::Base);
    const std::string full =
        dispatchSequence(OperatorScheduler::Variant::Full);
    // Preemption slices the long SA operator: more, shorter slices.
    EXPECT_NE(base, full);
}

TEST(GoldenSchedule, FairDivergesFromBaseUnderSkewedPriorities)
{
    // Without preemption, the policy only arbitrates when both
    // tenants' SA operators are simultaneously ready; skewed
    // priorities must tilt Algorithm 1's choice where round-robin
    // alternates.
    const NpuConfig cfg;
    const Workload a =
        tinyWorkload("BERT", {makeOp(0, OpKind::SA, 30000),
                              makeOp(1, OpKind::SA, 30000)});
    const Workload b =
        tinyWorkload("NCF", {makeOp(0, OpKind::SA, 30000),
                             makeOp(1, OpKind::SA, 30000)});
    auto share_of_a = [&](OperatorScheduler::Variant variant) {
        Simulator sim;
        NpuCore core(sim, cfg, 2, false);
        OperatorScheduler sched(
            sim, core,
            {TenantSpec{&a, 0.9}, TenantSpec{&b, 0.1}}, variant);
        const RunStats stats = sched.run(6, 1);
        const double t0 = static_cast<double>(
            stats.workloads[0].saComputeCycles);
        const double t1 = static_cast<double>(
            stats.workloads[1].saComputeCycles);
        return t0 / (t0 + t1);
    };
    const double fair =
        share_of_a(OperatorScheduler::Variant::Fair);
    const double base =
        share_of_a(OperatorScheduler::Variant::Base);
    // RR ignores priorities (~0.5); Algorithm 1 honors them.
    EXPECT_NEAR(base, 0.5, 0.12);
    EXPECT_GT(fair, base + 0.1);
}

} // namespace
} // namespace v10
