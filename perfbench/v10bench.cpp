/**
 * @file
 * End-to-end benchmark program. Runs one workload in this process,
 * single-threaded (jobs = 1), through the simulator's public API and
 * prints raw measurements as one JSON object on the last line of
 * stdout; run.py turns them into the benchmark's metrics.
 *
 *   v10bench --workload pair-grid|advise-zoo|serve-fleet|serve-chaos
 *            --seed N --seconds S --mode untraced|traced
 *            [--spans-out FILE]
 *
 * untraced: set the workload up repeatedly for one second untimed,
 *   then seven times timed (each from scratch), then repeat identical
 *   measured passes for S seconds.
 * traced:   set up once, then alternate untraced passes with traced
 *   passes for S seconds. A traced pass issues the same work through
 *   spans around each layer call (SpanRecorder) and must produce the
 *   same output digest as the untraced pass; the spans are written
 *   to --spans-out at the end.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "metrics/run_report.h"
#include "metrics/stat_registry.h"
#include "npu/npu_core.h"
#include "sched/scheduler_factory.h"
#include "serve/arrival.h"
#include "serve/cluster_manager.h"
#include "serve/serving_report.h"
#include "sim/fault_plan.h"
#include "sim/simulator.h"
#include "span_recorder.h"
#include "trace/attribution.h"
#include "trace/request_tracer.h"
#include "v10/collocation_advisor.h"
#include "v10/experiment.h"
#include "v10/features.h"
#include "v10/npu_cluster.h"
#include "v10/profiler.h"
#include "workload/model_zoo.h"

namespace v10bench {

using namespace v10;

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

long
peakRssKb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

/** FNV-1a 64 over everything a pass simulated. */
class Digest
{
  public:
    void
    add(const std::string &text)
    {
        for (unsigned char c : text) {
            h_ ^= c;
            h_ *= 1099511628211ull;
        }
    }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(h_));
        return buf;
    }

  private:
    std::uint64_t h_ = 1469598103934665603ull;
};

std::string
runStatsJson(const RunStats &stats)
{
    std::ostringstream os;
    JsonWriter w(os, 0);
    writeRunStatsJson(w, stats);
    return os.str();
}

/**
 * RunStats sanity: not aborted, one entry per tenant, SA/VU busy
 * within the window, 0 < STP <= tenants. Returns "" when it holds.
 */
std::string
checkRunStats(const RunStats &s, std::size_t tenants)
{
    if (s.aborted)
        return "run aborted: " + s.abortReason;
    if (s.workloads.size() != tenants)
        return "tenant count mismatch";
    if (s.windowCycles == 0)
        return "empty measurement window";
    Cycles sa = 0;
    Cycles vu = 0;
    for (const WorkloadRunStats &w : s.workloads) {
        sa += w.saComputeCycles;
        vu += w.vuComputeCycles;
    }
    if (sa > s.windowCycles || vu > s.windowCycles)
        return "busy cycles exceed the window";
    // A tenant alone on a core has progress rate/reference-rate, two
    // separately computed doubles of the same rate: allow rounding.
    const double stp = s.stp();
    if (!(stp > 0.0) ||
        stp > static_cast<double>(tenants) * (1.0 + 1e-12)) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", stp);
        return std::string("STP out of (0, tenants]: ") + buf;
    }
    return "";
}

/** What one measured pass produced. */
struct PassOutput
{
    std::uint64_t ops = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;
    Digest digest;
    /** Host ms per ExperimentRunner::run call (untraced passes). */
    std::vector<double> cellMs;
    /** Simulated (deterministic) results of the pass. */
    std::map<std::string, double> sim;

    /** Count one operation; @p error non-empty marks it failed. */
    void
    op(const std::string &error)
    {
        ++ops;
        if (!error.empty()) {
            ++failed;
            errors.push_back(error);
        }
    }
};

/** Engine-level simulated means/sums over a set of runs. */
void
addEngineSim(PassOutput &out, const std::vector<RunStats> &runs)
{
    double sa = 0.0, vu = 0.0, hbm = 0.0, overlap = 0.0;
    double preempts = 0.0, ctx = 0.0;
    for (const RunStats &r : runs) {
        sa += r.saUtil;
        vu += r.vuUtil;
        hbm += r.hbmUtil;
        overlap += r.overlapBothFrac;
        for (const WorkloadRunStats &w : r.workloads) {
            preempts += static_cast<double>(w.preemptions);
            ctx += static_cast<double>(w.overheadCycles);
        }
    }
    const double n = runs.empty() ? 1.0 : double(runs.size());
    out.sim["npu.sa_util"] = sa / n;
    out.sim["npu.vu_util"] = vu / n;
    out.sim["npu.hbm_util"] = hbm / n;
    out.sim["npu.overlap"] = overlap / n;
    out.sim["sched.preemptions"] = preempts;
    out.sim["sched.ctx_overhead_cycles"] = ctx;
}

/**
 * Counts the ExperimentRunner cache fills (its compute hook fires
 * once per workload compilation or single-tenant reference run).
 */
struct ComputeCounter
{
    std::uint64_t compiles = 0;
    std::uint64_t refs = 0;

    void
    attach(ExperimentRunner &runner)
    {
        runner.setComputeHook([this](const std::string &what) {
            if (what.rfind("wl:", 0) == 0)
                ++compiles;
            else
                ++refs;
        });
    }
};

/** runner.workload() in a span named by whether it compiled. */
const Workload &
tracedWorkload(ExperimentRunner &runner, ComputeCounter &cc,
               SpanRecorder &rec, const std::string &model, int batch)
{
    auto span = rec.open("workload.lookup");
    const std::uint64_t before = cc.compiles;
    const Workload &wl = runner.workload(model, batch);
    if (cc.compiles != before) {
        span.rename("workload.compile");
        rec.count("workload.compiles",
                  static_cast<double>(cc.compiles - before));
    }
    return wl;
}

/** runner.singleTenantRps() in a span named by whether it ran. */
double
tracedRef(ExperimentRunner &runner, ComputeCounter &cc,
          SpanRecorder &rec, const std::string &model, int batch)
{
    auto span = rec.open("v10.ref_lookup");
    const std::uint64_t before = cc.refs;
    const double rps = runner.singleTenantRps(model, batch);
    if (cc.refs != before) {
        span.rename("v10.ref");
        rec.count("v10.refs", static_cast<double>(cc.refs - before));
    }
    return rps;
}

/**
 * ExperimentRunner::run issued step by step with a span around each
 * layer call: workload lookup, reference rate, engine construction
 * (Simulator, NpuCore, makeScheduler) and SchedulerEngine::run. The
 * result must equal ExperimentRunner::run's; the pass digests check
 * it.
 */
RunStats
tracedRun(ExperimentRunner &runner, ComputeCounter &cc,
          SpanRecorder &rec, SchedulerKind kind,
          const std::vector<TenantRequest> &tenants,
          std::uint64_t requests, std::uint64_t warmup)
{
    auto cell = rec.open("v10.cell");
    rec.count("v10.cells", 1);
    std::vector<TenantSpec> specs;
    std::vector<double> single_rps;
    for (const TenantRequest &req : tenants) {
        const int batch = runner.resolveBatch(req.model, req.batch);
        specs.push_back(TenantSpec{
            &tracedWorkload(runner, cc, rec, req.model, batch),
            req.priority, req.arrivalRps});
        single_rps.push_back(
            tracedRef(runner, cc, rec, req.model, batch));
    }

    auto construct = rec.open("sched.construct");
    std::unique_ptr<Simulator> sim;
    {
        auto s = rec.open("sim.construct");
        sim = std::make_unique<Simulator>();
    }
    std::unique_ptr<NpuCore> core;
    {
        auto s = rec.open("npu.construct");
        core = std::make_unique<NpuCore>(
            *sim, runner.config(),
            static_cast<std::uint32_t>(tenants.size()),
            reservesSaContexts(kind));
    }
    auto sched = makeScheduler(kind, *sim, *core, std::move(specs));
    construct.close();

    RunStats stats;
    {
        auto s = rec.open("sched.run");
        stats = sched->run(requests, warmup);
        rec.count("sim.events",
                  static_cast<double>(sim->eventsRun()));
        rec.count("sim.cycles", static_cast<double>(sim->now()));
    }
    for (std::size_t i = 0; i < stats.workloads.size(); ++i) {
        auto &w = stats.workloads[i];
        w.normalizedProgress = single_rps[i] > 0.0
                                   ? w.requestsPerSec / single_rps[i]
                                   : 0.0;
    }
    return stats;
}

/** One benchmark workload. */
class BenchWorkload
{
  public:
    virtual ~BenchWorkload() = default;

    /** Build inputs and warm state from scratch (timed as setup). */
    virtual void setup(SpanRecorder *rec) = 0;

    /** One measured pass; @p rec is null for the untraced path. */
    virtual PassOutput pass(SpanRecorder *rec) = 0;

    /** Fewest passes of each kind for a valid measurement. */
    virtual std::size_t minPasses() const { return 2; }

    /** Workload-specific raw extras for run.py. */
    virtual void extras(JsonWriter &) const {}
};

// ---------------------------------------------------------------- pair-grid

/**
 * The paper's 11 collocation pairs x {PMT, V10-Base, V10-Fair,
 * V10-Full} through ExperimentRunner::run on warm caches. The seed
 * only permutes the order in which the 44 cells are issued.
 */
class PairGrid : public BenchWorkload
{
  public:
    explicit PairGrid(std::uint64_t seed)
    {
        const auto &pairs = evaluationPairs();
        const auto &kinds = allSchedulerKinds();
        for (std::size_t p = 0; p < pairs.size(); ++p)
            for (std::size_t k = 0; k < kinds.size(); ++k)
                order_.push_back(p * kinds.size() + k);
        Rng rng(seed);
        for (std::size_t i = order_.size(); i > 1; --i)
            std::swap(order_[i - 1], order_[rng.uniformInt(i)]);
    }

    void
    setup(SpanRecorder *rec) override
    {
        runner_ = std::make_unique<ExperimentRunner>(NpuConfig{});
        cc_ = ComputeCounter{};
        cc_.attach(*runner_);
        std::vector<std::string> models;
        for (const auto &[a, b] : evaluationPairs()) {
            for (const std::string &m : {a, b})
                if (std::find(models.begin(), models.end(), m) ==
                    models.end())
                    models.push_back(m);
        }
        for (const std::string &m : models) {
            if (rec == nullptr) {
                runner_->workload(m, 0);
                runner_->singleTenant(m, 0);
            } else {
                tracedWorkload(*runner_, cc_, *rec, m, 0);
                tracedRef(*runner_, cc_, *rec, m, 0);
            }
        }
    }

    std::size_t minPasses() const override { return 3; }

    PassOutput
    pass(SpanRecorder *rec) override
    {
        const auto &pairs = evaluationPairs();
        const auto &kinds = allSchedulerKinds();
        PassOutput out;
        std::vector<RunStats> grid(order_.size());
        for (std::size_t idx : order_) {
            const auto &[a, b] = pairs[idx / kinds.size()];
            const SchedulerKind kind = kinds[idx % kinds.size()];
            const std::vector<TenantRequest> tenants = {
                TenantRequest{a, 0, 1.0}, TenantRequest{b, 0, 1.0}};
            if (rec == nullptr) {
                const auto t0 = Clock::now();
                grid[idx] = runner_->run(kind, tenants);
                out.cellMs.push_back(since(t0) * 1e3);
            } else {
                grid[idx] = tracedRun(
                    *runner_, cc_, *rec, kind, tenants,
                    ExperimentRunner::kDefaultRequests,
                    ExperimentRunner::kDefaultWarmup);
            }
            out.op(checkRunStats(grid[idx], tenants.size()));
        }

        // Digest and paper-gap metrics in the canonical grid order.
        std::optional<SpanRecorder::Scope> span;
        if (rec != nullptr)
            span.emplace(rec->open("bench.digest"));
        double log_gain = 0.0;
        double peak_overlap = 0.0;
        for (std::size_t p = 0; p < pairs.size(); ++p) {
            const RunStats *pmt = nullptr;
            const RunStats *full = nullptr;
            for (std::size_t k = 0; k < kinds.size(); ++k) {
                const RunStats &s = grid[p * kinds.size() + k];
                out.digest.add(runStatsJson(s));
                if (kinds[k] == SchedulerKind::Pmt)
                    pmt = &s;
                if (kinds[k] == SchedulerKind::V10Full)
                    full = &s;
            }
            log_gain += std::log(full->stp() / pmt->stp());
            peak_overlap = std::max(peak_overlap, full->overlapBothFrac);
        }
        const double tput = std::exp(log_gain / double(pairs.size()));
        out.sim["tput_ratio"] = tput;
        out.sim["tput_gap_pct"] =
            std::fabs(tput - kPaperTput) / kPaperTput * 100.0;
        out.sim["peak_overlap_pct"] = peak_overlap * 100.0;
        out.sim["overlap_gap_pp"] =
            kPaperPeakOverlapPct - peak_overlap * 100.0;
        addEngineSim(out, grid);
        return out;
    }

  private:
    /** Paper §5: V10-Full aggregated throughput over PMT (geomean). */
    static constexpr double kPaperTput = 1.57;
    /** Paper Fig. 17: peak SA&VU overlap under V10-Full, percent. */
    static constexpr double kPaperPeakOverlapPct = 81.0;

    std::vector<std::size_t> order_;
    ComputeCounter cc_;
    std::unique_ptr<ExperimentRunner> runner_;
};

// --------------------------------------------------------------- advise-zoo

/**
 * Every zoo model at a seed-drawn batch in {ref/4, ref, ref*4}
 * (where it fits the HBM region) through NpuCluster::trainAdvisor
 * and dispatchAndRun(ClusteredPairing) on a fresh cluster per pass.
 */
class AdviseZoo : public BenchWorkload
{
  public:
    explicit AdviseZoo(std::uint64_t seed)
    {
        // A fixed mix of batch scales (ref/4, ref, ref*4 in turn),
        // shuffled over the models by the seed.
        const std::size_t n = modelZoo().size();
        std::vector<std::size_t> scale(n);
        for (std::size_t i = 0; i < n; ++i)
            scale[i] = i % 3;
        Rng rng(seed);
        for (std::size_t i = n; i > 1; --i)
            std::swap(scale[i - 1], scale[rng.uniformInt(i)]);
        for (std::size_t i = 0; i < n; ++i) {
            const ModelProfile &m = modelZoo()[i];
            const int choices[3] = {std::max(1, m.refBatch / 4),
                                    m.refBatch, m.refBatch * 4};
            int batch = choices[scale[i]];
            if (!m.fitsMemory(batch, kHbmRegionBytes))
                batch = m.refBatch;
            pool_.push_back(TenantRequest{m.abbrev, batch, 1.0});
        }
    }

    /** Setup validates the drawn pool before it is measured: each
     * tenant compiles and runs alone (its single-tenant reference).
     * Every pass then starts from a fresh cluster. */
    void
    setup(SpanRecorder *rec) override
    {
        ComputeCounter cc;
        ExperimentRunner runner(config_.core);
        cc.attach(runner);
        for (const TenantRequest &t : pool_) {
            if (rec == nullptr) {
                runner.singleTenant(t.model, t.batch);
            } else {
                tracedWorkload(runner, cc, *rec, t.model, t.batch);
                tracedRef(runner, cc, *rec, t.model, t.batch);
            }
        }
    }

    PassOutput
    pass(SpanRecorder *rec) override
    {
        return rec == nullptr ? passUntraced() : passTraced(*rec);
    }

  private:
    static constexpr std::uint64_t kProfileRequests = 6;

    static ClusterConfig
    makeConfig(std::size_t cores)
    {
        ClusterConfig cfg;
        cfg.numCores = cores;
        cfg.jobs = 1;
        return cfg;
    }

    void
    finish(PassOutput &out, const ClusterResult &r) const
    {
        for (std::size_t c = 0; c < r.assignment.size(); ++c) {
            for (const std::string &m : r.assignment[c])
                out.digest.add(m + ",");
            out.digest.add(runStatsJson(r.perCore[c]));
            out.op(checkRunStats(r.perCore[c],
                                 r.assignment[c].size()));
        }
        out.sim["fleet_stp"] = r.fleetStp;
        out.sim["cores_used"] = static_cast<double>(r.coresUsed);
        addEngineSim(out, r.perCore);
    }

    PassOutput
    passUntraced()
    {
        PassOutput out;
        NpuCluster cluster(config_);
        for (const TenantRequest &t : pool_) {
            const Status s =
                cluster.tryAddWorkload(t.model, t.batch, t.priority);
            if (!s) {
                out.op(s.error().toString());
                return out;
            }
        }
        const Status trained = cluster.tryTrainAdvisor(kProfileRequests);
        out.op(trained ? "" : trained.error().toString());
        if (!trained)
            return out;
        auto r = cluster.tryDispatchAndRun(
            DispatchPolicy::ClusteredPairing);
        out.op(r.ok() ? "" : r.error().toString());
        if (r.ok())
            finish(out, r.value());
        return out;
    }

    /**
     * NpuCluster's training and clustered dispatch issued through
     * their public parts (profileSingle, extractFeatures,
     * ClusteringCollocator, per-core runs), with spans around each.
     */
    PassOutput
    passTraced(SpanRecorder &rec)
    {
        PassOutput out;
        ComputeCounter cc;
        ExperimentRunner runner(config_.core);
        cc.attach(runner);
        std::map<std::string, WorkloadFeatures> features;
        auto featuresOf = [&](const std::string &model,
                              int batch) -> const WorkloadFeatures & {
            batch = runner.resolveBatch(model, batch);
            const std::string key = findModel(model).key(batch);
            auto it = features.find(key);
            if (it == features.end()) {
                auto s = rec.open("v10.profile");
                rec.count("v10.profiles", 1);
                const SingleProfile sp =
                    profileSingle(config_.core, findModel(model), batch,
                                  kProfileRequests);
                it = features.emplace(key, extractFeatures(sp)).first;
            }
            return it->second;
        };

        ClusteringCollocator::Options options;
        options.threshold = config_.collocationThreshold;
        options.jobs = 1;
        ClusteringCollocator advisor(options);
        {
            auto train = rec.open("v10.train");
            std::vector<WorkloadFeatures> training;
            std::vector<std::string> seen;
            auto addModel = [&](const std::string &model, int batch) {
                const WorkloadFeatures &f = featuresOf(model, batch);
                const std::string key =
                    f.model + "@" + std::to_string(f.batch);
                if (std::find(seen.begin(), seen.end(), key) !=
                    seen.end())
                    return;
                seen.push_back(key);
                training.push_back(f);
            };
            for (const TenantRequest &t : pool_)
                addModel(t.model, t.batch);
            if (training.size() < 6) {
                for (const ModelProfile &m : modelZoo())
                    addModel(m.abbrev, m.refBatch);
            }

            // The collocator fits (Standardizer, PCA, K-Means)
            // before its first pair-performance callback, so the
            // fit span runs from train() to that callback.
            auto advisor_train = rec.open("v10.advisor_train");
            std::optional<SpanRecorder::Scope> fit;
            fit.emplace(rec.open("collocate.fit"));
            advisor.train(training, [&](const std::string &a,
                                        const std::string &b) {
                fit.reset();
                auto pair = rec.open("v10.pair");
                const std::vector<TenantRequest> tenants = {
                    TenantRequest{a, 0, 1.0}, TenantRequest{b, 0, 1.0}};
                const RunStats full = tracedRun(
                    runner, cc, rec, config_.scheduler, tenants,
                    kProfileRequests, ExperimentRunner::kDefaultWarmup);
                const RunStats pmt = tracedRun(
                    runner, cc, rec, SchedulerKind::Pmt, tenants,
                    kProfileRequests, ExperimentRunner::kDefaultWarmup);
                return pmt.stp() > 0.0 ? full.stp() / pmt.stp() : 0.0;
            });
        }
        out.op("");

        auto dispatch = rec.open("v10.dispatch");
        struct Candidate
        {
            std::size_t a, b;
            double gain;
        };
        std::vector<Candidate> candidates;
        for (std::size_t i = 0; i < pool_.size(); ++i) {
            for (std::size_t j = i + 1; j < pool_.size(); ++j) {
                const double gain = advisor.predictPerf(
                    featuresOf(pool_[i].model, pool_[i].batch),
                    featuresOf(pool_[j].model, pool_[j].batch));
                candidates.push_back(Candidate{i, j, gain});
            }
        }
        std::sort(candidates.begin(), candidates.end(),
                  [](const Candidate &x, const Candidate &y) {
                      return x.gain > y.gain;
                  });
        std::vector<bool> placed(pool_.size(), false);
        std::vector<std::vector<std::size_t>> groups;
        for (const Candidate &c : candidates) {
            if (c.gain < config_.collocationThreshold)
                break;
            if (placed[c.a] || placed[c.b])
                continue;
            groups.push_back({c.a, c.b});
            placed[c.a] = placed[c.b] = true;
        }
        for (std::size_t i = 0; i < pool_.size(); ++i)
            if (!placed[i])
                groups.push_back({i});
        if (groups.size() > config_.numCores) {
            out.op("dispatch needs more cores than the fleet has");
            return out;
        }

        ClusterResult result;
        result.policy = DispatchPolicy::ClusteredPairing;
        for (const auto &group : groups) {
            std::vector<TenantRequest> tenants;
            std::vector<std::string> labels;
            for (std::size_t idx : group) {
                tenants.push_back(pool_[idx]);
                labels.push_back(pool_[idx].model);
            }
            RunStats stats = tracedRun(runner, cc, rec,
                                       config_.scheduler, tenants,
                                       config_.requests, config_.warmup);
            for (const auto &w : stats.workloads)
                result.fleetStp += w.normalizedProgress;
            result.assignment.push_back(std::move(labels));
            result.perCore.push_back(std::move(stats));
        }
        result.coresUsed = groups.size();
        dispatch.close();
        out.op("");
        finish(out, result);
        return out;
    }

    ClusterConfig config_ = makeConfig(modelZoo().size());
    std::vector<TenantRequest> pool_;
};

// ------------------------------------------------------ serve-fleet/-chaos

/** Scenario knobs of the two serving workloads. */
struct ServeScenario
{
    std::size_t tenants;
    std::size_t cores;
    double durationSec;
    double util;
    bool chaos;
};

/**
 * Open-loop fleet serving through ClusterManager::run. Tenants cycle
 * through the zoo with fixed per-model, per-arrival-kind and
 * per-SLO-tier counts; the seed shuffles which tenant gets which
 * combination and drives the arrival streams (and, under chaos, the
 * churn plan and the antagonist/flood targets).
 */
class ServeWorkload : public BenchWorkload
{
  public:
    ServeWorkload(std::uint64_t seed, ServeScenario scenario)
        : seed_(seed), sc_(scenario)
    {
    }

    void
    setup(SpanRecorder *rec) override
    {
        // Calibrate every zoo model's dedicated-core service time.
        std::map<std::string, double> service_us;
        {
            std::optional<SpanRecorder::Scope> span;
            if (rec != nullptr)
                span.emplace(rec->open("serve.calibrate"));
            ComputeCounter cc;
            ExperimentRunner calibrator(NpuConfig{});
            cc.attach(calibrator);
            for (const ModelProfile &m : modelZoo()) {
                double rps = 0.0;
                if (rec == nullptr) {
                    rps = calibrator.singleTenantRps(m.abbrev, 0);
                } else {
                    tracedWorkload(calibrator, cc, *rec, m.abbrev, 0);
                    rps = tracedRef(calibrator, cc, *rec, m.abbrev, 0);
                }
                service_us[m.abbrev] = 1e6 / rps;
            }
        }

        const std::size_t n = sc_.tenants;
        const std::size_t nm = modelZoo().size();
        std::vector<std::size_t> slot(n);
        for (std::size_t i = 0; i < n; ++i)
            slot[i] = i;
        Rng rng(seed_);
        for (std::size_t i = n; i > 1; --i)
            std::swap(slot[i - 1], slot[rng.uniformInt(i)]);

        ServeConfig cfg;
        cfg.numCores = sc_.cores;
        cfg.durationSec = sc_.durationSec;
        cfg.seed = seed_;
        cfg.jobs = 1;
        cfg.policy = PlacementPolicy::LeastLoaded;
        cfg.serviceDist = ServiceDist::Exponential;
        const SloTier tiers[2] = {SloTier{true, 25.0, 1.0},
                                  SloTier{true, 50.0, 2.0}};
        const double erlangs = sc_.util * double(sc_.cores) / double(n);

        std::vector<ServeTenant> tenants;
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t s = slot[i];
            ServeTenant t;
            t.model = modelZoo()[s % nm].abbrev;
            t.name = t.model + "#" + std::to_string(i);
            t.serviceUsOverride = service_us[t.model];
            t.arrival.kind = static_cast<ArrivalKind>((s / nm) % 3);
            t.arrival.rps = erlangs / (t.serviceUsOverride * 1e-6);
            const SloTier &tier = tiers[(s / (3 * nm)) % 2];
            t.slo.latencyTargetUs = tier.value * t.serviceUsOverride;
            t.slo.weight = tier.weight;
            tenants.push_back(std::move(t));
        }
        if (sc_.chaos)
            addChaos(cfg, tenants, rng);

        manager_ = std::make_unique<ClusterManager>(cfg);
        for (ServeTenant &t : tenants) {
            if (Status s = manager_->addTenant(std::move(t)); !s)
                throw std::runtime_error(s.error().toString());
        }
        manifest_.policy = placementPolicyName(cfg.policy);
        manifest_.arrivals = "mixed";
        manifest_.cores = cfg.numCores;
        manifest_.tenants = n;
        manifest_.durationSec = cfg.durationSec;
        manifest_.seed = cfg.seed;
    }

    PassOutput
    pass(SpanRecorder *rec) override
    {
        PassOutput out;
        StatRegistry registry;
        AttributionCollector attribution;
        RequestTracer tracer(kTraceSampleN);
        manager_->setStats(nullptr);
        manager_->setAttribution(sc_.chaos ? &attribution : nullptr);
        manager_->setRequestTracer(sc_.chaos ? &tracer : nullptr);

        std::uint64_t arrivals = 0;
        std::optional<SpanRecorder::Scope> run_span;
        if (rec != nullptr) {
            arrivals = tracedArrivals(*rec);
            // place() on its own so its cost is known; run()
            // repeats it.
            auto s = rec->open("serve.place");
            auto placed = manager_->place();
            s.close();
            if (!placed.ok())
                out.op(placed.error().toString());
            run_span.emplace(rec->open("serve.run"));
        } else if (sc_.chaos) {
            manager_->setStats(&registry);
        }

        const long rss0 = peakRssKb();
        auto report_or = manager_->run();
        if (rssGrowthKb_ < 0)
            rssGrowthKb_ = peakRssKb() - rss0;
        run_span.reset();
        out.op(report_or.ok() ? "" : report_or.error().toString());
        if (!report_or.ok())
            return out;
        const ServingReport report = report_or.take();
        if (Status s = report.checkConservation(); !s)
            out.op(s.error().toString());
        if (rec != nullptr && !sc_.chaos && arrivals != report.offered)
            out.op("generated arrivals differ from offered requests");
        offered_ = report.offered;

        std::ostringstream doc;
        if (sc_.chaos) {
            if (rec == nullptr) {
                attribution.registerStats(registry);
            } else {
                auto s = rec->open("metrics.register");
                registerServingStats(registry, report);
                attribution.registerStats(registry);
            }
            if (rec != nullptr) {
                // Probe: the registry export on its own (the
                // document below embeds the same export).
                auto s = rec->open("metrics.stats_json");
                std::ostringstream probe;
                JsonWriter w(probe, 2);
                registry.writeJson(w);
            }
        }
        {
            std::optional<SpanRecorder::Scope> s;
            if (rec != nullptr)
                s.emplace(rec->open("serve.report"));
            writeServingDocumentJson(doc, manifest_, report,
                                     sc_.chaos ? &registry : nullptr);
            if (rec != nullptr)
                rec->count("serve.report_bytes",
                           double(doc.str().size()));
        }
        out.digest.add(doc.str());
        if (sc_.chaos) {
            std::ostringstream spans;
            {
                std::optional<SpanRecorder::Scope> s;
                if (rec != nullptr)
                    s.emplace(rec->open("trace.write"));
                tracer.writeJsonl(spans);
                if (rec != nullptr) {
                    rec->count("trace.spans",
                               double(tracer.spanCount()));
                    rec->count("trace.bytes",
                               double(spans.str().size()));
                }
            }
            out.digest.add(spans.str());
        }

        const double missed = double(report.sloViolations +
                                     report.shed + report.rejected);
        out.sim["goodput_rps"] = report.goodputRps;
        out.sim["slo_miss_pct"] =
            report.offered > 0 ? 100.0 * missed / double(report.offered)
                               : 0.0;
        out.sim["serve.offered"] = double(report.offered);
        out.sim["serve.epochs"] = double(report.controlEpochs);
        out.sim["serve.rejected"] = double(report.rejected);
        out.sim["serve.shed"] = double(report.shed);
        return out;
    }

    void
    extras(JsonWriter &w) const override
    {
        w.kv("serve.rss_growth_kb",
             static_cast<std::int64_t>(std::max(0L, rssGrowthKb_)));
        w.kv("serve.offered", offered_);
    }

  private:
    static constexpr std::uint64_t kTraceSampleN = 16;

    /** Each tenant's arrival stream via ArrivalProcess::generate and
     * their merge via mergeArrivalStreams, as run() derives them. */
    std::uint64_t
    tracedArrivals(SpanRecorder &rec)
    {
        const auto &tenants = manager_->tenants();
        std::vector<std::vector<double>> streams(tenants.size());
        std::uint64_t total = 0;
        {
            auto s = rec.open("serve.arrivals");
            for (std::size_t i = 0; i < tenants.size(); ++i) {
                ArrivalProcess process(
                    tenants[i].arrival,
                    Rng::deriveStream(manager_->config().seed, i));
                streams[i] =
                    process.generate(manager_->config().durationSec);
                total += streams[i].size();
            }
            rec.count("serve.arrivals", double(total));
        }
        {
            auto s = rec.open("serve.merge");
            const auto merged = mergeArrivalStreams(streams);
            rec.count("serve.merged", double(merged.size()));
        }
        return total;
    }

    /** The resilience loop of CI's chaos smoke with seed-drawn
     * targets: admission, churn, one hbm-hog, flood faults. */
    void
    addChaos(ServeConfig &cfg, const std::vector<ServeTenant> &tenants,
             Rng &rng)
    {
        const std::size_t n = tenants.size();
        std::vector<std::size_t> pick;
        while (pick.size() < 5) {
            const std::size_t i = rng.uniformInt(n);
            if (std::find(pick.begin(), pick.end(), i) == pick.end())
                pick.push_back(i);
        }
        auto at = [&](double lo, double hi) {
            return std::to_string(rng.uniform(lo, hi) *
                                  sc_.durationSec);
        };
        const std::string join_at = at(0.15, 0.35);
        const std::string leave_at = at(0.65, 0.85);
        const std::string migrate_at = at(0.45, 0.55);
        const std::string core = std::to_string(rng.uniformInt(sc_.cores));
        const std::string churn =
            "join:tenant=" + tenants[pick[0]].name + ":at=" + join_at +
            ",leave:tenant=" + tenants[pick[1]].name +
            ":at=" + leave_at + ",migrate:tenant=" +
            tenants[pick[2]].name + ":at=" + migrate_at +
            ":core=" + core;
        const std::string hog =
            "hbm-hog:tenant=" + std::to_string(pick[3]) +
            ":mag=3.5:after=" + std::to_string(0.3 * sc_.durationSec) +
            ":until=" + std::to_string(0.4 * sc_.durationSec);
        const std::string flood =
            "flood:rate=0.5:mag=3:tenant=" + std::to_string(pick[4]) +
            ":count=4";

        auto parsed = [](auto result) {
            if (!result.ok())
                throw std::runtime_error(result.error().toString());
            return result.take();
        };
        cfg.churn = parsed(ChurnPlan::parse(churn));
        cfg.antagonists = parsed(AntagonistPlan::parse(hog));
        faults_ = std::make_unique<FaultPlan>(
            parsed(FaultPlan::parse(flood)));
        cfg.faults = faults_.get();

        cfg.admission.enabled = true;
        cfg.admission.headroom = 4.0;
        cfg.detector.hiScore = 0.9;
        cfg.detector.loScore = 0.3;
        cfg.ladder.throttleStrikes = 1;
        cfg.ladder.isolateStrikes = 8;
        cfg.ladder.evictStrikes = 16;
        cfg.ladder.throttleFactor = 0.2;
        cfg.ladder.recoveryEpochs = 16;
    }

    std::uint64_t seed_;
    ServeScenario sc_;
    std::unique_ptr<FaultPlan> faults_;
    std::unique_ptr<ClusterManager> manager_;
    ServeManifest manifest_;
    long rssGrowthKb_ = -1;
    std::uint64_t offered_ = 0;
};

// -------------------------------------------------------------------- main

std::unique_ptr<BenchWorkload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "pair-grid")
        return std::make_unique<PairGrid>(seed);
    if (name == "advise-zoo")
        return std::make_unique<AdviseZoo>(seed);
    if (name == "serve-fleet")
        return std::make_unique<ServeWorkload>(
            seed, ServeScenario{1000, 64, 60.0, 0.6, false});
    if (name == "serve-chaos")
        return std::make_unique<ServeWorkload>(
            seed, ServeScenario{100, 32, 8.0, 0.7, true});
    return nullptr;
}

struct PassRecord
{
    bool traced = false;
    double wallS = 0.0;
    double cpuS = 0.0;
    PassOutput out;
};

constexpr int kTimedSetups = 7;
constexpr double kWarmupSeconds = 1.0;

int
run(int argc, char **argv)
{
    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        if (flag.rfind("--", 0) != 0)
            throw std::invalid_argument("unexpected argument " + flag);
        args[flag.substr(2)] = argv[i + 1];
    }
    const std::string name = args["workload"];
    const std::string mode = args.count("mode") ? args["mode"]
                                                : "untraced";
    const std::uint64_t seed = std::stoull(args["seed"]);
    const double seconds = std::stod(args["seconds"]);
    auto wl = makeWorkload(name, seed);
    if (!wl || (mode != "untraced" && mode != "traced") ||
        !(seconds > 0.0))
        throw std::invalid_argument("bad --workload/--mode/--seconds");
    const bool traced = mode == "traced";

    SpanRecorder rec;
    std::vector<double> setup_s;
    // Untraced: untimed warm-up set-ups for kWarmupSeconds (the host
    // runs a freshly started process slower for a while), then the
    // timed ones.
    if (!traced) {
        const auto warm0 = Clock::now();
        do
            wl->setup(nullptr);
        while (since(warm0) < kWarmupSeconds);
    }
    for (int k = 0; k < (traced ? 1 : kTimedSetups); ++k) {
        std::optional<SpanRecorder::Scope> root;
        if (traced)
            root.emplace(rec.open("bench.setup"));
        const auto t0 = Clock::now();
        wl->setup(traced ? &rec : nullptr);
        setup_s.push_back(since(t0));
    }

    std::vector<PassRecord> passes;
    std::size_t counts[2] = {0, 0};
    const auto start = Clock::now();
    for (std::size_t i = 0;; ++i) {
        const bool enough = counts[0] >= wl->minPasses() &&
                            (!traced || counts[1] >= wl->minPasses());
        if (enough && since(start) >= seconds)
            break;
        PassRecord p;
        p.traced = traced && i % 2 == 1;
        std::optional<SpanRecorder::Scope> root;
        if (p.traced)
            root.emplace(rec.open("bench.pass"));
        const auto t0 = Clock::now();
        const double c0 = cpuSeconds();
        p.out = wl->pass(p.traced ? &rec : nullptr);
        p.cpuS = cpuSeconds() - c0;
        p.wallS = since(t0);
        root.reset();
        ++counts[p.traced ? 1 : 0];
        passes.push_back(std::move(p));
    }

    if (traced) {
        if (!args.count("spans-out"))
            throw std::invalid_argument("--mode traced needs --spans-out");
        std::ofstream os(args["spans-out"]);
        rec.writeJsonl(os);
        if (!os)
            throw std::runtime_error("cannot write " + args["spans-out"]);
    }

    JsonWriter w(std::cout, 0);
    w.beginObject();
    w.kv("workload", name);
    w.kv("seed", seed);
    w.kv("mode", mode);
    w.key("setup_s");
    w.beginArray();
    for (double s : setup_s)
        w.value(s);
    w.endArray();
    w.kv("peak_rss_kb", static_cast<std::int64_t>(peakRssKb()));
    wl->extras(w);
    w.key("passes");
    w.beginArray();
    for (const PassRecord &p : passes) {
        w.beginObject();
        w.kv("traced", p.traced);
        w.kv("wall_s", p.wallS);
        w.kv("cpu_s", p.cpuS);
        w.kv("ops", p.out.ops);
        w.kv("failed", p.out.failed);
        w.kv("digest", p.out.digest.hex());
        w.key("errors");
        w.beginArray();
        for (const std::string &e : p.out.errors)
            w.value(e);
        w.endArray();
        w.key("cell_ms");
        w.beginArray();
        for (double ms : p.out.cellMs)
            w.value(ms);
        w.endArray();
        w.key("sim");
        w.beginObject();
        for (const auto &[k, v] : p.out.sim)
            w.kv(k, v);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    std::cout << std::endl;
    return 0;
}

} // namespace v10bench

int
main(int argc, char **argv)
{
    try {
        return v10bench::run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "v10bench: %s\n", e.what());
        return 2;
    }
}
