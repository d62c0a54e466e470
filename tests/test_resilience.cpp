// Resilience subsystem tests: deterministic fault plans, the registry's
// per-hit decision semantics, budgets/deadlines, the cache's bounded
// retry-with-backoff, the SAT degradation ladder — and the headline chaos
// differential harness, which replays hundreds of seeded fault schedules
// through the whole pipeline + engine and requires every run to be either
// bit-identical to the fault-free oracle or a documented, coded error.
// Never a crash, never a hang, never silently-wrong output.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>
#include <unistd.h>

#include "core/clustering.hpp"
#include "core/pipeline.hpp"
#include "durable/durable.hpp"
#include "graph/undirected.hpp"
#include "helpers.hpp"
#include "resilience/budget.hpp"
#include "resilience/fault.hpp"
#include "runtime/engine.hpp"
#include "sbd/text_format.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "upgrade/upgrade.hpp"
#include "suite/npred.hpp"
#include "suite/random_models.hpp"

namespace {

namespace fs = std::filesystem;
using namespace sbd;
using namespace sbd::codegen;
using namespace sbd::resilience;

// Tests sleep microseconds, not the production 100us+ backoff.
constexpr RetryPolicy kFastRetry{3, 1'000, 2.0};

struct TempDir {
    fs::path path;
    TempDir() {
        path = fs::temp_directory_path() /
               ("sbd_resilience_test_" + std::to_string(::getpid()) + "_" +
                std::to_string(reinterpret_cast<std::uintptr_t>(this)));
        fs::create_directories(path);
    }
    ~TempDir() {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
};

/// Canonical rendering of a compilation: the differential harness calls two
/// compiles identical iff these strings match (profiles, SDGs, clusterings,
/// generated code — everything semantically observable short of emit_cpp).
std::string render(const CompiledSystem& sys) {
    std::string out;
    for (const Block* b : sys.order()) {
        const auto& cb = sys.at(*b);
        out += "=== " + b->type_name() + " ===\n";
        out += cb.profile.to_string();
        if (cb.sdg) out += cb.sdg->graph.to_dot(cb.sdg->labels());
        if (cb.clustering) {
            out += "clusters(" + std::string(to_string(cb.clustering->method)) + "):";
            for (const auto& cl : cb.clustering->clusters) {
                out += " {";
                for (const auto v : cl) out += std::to_string(v) + ",";
                out += "}";
            }
            out += "\n";
        }
        if (cb.code) out += cb.code->to_pseudocode();
    }
    return out;
}

std::shared_ptr<const MacroBlock> make_model(std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    suite::RandomModelParams params;
    params.depth = 2;
    params.subs_per_level = 4;
    return suite::random_model(rng, params);
}

/// Runs `root` on the engine for `ticks` instants with two instances and
/// returns instance 0's outputs per tick (the chaos reference trajectory).
std::vector<std::vector<double>> engine_outputs(const CompiledSystem& sys,
                                                const std::shared_ptr<const MacroBlock>& root,
                                                std::size_t ticks,
                                                std::uint64_t deadline_ms = 0) {
    runtime::EngineConfig cfg;
    cfg.capacity = 2;
    cfg.deadline_ms = deadline_ms;
    runtime::Engine engine(sys, root, cfg);
    const auto ids = engine.create(2);
    std::vector<runtime::LcgInputSource> sources;
    for (std::size_t i = 0; i < 2; ++i) sources.emplace_back(1 + i);
    std::vector<std::vector<double>> out;
    for (std::size_t t = 0; t < ticks; ++t) {
        for (std::size_t i = 0; i < 2; ++i) sources[i].fill(engine.pool().inputs(ids[i]));
        engine.tick();
        const auto outputs = engine.pool().outputs(ids[0]);
        out.emplace_back(outputs.begin(), outputs.end());
    }
    return out;
}

// ------------------------------------------------------------- fault plans

TEST(FaultPlan, ParsesEveryScheduleKindAndRoundTrips) {
    const FaultPlan plan = FaultPlan::parse(
        "seed=42; cache.disk_read=nth:3 ;sat.budget=every:2;engine.tick=p:0.5;"
        "pipeline.task=off");
    EXPECT_EQ(plan.seed, 42u);
    ASSERT_EQ(plan.points.size(), 4u);
    // parse() sorts by point name.
    EXPECT_EQ(plan.points[0].first, "cache.disk_read");
    EXPECT_EQ(plan.points[0].second.kind, ScheduleKind::Nth);
    EXPECT_EQ(plan.points[0].second.n, 3u);
    EXPECT_EQ(plan.points[1].first, "engine.tick");
    EXPECT_EQ(plan.points[1].second.kind, ScheduleKind::Prob);
    EXPECT_DOUBLE_EQ(plan.points[1].second.p, 0.5);
    EXPECT_EQ(plan.points[2].first, "pipeline.task");
    EXPECT_EQ(plan.points[2].second.kind, ScheduleKind::Never);
    EXPECT_EQ(plan.points[3].first, "sat.budget");
    EXPECT_EQ(plan.points[3].second.kind, ScheduleKind::EveryK);
    EXPECT_EQ(plan.points[3].second.n, 2u);

    const std::string spec = plan.to_spec();
    EXPECT_EQ(FaultPlan::parse(spec).to_spec(), spec) << "spec must round-trip";
}

TEST(FaultPlan, RejectsMalformedSpecsNamingTheClause) {
    for (const char* bad : {"bogus", "seed=x", "a=nth:0", "a=every:-1", "a=p:2.0",
                            "a=p:zz", "a=wibble:3", "a=nth:", "=nth:1"}) {
        EXPECT_THROW((void)FaultPlan::parse(bad), std::invalid_argument) << bad;
        try {
            (void)FaultPlan::parse(bad);
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find("bad clause"), std::string::npos) << bad;
        }
    }
}

TEST(FaultRegistry, SchedulesFireDeterministically) {
    FaultPlan plan = FaultPlan::parse("seed=7;a=nth:3;b=every:4;c=p:0.5");
    const auto run = [&] {
        std::string decisions;
        ScopedFaultPlan armed(plan);
        for (int i = 0; i < 40; ++i) {
            decisions += SBD_FAULT_HIT("a") ? 'A' : '.';
            decisions += SBD_FAULT_HIT("b") ? 'B' : '.';
            decisions += SBD_FAULT_HIT("c") ? 'C' : '.';
            decisions += SBD_FAULT_HIT("unplanned") ? 'U' : '.';
        }
        return decisions;
    };
    const std::string first = run();
    // nth:3 fires exactly once, on hit 3; every:4 on hits 4, 8, ...
    EXPECT_EQ(std::count(first.begin(), first.end(), 'A'), 1);
    EXPECT_EQ(first[2 * 4], 'A');
    EXPECT_EQ(std::count(first.begin(), first.end(), 'B'), 10);
    // p:0.5 over 40 trials: seeded, so any count is fine — but not 0 or 40.
    const auto cs = std::count(first.begin(), first.end(), 'C');
    EXPECT_GT(cs, 0);
    EXPECT_LT(cs, 40);
    // Unplanned points are observed but never told to fail.
    EXPECT_EQ(first.find('U'), std::string::npos);
    // Re-arming the identical plan replays the identical decision string.
    EXPECT_EQ(run(), first);
}

TEST(FaultRegistry, SnapshotCountsHitsAndInjections) {
    ScopedFaultPlan armed(FaultPlan::parse("seed=1;x=every:2"));
    for (int i = 0; i < 6; ++i) (void)SBD_FAULT_HIT("x");
    (void)SBD_FAULT_HIT("y");
    const auto snap = FaultRegistry::instance().snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap[0].name, "x");
    EXPECT_EQ(snap[0].hits, 6u);
    EXPECT_EQ(snap[0].injected, 3u);
    EXPECT_TRUE(snap[0].scheduled);
    EXPECT_EQ(snap[1].name, "y");
    EXPECT_EQ(snap[1].hits, 1u);
    EXPECT_EQ(snap[1].injected, 0u);
    EXPECT_FALSE(snap[1].scheduled);
}

TEST(FaultRegistry, DisarmedChecksShortCircuit) {
    ASSERT_FALSE(fault_armed());
    EXPECT_FALSE(SBD_FAULT_HIT("anything"));
    {
        ScopedFaultPlan armed(FaultPlan::parse("seed=1;z=every:1"));
        EXPECT_TRUE(SBD_FAULT_HIT("z"));
    }
    EXPECT_FALSE(fault_armed());
    EXPECT_FALSE(SBD_FAULT_HIT("z"));
}

TEST(FaultRegistry, MetricsExportIsIdempotent) {
    ScopedFaultPlan armed(FaultPlan::parse("seed=1;m=every:2"));
    for (int i = 0; i < 4; ++i) (void)SBD_FAULT_HIT("m");
    obs::MetricsRegistry reg;
    FaultRegistry::instance().export_metrics(reg);
    FaultRegistry::instance().export_metrics(reg); // set-by-delta: no double count
    const auto hits = reg.counter("sbd_fault_hits_total", "", {{"point", "m"}});
    const auto injected = reg.counter("sbd_fault_injected_total", "", {{"point", "m"}});
    EXPECT_EQ(hits.value(), 4u);
    EXPECT_EQ(injected.value(), 2u);
}

// ---------------------------------------------------- deadlines and budgets

TEST(Deadline, DisarmedIsNeverDue) {
    const Deadline d;
    EXPECT_FALSE(d.armed());
    EXPECT_FALSE(d.due());
    EXPECT_NO_THROW(d.check("unit"));
    EXPECT_FALSE(Deadline::after_ms(0).armed());
}

TEST(Deadline, ExpiresAndThrowsCoded) {
    const Deadline d = Deadline::after_ms(1);
    EXPECT_TRUE(d.armed());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_TRUE(d.due());
    EXPECT_THROW(d.check("unit"), DeadlineExceeded);
}

TEST(Deadline, FaultPointForcesDueWithoutWaiting) {
    const Deadline d; // disarmed: only the injected verdict can make it due
    ScopedFaultPlan armed(FaultPlan::parse("seed=1;unit.deadline=nth:1"));
    EXPECT_TRUE(d.due("unit.deadline"));
    EXPECT_FALSE(d.due("unit.deadline")); // nth:1 fired; later hits pass
}

TEST(RetryPolicy, BackoffGrowsExponentially) {
    const RetryPolicy p{5, 100, 2.0};
    EXPECT_EQ(p.backoff_ns(1), 100u);
    EXPECT_EQ(p.backoff_ns(2), 200u);
    EXPECT_EQ(p.backoff_ns(3), 400u);
}

// ------------------------------------------------- SAT budget + degradation

/// A reduction SDG hard enough that a 1-conflict budget trips: the
/// Proposition 2 construction over a dense-ish random graph.
Sdg hard_sat_sdg() {
    graph::Undirected g(9);
    std::mt19937_64 rng(5);
    for (std::size_t u = 0; u < g.num_nodes(); ++u)
        for (std::size_t v = u + 1; v < g.num_nodes(); ++v)
            if (rng() % 100 < 45) g.add_edge(u, v);
    return suite::reduction_sdg(g);
}

TEST(SatBudget, ExhaustionThrowsCodedErrorNamingTheRemedy) {
    const Sdg sdg = hard_sat_sdg();
    ClusterOptions opts;
    opts.sat_conflict_budget = 1;
    SatClusterStats stats;
    try {
        (void)cluster_disjoint_sat(sdg, opts, &stats);
        FAIL() << "a 1-conflict budget must trip on the reduction SDG";
    } catch (const BudgetExhausted& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("SAT conflict budget"), std::string::npos);
        EXPECT_NE(what.find("SBD021"), std::string::npos);
    }
    EXPECT_TRUE(stats.budget_exhausted);
}

TEST(SatBudget, DegradationLadderYieldsValidClustering) {
    const Sdg sdg = hard_sat_sdg();
    ClusterOptions opts;
    opts.sat_conflict_budget = 1;
    opts.sat_budget_degrade = true;
    SatClusterStats stats;
    const Clustering degraded = cluster_disjoint_sat(sdg, opts, &stats);
    EXPECT_TRUE(stats.budget_exhausted);
    // The degraded result keeps its real producer's tag (the ladder is
    // step-get first, dynamic as the always-valid fallback) and must be
    // valid by the criterion that applies to that rung: Definition 1 for
    // the disjoint step-get result, no-false-dependencies for the
    // overlapping dynamic one.
    if (degraded.method == Method::StepGet)
        EXPECT_TRUE(check_validity(sdg, degraded).valid());
    else if (degraded.method == Method::Dynamic)
        EXPECT_TRUE(false_io_dependencies(sdg, degraded).empty());
    else
        FAIL() << "unexpected degraded method " << to_string(degraded.method);
    // Unlimited budget on the same SDG must still find the optimum.
    ClusterOptions unlimited;
    SatClusterStats full_stats;
    (void)cluster_disjoint_sat(sdg, unlimited, &full_stats);
    EXPECT_FALSE(full_stats.budget_exhausted);
}

TEST(SatBudget, PipelineInjectedExhaustionFollowsTheSameLadder) {
    const auto root = make_model(21);
    PipelineOptions popts;
    popts.method = Method::DisjointSat;

    ScopedFaultPlan armed(FaultPlan::parse("seed=3;sat.budget=every:1"));
    {
        Pipeline strict(popts);
        EXPECT_THROW((void)strict.compile(root), BudgetExhausted);
    }
    popts.cluster.sat_budget_degrade = true;
    Pipeline degrade(popts);
    SatClusterStats stats;
    const CompiledSystem sys = degrade.compile(root, &stats);
    EXPECT_TRUE(stats.budget_exhausted);
    // The degraded system still executes (and matches the step-get/dynamic
    // semantics bit-for-bit — the equivalence tests cover that elsewhere);
    // here: no crash, outputs exist.
    const auto outs = engine_outputs(sys, root, 3);
    ASSERT_EQ(outs.size(), 3u);
}

// --------------------------------------------------------- cache resilience

TEST(CacheResilience, TransientReadFailureIsRetriedThenServed) {
    TempDir dir;
    const auto root = make_model(31);
    PipelineOptions popts;
    std::string expected;
    {
        auto cache = std::make_shared<ProfileCache>(0, dir.path.string());
        cache->set_retry_policy(kFastRetry);
        Pipeline p(popts, cache);
        expected = render(p.compile(root));
    }
    // Fresh memory, warm disk; the very first read attempt fails, the retry
    // succeeds — the run must still be all disk hits.
    ScopedFaultPlan armed(FaultPlan::parse("seed=1;cache.disk_read=nth:1"));
    auto cache = std::make_shared<ProfileCache>(0, dir.path.string());
    cache->set_retry_policy(kFastRetry);
    Pipeline p(popts, cache);
    EXPECT_EQ(render(p.compile(root)), expected);
    const PipelineStats stats = p.stats();
    EXPECT_GE(stats.disk_retries, 1u);
    EXPECT_GT(stats.disk_backoff_ns, 0u);
    EXPECT_GT(stats.disk_hits, 0u);
    EXPECT_EQ(stats.macro_compiles, 0u) << "the retry must have rescued the read";
}

TEST(CacheResilience, PersistentReadFailureDegradesToRecompute) {
    TempDir dir;
    const auto root = make_model(31);
    PipelineOptions popts;
    std::string expected;
    {
        auto cache = std::make_shared<ProfileCache>(0, dir.path.string());
        cache->set_retry_policy(kFastRetry);
        Pipeline p(popts, cache);
        expected = render(p.compile(root));
    }
    ScopedFaultPlan armed(FaultPlan::parse("seed=1;cache.disk_read=every:1"));
    auto cache = std::make_shared<ProfileCache>(0, dir.path.string());
    cache->set_retry_policy(kFastRetry);
    Pipeline p(popts, cache);
    EXPECT_EQ(render(p.compile(root)), expected) << "a sick disk may only cost time";
    const PipelineStats stats = p.stats();
    EXPECT_GT(stats.macro_compiles, 0u);
    EXPECT_EQ(stats.disk_hits, 0u);
    EXPECT_GE(stats.disk_retries, 2u);
}

TEST(CacheResilience, CorruptedRecordIsRejectedAndRecomputed) {
    TempDir dir;
    const auto root = make_model(31);
    PipelineOptions popts;
    std::string expected;
    {
        auto cache = std::make_shared<ProfileCache>(0, dir.path.string());
        Pipeline p(popts, cache);
        expected = render(p.compile(root));
    }
    ScopedFaultPlan armed(FaultPlan::parse("seed=1;cache.disk_corrupt=every:1"));
    auto cache = std::make_shared<ProfileCache>(0, dir.path.string());
    Pipeline p(popts, cache);
    EXPECT_EQ(render(p.compile(root)), expected);
    const PipelineStats stats = p.stats();
    EXPECT_GT(stats.disk_rejects, 0u);
    EXPECT_GT(stats.macro_compiles, 0u);
}

TEST(CacheResilience, UnwritableStoreDropsOnceWarnsOnce) {
    TempDir dir;
    const auto root = make_model(31);
    PipelineOptions popts;
    ScopedFaultPlan armed(FaultPlan::parse("seed=1;cache.disk_write=every:1"));
    auto cache = std::make_shared<ProfileCache>(0, dir.path.string());
    cache->set_retry_policy(kFastRetry);
    Pipeline p(popts, cache);
    ::testing::internal::CaptureStderr();
    (void)p.compile(root);
    const std::string err = ::testing::internal::GetCapturedStderr();
    const PipelineStats stats = p.stats();
    EXPECT_GT(stats.store_drops, 0u);
    // One-shot warning: first drop announces, later drops stay silent.
    const auto first = err.find("not accepting writes");
    ASSERT_NE(first, std::string::npos) << err;
    EXPECT_EQ(err.find("not accepting writes", first + 1), std::string::npos) << err;
    // Drops are recoverable: the entries stayed in memory.
    EXPECT_GT(cache->size(), 0u);
}

TEST(CacheResilience, RenameFailureCountsAsDropAndLeavesNoTempFiles) {
    TempDir dir;
    const auto root = make_model(31);
    PipelineOptions popts;
    ScopedFaultPlan armed(FaultPlan::parse("seed=1;cache.disk_rename=every:1"));
    auto cache = std::make_shared<ProfileCache>(0, dir.path.string());
    cache->set_retry_policy(kFastRetry);
    Pipeline p(popts, cache);
    ::testing::internal::CaptureStderr();
    (void)p.compile(root);
    (void)::testing::internal::GetCapturedStderr();
    EXPECT_GT(p.stats().store_drops, 0u);
    for (const auto& f : fs::directory_iterator(dir.path))
        EXPECT_EQ(f.path().extension(), ".sbdp") << "dropped stores must clean their temp file: "
                                                 << f.path();
}

TEST(CacheResilience, DirCreateFailureThrowsUpFront) {
    TempDir dir;
    ScopedFaultPlan armed(FaultPlan::parse("seed=1;cache.dir_create=nth:1"));
    try {
        ProfileCache cache(0, (dir.path / "sub").string());
        FAIL() << "injected dir-create failure must surface";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("cannot create cache dir"), std::string::npos);
    }
}

TEST(CacheResilience, MemoryBudgetEvictsByBytesButKeepsWorking) {
    std::mt19937_64 rng(41);
    suite::DeepModelParams params;
    params.levels = 4;
    const auto root = suite::random_deep_model(rng, params);

    PipelineOptions popts;
    std::string expected;
    {
        Pipeline p(popts);
        expected = render(p.compile(root));
    }
    popts.budgets.memory_bytes = 4096; // far below the working set
    Pipeline p(popts);
    EXPECT_EQ(p.cache()->max_bytes(), 4096u) << "budget must reach the pipeline-owned cache";
    EXPECT_EQ(render(p.compile(root)), expected);
    EXPECT_LE(p.cache()->mem_bytes(), 4096u * 2)
        << "resident bytes must track the budget (one oversized entry is kept)";
    EXPECT_GE(p.stats().evictions, 1u);
    // A second compile under the same starved cache still agrees.
    EXPECT_EQ(render(p.compile(root)), expected);
}

// --------------------------------------------------------- engine deadlines

TEST(EngineResilience, InjectedTickFaultLeavesStateUntouched) {
    const auto root = make_model(51);
    PipelineOptions popts;
    Pipeline p(popts);
    const CompiledSystem sys = p.compile(root);
    const auto expected = engine_outputs(sys, root, 3);

    ScopedFaultPlan armed(FaultPlan::parse("seed=1;engine.tick=nth:2"));
    runtime::EngineConfig cfg;
    cfg.capacity = 2;
    runtime::Engine engine(sys, root, cfg);
    const auto ids = engine.create(2);
    std::vector<runtime::LcgInputSource> sources;
    for (std::size_t i = 0; i < 2; ++i) sources.emplace_back(1 + i);

    const auto fill = [&] {
        for (std::size_t i = 0; i < 2; ++i) sources[i].fill(engine.pool().inputs(ids[i]));
    };
    fill();
    engine.tick();
    EXPECT_THROW(engine.tick(), FaultInjected); // hit 2: fails before stepping
    engine.tick();                              // recovered: state not torn
    fill();
    engine.tick();
    const auto outputs = engine.pool().outputs(ids[0]);
    ASSERT_EQ(expected[1].size(), outputs.size());
    for (std::size_t o = 0; o < outputs.size(); ++o)
        EXPECT_DOUBLE_EQ(outputs[o], expected[1][o])
            << "a refused tick must not consume the instant";
}

TEST(EngineResilience, RealDeadlineStopsTicksWithCodedError) {
    const auto root = make_model(51);
    Pipeline p{PipelineOptions{}};
    const CompiledSystem sys = p.compile(root);
    runtime::EngineConfig cfg;
    cfg.capacity = 1;
    cfg.deadline_ms = 1;
    runtime::Engine engine(sys, root, cfg);
    (void)engine.create(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    try {
        engine.tick();
        FAIL() << "expired deadline must refuse the tick";
    } catch (const DeadlineExceeded& e) {
        EXPECT_NE(std::string(e.what()).find("deadline expired before tick"),
                  std::string::npos);
    }
}

TEST(PipelineResilience, InjectedDeadlineNamesTheSubtree) {
    const auto root = make_model(51);
    ScopedFaultPlan armed(FaultPlan::parse("seed=1;pipeline.deadline=nth:1"));
    Pipeline p{PipelineOptions{}};
    try {
        (void)p.compile(root);
        FAIL() << "injected pipeline deadline must surface";
    } catch (const DeadlineExceeded& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("deadline expired before compiling subtree"), std::string::npos);
        EXPECT_NE(what.find("partial result discarded"), std::string::npos);
    }
    EXPECT_GE(p.stats().deadline_misses, 1u);
}

// ------------------------------------------------- chaos differential harness

/// Outcome classes of one chaos run. Everything else is a test failure.
enum class Outcome { Identical, Budget, Deadline, Injected, CacheDir };

const char* to_string(Outcome o) {
    switch (o) {
    case Outcome::Identical: return "identical";
    case Outcome::Budget: return "budget_exhausted";
    case Outcome::Deadline: return "deadline_exceeded";
    case Outcome::Injected: return "fault_injected";
    case Outcome::CacheDir: return "cache_dir_error";
    }
    return "?";
}

struct ChaosConfig {
    std::shared_ptr<const MacroBlock> root;
    Method method = Method::Dynamic;
    std::string expected;                       ///< fault-free rendering
    std::vector<std::vector<double>> reference; ///< fault-free engine outputs
    std::vector<double> serve_reference;        ///< fault-free served outputs (zero inputs)
    fs::path cache_dir;                         ///< pre-populated (warm) disk cache
};

struct Coverage {
    std::uint64_t hits = 0;
    std::uint64_t injected = 0;
};

/// One chaos run under the armed plan: warm-or-cold compile through the
/// pipeline (disk cache), then a short engine trajectory, both compared
/// bit-for-bit against the fault-free reference. Throws the coded errors.
Outcome chaos_run(const ChaosConfig& cfg, const fs::path& cache_dir, std::size_t threads) {
    try {
        auto cache = std::make_shared<ProfileCache>(0, cache_dir.string());
        cache->set_retry_policy(kFastRetry);
        PipelineOptions popts;
        popts.method = cfg.method;
        popts.threads = threads;
        Pipeline pipeline(popts, cache);
        const CompiledSystem sys = pipeline.compile(cfg.root);
        EXPECT_EQ(render(sys), cfg.expected) << "fault-absorbing run diverged from oracle";
        const auto outs = engine_outputs(sys, cfg.root, cfg.reference.size());
        EXPECT_EQ(outs, cfg.reference) << "engine trajectory diverged from oracle";

        // Serve phase: the same compiled system behind a live loopback
        // server, one short tenant session per run. The serve.* points
        // (and the engine points firing inside the engine) must surface as
        // coded rejections or a cleanly dropped connection — never a crash
        // or a torn instant; a session that completes must read back the
        // fault-free outputs bit-for-bit. The session runs on a durable
        // store (fsync=always, checkpoint cadence 2), so durable.append /
        // durable.fsync fire on every mutation and durable.checkpoint
        // mid-session; a completed session is then recovered into a fresh
        // server (durable.recover fires there) and the recovered state must
        // match the served outputs bit-for-bit.
        static std::atomic<std::uint64_t> durable_serial{0};
        const fs::path durable_dir =
            cfg.cache_dir.parent_path() /
            ("serve_durable_" + std::to_string(durable_serial.fetch_add(1)));
        struct DirRemover {
            fs::path p;
            ~DirRemover() {
                std::error_code ec;
                fs::remove_all(p, ec);
            }
        } durable_cleanup{durable_dir};
        try {
            serve::ServerConfig scfg;
            scfg.endpoint = serve::Endpoint::parse("tcp:127.0.0.1:0");
            scfg.shard_capacity = 4;
            upgrade::CompileContext uctx;
            uctx.method = cfg.method;
            scfg.upgrade = std::move(uctx);
            scfg.model_source = text::to_sbd(*cfg.root);
            durable::Options dopts;
            dopts.data_dir = durable_dir;
            dopts.fsync = durable::FsyncMode::Always;
            dopts.checkpoint_every_ticks = 2;
            scfg.durable = dopts;
            std::vector<double> served;
            std::vector<serve::WireHandle> handles;
            {
                serve::Server server(sys, cfg.root, scfg);
                server.start();
                auto client = serve::Client::connect(server.endpoint());
                handles = client.create_instances(1, 2);
                for (std::size_t t = 0; t < cfg.reference.size(); ++t) (void)client.tick(1, 1);
                // Mid-session hot swap to the *identical* model: the plan is
                // all-CopySubtree, so live state — and therefore the outputs
                // read below — must stay bit-for-bit on the oracle whether the
                // swap lands or is rejected. serve.upgrade fires before the
                // compile, and compile-side points surface as coded
                // UPGRADE_REJECTED / FAULT_INJECTED / DEADLINE_EXCEEDED frames
                // that leave the running version untouched.
                try {
                    (void)client.upgrade_model(1, text::to_sbd(*cfg.root));
                } catch (const serve::ServeError& e) {
                    if (e.code() != serve::Err::FaultInjected &&
                        e.code() != serve::Err::DeadlineExceeded &&
                        e.code() != serve::Err::UpgradeRejected)
                        throw;
                }
                served = client.read_outputs(1, handles);
                const std::size_t nout = cfg.serve_reference.size();
                EXPECT_EQ(served.size(), 2 * nout) << "served output row count diverged";
                for (std::size_t i = 0; served.size() == 2 * nout && i < 2; ++i)
                    EXPECT_EQ(std::memcmp(served.data() + i * nout, cfg.serve_reference.data(),
                                          nout * sizeof(double)),
                              0)
                        << "served outputs diverged from oracle (instance " << i << ")";
            }
            // Recovery pass: a fresh server over the same durable store must
            // rebuild exactly the state the session acked. durable.recover
            // (checkpoint fallback) degrades to longer journal replay, never
            // to different state; replay-time injections abort the replay at
            // a consistent prefix (replay_aborted) instead of diverging.
            {
                serve::Server rec(sys, cfg.root, scfg);
                const serve::RecoveryStats rs = rec.recover();
                if (!rs.replay_aborted) {
                    EXPECT_EQ(rs.recovered_ticks, cfg.reference.size())
                        << "recovery lost acked ticks";
                    EXPECT_EQ(rs.live_instances, 2u) << "recovery lost live instances";
                    rec.start();
                    auto rclient = serve::Client::connect(rec.endpoint());
                    const auto recovered = rclient.read_outputs(1, handles);
                    EXPECT_EQ(recovered.size(), served.size());
                    if (recovered.size() == served.size()) {
                        EXPECT_EQ(std::memcmp(recovered.data(), served.data(),
                                              served.size() * sizeof(double)),
                                  0)
                            << "recovered outputs diverged from the acked session";
                    }
                }
            }
        } catch (const serve::ServeError& e) {
            if (e.code() == serve::Err::FaultInjected) return Outcome::Injected;
            if (e.code() == serve::Err::DeadlineExceeded) return Outcome::Deadline;
            if (e.code() == serve::Err::DurableFailed) return Outcome::Injected;
            throw; // any other coded rejection is undocumented here: fail
        } catch (const durable::DurableError&) {
            // An injected durable.append/fsync that fires outside a request
            // (e.g. while the recovery server replays) surfaces as the coded
            // DurableError itself rather than a protocol status.
            return Outcome::Injected;
        } catch (const std::runtime_error&) {
            // serve.accept drops the connection before the first frame, so
            // the client sees a transport error. That drop is the documented
            // degradation — but only accept it when the registry confirms
            // the point actually fired; anything else is a real bug.
            for (const PointStats& pt : FaultRegistry::instance().snapshot())
                if (pt.name == "serve.accept" && pt.injected > 0) return Outcome::Injected;
            throw;
        }
        return Outcome::Identical;
    } catch (const BudgetExhausted&) {
        return Outcome::Budget;
    } catch (const DeadlineExceeded&) {
        return Outcome::Deadline;
    } catch (const FaultInjected&) {
        return Outcome::Injected;
    } catch (const std::runtime_error& e) {
        if (std::string(e.what()).find("cannot create cache dir") != std::string::npos)
            return Outcome::CacheDir;
        throw; // undocumented error: the harness fails
    }
}

TEST(Chaos, DifferentialHarness) {
    // SBD_CHAOS_SEED varies the whole campaign (CI runs 3 fixed seeds).
    std::uint64_t campaign_seed = 2026;
    if (const char* env = std::getenv("SBD_CHAOS_SEED")) campaign_seed = std::strtoull(env, nullptr, 10);

    constexpr std::size_t kCatalogSize = std::size(kFaultPointCatalog);
    constexpr std::size_t kRandomRuns = 500;
    constexpr std::size_t kTicks = 4;

    TempDir dir;
    std::vector<ChaosConfig> configs;
    for (const std::uint64_t model_seed : {11u, 12u})
        for (const Method method : {Method::Dynamic, Method::DisjointSat}) {
            ChaosConfig cfg;
            cfg.root = make_model(model_seed);
            cfg.method = method;
            cfg.cache_dir =
                dir.path / ("warm_" + std::to_string(model_seed) + "_" + to_string(method));
            PipelineOptions popts;
            popts.method = method;
            popts.cache_dir = cfg.cache_dir.string();
            Pipeline p(popts);
            const CompiledSystem sys = p.compile(cfg.root);
            cfg.expected = render(sys);
            cfg.reference = engine_outputs(sys, cfg.root, kTicks);
            {
                // Fault-free serve oracle: the session posts no inputs, so
                // it equals a direct zero-input engine run of kTicks.
                runtime::EngineConfig ecfg;
                ecfg.capacity = 1;
                runtime::Engine engine(sys, cfg.root, ecfg);
                const auto id = engine.create(1).front();
                engine.tick(kTicks);
                const auto outs = engine.pool().outputs(id);
                cfg.serve_reference.assign(outs.begin(), outs.end());
            }
            configs.push_back(std::move(cfg));
        }

    std::map<std::string, Coverage> coverage;
    std::map<Outcome, std::uint64_t> outcomes;
    std::size_t runs = 0;

    const auto record = [&](Outcome outcome) {
        ++outcomes[outcome];
        ++runs;
        for (const PointStats& pt : FaultRegistry::instance().snapshot()) {
            coverage[pt.name].hits += pt.hits;
            coverage[pt.name].injected += pt.injected;
        }
    };

    // Directed phase: every cataloged point, pinned to the earliest hit, on
    // a cold cache with the SAT method — guarantees each point injects at
    // least once regardless of how the random phase samples.
    std::size_t directed = 0;
    for (const char* point : kFaultPointCatalog)
        for (const char* sched : {"nth:1", "every:2"}) {
            const ChaosConfig& cfg = configs[1]; // model 11, DisjointSat
            const fs::path cold = dir.path / ("directed_" + std::to_string(directed++));
            FaultPlan plan =
                FaultPlan::parse("seed=" + std::to_string(campaign_seed) + ";" +
                                 std::string(point) + "=" + sched);
            Outcome outcome;
            {
                ScopedFaultPlan armed(plan);
                outcome = chaos_run(cfg, cold, 1);
                // Cold cache first, then a warm pass so the read-side points
                // (disk_read/disk_corrupt) execute against real records.
                if (outcome == Outcome::Identical) outcome = chaos_run(cfg, cold, 1);
            }
            record(outcome);
        }

    // Random phase: seeded plans over 1–3 points, warm and cold caches,
    // serial and 2-thread pipelines.
    std::mt19937_64 rng(campaign_seed);
    std::size_t cold_serial = 0;
    for (std::size_t i = 0; i < kRandomRuns; ++i) {
        const ChaosConfig& cfg = configs[rng() % configs.size()];
        FaultPlan plan;
        plan.seed = rng();
        const std::size_t npts = 1 + rng() % 3;
        for (std::size_t j = 0; j < npts; ++j) {
            const char* point = kFaultPointCatalog[rng() % kCatalogSize];
            Schedule sched;
            switch (rng() % 3) {
            case 0:
                sched.kind = ScheduleKind::Nth;
                sched.n = 1 + rng() % 4;
                break;
            case 1:
                sched.kind = ScheduleKind::EveryK;
                sched.n = 1 + rng() % 3;
                break;
            default:
                sched.kind = ScheduleKind::Prob;
                sched.p = 0.2 + 0.6 * (static_cast<double>(rng() % 1000) / 1000.0);
                break;
            }
            plan.points.emplace_back(point, sched);
        }
        const bool cold = rng() % 4 == 0;
        const fs::path cache_dir =
            cold ? dir.path / ("cold_" + std::to_string(cold_serial++)) : cfg.cache_dir;
        const std::size_t threads = 1 + rng() % 2;
        Outcome outcome;
        {
            ScopedFaultPlan armed(plan);
            outcome = chaos_run(cfg, cache_dir, threads);
        }
        record(outcome);
        if (cold) {
            std::error_code ec;
            fs::remove_all(cache_dir, ec);
        }
    }

    // The campaign's acceptance bar: enough runs, every cataloged point
    // both executed and injected, both absorbed and surfaced outcomes seen.
    EXPECT_GE(runs, 500u);
    for (const char* point : kFaultPointCatalog) {
        EXPECT_GT(coverage[point].hits, 0u) << point << " never executed";
        EXPECT_GT(coverage[point].injected, 0u) << point << " never injected";
    }
    EXPECT_GT(outcomes[Outcome::Identical], 0u);
    EXPECT_GT(outcomes[Outcome::Injected] + outcomes[Outcome::Deadline] +
                  outcomes[Outcome::Budget],
              0u);

    // Machine-readable campaign report (CI uploads it as an artifact).
    std::ofstream report("FAULT_coverage.json");
    report << "{\n  \"campaign_seed\": " << campaign_seed << ",\n  \"runs\": " << runs
           << ",\n  \"outcomes\": {";
    bool first = true;
    for (const auto& [outcome, count] : outcomes) {
        report << (first ? "" : ", ") << "\"" << to_string(outcome) << "\": " << count;
        first = false;
    }
    report << "},\n  \"points\": {\n";
    first = true;
    for (const auto& [name, cov] : coverage) {
        report << (first ? "" : ",\n") << "    \"" << name << "\": {\"hits\": " << cov.hits
               << ", \"injected\": " << cov.injected << "}";
        first = false;
    }
    report << "\n  }\n}\n";
}

} // namespace
