// Live-upgrade benchmark: how incremental the recompile is and how long
// the swap pause lasts.
//
// Reuse: for each model, a single deep-subtree edit (one leaf subsystem
// replaced, everything else untouched) is recompiled through the profile
// cache that compiled v1; the cell records the structural diff's reuse
// ratio and the pipeline's actual cache-hit counters. Swap pause: a
// 256-instance engine is rebound old<->new repeatedly and each pause
// (prepare + migrate + commit, the window in which no instant can run) is
// timed; a second table measures the served path's UPGRADE_MODEL swap_ns
// over a live loopback connection.
//
// Machine-readable output: BENCH_upgrade.json. Gates (exit code): every
// single-subtree edit of a model with >= 6 macro units must reuse >= 50%
// of them, the engine-level p99 swap pause must stay under the 100 ms
// tick deadline, and the served swap p99 must too.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/pipeline.hpp"
#include "runtime/engine.hpp"
#include "sbd/library.hpp"
#include "sbd/text_format.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "suite/models.hpp"
#include "suite/random_models.hpp"
#include "upgrade/upgrade.hpp"

namespace {

using namespace sbd;
using codegen::Method;

constexpr std::uint64_t kTickDeadlineNs = 100ull * 1000 * 1000; // 100 ms

std::uint64_t percentile_ns(std::vector<std::uint64_t> v, double q) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t idx =
        std::min(v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(v.size())));
    return v[idx];
}

// --- single-deep-subtree editor -------------------------------------------

std::shared_ptr<MacroBlock> shell_of(const MacroBlock& m) {
    std::vector<std::string> ins, outs;
    for (std::size_t i = 0; i < m.num_inputs(); ++i) ins.push_back(m.input_name(i));
    for (std::size_t o = 0; o < m.num_outputs(); ++o) outs.push_back(m.output_name(o));
    return std::make_shared<MacroBlock>(m.type_name(), std::move(ins), std::move(outs));
}

/// Same-interface Moore stand-in: each output an integrator of one input,
/// so the edit can never introduce an algebraic loop in any parent.
BlockPtr stand_in_for(const MacroBlock& victim, double seed) {
    auto repl = shell_of(victim);
    for (std::size_t o = 0; o < victim.num_outputs(); ++o) {
        const std::string inst = "Upg" + std::to_string(o);
        repl->add_sub(inst, lib::integrator(0.1, seed + static_cast<double>(o)));
        repl->connect(victim.input_name(o % victim.num_inputs()), inst + ".u");
        repl->connect(inst + ".y", victim.output_name(o));
    }
    repl->validate();
    return repl;
}

BlockPtr rebuild_with(const MacroBlock& m, std::size_t index, const BlockPtr& repl) {
    auto c = shell_of(m);
    for (std::size_t s = 0; s < m.num_subs(); ++s) {
        const auto& sub = m.sub(s);
        const auto id = c->add_sub(sub.name, s == index ? repl : sub.type);
        if (sub.trigger) c->set_trigger(id, *sub.trigger);
    }
    for (const Connection& conn : m.connections()) c->connect(conn.src, conn.dst);
    c->validate();
    return c;
}

/// Replaces the deepest nested subsystem reachable from the first macro
/// child and rebuilds only the spine above it — the minimal "one subsystem
/// edited in the editor" delta. Returns nullptr if `m` has no usable
/// macro child.
BlockPtr replace_deepest(const MacroBlock& m, double seed) {
    for (std::size_t s = 0; s < m.num_subs(); ++s) {
        if (m.sub(s).type->is_atomic()) continue;
        const auto& sub = static_cast<const MacroBlock&>(*m.sub(s).type);
        if (sub.num_inputs() == 0 || sub.num_outputs() == 0) continue;
        const BlockPtr deeper = replace_deepest(sub, seed);
        return rebuild_with(m, s, deeper ? deeper : stand_in_for(sub, seed));
    }
    return nullptr;
}

// --- reuse cells ----------------------------------------------------------

struct ReuseCell {
    std::string model;
    std::uint64_t units_total = 0;
    std::uint64_t units_reused = 0;
    std::uint64_t cache_reuses = 0;   ///< pipeline counters for the v2 compile
    std::uint64_t cache_compiles = 0;
    double reuse_ratio = 0.0;
    bool gated = false; ///< counts toward the >= 50% gate
};

ReuseCell measure_reuse(const std::string& name, const BlockPtr& root) {
    ReuseCell cell;
    cell.model = name;
    const BlockPtr v2 = replace_deepest(static_cast<const MacroBlock&>(*root), 2.5);
    if (!v2) return cell; // flat model: no single-subtree edit exists

    auto cache = std::make_shared<codegen::ProfileCache>(0);
    codegen::PipelineOptions popts;
    popts.method = Method::Dynamic;
    codegen::Pipeline p1(popts, cache);
    (void)p1.compile(root);

    codegen::Pipeline p2(popts, cache);
    (void)p2.compile(v2);
    cell.cache_reuses = p2.stats().macro_reuses;
    cell.cache_compiles = p2.stats().macro_compiles;

    const upgrade::ModelDiff diff = upgrade::diff_models(root, v2);
    cell.units_total = diff.units_total;
    cell.units_reused = diff.units_reused;
    cell.reuse_ratio = diff.reuse_ratio();
    cell.gated = diff.units_total >= 6;
    return cell;
}

// --- swap pause -----------------------------------------------------------

struct SwapStats {
    std::size_t swaps = 0;
    std::size_t instances = 0;
    std::uint64_t p50_ns = 0;
    std::uint64_t p99_ns = 0;
};

/// Engine-level pause: the wall-clock cost of rebind() itself — the window
/// during which the pool is pinned and no instant can start — with 256
/// live instances carrying state both ways.
SwapStats measure_engine_swap(std::size_t instances, std::size_t swaps) {
    using clock = std::chrono::steady_clock;
    const auto old_root = suite::thermostat();
    const BlockPtr new_root = replace_deepest(*old_root, 3.5);

    codegen::PipelineOptions popts;
    popts.method = Method::Dynamic;
    codegen::Pipeline p(popts);
    const codegen::CompiledSystem sys_old = p.compile(old_root);
    const codegen::CompiledSystem sys_new = p.compile(new_root);
    const upgrade::MigrationPlan fwd =
        upgrade::plan_migration(sys_old, old_root, sys_new, new_root);
    const upgrade::MigrationPlan back =
        upgrade::plan_migration(sys_new, new_root, sys_old, old_root);

    runtime::EngineConfig ecfg;
    ecfg.capacity = instances;
    runtime::Engine eng(sys_old, old_root, ecfg);
    eng.create(instances);
    eng.tick(5);

    SwapStats st;
    st.instances = instances;
    std::vector<std::uint64_t> pauses;
    for (std::size_t n = 0; n < swaps; ++n) {
        const bool forward = n % 2 == 0;
        const auto t0 = clock::now();
        if (forward)
            eng.rebind(sys_new, new_root, nullptr, fwd);
        else
            eng.rebind(sys_old, old_root, nullptr, back);
        pauses.push_back(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - t0)
                .count()));
        eng.tick(2); // keep real state flowing between swaps
    }
    st.swaps = pauses.size();
    st.p50_ns = percentile_ns(pauses, 0.50);
    st.p99_ns = percentile_ns(pauses, 0.99);
    return st;
}

/// Served pause: the server's own swap_ns (exclusive-lock prepare+commit)
/// over repeated UPGRADE_MODEL round-trips while the instances stay live.
SwapStats measure_served_swap(std::size_t instances, std::size_t swaps) {
    const auto root = suite::thermostat();
    auto cache = std::make_shared<codegen::ProfileCache>(0);
    codegen::PipelineOptions popts;
    popts.method = Method::Dynamic;
    codegen::Pipeline pipeline(popts, cache);
    const codegen::CompiledSystem sys = pipeline.compile(root);

    serve::ServerConfig cfg;
    cfg.endpoint = serve::Endpoint::parse("tcp:127.0.0.1:0");
    cfg.shard_capacity = 2 * instances;
    upgrade::CompileContext uctx;
    uctx.method = Method::Dynamic;
    uctx.cache = cache;
    cfg.upgrade = std::move(uctx);
    serve::Server server(sys, root, cfg);
    server.start();
    auto client = serve::Client::connect(server.endpoint());
    (void)client.create_instances(1, static_cast<std::uint32_t>(instances));
    (void)client.tick(1, 5);

    const std::string v1 = text::to_sbd(*root);
    const BlockPtr edited = replace_deepest(*root, 4.5);
    const std::string v2 = text::to_sbd(static_cast<const MacroBlock&>(*edited));

    SwapStats st;
    st.instances = instances;
    std::vector<std::uint64_t> pauses;
    for (std::size_t n = 0; n < swaps; ++n) {
        const serve::UpgradeResult r =
            client.upgrade_model(1, n % 2 == 0 ? v2 : v1);
        pauses.push_back(r.swap_ns);
        (void)client.tick(1, 2);
    }
    st.swaps = pauses.size();
    st.p50_ns = percentile_ns(pauses, 0.50);
    st.p99_ns = percentile_ns(pauses, 0.99);
    server.request_stop();
    server.wait();
    return st;
}

void write_json(const std::vector<ReuseCell>& cells, const SwapStats& engine,
                const SwapStats& served, bool gates_pass) {
    std::FILE* f = std::fopen("BENCH_upgrade.json", "w");
    if (!f) {
        std::fprintf(stderr, "cannot write BENCH_upgrade.json\n");
        return;
    }
    std::fprintf(f, "{\n  \"bench\": \"upgrade\",\n");
    std::fprintf(f, "  \"tick_deadline_ns\": %llu,\n",
                 static_cast<unsigned long long>(kTickDeadlineNs));
    std::fprintf(f, "  \"gates_pass\": %s,\n  \"reuse\": [\n", gates_pass ? "true" : "false");
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const ReuseCell& c = cells[i];
        std::fprintf(f,
                     "    {\"model\": \"%s\", \"units_total\": %llu, "
                     "\"units_reused\": %llu, \"reuse_ratio\": %.3f, "
                     "\"cache_reuses\": %llu, \"cache_compiles\": %llu, "
                     "\"gated\": %s}%s\n",
                     c.model.c_str(), static_cast<unsigned long long>(c.units_total),
                     static_cast<unsigned long long>(c.units_reused), c.reuse_ratio,
                     static_cast<unsigned long long>(c.cache_reuses),
                     static_cast<unsigned long long>(c.cache_compiles),
                     c.gated ? "true" : "false", i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    const auto swap_obj = [&](const char* key, const SwapStats& s, const char* tail) {
        std::fprintf(f,
                     "  \"%s\": {\"instances\": %zu, \"swaps\": %zu, "
                     "\"p50_ns\": %llu, \"p99_ns\": %llu}%s\n",
                     key, s.instances, s.swaps, static_cast<unsigned long long>(s.p50_ns),
                     static_cast<unsigned long long>(s.p99_ns), tail);
    };
    swap_obj("engine_swap", engine, ",");
    swap_obj("served_swap", served, "");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote BENCH_upgrade.json\n");
}

} // namespace

int main() {
    std::printf("live upgrades: subtree reuse on single-subsystem edits, swap pause\n");

    std::vector<ReuseCell> cells;
    cells.push_back(measure_reuse("thermostat", suite::thermostat()));
    cells.push_back(measure_reuse("fuel_controller", suite::fuel_controller()));
    cells.push_back(measure_reuse("shared_chain_sensor", suite::shared_chain_sensor()));
    {
        std::mt19937_64 rng(42);
        suite::RandomModelParams params;
        params.depth = 3;
        params.subs_per_level = 5;
        params.macro_probability = 0.6;
        cells.push_back(measure_reuse("random_deep_42", suite::random_model(rng, params)));
    }

    sbd::bench::rule('-', 84);
    std::printf("%-22s | %11s | %12s | %11s | %6s\n", "model", "units", "reused",
                "reuse ratio", "gated");
    sbd::bench::rule('-', 84);
    for (const ReuseCell& c : cells)
        std::printf("%-22s | %11llu | %12llu | %10.0f%% | %6s\n", c.model.c_str(),
                    static_cast<unsigned long long>(c.units_total),
                    static_cast<unsigned long long>(c.units_reused), 100.0 * c.reuse_ratio,
                    c.gated ? "yes" : "no");
    sbd::bench::rule('-', 84);

    const SwapStats engine = measure_engine_swap(/*instances=*/256, /*swaps=*/30);
    const SwapStats served = measure_served_swap(/*instances=*/64, /*swaps=*/20);
    std::printf("engine rebind pause (%zu instances, %zu swaps): p50 %.3f ms, p99 %.3f ms\n",
                engine.instances, engine.swaps, engine.p50_ns / 1e6, engine.p99_ns / 1e6);
    std::printf("served swap pause  (%zu instances, %zu swaps): p50 %.3f ms, p99 %.3f ms\n",
                served.instances, served.swaps, served.p50_ns / 1e6, served.p99_ns / 1e6);

    // Gates: a single-subsystem edit of any model with >= 6 macro units
    // must reuse at least half of them, and the swap pause — both the raw
    // engine rebind and the served exclusive-lock window — must fit inside
    // one 100 ms tick deadline at p99.
    bool gates = engine.swaps > 0 && served.swaps > 0;
    std::size_t gated_cells = 0;
    for (const ReuseCell& c : cells) {
        if (!c.gated) continue;
        ++gated_cells;
        if (c.reuse_ratio < 0.5) {
            std::printf("GATE: %s reuse %.0f%% < 50%%\n", c.model.c_str(),
                        100.0 * c.reuse_ratio);
            gates = false;
        }
    }
    if (gated_cells == 0) {
        std::printf("GATE: no model large enough to gate reuse\n");
        gates = false;
    }
    if (engine.p99_ns > kTickDeadlineNs || served.p99_ns > kTickDeadlineNs) {
        std::printf("GATE: p99 swap pause exceeds the tick deadline\n");
        gates = false;
    }
    write_json(cells, engine, served, gates);
    std::printf("gates: %s\n", gates ? "PASS" : "FAIL");
    return gates ? 0 : 1;
}
