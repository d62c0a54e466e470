// Durability benchmark: what the write-ahead journal costs per served
// tick, and what recovery costs per journaled record.
//
// Four configurations of the same loopback serving loop (post one input
// row per instance, then TICK) are timed: no durable store at all, and a
// store with --fsync off / batch / always. The headline gate is the
// p99 tick round-trip of *batch* mode against the no-store baseline:
// batch is the recommended production mode, and it must stay within +25%
// (plus a small absolute allowance for timer noise on loaded CI machines).
// fsync=always is reported but not gated — its cost is the disk's honest
// fsync latency, which varies by orders of magnitude across machines.
//
// The second table grows a journal (checkpoints disabled) and measures
// boot-time recovery against its length, plus one checkpointed variant to
// show the cadence collapsing replay to the post-checkpoint tail.
//
// Machine-readable output: BENCH_durable.json in the working directory.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/compiler.hpp"
#include "durable/durable.hpp"
#include "runtime/engine.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "suite/models.hpp"
#include "sbd/text_format.hpp"
#include "upgrade/upgrade.hpp"

namespace {

using namespace sbd;
namespace fs = std::filesystem;
using serve::Client;
using serve::Endpoint;
using serve::Server;
using serve::ServerConfig;
using serve::WireHandle;

constexpr std::size_t kInstances = 8;
constexpr std::size_t kWarmup = 20;
constexpr std::size_t kTicks = 300;

struct ModeResult {
    std::string mode; ///< "none" | "off" | "batch" | "always"
    std::uint64_t p50_ns = 0;
    std::uint64_t p99_ns = 0;
    double ticks_per_sec = 0.0;
    std::uint64_t journal_bytes = 0; ///< appended during the measured loop
};

struct RecoveryResult {
    std::size_t ticks = 0;
    std::uint64_t checkpoint_every = 0; ///< 0 = journal-only
    std::uint64_t replayed_records = 0;
    double recovery_ms = 0.0;
    bool exact = false; ///< recovered tick counter matches the session
};

std::uint64_t percentile_ns(std::vector<std::uint64_t> v, double q) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t idx =
        std::min(v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(v.size())));
    return v[idx];
}

struct TempDir {
    fs::path path;
    explicit TempDir(const char* tag) {
        static std::size_t serial = 0;
        path = fs::temp_directory_path() /
               ("sbd_bench_durable_" + std::string(tag) + "_" + std::to_string(serial++));
        fs::create_directories(path);
    }
    ~TempDir() {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
};

ServerConfig base_config(const std::string& source) {
    ServerConfig cfg;
    cfg.endpoint = Endpoint::parse("tcp:127.0.0.1:0");
    cfg.shard_capacity = 2 * kInstances;
    upgrade::CompileContext uctx;
    cfg.upgrade = std::move(uctx);
    cfg.model_source = source;
    return cfg;
}

/// One post-row-then-tick serving loop; returns per-iteration round trips.
ModeResult run_mode(const codegen::CompiledSystem& sys, const BlockPtr& root,
                    const std::string& source, const char* mode) {
    using clock = std::chrono::steady_clock;
    ModeResult r;
    r.mode = mode;

    TempDir dir(mode);
    ServerConfig cfg = base_config(source);
    const bool store = std::strcmp(mode, "none") != 0;
    if (store) {
        durable::Options dopts;
        dopts.data_dir = dir.path / "data";
        dopts.fsync = *durable::parse_fsync_mode(mode);
        dopts.checkpoint_every_ticks = 256;
        cfg.durable = dopts;
    }
    Server server(sys, root, cfg);
    server.start();
    Client client = Client::connect(server.endpoint());

    const auto handles = client.create_instances(1, kInstances);
    const std::size_t nin = root->num_inputs();
    std::vector<double> rows(kInstances * nin);
    std::vector<runtime::LcgInputSource> srcs;
    for (std::size_t i = 0; i < kInstances; ++i) srcs.emplace_back(300 + i);

    const auto iteration = [&] {
        for (std::size_t i = 0; i < kInstances; ++i)
            srcs[i].fill({rows.data() + i * nin, nin});
        client.post_inputs(1, handles, rows);
        client.tick(1, 1);
    };
    for (std::size_t t = 0; t < kWarmup; ++t) iteration();

    const std::uint64_t bytes_before =
        store ? server.durable_store()->journal().appended_bytes() : 0;
    std::vector<std::uint64_t> lat;
    lat.reserve(kTicks);
    const auto loop_start = clock::now();
    for (std::size_t t = 0; t < kTicks; ++t) {
        const auto t0 = clock::now();
        iteration();
        lat.push_back(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - t0).count()));
    }
    const double total_s =
        std::chrono::duration<double>(clock::now() - loop_start).count();
    r.p50_ns = percentile_ns(lat, 0.50);
    r.p99_ns = percentile_ns(lat, 0.99);
    r.ticks_per_sec = static_cast<double>(kTicks) / total_s;
    if (store)
        r.journal_bytes = server.durable_store()->journal().appended_bytes() - bytes_before;
    server.request_stop();
    server.wait();
    return r;
}

/// Grows a journal of `ticks` instants, then measures a cold recover().
RecoveryResult run_recovery(const codegen::CompiledSystem& sys, const BlockPtr& root,
                            const std::string& source, std::size_t ticks,
                            std::uint64_t checkpoint_every) {
    RecoveryResult r;
    r.ticks = ticks;
    r.checkpoint_every = checkpoint_every;

    TempDir dir("recover");
    ServerConfig cfg = base_config(source);
    durable::Options dopts;
    dopts.data_dir = dir.path / "data";
    dopts.fsync = durable::FsyncMode::Off; // journal length, not disk latency
    dopts.checkpoint_every_ticks = checkpoint_every;
    cfg.durable = dopts;
    {
        Server server(sys, root, cfg);
        server.start();
        Client client = Client::connect(server.endpoint());
        const auto handles = client.create_instances(1, 4);
        const std::size_t nin = root->num_inputs();
        std::vector<double> rows(handles.size() * nin);
        std::vector<runtime::LcgInputSource> srcs;
        for (std::size_t i = 0; i < handles.size(); ++i) srcs.emplace_back(700 + i);
        for (std::size_t t = 0; t < ticks; ++t) {
            for (std::size_t i = 0; i < handles.size(); ++i)
                srcs[i].fill({rows.data() + i * nin, nin});
            client.post_inputs(1, handles, rows);
            client.tick(1, 1);
        }
        server.request_stop();
        server.wait();
    }
    Server recovered(sys, root, cfg);
    const serve::RecoveryStats rs = recovered.recover();
    r.replayed_records = rs.replayed_records;
    r.recovery_ms = static_cast<double>(rs.recovery_ns) / 1e6;
    r.exact = !rs.replay_aborted && rs.recovered_ticks == ticks && rs.live_instances == 4;
    return r;
}

void write_json(const std::vector<ModeResult>& modes,
                const std::vector<RecoveryResult>& recoveries, double batch_ratio,
                bool gates_pass) {
    std::FILE* f = std::fopen("BENCH_durable.json", "w");
    if (!f) {
        std::fprintf(stderr, "cannot write BENCH_durable.json\n");
        return;
    }
    std::fprintf(f, "{\n  \"bench\": \"durable\",\n");
    std::fprintf(f, "  \"hardware_concurrency\": %u,\n", std::thread::hardware_concurrency());
    std::fprintf(f, "  \"instances\": %zu,\n  \"ticks\": %zu,\n", kInstances, kTicks);
    std::fprintf(f, "  \"batch_p99_over_baseline\": %.3f,\n", batch_ratio);
    std::fprintf(f, "  \"gates_pass\": %s,\n  \"modes\": [\n", gates_pass ? "true" : "false");
    for (std::size_t i = 0; i < modes.size(); ++i) {
        const ModeResult& m = modes[i];
        std::fprintf(f,
                     "    {\"mode\": \"%s\", \"tick_p50_ns\": %llu, \"tick_p99_ns\": %llu, "
                     "\"ticks_per_sec\": %.0f, \"journal_bytes\": %llu}%s\n",
                     m.mode.c_str(), static_cast<unsigned long long>(m.p50_ns),
                     static_cast<unsigned long long>(m.p99_ns), m.ticks_per_sec,
                     static_cast<unsigned long long>(m.journal_bytes),
                     i + 1 < modes.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"recovery\": [\n");
    for (std::size_t i = 0; i < recoveries.size(); ++i) {
        const RecoveryResult& r = recoveries[i];
        std::fprintf(f,
                     "    {\"ticks\": %zu, \"checkpoint_every\": %llu, "
                     "\"replayed_records\": %llu, \"recovery_ms\": %.3f, \"exact\": %s}%s\n",
                     r.ticks, static_cast<unsigned long long>(r.checkpoint_every),
                     static_cast<unsigned long long>(r.replayed_records), r.recovery_ms,
                     r.exact ? "true" : "false", i + 1 < recoveries.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote BENCH_durable.json\n");
}

} // namespace

int main() {
    const auto root = suite::thermostat();
    const auto sys = codegen::compile_hierarchy(root, codegen::Method::Dynamic);
    const std::string source = text::to_sbd(*root);

    std::printf("durable serving: journal overhead per tick and recovery cost\n");
    sbd::bench::rule('-', 76);
    std::printf("%8s | %12s | %12s | %12s | %14s\n", "fsync", "p50 (ms)", "p99 (ms)",
                "ticks/sec", "journal bytes");
    sbd::bench::rule('-', 76);

    std::vector<ModeResult> modes;
    for (const char* mode : {"none", "off", "batch", "always"}) {
        modes.push_back(run_mode(sys, root, source, mode));
        const ModeResult& m = modes.back();
        std::printf("%8s | %12.3f | %12.3f | %12.0f | %14llu\n", m.mode.c_str(),
                    m.p50_ns / 1e6, m.p99_ns / 1e6, m.ticks_per_sec,
                    static_cast<unsigned long long>(m.journal_bytes));
    }
    sbd::bench::rule('-', 76);

    std::printf("recovery vs. journal length (fsync off):\n");
    sbd::bench::rule('-', 64);
    std::printf("%8s | %16s | %16s | %12s\n", "ticks", "ckpt cadence", "replayed recs",
                "recover ms");
    sbd::bench::rule('-', 64);
    std::vector<RecoveryResult> recoveries;
    for (const auto& [ticks, cadence] :
         std::vector<std::pair<std::size_t, std::uint64_t>>{
             {200, 0}, {800, 0}, {3200, 0}, {3200, 64}}) {
        recoveries.push_back(run_recovery(sys, root, source, ticks, cadence));
        const RecoveryResult& r = recoveries.back();
        std::printf("%8zu | %16llu | %16llu | %12.3f%s\n", r.ticks,
                    static_cast<unsigned long long>(r.checkpoint_every),
                    static_cast<unsigned long long>(r.replayed_records), r.recovery_ms,
                    r.exact ? "" : "  (INEXACT)");
    }
    sbd::bench::rule('-', 64);

    // Gates. The +25% batch ceiling gets a 2 ms absolute allowance: at
    // sub-millisecond loopback latencies a scheduler hiccup is bigger than
    // the whole budget, and the gate is after the journal's cost, not the
    // kernel's mood. Checkpointed recovery must also beat the same-length
    // journal-only replay's record count — that is the cadence's whole job.
    const std::uint64_t none_p99 = modes[0].p99_ns;
    const std::uint64_t batch_p99 = modes[2].p99_ns;
    const double batch_ratio =
        none_p99 ? static_cast<double>(batch_p99) / static_cast<double>(none_p99) : 0.0;
    bool gates = batch_p99 <= none_p99 + none_p99 / 4 + 2'000'000ull;
    for (const RecoveryResult& r : recoveries)
        if (!r.exact) gates = false;
    if (recoveries.back().replayed_records >= recoveries[2].replayed_records) gates = false;
    if (recoveries.back().recovery_ms > 5000.0) gates = false;

    std::printf("batch p99 / baseline p99: %.2fx (gate: <= 1.25x + 2ms)\n", batch_ratio);
    write_json(modes, recoveries, batch_ratio, gates);
    std::printf("gates: %s\n", gates ? "PASS" : "FAIL");
    return gates ? 0 : 1;
}
