// sbd-serve — long-running simulation service for one compiled model.
//
// Compiles the model through the standard pipeline (honoring --cache-dir
// and --jobs like sbdc), then hosts one instance engine behind the SBDS binary
// protocol on a TCP or Unix socket: CREATE_INSTANCES / DESTROY_INSTANCES /
// POST_INPUTS / TICK / READ_OUTPUTS / SNAPSHOT / STATS / UPGRADE_MODEL /
// SHUTDOWN. A plain HTTP `GET /metrics` on the same port answers the
// Prometheus text exposition. Per-tenant budgets shed CREATE load with
// coded TENANT_BUDGET rejections; a tick deadline rejects whole instants,
// never tears one.
//
// UPGRADE_MODEL hot-swaps a new model version into the running engine at
// an instant boundary: unchanged subtrees are served from the boot-time
// profile cache (only the changed frontier recompiles) and live instance
// state migrates old -> new by stable block path. Rejections are coded
// UPGRADE_REJECTED frames; --no-live-upgrade disables the opcode.
//
// With --data-dir the service is crash-safe: every mutation (CREATE /
// DESTROY / POST_INPUTS / TICK / UPGRADE_MODEL) is appended to a
// checksummed write-ahead journal before it is applied, and periodic
// durable checkpoints bound replay. On startup the newest valid checkpoint
// is restored and the journal tail replayed, rebuilding the exact acked
// state bit-for-bit — --fsync picks the durability/latency trade-off.
//
//   sbd-serve --listen tcp:127.0.0.1:7070 --capacity 4096 model.sbd
//   sbd-serve --listen unix:/tmp/sbd.sock --tenant-max-instances 64 model.sbd
//   sbd-serve --listen tcp:127.0.0.1:0 --endpoint-file ep.txt model.sbd &
//   sbd-serve --data-dir /var/lib/sbd --fsync always model.sbd
//   sbd-serve --data-dir /var/lib/sbd --recover-verify model.sbd
//   sbd-serve --journal-dump /var/lib/sbd/journal
//
// The daemon runs until SIGINT/SIGTERM or a protocol SHUTDOWN, then drains
// and exits 0.
//
// Exit codes: 0 ok, 1 error, 2 usage, 3 parse error, 4 compile (cycle)
//             rejection, 5 deep-analysis rejection (a provably broken
//             model: SBD022 guaranteed division by zero or SBD024
//             always-NaN/infinite output), 6 budget exhausted, 7 deadline
//             exceeded (compile-time; serving-time rejections are coded
//             protocol errors the *client* maps to exit 8), 9 native
//             backend unavailable or failed, 11 durable store unusable
//             (journal unwritable at boot or recovery failed).

#include <atomic>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "analysis/absint.hpp"
#include "cli_common.hpp"
#include "core/pipeline.hpp"
#include "durable/durable.hpp"
#include "native/native.hpp"
#include "sbd/text_format.hpp"
#include "serve/server.hpp"
#include "upgrade/upgrade.hpp"

namespace {

using namespace sbd;

std::atomic<serve::Server*> g_server{nullptr};

/// SIGINT/SIGTERM are masked in every thread and consumed by a dedicated
/// sigwait thread, which turns them into a clean request_stop(). No
/// async-signal-safety games: sigwait returns in a normal thread context.
void install_signal_drain() {
    sigset_t set;
    sigemptyset(&set);
    sigaddset(&set, SIGINT);
    sigaddset(&set, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &set, nullptr);
    std::thread([set]() mutable {
        int sig = 0;
        sigwait(&set, &sig);
        if (serve::Server* s = g_server.load()) s->request_stop();
    }).detach();
}

/// --journal-dump: human-readable listing of a journal directory (or one
/// segment file). Decodes what it can; the listing itself never mutates
/// the store. Returns a process exit code.
int journal_dump(const std::string& path) {
    try {
        const durable::ScanResult scan = durable::Journal::scan(path);
        for (const durable::Record& rec : scan.records) {
            std::printf("seq=%llu kind=%s len=%zu",
                        static_cast<unsigned long long>(rec.seq), to_string(rec.kind),
                        rec.payload.size());
            try {
                serve::PayloadReader r(rec.payload);
                switch (rec.kind) {
                case durable::RecordKind::Create:
                case durable::RecordKind::Destroy:
                case durable::RecordKind::PostInputs: {
                    const std::uint64_t tenant = r.u64();
                    const std::uint32_t count = r.u32();
                    std::printf(" tenant=%llu count=%u",
                                static_cast<unsigned long long>(tenant), count);
                    break;
                }
                case durable::RecordKind::Tick:
                    break;
                case durable::RecordKind::Upgrade: {
                    const std::uint32_t flags = r.u32();
                    const std::string source = r.str();
                    std::printf(" flags=%u source_bytes=%zu", flags, source.size());
                    break;
                }
                }
            } catch (const serve::ServeError&) {
                std::printf(" (payload not decodable)");
            }
            std::printf("\n");
        }
        std::printf("journal-dump: %zu record(s), %zu segment(s), last_seq=%llu",
                    scan.records.size(), scan.segments,
                    static_cast<unsigned long long>(scan.last_seq));
        if (scan.torn)
            std::printf(", torn tail (%llu byte(s) ignored, %zu later segment(s) skipped)",
                        static_cast<unsigned long long>(scan.torn_bytes),
                        scan.dropped_segments);
        std::printf("\n");
        return cli::kExitOk;
    } catch (const durable::DurableError& e) {
        std::fprintf(stderr, "sbd-serve: %s\n", e.what());
        return cli::kExitDurable;
    }
}

} // namespace

int main(int argc, char** argv) {
    std::string listen_spec = "tcp:127.0.0.1:7070";
    std::string endpoint_file;
    std::size_t capacity = 1024;
    std::size_t engine_threads = 1;
    std::size_t jobs = 1;
    std::uint64_t tick_deadline_ms = 0;
    std::uint64_t tenant_max = 0;
    std::string method_name = "dynamic";
    std::string backend_name = "interp";
    std::string cache_dir;
    bool live_upgrade = true;
    std::string data_dir;
    std::uint64_t checkpoint_every_ticks = 1024;
    std::string fsync_name = "batch";
    bool recover_verify = false;
    std::string journal_dump_path;
    cli::ObsOptions obs_opts;
    cli::ResilienceOptions res_opts;

    cli::ArgParser parser("sbd-serve", "model.sbd");
    parser.flag("--listen", "EP", "tcp:HOST:PORT (port 0 = ephemeral) or unix:PATH\n"
                                  "                 (default tcp:127.0.0.1:7070)",
                &listen_spec);
    parser.flag("--endpoint-file", "FILE",
                "write the bound endpoint (ephemeral port resolved) to FILE\n"
                "                 once listening — for scripts",
                &endpoint_file);
    parser.flag("--capacity", "N", "instance slots                     (default 1024)",
                &capacity);
    parser.flag("--engine-threads", "K", "worker threads of the engine       (default 1)",
                &engine_threads);
    parser.flag("--jobs", "N", "parallel compilation workers       (default 1)", &jobs);
    parser.flag("--method", "M",
                "monolithic | step-get | dynamic | disjoint-sat |\n"
                "                 disjoint-greedy | singletons       (default: dynamic)",
                &method_name);
    parser.flag("--backend", "B",
                "interp | native execution; native AOT-compiles\n"
                "                 the generated C++ into one shared .so (default: interp)",
                &backend_name);
    parser.flag("--cache-dir", "D", "reuse compiled profiles from D (shared with sbdc)",
                &cache_dir);
    parser.flag("--tick-deadline-ms", "MS",
                "wall-clock budget per TICK request; expiry is a coded\n"
                "                 DEADLINE_EXCEEDED rejection before the instant runs",
                &tick_deadline_ms);
    parser.flag("--tenant-max-instances", "N",
                "per-tenant live-instance budget; excess CREATEs are shed\n"
                "                 with TENANT_BUDGET (0 = unlimited)",
                &tenant_max);
    parser.flag("--no-live-upgrade",
                "reject UPGRADE_MODEL requests (coded UPGRADE_REJECTED)\n"
                "                 instead of hot-swapping model versions",
                &live_upgrade, false);
    parser.flag("--data-dir", "D",
                "durable store root: write-ahead journal + checkpoints;\n"
                "                 on startup the acked state is recovered bit-for-bit",
                &data_dir);
    parser.flag("--checkpoint-every-ticks", "N",
                "durable checkpoint cadence in server instants; 0 disables\n"
                "                 checkpoints (journal-only)        (default 1024)",
                &checkpoint_every_ticks);
    parser.flag("--fsync", "M",
                "always | batch | off — journal durability: always syncs\n"
                "                 before every ack, batch syncs in the background,\n"
                "                 off leaves it to the OS            (default batch)",
                &fsync_name);
    parser.flag("--recover-verify",
                "recover from --data-dir, print what was rebuilt, then exit\n"
                "                 without serving (for crash-soak verification)",
                &recover_verify);
    parser.flag("--journal-dump", "PATH",
                "print the records in a journal directory (or one .sbdj\n"
                "                 segment) and exit; no model is loaded",
                &journal_dump_path);
    cli::add_obs_flags(parser, &obs_opts);
    cli::add_resilience_flags(parser, &res_opts, /*sat_flags=*/true);
    if (const auto code = parser.parse(argc, argv)) return *code;
    if (const auto code = cli::arm_fault_plan("sbd-serve", res_opts)) return *code;

    if (!journal_dump_path.empty()) return journal_dump(journal_dump_path);

    if (parser.positionals().size() != 1 || capacity == 0)
        return parser.usage(stderr), cli::kExitUsage;
    const auto fsync_mode = durable::parse_fsync_mode(fsync_name);
    if (!fsync_mode) {
        std::fprintf(stderr, "sbd-serve: unknown --fsync mode '%s'\n", fsync_name.c_str());
        return cli::kExitUsage;
    }
    if (recover_verify && data_dir.empty()) {
        std::fprintf(stderr, "sbd-serve: --recover-verify requires --data-dir\n");
        return cli::kExitUsage;
    }
    const std::string input_path = parser.positionals().front();
    const auto method = cli::parse_method(method_name);
    if (!method) {
        std::fprintf(stderr, "sbd-serve: unknown method '%s'\n", method_name.c_str());
        return cli::kExitUsage;
    }
    const auto backend = cli::parse_backend(backend_name);
    if (!backend) {
        std::fprintf(stderr, "sbd-serve: unknown backend '%s'\n", backend_name.c_str());
        return cli::kExitUsage;
    }
    native::install();

    serve::Endpoint endpoint;
    try {
        endpoint = serve::Endpoint::parse(listen_spec);
    } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "sbd-serve: %s\n", e.what());
        return cli::kExitUsage;
    }

    obs::MetricsRegistry registry;
    cli::ScopedTracing tracing(obs_opts);
    const auto finish = [&](int code) {
        const int obs_code = cli::write_obs_outputs(obs_opts, &registry, tracing);
        return code != cli::kExitOk ? code : obs_code;
    };

    text::ParsedFile file;
    try {
        file = text::parse_sbd_file(input_path);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "parse error: %s\n", e.what());
        return finish(cli::kExitParse);
    }

    try {
        codegen::PipelineOptions popts;
        popts.method = *method;
        popts.cluster.sat_conflict_budget = res_opts.sat_conflict_budget;
        popts.cluster.sat_budget_degrade = res_opts.sat_budget_degrade;
        popts.cache_dir = cache_dir;
        popts.threads = jobs;
        popts.metrics = &registry;
        popts.budgets.deadline_ms = res_opts.deadline_ms;
        codegen::Pipeline pipeline(popts);
        const codegen::CompiledSystem sys = pipeline.compile(file.root);

        // Deep-analysis load gate: refuse to serve a model whose outputs
        // are provably broken on every instant — a guaranteed division by
        // zero (SBD022) or an always-NaN/infinite output (SBD024). Serving
        // such a model would feed every tenant garbage; failing at load
        // gives the operator the exact site instead.
        for (const auto& d : sbd::analysis::deep_diagnostics(sys, file.root)) {
            if (d.code != "SBD022" && d.code != "SBD024") continue;
            std::fprintf(stderr, "sbd-serve: model rejected: [%s] %s\n", d.code.c_str(),
                         d.message.c_str());
            return finish(cli::kExitLint);
        }

        serve::ServerConfig cfg;
        cfg.endpoint = endpoint;
        if (*backend == codegen::Backend::Native) {
            codegen::BackendConfig bc;
            bc.backend = codegen::Backend::Native;
            bc.method = *method;
            bc.cluster = popts.cluster;
            if (!cache_dir.empty()) bc.cache_dir = cache_dir + "/native";
            bc.metrics = &registry;
            cfg.executable = codegen::make_executable(sys, file.root, bc);
        }
        cfg.shard_capacity = capacity;
        cfg.engine_threads = engine_threads;
        cfg.tick_deadline_ms = tick_deadline_ms;
        cfg.tenant_max_instances = tenant_max;
        cfg.metrics = &registry;
        if (!data_dir.empty()) {
            // The boot source text rides along so recovery can tell whether
            // a checkpoint (or journaled upgrade) refers to a different
            // model version that must be recompiled first.
            std::ifstream in(input_path, std::ios::binary);
            std::ostringstream src;
            src << in.rdbuf();
            cfg.model_source = std::move(src).str();
            durable::Options dopts;
            dopts.data_dir = data_dir;
            dopts.fsync = *fsync_mode;
            dopts.checkpoint_every_ticks = checkpoint_every_ticks;
            cfg.durable = std::move(dopts);
        }
        if (live_upgrade) {
            // New versions must compile exactly like the boot version
            // (same method/options, same profile cache, same backend), or
            // fingerprint-equal subtrees would not be layout-equal and the
            // reuse accounting would be fiction.
            upgrade::CompileContext uctx;
            uctx.method = *method;
            uctx.cluster = popts.cluster;
            uctx.jobs = jobs;
            uctx.cache = pipeline.cache();
            uctx.backend.backend = *backend;
            uctx.backend.method = *method;
            uctx.backend.cluster = popts.cluster;
            if (*backend == codegen::Backend::Native && !cache_dir.empty())
                uctx.backend.cache_dir = cache_dir + "/native";
            uctx.backend.metrics = &registry;
            cfg.upgrade = std::move(uctx);
        }
        serve::Server server(sys, file.root, cfg);

        if (!data_dir.empty()) {
            const serve::RecoveryStats rs = server.recover();
            if (rs.recovered || recover_verify)
                std::printf("sbd-serve: recovered ticks=%llu version=%llu live=%llu "
                            "replayed_records=%llu replayed_ticks=%llu checkpoint_seq=%llu "
                            "fallbacks=%llu aborted=%d recovery_ms=%.3f\n",
                            static_cast<unsigned long long>(rs.recovered_ticks),
                            static_cast<unsigned long long>(rs.recovered_version),
                            static_cast<unsigned long long>(rs.live_instances),
                            static_cast<unsigned long long>(rs.replayed_records),
                            static_cast<unsigned long long>(rs.replayed_ticks),
                            static_cast<unsigned long long>(rs.checkpoint_seq),
                            static_cast<unsigned long long>(rs.checkpoint_fallbacks),
                            rs.replay_aborted ? 1 : 0,
                            static_cast<double>(rs.recovery_ns) / 1e6);
            if (recover_verify) return finish(cli::kExitOk);
        }

        const std::string bound = server.endpoint().to_string();
        if (!endpoint_file.empty()) {
            std::FILE* f = std::fopen(endpoint_file.c_str(), "w");
            if (f == nullptr) {
                std::fprintf(stderr, "sbd-serve: cannot write %s\n", endpoint_file.c_str());
                return finish(cli::kExitError);
            }
            std::fprintf(f, "%s\n", bound.c_str());
            std::fclose(f);
        }
        std::printf("sbd-serve: %zu slots, listening on %s\n", capacity, bound.c_str());
        std::fflush(stdout);

        install_signal_drain();
        g_server.store(&server);
        server.run();
        g_server.store(nullptr);

        const serve::ServerStats st = server.stats_view();
        std::printf("sbd-serve: drained after %llu requests, %llu ticks, %llu shed, "
                    "%llu coded errors\n",
                    static_cast<unsigned long long>(st.requests),
                    static_cast<unsigned long long>(st.ticks),
                    static_cast<unsigned long long>(st.shed),
                    static_cast<unsigned long long>(st.errors));
        return finish(cli::kExitOk);
    } catch (const durable::DurableError& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return finish(cli::kExitDurable);
    } catch (const codegen::SdgCycleError& e) {
        std::fprintf(stderr, "rejected: %s\n", e.what());
        return finish(cli::kExitCycle);
    } catch (const codegen::BackendError& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return finish(cli::kExitNative);
    } catch (const resilience::BudgetExhausted& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return finish(cli::kExitBudget);
    } catch (const resilience::DeadlineExceeded& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return finish(cli::kExitDeadline);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return finish(cli::kExitError);
    }
}
