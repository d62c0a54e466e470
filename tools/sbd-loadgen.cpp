// sbd-loadgen — open-loop load generator for a running sbd-serve.
//
// Each tenant gets its own connection and thread. Requests are scheduled on
// a fixed open-loop timeline (--rps per tenant): a tick request that finds
// the generator behind schedule fires immediately instead of sliding the
// timeline, so server queueing delay shows up in the measured latency
// rather than being hidden by coordinated omission. Per request the tenant
// posts fresh deterministic inputs (seeded LCG, --inputs doubles per
// instance), issues one TICK, and reads every instance's outputs back.
//
//   sbd-loadgen --connect tcp:127.0.0.1:7070 --tenants 4 --instances 16
//               --rps 200 --duration-ms 5000 --inputs 2
//   sbd-loadgen --connect unix:/tmp/sbd.sock --shutdown   # drain the server
//
// Coded server rejections (budget shed, deadlines, injected faults) are
// counted per code and reported — they are an expected outcome under
// overload, not a generator failure. --fail-on-reject turns any coded
// rejection into exit 8 for tests that assert a clean run.
//
// --upgrade-at N --upgrade-model new.sbd turns a run into an
// upgrade-under-load soak: once N successful TICKs have been observed
// across all tenants, a dedicated control connection issues UPGRADE_MODEL
// and retries coded rejections (conflicts, injected faults) until the swap
// lands or the run ends. Rejections are counted by code; an upgrade that
// never applies exits 10.
//
// A run in which no tenant ever connected exits 1 without sending
// --shutdown: whatever listens at the endpoint by then is not the server
// the run measured.
//
// Exit codes: 0 ok, 1 transport/internal error, 2 usage,
//             8 coded protocol rejection (only with --fail-on-reject),
//             10 requested upgrade never applied.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli_common.hpp"
#include "runtime/engine.hpp" // LcgInputSource
#include "serve/client.hpp"

namespace {

using namespace sbd;
using Clock = std::chrono::steady_clock;

struct TenantResult {
    std::uint64_t sent = 0;
    std::uint64_t ok = 0;
    std::map<serve::Err, std::uint64_t> rejected; ///< coded rejections by code
    std::vector<std::uint64_t> tick_ns;           ///< latency of each TICK round-trip
    std::uint64_t transport_errors = 0;
    std::size_t instances = 0;
    bool connected = false; ///< the tenant's connect() succeeded
};

std::uint64_t percentile(std::vector<std::uint64_t>& sorted, double p) {
    if (sorted.empty()) return 0;
    const std::size_t i = static_cast<std::size_t>(p * static_cast<double>(sorted.size() - 1));
    return sorted[i];
}

/// Outcome of the optional mid-run UPGRADE_MODEL (see --upgrade-at).
struct UpgradeOutcome {
    bool requested = false;
    bool applied = false;
    std::uint64_t fired_at_tick = 0; ///< observed ok-tick count at send time
    serve::UpgradeResult result;     ///< valid iff applied
    std::map<serve::Err, std::uint64_t> rejected; ///< retry rejections by code
};

} // namespace

int main(int argc, char** argv) {
    std::string connect_spec;
    std::size_t tenants = 1;
    std::size_t instances = 8;
    std::uint64_t rps = 100;
    std::uint64_t duration_ms = 5000;
    std::uint64_t seed = 1;
    std::size_t num_inputs = 0;
    std::string json_out;
    std::string stats_out;
    bool do_shutdown = false;
    bool fail_on_reject = false;
    std::uint64_t upgrade_at = 0;
    std::string upgrade_model_path;
    bool upgrade_allow_drain = false;
    cli::ResilienceOptions res_opts;

    cli::ArgParser parser("sbd-loadgen", "");
    parser.flag("--connect", "EP", "server endpoint, tcp:HOST:PORT or unix:PATH (required)",
                &connect_spec);
    parser.flag("--tenants", "N", "concurrent tenants, one connection each (default 1)",
                &tenants);
    parser.flag("--instances", "N", "instances each tenant creates       (default 8)",
                &instances);
    parser.flag("--rps", "R", "target TICK requests/sec per tenant (default 100)", &rps);
    parser.flag("--duration-ms", "MS", "load duration                       (default 5000)",
                &duration_ms);
    parser.flag("--seed", "S", "input seed; tenant t instance i uses S+t*1e6+i (default 1)",
                &seed);
    parser.flag("--inputs", "N",
                "model input count for POST_INPUTS rows (0 = skip posting\n"
                "                 inputs and tick against zeros)",
                &num_inputs);
    parser.flag("--json-out", "FILE", "write a JSON result summary to FILE", &json_out);
    parser.flag("--stats-out", "FILE", "fetch STATS after the run and write the text to FILE",
                &stats_out);
    parser.flag("--shutdown", "send SHUTDOWN after the run (drains the server)",
                &do_shutdown);
    parser.flag("--fail-on-reject", "exit 8 if any request was rejected with a coded error",
                &fail_on_reject);
    parser.flag("--upgrade-at", "N",
                "after N successful TICKs (across all tenants), send\n"
                "                 UPGRADE_MODEL with --upgrade-model and retry coded\n"
                "                 rejections until it lands (0 = no upgrade)",
                &upgrade_at);
    parser.flag("--upgrade-model", "FILE", "new model source for --upgrade-at",
                &upgrade_model_path);
    parser.flag("--upgrade-allow-drain",
                "permit a drain-and-replace upgrade (instances restart\n"
                "                 from init when the port interface changed)",
                &upgrade_allow_drain);
    cli::add_resilience_flags(parser, &res_opts, /*sat_flags=*/false);
    if (const auto code = parser.parse(argc, argv)) return *code;
    if (const auto code = cli::arm_fault_plan("sbd-loadgen", res_opts)) return *code;
    if (connect_spec.empty() || !parser.positionals().empty() || tenants == 0 || rps == 0)
        return parser.usage(stderr), cli::kExitUsage;
    if ((upgrade_at != 0) != !upgrade_model_path.empty()) {
        std::fprintf(stderr,
                     "sbd-loadgen: --upgrade-at and --upgrade-model go together\n");
        return cli::kExitUsage;
    }
    std::string upgrade_source;
    if (upgrade_at != 0) {
        std::ifstream in(upgrade_model_path);
        if (!in) {
            std::fprintf(stderr, "sbd-loadgen: cannot read %s\n",
                         upgrade_model_path.c_str());
            return cli::kExitError;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        upgrade_source = buf.str();
    }

    serve::Endpoint endpoint;
    try {
        endpoint = serve::Endpoint::parse(connect_spec);
    } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "sbd-loadgen: %s\n", e.what());
        return cli::kExitUsage;
    }

    std::vector<TenantResult> results(tenants);
    std::vector<std::thread> threads;
    threads.reserve(tenants);
    std::atomic<std::uint64_t> ok_ticks{0}; ///< fires the --upgrade-at trigger
    std::atomic<bool> load_done{false};
    UpgradeOutcome upgrade;
    upgrade.requested = upgrade_at != 0;
    const Clock::time_point start = Clock::now();
    const Clock::duration duration = std::chrono::milliseconds(duration_ms);
    const Clock::duration period =
        std::chrono::nanoseconds(1'000'000'000ULL / rps == 0 ? 1 : 1'000'000'000ULL / rps);

    for (std::size_t t = 0; t < tenants; ++t) {
        threads.emplace_back([&, t] {
            TenantResult& res = results[t];
            const std::uint64_t tenant_id = t + 1; // 0 is reserved for control calls
            try {
                serve::Client client = serve::Client::connect(endpoint);
                res.connected = true;
                std::vector<serve::WireHandle> handles;
                try {
                    handles = client.create_instances(
                        tenant_id, static_cast<std::uint32_t>(instances));
                } catch (const serve::ServeError& e) {
                    // Admission shed the whole tenant: report it, keep the
                    // thread alive so the run still measures the others.
                    ++res.rejected[e.code()];
                    return;
                }
                res.instances = handles.size();
                std::vector<runtime::LcgInputSource> sources;
                sources.reserve(handles.size());
                for (std::size_t i = 0; i < handles.size(); ++i)
                    sources.emplace_back(seed + t * 1'000'000 + i);
                std::vector<double> rows(handles.size() * num_inputs);

                for (std::uint64_t n = 0;; ++n) {
                    const Clock::time_point due = start + period * n;
                    if (due - start >= duration) break;
                    std::this_thread::sleep_until(due); // no-op when behind
                    ++res.sent;
                    try {
                        if (num_inputs != 0) {
                            for (std::size_t i = 0; i < handles.size(); ++i)
                                sources[i].fill(std::span(rows).subspan(i * num_inputs,
                                                                        num_inputs));
                            client.post_inputs(tenant_id, handles, rows);
                        }
                        const Clock::time_point t0 = Clock::now();
                        client.tick(tenant_id, 1);
                        res.tick_ns.push_back(static_cast<std::uint64_t>(
                            std::chrono::duration_cast<std::chrono::nanoseconds>(
                                Clock::now() - t0)
                                .count()));
                        (void)client.read_outputs(tenant_id, handles);
                        ++res.ok;
                        ok_ticks.fetch_add(1, std::memory_order_relaxed);
                    } catch (const serve::ServeError& e) {
                        ++res.rejected[e.code()];
                    }
                }
                client.destroy_instances(tenant_id, handles);
            } catch (const std::exception& e) {
                ++res.transport_errors;
                std::fprintf(stderr, "sbd-loadgen: tenant %llu: %s\n",
                             static_cast<unsigned long long>(tenant_id), e.what());
            }
        });
    }
    // The upgrader runs on its own control connection (tenant 0) so the
    // swap competes with live traffic, not with a quiet server. Coded
    // rejections (version conflicts, injected serve.upgrade faults) are
    // retried: under chaos an upgrade is *expected* to bounce a few times.
    std::thread upgrader;
    if (upgrade.requested) {
        upgrader = std::thread([&] {
            while (ok_ticks.load(std::memory_order_relaxed) < upgrade_at &&
                   !load_done.load(std::memory_order_relaxed))
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            upgrade.fired_at_tick = ok_ticks.load(std::memory_order_relaxed);
            try {
                serve::Client control = serve::Client::connect(endpoint);
                for (int grace = 5; grace > 0;) {
                    try {
                        upgrade.result =
                            control.upgrade_model(0, upgrade_source, upgrade_allow_drain);
                        upgrade.applied = true;
                        return;
                    } catch (const serve::ServeError& e) {
                        ++upgrade.rejected[e.code()];
                        // Keep retrying while load runs; once it stops, a
                        // few grace attempts settle injected-fault flakes.
                        if (load_done.load(std::memory_order_relaxed)) --grace;
                    }
                    std::this_thread::sleep_for(std::chrono::milliseconds(25));
                }
            } catch (const std::exception& e) {
                std::fprintf(stderr, "sbd-loadgen: upgrade: %s\n", e.what());
            }
        });
    }

    for (std::thread& th : threads) th.join();
    load_done.store(true);
    if (upgrader.joinable()) upgrader.join();
    const double elapsed_s =
        std::chrono::duration<double>(Clock::now() - start).count();

    // Aggregate.
    std::uint64_t sent = 0, ok = 0, transport_errors = 0;
    bool any_connected = false;
    std::map<serve::Err, std::uint64_t> rejected;
    std::vector<std::uint64_t> all_ns;
    for (const TenantResult& r : results) {
        any_connected = any_connected || r.connected;
        sent += r.sent;
        ok += r.ok;
        transport_errors += r.transport_errors;
        for (const auto& [code, n] : r.rejected) rejected[code] += n;
        all_ns.insert(all_ns.end(), r.tick_ns.begin(), r.tick_ns.end());
    }
    std::sort(all_ns.begin(), all_ns.end());
    const std::uint64_t p50 = percentile(all_ns, 0.50);
    const std::uint64_t p99 = percentile(all_ns, 0.99);
    std::uint64_t shed = 0;
    for (const auto& [code, n] : rejected) shed += n;

    std::printf("sbd-loadgen: %zu tenant(s) x %zu instance(s), target %llu rps each, "
                "%.2f s\n",
                tenants, instances, static_cast<unsigned long long>(rps), elapsed_s);
    std::printf("  sent %llu, ok %llu (%.0f/s achieved), rejected %llu, transport errors "
                "%llu\n",
                static_cast<unsigned long long>(sent), static_cast<unsigned long long>(ok),
                elapsed_s > 0 ? static_cast<double>(ok) / elapsed_s : 0.0,
                static_cast<unsigned long long>(shed),
                static_cast<unsigned long long>(transport_errors));
    for (const auto& [code, n] : rejected)
        std::printf("    %s: %llu\n", serve::to_string(code),
                    static_cast<unsigned long long>(n));
    std::printf("  tick latency p50 %.3f ms, p99 %.3f ms (%zu samples)\n",
                static_cast<double>(p50) / 1e6, static_cast<double>(p99) / 1e6,
                all_ns.size());
    if (upgrade.requested) {
        std::uint64_t upgrade_rejects = 0;
        for (const auto& [code, n] : upgrade.rejected) upgrade_rejects += n;
        if (upgrade.applied)
            std::printf("  upgrade: applied v%llu at tick %llu after %llu rejection(s) "
                        "(%llu/%llu units reused, swap %.3f ms%s)\n",
                        static_cast<unsigned long long>(upgrade.result.version),
                        static_cast<unsigned long long>(upgrade.fired_at_tick),
                        static_cast<unsigned long long>(upgrade_rejects),
                        static_cast<unsigned long long>(upgrade.result.units_reused),
                        static_cast<unsigned long long>(upgrade.result.units_total),
                        static_cast<double>(upgrade.result.swap_ns) / 1e6,
                        upgrade.result.drained ? ", drained" : "");
        else
            std::printf("  upgrade: NOT applied after %llu rejection(s)\n",
                        static_cast<unsigned long long>(upgrade_rejects));
        for (const auto& [code, n] : upgrade.rejected)
            std::printf("    %s: %llu\n", serve::to_string(code),
                        static_cast<unsigned long long>(n));
    }

    if (!json_out.empty()) {
        std::FILE* f = std::fopen(json_out.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "sbd-loadgen: cannot write %s\n", json_out.c_str());
            return cli::kExitError;
        }
        std::fprintf(f,
                     "{\n  \"tenants\": %zu,\n  \"instances\": %zu,\n  \"target_rps\": %llu,"
                     "\n  \"duration_s\": %.3f,\n  \"sent\": %llu,\n  \"ok\": %llu,\n"
                     "  \"achieved_rps\": %.1f,\n  \"rejected\": {",
                     tenants, instances, static_cast<unsigned long long>(rps), elapsed_s,
                     static_cast<unsigned long long>(sent),
                     static_cast<unsigned long long>(ok),
                     elapsed_s > 0 ? static_cast<double>(ok) / elapsed_s : 0.0);
        bool first = true;
        for (const auto& [code, n] : rejected) {
            std::fprintf(f, "%s\"%s\": %llu", first ? "" : ", ", serve::to_string(code),
                         static_cast<unsigned long long>(n));
            first = false;
        }
        std::fprintf(f,
                     "},\n  \"transport_errors\": %llu,\n  \"tick_p50_ns\": %llu,\n"
                     "  \"tick_p99_ns\": %llu",
                     static_cast<unsigned long long>(transport_errors),
                     static_cast<unsigned long long>(p50),
                     static_cast<unsigned long long>(p99));
        if (upgrade.requested) {
            std::fprintf(f,
                         ",\n  \"upgrade\": {\n    \"applied\": %s,\n"
                         "    \"fired_at_tick\": %llu,\n    \"rejected\": {",
                         upgrade.applied ? "true" : "false",
                         static_cast<unsigned long long>(upgrade.fired_at_tick));
            first = true;
            for (const auto& [code, n] : upgrade.rejected) {
                std::fprintf(f, "%s\"%s\": %llu", first ? "" : ", ",
                             serve::to_string(code), static_cast<unsigned long long>(n));
                first = false;
            }
            std::fprintf(f, "}");
            if (upgrade.applied)
                std::fprintf(
                    f,
                    ",\n    \"version\": %llu,\n    \"units_total\": %llu,\n"
                    "    \"units_reused\": %llu,\n    \"reuse_ratio\": %.4f,\n"
                    "    \"drained\": %s,\n    \"state_copied\": %llu,\n"
                    "    \"compile_ns\": %llu,\n    \"swap_ns\": %llu",
                    static_cast<unsigned long long>(upgrade.result.version),
                    static_cast<unsigned long long>(upgrade.result.units_total),
                    static_cast<unsigned long long>(upgrade.result.units_reused),
                    upgrade.result.reuse_ratio(), upgrade.result.drained ? "true" : "false",
                    static_cast<unsigned long long>(upgrade.result.state_copied),
                    static_cast<unsigned long long>(upgrade.result.compile_ns),
                    static_cast<unsigned long long>(upgrade.result.swap_ns));
            std::fprintf(f, "\n  }");
        }
        std::fprintf(f, "\n}\n");
        std::fclose(f);
    }

    // A run that never reached the server must not drain whatever listens
    // there now (a restarted daemon behind the same stale socket path).
    if (!any_connected) {
        if (do_shutdown)
            std::fprintf(stderr, "sbd-loadgen: no tenant connected; not sending SHUTDOWN\n");
        return cli::kExitError;
    }
    try {
        if (!stats_out.empty()) {
            serve::Client c = serve::Client::connect(endpoint);
            const std::string text = c.stats(0);
            std::FILE* f = std::fopen(stats_out.c_str(), "w");
            if (f == nullptr) {
                std::fprintf(stderr, "sbd-loadgen: cannot write %s\n", stats_out.c_str());
                return cli::kExitError;
            }
            std::fwrite(text.data(), 1, text.size(), f);
            std::fclose(f);
        }
        if (do_shutdown) {
            serve::Client c = serve::Client::connect(endpoint);
            c.shutdown(0);
        }
    } catch (const serve::ServeError& e) {
        std::fprintf(stderr, "sbd-loadgen: %s\n", e.what());
        return cli::kExitProtocol;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "sbd-loadgen: %s\n", e.what());
        return cli::kExitError;
    }

    if (transport_errors != 0) return cli::kExitError;
    if (upgrade.requested && !upgrade.applied) return cli::kExitUpgrade;
    if (fail_on_reject && shed != 0) return cli::kExitProtocol;
    return cli::kExitOk;
}
