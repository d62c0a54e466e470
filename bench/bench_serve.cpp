// End-to-end serving benchmark: sustained TICK throughput and request
// latency of sbd_serve over a real loopback TCP connection, across pool
// sizes.
//
// Before timing anything it verifies the serving invariant: outputs read
// back over the wire are bit-identical to a direct single-threaded Engine
// fed the same seeded inputs. It also measures the admission path: an
// over-budget tenant must be shed with coded TENANT_BUDGET rejections
// while the in-budget tenant's results stay untouched.
//
// Machine-readable output: BENCH_serve.json in the working directory, one
// record per pool size. Gates (exit code): bit-exactness,
// shed-rate > 0 for the over-budget tenant, and generous throughput /
// latency floors chosen to catch order-of-magnitude regressions without
// flaking on loaded CI machines.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/compiler.hpp"
#include "runtime/engine.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "suite/models.hpp"

namespace {

using namespace sbd;
using serve::Client;
using serve::Endpoint;
using serve::Server;
using serve::ServerConfig;
using serve::WireHandle;

struct Cell {
    std::size_t instances = 0;
    std::size_t ticks = 0;
    double ticks_per_sec = 0.0; ///< closed-loop sustained TICK requests/sec
    std::uint64_t p50_ns = 0;   ///< open-loop TICK round-trip latency
    std::uint64_t p99_ns = 0;
};

std::uint64_t percentile_ns(std::vector<std::uint64_t> v, double q) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t idx =
        std::min(v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(v.size())));
    return v[idx];
}

/// One server with room for `instances` (plus one spare slot) + one client.
struct Harness {
    Harness(const codegen::CompiledSystem& sys, const BlockPtr& root, std::size_t instances,
            std::uint64_t tenant_cap = 0)
        : server(sys, root, make_config(instances, tenant_cap)), client(connect()) {}

    static ServerConfig make_config(std::size_t instances, std::uint64_t tenant_cap) {
        ServerConfig cfg;
        cfg.endpoint = Endpoint::parse("tcp:127.0.0.1:0");
        cfg.shard_capacity = instances + 1;
        cfg.tenant_max_instances = tenant_cap;
        return cfg;
    }

    Client connect() {
        server.start();
        return Client::connect(server.endpoint());
    }

    ~Harness() {
        server.request_stop();
        server.wait();
    }

    Server server;
    Client client;
};

/// Served outputs == direct single-threaded Engine outputs, bitwise, with
/// per-instance seeded inputs re-posted every instant.
bool verify_bit_exact(const codegen::CompiledSystem& sys, const BlockPtr& root) {
    const std::size_t instances = 8;
    const std::size_t instants = 30;
    const std::size_t nin = root->num_inputs();
    const std::size_t nout = root->num_outputs();

    runtime::EngineConfig ecfg;
    ecfg.capacity = instances;
    runtime::Engine ref(sys, root, ecfg);
    const auto ref_ids = ref.create(instances);

    Harness h(sys, root, instances);
    const auto handles = h.client.create_instances(1, static_cast<std::uint32_t>(instances));

    std::vector<runtime::LcgInputSource> served_src, ref_src;
    for (std::size_t i = 0; i < instances; ++i) {
        served_src.emplace_back(100 + i);
        ref_src.emplace_back(100 + i);
    }
    std::vector<double> rows(instances * nin);
    for (std::size_t t = 0; t < instants; ++t) {
        for (std::size_t i = 0; i < instances; ++i) {
            served_src[i].fill({rows.data() + i * nin, nin});
            ref_src[i].fill(ref.pool().inputs(ref_ids[i]));
        }
        h.client.post_inputs(1, handles, rows);
        h.client.tick(1, 1);
        ref.tick();
        const auto got = h.client.read_outputs(1, handles);
        for (std::size_t i = 0; i < instances; ++i) {
            const auto want = ref.pool().outputs(ref_ids[i]);
            if (std::memcmp(got.data() + i * nout, want.data(), nout * sizeof(double)) != 0)
                return false;
        }
    }
    return true;
}

/// Closed-loop: TICK requests back-to-back over the wire; the rate is the
/// serving ceiling for this configuration.
double measure_ticks_per_sec(Harness& h, std::size_t ticks) {
    h.client.tick(1, 5); // warm-up: faults arenas, primes the connection
    const double ms = sbd::bench::time_ms([&] {
        for (std::size_t t = 0; t < ticks; ++t) h.client.tick(1, 1);
    });
    return static_cast<double>(ticks) / (ms / 1000.0);
}

/// Open-loop at a fixed request timeline (no coordinated omission): each
/// TICK's round-trip is measured against its scheduled send time.
void measure_open_loop(Harness& h, double rps, std::size_t requests,
                       std::uint64_t* p50, std::uint64_t* p99) {
    using clock = std::chrono::steady_clock;
    const auto period =
        std::chrono::duration_cast<clock::duration>(std::chrono::duration<double>(1.0 / rps));
    std::vector<std::uint64_t> lat;
    lat.reserve(requests);
    const auto start = clock::now();
    for (std::size_t n = 0; n < requests; ++n) {
        std::this_thread::sleep_until(start + period * static_cast<long>(n));
        const auto t0 = clock::now();
        h.client.tick(1, 1);
        lat.push_back(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - t0).count()));
    }
    *p50 = percentile_ns(lat, 0.50);
    *p99 = percentile_ns(lat, 0.99);
}

struct ShedResult {
    std::size_t attempts = 0;
    std::size_t shed = 0;
    bool good_tenant_intact = false;
};

/// Tenant 2 hammers CREATE past its budget; every overage must come back
/// as a coded TENANT_BUDGET rejection and tenant 1's instances must keep
/// producing reference-exact outputs.
ShedResult measure_shed(const codegen::CompiledSystem& sys, const BlockPtr& root) {
    const std::size_t instants = 10;
    const std::size_t nout = root->num_outputs();

    runtime::EngineConfig ecfg;
    ecfg.capacity = 1;
    runtime::Engine ref(sys, root, ecfg);
    const auto ref_id = ref.create(1).front();

    ShedResult r;
    Harness h(sys, root, /*instances=*/16, /*tenant_cap=*/4);
    const auto good = h.client.create_instances(1, 1);
    for (std::size_t n = 0; n < 8; ++n) {
        ++r.attempts;
        try {
            h.client.create_instances(2, 2); // 4 allowed, then budget-shed
        } catch (const serve::ServeError& e) {
            if (e.code() == serve::Err::TenantBudget) ++r.shed;
        }
        h.client.tick(1, 1);
        ref.tick();
    }
    for (std::size_t t = 8; t < instants; ++t) {
        h.client.tick(1, 1);
        ref.tick();
    }
    const auto got = h.client.read_outputs(1, good);
    const auto want = ref.pool().outputs(ref_id);
    r.good_tenant_intact =
        std::memcmp(got.data(), want.data(), nout * sizeof(double)) == 0;
    return r;
}

void write_json(const std::vector<Cell>& cells, bool bit_exact, const ShedResult& shed,
                bool gates_pass) {
    std::FILE* f = std::fopen("BENCH_serve.json", "w");
    if (!f) {
        std::fprintf(stderr, "cannot write BENCH_serve.json\n");
        return;
    }
    std::fprintf(f, "{\n  \"bench\": \"serve\",\n");
    std::fprintf(f, "  \"hardware_concurrency\": %u,\n", std::thread::hardware_concurrency());
    std::fprintf(f, "  \"bit_exact\": %s,\n", bit_exact ? "true" : "false");
    std::fprintf(f,
                 "  \"shed\": {\"attempts\": %zu, \"shed\": %zu, \"rate\": %.3f, "
                 "\"good_tenant_intact\": %s},\n",
                 shed.attempts, shed.shed,
                 shed.attempts ? static_cast<double>(shed.shed) / shed.attempts : 0.0,
                 shed.good_tenant_intact ? "true" : "false");
    std::fprintf(f, "  \"gates_pass\": %s,\n  \"cells\": [\n", gates_pass ? "true" : "false");
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell& c = cells[i];
        std::fprintf(f,
                     "    {\"instances\": %zu, \"ticks\": %zu, "
                     "\"ticks_per_sec\": %.0f, \"tick_p50_ns\": %llu, \"tick_p99_ns\": %llu}%s\n",
                     c.instances, c.ticks, c.ticks_per_sec,
                     static_cast<unsigned long long>(c.p50_ns),
                     static_cast<unsigned long long>(c.p99_ns),
                     i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote BENCH_serve.json\n");
}

} // namespace

int main() {
    const auto root = suite::thermostat();
    const auto sys = codegen::compile_hierarchy(root, codegen::Method::Dynamic);

    const std::vector<std::size_t> pool_sizes = {32, 64, 128};
    const std::size_t closed_ticks = 400;
    const double open_rps = 200.0;
    const std::size_t open_requests = 120;

    std::printf("sbd-serve loopback TCP: TICK throughput and latency "
                "(%u hardware threads)\n",
                std::thread::hardware_concurrency());

    const bool bit_exact = verify_bit_exact(sys, root);

    sbd::bench::rule('-', 84);
    std::printf("%9s | %12s | %12s | %12s\n", "instances", "ticks/sec", "p50 (ms)",
                "p99 (ms)");
    sbd::bench::rule('-', 84);

    std::vector<Cell> cells;
    for (const std::size_t instances : pool_sizes) {
        Cell c;
        c.instances = instances;
        c.ticks = closed_ticks;
        {
            Harness h(sys, root, instances);
            h.client.create_instances(1, static_cast<std::uint32_t>(instances));
            c.ticks_per_sec = measure_ticks_per_sec(h, closed_ticks);
            measure_open_loop(h, open_rps, open_requests, &c.p50_ns, &c.p99_ns);
        }
        cells.push_back(c);
        std::printf("%9zu | %12.0f | %12.3f | %12.3f\n", c.instances, c.ticks_per_sec,
                    c.p50_ns / 1e6, c.p99_ns / 1e6);
    }
    sbd::bench::rule('-', 84);

    const ShedResult shed = measure_shed(sys, root);
    std::printf("over-budget tenant: %zu/%zu creates shed (TENANT_BUDGET), "
                "in-budget tenant bit-exact: %s\n",
                shed.shed, shed.attempts, shed.good_tenant_intact ? "yes" : "NO");
    std::printf("bit-exactness (served outputs == direct engine): %s\n",
                bit_exact ? "PASS" : "FAIL");

    // Gates: generous floors — they catch a broken serving path or an
    // order-of-magnitude regression, not a noisy CI neighbour.
    bool gates = bit_exact && shed.shed > 0 && shed.good_tenant_intact;
    for (const Cell& c : cells) {
        if (c.ticks_per_sec < 50.0) gates = false;
        if (c.p99_ns > 500ull * 1000 * 1000) gates = false;
    }
    write_json(cells, bit_exact, shed, gates);
    std::printf("gates: %s\n", gates ? "PASS" : "FAIL");
    return gates ? 0 : 1;
}
