// perfbench: the repository benchmark. One invocation runs one named
// workload for a fixed time, checks every output bitwise against an
// independent oracle, and prints as its last stdout line
//
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
//
// with the end-to-end metrics (untraced run, --trace 0) or the per-layer
// metrics (traced run, --trace 1). README.md lists the workloads, the
// metrics and which end-to-end metric each layer metric should move.
//
//   perfbench --workload serve_step --seed 1 --seconds 20 --trace 0
//             --work-dir .bench_build/work --repo .
//
// perfbench/run.py builds this binary and supplies --work-dir and --repo.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "native/native.hpp"

namespace perfbench {
namespace {

struct CatalogEntry {
    const char* name;
    const char* unit;
};

/// Untraced metrics, identical on every workload (BENCHMARK.json end_to_end).
constexpr CatalogEntry kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"ops_per_s", "1/s"},
    {"op_p50_us", "us"},
    {"op_p90_us", "us"},
    {"interface_functions", "count"},
    {"code_lines", "count"},
};

/// Traced metrics (BENCHMARK.json per_layer), by src/ module.
constexpr CatalogEntry kPerLayer[] = {
    {"serve.post_us", "us"},
    {"serve.tick_us", "us"},
    {"serve.tick_p99_us", "us"},
    {"serve.cycle_p99_us", "us"},
    {"serve.read_us", "us"},
    {"serve.round_trip_us", "us"},
    {"serve.handler_us", "us"},
    {"serve.outside_handler_share", "ratio"},
    {"serve.codec_us_per_cycle", "us"},
    {"serve.requests", "count"},
    {"serve.errors", "count"},
    {"serve.polls", "count"},
    {"serve.poll_p50_us", "us"},
    {"serve.poll_p99_us", "us"},
    {"serve.poll_late_p50_us", "us"},
    {"serve.poll_late_p99_us", "us"},
    {"runtime.server_tick_us", "us"},
    {"runtime.tick_share_of_cycle", "ratio"},
    {"runtime.engine_tick_us", "us"},
    {"runtime.engine_tick_1t_us", "us"},
    {"runtime.step_ns", "ns"},
    {"native.step_ns", "ns"},
    {"native.emit_ms", "ms"},
    {"native.cc_ms", "ms"},
    {"native.load_ms", "ms"},
    {"native.cc_share", "ratio"},
    {"native.so_bytes", "bytes"},
    {"native.tu_bytes", "bytes"},
    {"durable.append_us", "us"},
    {"durable.fsync_us", "us"},
    {"durable.fsyncs", "count"},
    {"durable.bytes_per_cycle", "bytes"},
    {"durable.checkpoint_ms", "ms"},
    {"durable.checkpoints", "count"},
    {"sbd.parse_ms", "ms"},
    {"sbd.parse_mb_per_s", "MB/s"},
    {"core.compile_ms", "ms"},
    {"core.fingerprint_ms", "ms"},
    {"core.sdg_ms", "ms"},
    {"core.cluster_ms", "ms"},
    {"core.codegen_ms", "ms"},
    {"core.cluster_share", "ratio"},
    {"core.instantiate_ms", "ms"},
    {"core.macro_compiles", "count"},
    {"core.macro_reuses", "count"},
    {"sat.iterations", "count"},
    {"sat.conflicts", "count"},
    {"sat.propagations", "count"},
    {"sat.clauses", "count"},
    {"sim.simulate_ms", "ms"},
    {"trace.overhead_us", "us"},
    {"trace.overhead_share", "ratio"},
    {"trace.spans", "count"},
    {"trace.self_share.bench", "ratio"},
    {"trace.self_share.serve", "ratio"},
    {"trace.self_share.runtime", "ratio"},
    {"trace.self_share.native", "ratio"},
    {"trace.self_share.durable", "ratio"},
    {"trace.self_share.sbd", "ratio"},
    {"trace.self_share.core", "ratio"},
    {"error_rate", "ratio"},
};

[[noreturn]] void usage(const char* msg) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload serve_step|serve_fleet|"
                 "compile_sat|compile_native --seed N --seconds S --trace 0|1 "
                 "--work-dir DIR [--repo DIR]\n",
                 msg);
    std::exit(2);
}

Options parse_args(int argc, char** argv) {
    Options opt;
    opt.repo = ".";
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc) usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        try {
            if (a == "--workload") opt.workload = v;
            else if (a == "--seed") opt.seed = std::stoull(v), have_seed = true;
            else if (a == "--seconds") opt.seconds = std::stod(v);
            else if (a == "--trace") opt.trace = std::stoi(v) != 0;
            else if (a == "--work-dir") opt.work_dir = v;
            else if (a == "--repo") opt.repo = v;
            else usage(("unknown flag " + a).c_str());
        } catch (const std::logic_error&) {
            usage(("bad value for " + a).c_str());
        }
    }
    if (opt.workload.empty() || !have_seed || opt.work_dir.empty())
        usage("--workload, --seed and --work-dir are required");
    if (!(opt.seconds > 0.0 && opt.seconds <= 120.0)) usage("--seconds must be in (0, 120]");
    return opt;
}

/// Full-precision JSON number; non-finite values (never expected) print as 0
/// and are reported on stderr.
std::string json_number(const char* name, double v) {
    if (!std::isfinite(v)) {
        std::fprintf(stderr, "perfbench: metric %s is not finite; reporting 0\n", name);
        v = 0.0;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string json_escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) continue;
        out += c;
    }
    return out;
}

/// Host and build stamp, printed before the result line.
void print_stamp(const Options& opt) {
    sbd::codegen::BackendConfig bc;
    const std::string driver = sbd::native::compiler_driver(bc);
    const std::string version = sbd::native::compiler_version(driver).value_or("unavailable");
    std::printf("{\"stamp\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
                "\"trace\": %d, \"nproc\": %ld, \"native_cxx\": \"%s\", "
                "\"native_cxx_version\": \"%s\", \"build_type\": \"%s\"}}\n",
                json_escape(opt.workload).c_str(), static_cast<unsigned long long>(opt.seed),
                json_number("seconds", opt.seconds).c_str(), opt.trace ? 1 : 0,
                ::sysconf(_SC_NPROCESSORS_ONLN), json_escape(driver).c_str(),
                json_escape(version).c_str(), PERFBENCH_BUILD_TYPE);
}

/// Host-wide CPU ticks from /proc/stat: {total, steal}. A run whose share
/// of stolen time is high measured a contended host, not the program.
std::pair<double, double> cpu_ticks() {
    std::ifstream in("/proc/stat");
    std::string cpu;
    double total = 0, steal = 0, v = 0;
    in >> cpu;
    for (int field = 0; field < 8 && (in >> v); ++field) {
        total += v;
        if (field == 7) steal = v;
    }
    return {total, steal};
}

void print_result(const Options& opt, const Result& r) {
    std::map<std::string, double> values = r.metrics;
    std::string out = "{\"correct\": ";
    out += r.correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(r.attempted);
    out += ", \"failed\": " + std::to_string(r.failed);
    out += ", \"metrics\": {";
    bool first = true;
    const auto emit = [&](const CatalogEntry& e) {
        const auto it = values.find(e.name);
        const double v = it == values.end() ? 0.0 : it->second;
        if (it != values.end()) values.erase(it);
        if (!first) out += ", ";
        first = false;
        out += "\"" + std::string(e.name) + "\": {\"value\": " + json_number(e.name, v) +
               ", \"unit\": \"" + e.unit + "\"}";
    };
    if (opt.trace)
        for (const CatalogEntry& e : kPerLayer) emit(e);
    else
        for (const CatalogEntry& e : kEndToEnd) emit(e);
    out += "}}";
    // The other mode's metrics are expected leftovers; anything else is a
    // name missing from the catalog.
    for (const auto& [name, v] : values) {
        (void)v;
        bool known = false;
        for (const CatalogEntry& e : kEndToEnd) known = known || name == e.name;
        for (const CatalogEntry& e : kPerLayer) known = known || name == e.name;
        if (!known) throw std::logic_error("metric not in the catalog: " + name);
    }
    std::printf("%s\n", out.c_str());
}

} // namespace

void Result::fail(const std::string& what) {
    ++failed;
    correct = false;
    if (failed <= 5) std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
}

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
    if (v.empty()) return 0.0;
    double s = 0.0;
    for (const double x : v) s += x;
    return s / static_cast<double>(v.size());
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t item) {
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + item + 0x632BE59BD9B4E019ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::uint64_t hash_doubles(std::span<const double> v, std::uint64_t h) {
    const auto* p = reinterpret_cast<const unsigned char*>(v.data());
    for (std::size_t i = 0; i < v.size_bytes(); ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

double peak_rss_mb() {
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

std::string read_file(const std::filesystem::path& p) {
    std::ifstream in(p, std::ios::binary);
    if (!in) throw std::runtime_error("cannot read " + p.string());
    std::ostringstream s;
    s << in.rdbuf();
    return s.str();
}

std::filesystem::path fresh_dir(const Options& opt, const std::string& name) {
    const std::filesystem::path p = opt.work_dir / name;
    std::filesystem::remove_all(p);
    std::filesystem::create_directories(p);
    return p;
}

const char* layer_name(Layer l) {
    static constexpr const char* kNames[kLayers] = {"bench", "serve",   "runtime", "native",
                                                    "durable", "sbd", "core",    "sim"};
    return kNames[static_cast<std::size_t>(l)];
}

Tracer::Scope Tracer::span(const char* name, Layer layer, std::uint64_t op, bool op_root) {
    if (!enabled_) return {};
    Span s;
    s.name = name;
    s.layer = layer;
    s.op = op;
    s.op_root = op_root;
    s.parent = open_.empty() ? kNone : open_.back();
    const auto idx = static_cast<std::uint32_t>(spans_.size());
    open_.push_back(idx);
    s.t0 = now_ns();
    spans_.push_back(s);
    return Scope(this, idx);
}

void Tracer::Scope::end() {
    if (t_ == nullptr) return;
    t_->spans_[idx_].t1 = now_ns();
    if (!t_->open_.empty() && t_->open_.back() == idx_) t_->open_.pop_back();
    t_ = nullptr;
}

void Tracer::self_times(std::array<double, kLayers>& self_ns, double& root_ns) const {
    std::vector<double> child(spans_.size(), 0.0);
    std::vector<std::uint32_t> root(spans_.size(), kNone);
    for (std::uint32_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        root[i] = s.parent == kNone ? i : root[s.parent]; // parents precede children
        if (s.parent != kNone) child[s.parent] += static_cast<double>(s.t1 - s.t0);
    }
    for (std::uint32_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        if (!spans_[root[i]].op_root) continue;
        const double dur = static_cast<double>(s.t1 - s.t0);
        self_ns[static_cast<std::size_t>(s.layer)] += dur - child[i];
        if (s.parent == kNone) root_ns += dur;
    }
}

void add_self_shares(Result& r, const std::vector<const Tracer*>& tracers) {
    std::array<double, kLayers> self{};
    double total = 0.0;
    std::size_t spans = 0;
    for (const Tracer* t : tracers) {
        t->self_times(self, total);
        spans += t->spans().size();
    }
    r.set("trace.spans", static_cast<double>(spans));
    for (std::size_t l = 0; l < kLayers; ++l) {
        const std::string name = std::string("trace.self_share.") + layer_name(Layer(l));
        if (Layer(l) == Layer::Sim) continue; // the oracle never runs inside a timed op
        r.set(name, total > 0.0 ? self[l] / total : 0.0);
    }
}

void write_chrome_trace(const Options& opt, const std::vector<const Tracer*>& tracers) {
    // Enough to inspect individual ops; the aggregates above use every span.
    constexpr std::size_t kMaxSpansPerThread = 20000;
    const std::filesystem::path dir = opt.work_dir.parent_path() / "traces";
    std::filesystem::create_directories(dir);
    std::ofstream out(dir / (opt.workload + ".json"));
    out << "{\"otherData\": {\"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
        << "},\n\"traceEvents\": [\n";
    bool first = true;
    std::uint64_t t_base = UINT64_MAX;
    for (const Tracer* t : tracers)
        for (const auto& s : t->spans()) t_base = std::min(t_base, s.t0);
    for (const Tracer* t : tracers) {
        const auto& spans = t->spans();
        const std::size_t n = std::min(spans.size(), kMaxSpansPerThread);
        for (std::size_t i = 0; i < n; ++i) {
            const auto& s = spans[i];
            char buf[320];
            std::snprintf(buf, sizeof buf,
                          "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                          "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"op\": %llu}}",
                          first ? "" : ",\n", s.name, layer_name(s.layer), t->tid(),
                          static_cast<double>(s.t0 - t_base) / 1e3,
                          static_cast<double>(s.t1 - s.t0) / 1e3,
                          static_cast<unsigned long long>(s.op));
            out << buf;
            first = false;
        }
    }
    out << "\n]}\n";
}

} // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    const Options opt = parse_args(argc, argv);
    const bool serve = opt.workload == "serve_step" || opt.workload == "serve_fleet";
    const bool compile = opt.workload == "compile_sat" || opt.workload == "compile_native";
    if (!serve && !compile) usage(("unknown workload " + opt.workload).c_str());

    sbd::native::install();
    int code = 1;
    try {
        std::filesystem::create_directories(opt.work_dir);
        print_stamp(opt);
        std::fflush(stdout);
        const auto ticks0 = cpu_ticks();
        Result r = serve ? run_serve(opt) : run_compile(opt);
        const auto ticks1 = cpu_ticks();
        if (ticks1.first > ticks0.first)
            std::printf("{\"host\": {\"cpu_steal_share\": %.4f}}\n",
                        (ticks1.second - ticks0.second) / (ticks1.first - ticks0.first));
        if (r.attempted == 0) {
            r.attempted = 1;
            r.fail("no op was attempted");
        }
        r.set("error_rate", static_cast<double>(r.failed) / static_cast<double>(r.attempted));
        print_result(opt, r);
        code = r.correct && r.failed == 0 ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
    }
    std::error_code ec;
    std::filesystem::remove_all(opt.work_dir, ec);
    return code;
}
