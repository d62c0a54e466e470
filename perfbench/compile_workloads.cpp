// compile_sat and compile_native: one timed op takes one model from .sbd
// text to a ready instance.
//
//   compile_sat     parse_sbd_string -> Pipeline::compile (DisjointSat, fresh
//                   cache, 1 thread) -> interpreter Executable -> instance,
//                   over a seeded corpus of random and deep shared hierarchies.
//   compile_native  parse_sbd_string -> Pipeline::compile (Dynamic) ->
//                   make_native_executable (fresh artifact store) -> instance,
//                   over the demo suite plus the executable models/*.sbd.
//
// Ops run in whole passes over the corpus, each pass in a seeded order, so
// every run times the same set of models. A model's latency is its fastest
// pass: on a shared host, neighbours slow whole passes by up to a quarter
// for a few seconds at a time, and the best of many passes is the figure
// that repeats from run to run. After each op the instance runs
// 64 seeded instants that must equal sim::simulate bitwise; the oracle runs
// once per model, after the model's first op.

#include <algorithm>
#include <cstring>
#include <optional>
#include <random>
#include <stdexcept>

#include "bench.hpp"
#include "core/pipeline.hpp"
#include "native/native.hpp"
#include "runtime/engine.hpp"
#include "sbd/text_format.hpp"
#include "sim/simulator.hpp"
#include "suite/models.hpp"
#include "suite/random_models.hpp"

namespace perfbench {
namespace {

using namespace sbd;
namespace fs = std::filesystem;

constexpr int kSetups = 5;
constexpr std::size_t kInstants = 64;
constexpr int kSatReps = 30; ///< compile_sat corpus: 30 x 10 shapes
constexpr std::uint64_t kCorpusSeed = 1; ///< compile_sat corpus generator seed
/// compile_sat's random_model shapes: (depth, subs per level).
constexpr std::pair<std::size_t, std::size_t> kRandomShapes[] = {
    {2, 8}, {2, 12}, {2, 16}, {2, 20}, {2, 24}, {3, 8}, {3, 12}, {3, 16}};

/// The models/ files that can be executed (vendor_integration.sbd declares
/// an opaque extern block, which no backend can run).
constexpr const char* kModelFiles[] = {"figure3.sbd", "figure4.sbd", "thermostat.sbd",
                                       "triggered_logger.sbd"};

struct Model {
    std::string name;
    std::string text;
    std::size_t nin = 0, nout = 0;
    std::vector<double> inputs;   ///< kInstants x nin
    std::vector<double> expected; ///< kInstants x nout, from sim::simulate
};

/// The compile_sat corpus, stratified over the hierarchy shapes. It is drawn
/// from a fixed generator seed, the same in every run: with the models drawn
/// from --seed, the mix alone moved code_lines by 4% and op_p90_us by more
/// from seed to seed, on top of the host's noise. --seed sets the pass order
/// and the check's input rows. Depth-3
/// hierarchies stop at 16 subs per level: wider ones take 13-20 ms each
/// and, a few per corpus, would make the corpus mean depend on the seed.
/// Triggers are left out: about 2% of triggered random hierarchies disagree
/// with sim::simulate under every clustering method (see CHANGES.md).
std::vector<std::pair<std::string, std::string>> sat_texts() {
    std::vector<std::pair<std::string, std::string>> out;
    std::mt19937_64 rng(mix_seed(kCorpusSeed, 1));
    for (int rep = 0; rep < kSatReps; ++rep) {
        for (const auto& [depth, subs] : kRandomShapes) {
            suite::RandomModelParams p;
            p.depth = depth;
            p.subs_per_level = subs;
            out.emplace_back("random_d" + std::to_string(depth) + "_s" + std::to_string(subs),
                             text::to_sbd(*suite::random_model(rng, p)));
        }
        for (const std::size_t subs : {4, 6}) {
            suite::DeepModelParams p;
            p.levels = 4;
            p.subs_per_macro = subs;
            p.clone_probability = 0.3;
            out.emplace_back("deep_s" + std::to_string(subs),
                             text::to_sbd(*suite::random_deep_model(rng, p)));
        }
    }
    return out;
}

std::vector<std::pair<std::string, std::string>> native_texts(const Options& opt) {
    std::vector<std::pair<std::string, std::string>> out;
    for (const suite::NamedModel& m : suite::demo_suite())
        out.emplace_back(m.name,
                         text::to_sbd(dynamic_cast<const MacroBlock&>(*m.block)));
    for (const char* f : kModelFiles) out.emplace_back(f, read_file(opt.repo / "models" / f));
    return out;
}

/// The corpus with each model's seeded input rows.
std::vector<Model> build_corpus(const Options& opt, bool native) {
    std::vector<Model> corpus;
    auto texts = native ? native_texts(opt) : sat_texts();
    for (std::size_t i = 0; i < texts.size(); ++i) {
        Model m;
        m.name = std::move(texts[i].first);
        m.text = std::move(texts[i].second);
        const auto root = text::parse_sbd_string(m.text).root;
        m.nin = root->num_inputs();
        m.nout = root->num_outputs();
        m.inputs.resize(kInstants * m.nin);
        runtime::LcgInputSource(mix_seed(opt.seed, 100 + i)).fill(m.inputs);
        corpus.push_back(std::move(m));
    }
    return corpus;
}

/// Per-op measurements, summed over ops.
struct Totals {
    std::vector<double> op_ns;
    std::vector<std::vector<double>> model_ns; ///< op latencies by corpus index
    double traced_ns = 0, untraced_ns = 0;
    std::size_t traced = 0, untraced = 0;
    double parse_ns = 0, compile_ns = 0, instantiate_ns = 0, text_bytes = 0;
    double cc_ns = 0, load_ns = 0, emit_ns = 0, step_ns = 0, steps = 0;
    double simulate_ns = 0, simulated = 0, so_bytes = 0;
    codegen::PipelineStats stats; ///< summed over every op
};

/// What one pass over the corpus produced; every pass must repeat it.
struct PassCounts {
    double functions = 0, lines = 0, tu_bytes = 0;
    double macro_compiles = 0, macro_reuses = 0;
    double sat_iterations = 0, sat_conflicts = 0, sat_propagations = 0, sat_clauses = 0;
    bool operator==(const PassCounts&) const = default;
};

void add_stats(codegen::PipelineStats& a, const codegen::PipelineStats& b) {
    a.fingerprint_ns += b.fingerprint_ns;
    a.sdg_ns += b.sdg_ns;
    a.cluster_ns += b.cluster_ns;
    a.codegen_ns += b.codegen_ns;
    a.total_ns += b.total_ns;
}

class Runner {
public:
    Runner(const Options& opt, bool native) : opt_(opt), native_(native), tr_(1) {}

    Tracer& tracer() { return tr_; }
    Totals& totals() { return totals_; }

    /// One timed op plus its check. Returns false on any failure.
    bool compile_one(Model& m, std::size_t index, std::uint64_t op, PassCounts& pass, Result& r) {
        codegen::PipelineOptions popts;
        popts.method = native_ ? codegen::Method::Dynamic : codegen::Method::DisjointSat;
        popts.threads = 1;
        codegen::BackendConfig bc;
        if (native_) {
            bc.backend = codegen::Backend::Native;
            bc.method = popts.method;
            // A fresh store per op: the backend memoizes builds by artifact
            // path for the process lifetime.
            if (op > 0) fs::remove_all(opt_.work_dir / ("native-op-" + std::to_string(op - 1)));
            bc.cache_dir = fresh_dir(opt_, "native-op-" + std::to_string(op)).string();
        }
        try {
            const std::uint64_t t0 = now_ns();
            auto root_span = tr_.span("compile", Layer::Bench, op, true);
            text::ParsedFile parsed;
            {
                auto s = tr_.span("text::parse_sbd_string", Layer::Sbd, op);
                parsed = text::parse_sbd_string(m.text);
            }
            const std::uint64_t t1 = now_ns();
            codegen::Pipeline pipeline(popts);
            codegen::SatClusterStats sat;
            std::optional<codegen::CompiledSystem> sys;
            {
                auto s = tr_.span("codegen::Pipeline::compile", Layer::Core, op);
                sys.emplace(pipeline.compile(parsed.root, &sat));
            }
            const std::uint64_t t2 = now_ns();
            std::shared_ptr<const codegen::Executable> exe;
            if (native_) {
                auto s = tr_.span("native::make_native_executable", Layer::Native, op);
                exe = native::make_native_executable(*sys, parsed.root, bc);
            } else {
                auto s = tr_.span("codegen::make_executable", Layer::Core, op);
                exe = codegen::make_executable(*sys, parsed.root, bc);
            }
            const std::uint64_t t3 = now_ns();
            std::unique_ptr<codegen::Instance> inst;
            {
                auto s = tr_.span("codegen::Executable::instantiate", Layer::Core, op);
                inst = exe->instantiate();
            }
            const std::uint64_t t4 = now_ns();
            root_span.end();

            const auto op_ns = static_cast<double>(t4 - t0);
            totals_.op_ns.push_back(op_ns);
            totals_.model_ns.at(index).push_back(op_ns);
            if (tr_.enabled()) totals_.traced_ns += op_ns, ++totals_.traced;
            else totals_.untraced_ns += op_ns, ++totals_.untraced;
            totals_.parse_ns += static_cast<double>(t1 - t0);
            totals_.compile_ns += static_cast<double>(t2 - t1);
            totals_.instantiate_ns += static_cast<double>(t4 - t3);
            totals_.text_bytes += static_cast<double>(m.text.size());
            const codegen::PipelineStats st = pipeline.stats();
            add_stats(totals_.stats, st);

            pass.functions += static_cast<double>(sys->total_functions());
            pass.lines += static_cast<double>(sys->total_lines());
            pass.macro_compiles += static_cast<double>(st.macro_compiles);
            pass.macro_reuses += static_cast<double>(st.macro_reuses);
            pass.sat_iterations += static_cast<double>(sat.iterations);
            pass.sat_conflicts += static_cast<double>(sat.conflicts);
            pass.sat_propagations += static_cast<double>(sat.propagations);
            pass.sat_clauses += static_cast<double>(sat.clauses);
            if (native_) {
                const native::BuildInfo& info = *native::build_info(*exe);
                if (info.cache_hit) r.fail(m.name + ": native build hit a cache");
                totals_.cc_ns += static_cast<double>(info.compile_ns);
                totals_.load_ns += static_cast<double>(info.load_ns);
                pass.tu_bytes += static_cast<double>(info.tu_bytes);
                // The .so records its temporary source path, whose length
                // varies with the op number, so its size is not compared.
                totals_.so_bytes += static_cast<double>(info.so_bytes);
                // Emit timed on its own, outside the op (the op already
                // paid for it inside make_native_executable).
                auto s = tr_.span("native::emit_native_module", Layer::Native, op);
                const std::uint64_t te = now_ns();
                const std::string tu = native::emit_native_module(*sys);
                totals_.emit_ns += static_cast<double>(now_ns() - te);
                if (tu.size() != info.tu_bytes) r.fail(m.name + ": emitted TU size changed");
            }
            if (m.expected.empty()) simulate(m, *parsed.root, op);
            return check(m, *inst, op, r);
        } catch (const std::exception& e) {
            r.fail(m.name + ": " + e.what());
            return false;
        }
    }

private:
    /// The oracle's outputs for the model's input rows.
    void simulate(Model& m, const MacroBlock& root, std::uint64_t op) {
        auto s = tr_.span("sim::simulate", Layer::Sim, op);
        std::vector<std::vector<double>> trace(kInstants);
        for (std::size_t t = 0; t < kInstants; ++t)
            trace[t].assign(m.inputs.begin() + static_cast<std::ptrdiff_t>(t * m.nin),
                            m.inputs.begin() + static_cast<std::ptrdiff_t>((t + 1) * m.nin));
        const std::uint64_t t0 = now_ns();
        for (const auto& row : sim::simulate(root, trace))
            m.expected.insert(m.expected.end(), row.begin(), row.end());
        totals_.simulate_ns += static_cast<double>(now_ns() - t0);
        totals_.simulated += 1;
    }

    /// 64 seeded instants, bitwise against the simulator's outputs.
    bool check(const Model& m, codegen::Instance& inst, std::uint64_t op, Result& r) {
        auto s = tr_.span("check vs sim::simulate", Layer::Bench, op);
        std::vector<double> out(m.nout);
        const std::uint64_t t0 = now_ns();
        std::string mismatch;
        for (std::size_t t = 0; t < kInstants; ++t) {
            inst.step_instant_into(std::span(m.inputs).subspan(t * m.nin, m.nin), out);
            for (std::size_t k = 0; k < m.nout && mismatch.empty(); ++k)
                if (std::memcmp(&out[k], &m.expected[t * m.nout + k], sizeof(double)) != 0)
                    mismatch = "instant " + std::to_string(t) + " output " + std::to_string(k) +
                               ": " + std::to_string(out[k]) + " vs simulator " +
                               std::to_string(m.expected[t * m.nout + k]);
        }
        totals_.step_ns += static_cast<double>(now_ns() - t0);
        totals_.steps += kInstants;
        if (!mismatch.empty()) r.fail(m.name + ": " + mismatch);
        return mismatch.empty();
    }

    const Options& opt_;
    bool native_;
    Tracer tr_;
    Totals totals_;
};

} // namespace

Result run_compile(const Options& opt) {
    const bool native = opt.workload == "compile_native";
    Result r;
    Runner run(opt, native);

    // Set-up: the corpus and its input rows; compile_native also builds one
    // warm-up module, so the compiler's binaries and headers are cached
    // before the first timed op. Repeated; the median is reported.
    std::vector<double> setup_ns;
    std::vector<Model> corpus;
    for (int i = 0; i < kSetups; ++i) {
        const std::uint64_t t0 = now_ns();
        corpus = build_corpus(opt, native);
        if (native) {
            const Model& m = corpus.front();
            const auto root = text::parse_sbd_string(m.text).root;
            const codegen::CompiledSystem sys =
                codegen::compile_hierarchy(root, codegen::Method::Dynamic);
            codegen::BackendConfig bc;
            bc.backend = codegen::Backend::Native;
            bc.cache_dir = fresh_dir(opt, "native-warmup-" + std::to_string(i)).string();
            native::make_native_executable(sys, root, bc);
        }
        setup_ns.push_back(static_cast<double>(now_ns() - t0));
    }

    run.totals().model_ns.resize(corpus.size());

    // Whole passes until the time is up; traced runs alternate untraced and
    // traced passes (at least one of each) to measure tracing overhead.
    const std::uint64_t until = now_ns() + static_cast<std::uint64_t>(opt.seconds * 1e9);
    std::optional<PassCounts> first_pass;
    std::uint64_t op = 0;
    for (std::uint64_t pass = 0; now_ns() < until || (opt.trace && pass < 2); ++pass) {
        run.tracer().set_enabled(opt.trace && pass % 2 == 1);
        std::vector<std::size_t> order(corpus.size());
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
        std::mt19937_64 rng(mix_seed(opt.seed, 1000 + pass));
        std::shuffle(order.begin(), order.end(), rng);
        PassCounts counts;
        bool all_ok = true;
        for (const std::size_t i : order) {
            ++r.attempted;
            all_ok = run.compile_one(corpus[i], i, op++, counts, r) && all_ok;
        }
        if (!all_ok) break;
        if (!first_pass) first_pass = counts;
        else if (!(counts == *first_pass)) r.fail("pass " + std::to_string(pass) +
                                                  ": code size or SAT counts changed");
    }
    run.tracer().set_enabled(false);
    if (!first_pass) return r;

    const Totals& t = run.totals();
    const double ops = static_cast<double>(t.op_ns.size());
    double op_sum = 0;
    for (const double x : t.op_ns) op_sum += x;
    r.set("setup_s", median(setup_ns) / 1e9);
    r.set("peak_rss_mb", peak_rss_mb());
    // Each model's latency is its fastest pass; the op metrics are taken
    // over those per-model figures.
    std::vector<double> per_model;
    double per_model_sum = 0;
    for (const std::vector<double>& v : t.model_ns) {
        per_model.push_back(*std::min_element(v.begin(), v.end()));
        per_model_sum += per_model.back();
    }
    r.set("ops_per_s", static_cast<double>(per_model.size()) / (per_model_sum / 1e9));
    r.set("op_p50_us", quantile(per_model, 0.50) / 1e3);
    r.set("op_p90_us", quantile(per_model, 0.90) / 1e3);
    r.set("interface_functions", first_pass->functions);
    r.set("code_lines", first_pass->lines);
    if (!opt.trace) return r;

    const PassCounts& p = *first_pass;
    r.set("sbd.parse_ms", t.parse_ns / ops / 1e6);
    r.set("sbd.parse_mb_per_s", t.text_bytes / (t.parse_ns / 1e9) / 1e6);
    r.set("core.compile_ms", t.compile_ns / ops / 1e6);
    r.set("core.fingerprint_ms", static_cast<double>(t.stats.fingerprint_ns) / ops / 1e6);
    r.set("core.sdg_ms", static_cast<double>(t.stats.sdg_ns) / ops / 1e6);
    r.set("core.cluster_ms", static_cast<double>(t.stats.cluster_ns) / ops / 1e6);
    r.set("core.codegen_ms", static_cast<double>(t.stats.codegen_ns) / ops / 1e6);
    r.set("core.cluster_share", static_cast<double>(t.stats.cluster_ns) / t.compile_ns);
    r.set("core.instantiate_ms", t.instantiate_ns / ops / 1e6);
    r.set("core.macro_compiles", p.macro_compiles);
    r.set("core.macro_reuses", p.macro_reuses);
    r.set("sat.iterations", p.sat_iterations);
    r.set("sat.conflicts", p.sat_conflicts);
    r.set("sat.propagations", p.sat_propagations);
    r.set("sat.clauses", p.sat_clauses);
    r.set("sim.simulate_ms", t.simulate_ns / t.simulated / 1e6);
    if (native) {
        r.set("native.cc_ms", t.cc_ns / ops / 1e6);
        r.set("native.load_ms", t.load_ns / ops / 1e6);
        r.set("native.emit_ms", t.emit_ns / ops / 1e6);
        r.set("native.cc_share", t.cc_ns / op_sum);
        r.set("native.tu_bytes", p.tu_bytes);
        r.set("native.so_bytes", t.so_bytes / ops * static_cast<double>(corpus.size()));
        r.set("native.step_ns", t.step_ns / t.steps);
    }
    const double traced = t.traced_ns / static_cast<double>(t.traced);
    const double untraced = t.untraced_ns / static_cast<double>(t.untraced);
    r.set("trace.overhead_us", (traced - untraced) / 1e3);
    r.set("trace.overhead_share", (traced - untraced) / untraced);
    add_self_shares(r, {&run.tracer()});
    write_chrome_trace(opt, {&run.tracer()});
    return r;
}

} // namespace perfbench
