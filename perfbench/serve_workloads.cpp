// serve_step and serve_fleet: an in-process serve::Server on a unix socket,
// serving models/thermostat.sbd (Dynamic method) on the native backend.
//
// One driver connection runs closed-loop cycles: post_inputs with seeded
// LCG rows, tick(n), read_outputs. Every cycle's outputs are hashed and,
// after the timed window, compared bitwise with a direct single-threaded
// interpreter Engine fed the same rows (serve_fleet checks every 64th
// instance: the interpreter replay of all 1024 would take longer than the
// run itself). On serve_step a poller connection reads the same instances
// open loop; every poll must equal the outputs of some completed instant.
//
// Traced runs add the per-layer replays: the cycle's six frames through
// encode_frame/decode_frame, Journal::append of the cycle's payloads,
// Engine::tick at the configured thread count and at 1, and single-instance
// step_instant_into, each on the workload's own inputs.

#include <algorithm>
#include <atomic>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "core/pipeline.hpp"
#include "durable/durable.hpp"
#include "native/native.hpp"
#include "runtime/engine.hpp"
#include "sbd/text_format.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace perfbench {
namespace {

using namespace sbd;
namespace fs = std::filesystem;

struct ServeSpec {
    std::size_t instances;
    std::size_t engine_threads;
    std::uint32_t ticks_per_cycle;
    bool durable;             ///< attach a store with the daemon defaults
    double poll_rps;          ///< 0 = no poller
    std::size_t check_stride; ///< the oracle replays instances i % stride == 0
};

ServeSpec spec_for(const std::string& workload) {
    if (workload == "serve_step") return {32, 1, 1, true, 2000.0, 1};
    return {1024, 2, 16, false, 0.0, 64};
}

constexpr std::uint64_t kTenant = 1;
constexpr int kSetups = 5;
constexpr std::size_t kWarmupCycles = 200;
constexpr double kReplaySeconds = 0.25;
constexpr std::size_t kBlocks = 4; ///< time slices of each rig's window

double us(double ns) { return ns / 1e3; }
double ms(double ns) { return ns / 1e6; }

/// A booted server with its connected clients and live instances. Members
/// are declared so that destruction stops the clients, then the server,
/// then what the server points into.
struct Rig {
    std::shared_ptr<const MacroBlock> root;
    std::unique_ptr<codegen::CompiledSystem> sys;
    std::shared_ptr<const codegen::Executable> exe;
    native::BuildInfo build;
    obs::MetricsRegistry registry;
    std::unique_ptr<serve::Server> server;
    std::optional<serve::Client> driver;
    std::optional<serve::Client> poller;
    std::vector<serve::WireHandle> handles;

    std::size_t text_bytes = 0;
    double parse_ns = 0, compile_ns = 0, setup_ns = 0;
    codegen::PipelineStats stats;

    Rig() = default;
    Rig(const Rig&) = delete;
    Rig& operator=(const Rig&) = delete;
    ~Rig() {
        driver.reset();
        poller.reset();
        if (server) {
            server->request_stop();
            server->wait();
        }
    }
};

/// Set-up, timed from the model file to created instances: parse, compile,
/// native build in a fresh artifact store, server start, connect, create.
std::unique_ptr<Rig> boot(const Options& opt, const ServeSpec& spec, int index) {
    auto rig = std::make_unique<Rig>();
    const std::uint64_t t0 = now_ns();
    const std::string text = read_file(opt.repo / "models" / "thermostat.sbd");
    rig->text_bytes = text.size();

    const std::uint64_t tp = now_ns();
    rig->root = text::parse_sbd_string(text).root;
    rig->parse_ns = static_cast<double>(now_ns() - tp);

    const std::uint64_t tc = now_ns();
    codegen::PipelineOptions popts;
    popts.method = codegen::Method::Dynamic;
    codegen::Pipeline pipeline(popts);
    rig->sys = std::make_unique<codegen::CompiledSystem>(pipeline.compile(rig->root));
    rig->compile_ns = static_cast<double>(now_ns() - tc);
    rig->stats = pipeline.stats();

    codegen::BackendConfig bc;
    bc.backend = codegen::Backend::Native;
    bc.method = popts.method;
    bc.cache_dir = fresh_dir(opt, "native-" + std::to_string(index)).string();
    rig->exe = native::make_native_executable(*rig->sys, rig->root, bc);
    rig->build = *native::build_info(*rig->exe);

    serve::ServerConfig cfg;
    const std::string sock = (opt.work_dir / ("s" + std::to_string(index) + ".sock")).string();
    if (sock.size() > 100) throw std::runtime_error("socket path too long: " + sock);
    cfg.endpoint = serve::Endpoint::parse("unix:" + sock);
    cfg.executable = rig->exe;
    cfg.shard_capacity = spec.instances;
    cfg.engine_threads = spec.engine_threads;
    cfg.metrics = &rig->registry;
    if (spec.durable) {
        durable::Options d; // daemon defaults: FsyncMode::Batch, checkpoint every 1024 ticks
        d.data_dir = fresh_dir(opt, "data-" + std::to_string(index));
        cfg.durable = d;
        cfg.model_source = text;
    }
    rig->server = std::make_unique<serve::Server>(*rig->sys, rig->root, cfg);
    rig->server->recover();
    rig->server->start();
    rig->driver.emplace(serve::Client::connect(rig->server->endpoint()));
    if (spec.poll_rps > 0) rig->poller.emplace(serve::Client::connect(rig->server->endpoint()));
    rig->handles =
        rig->driver->create_instances(kTenant, static_cast<std::uint32_t>(spec.instances));
    rig->setup_ns = static_cast<double>(now_ns() - t0);
    return rig;
}

/// Bitwise fingerprint of the checked instances' output rows.
std::uint64_t checked_hash(std::span<const double> outs, const ServeSpec& spec, std::size_t nout) {
    std::uint64_t h = hash_doubles({});
    for (std::size_t i = 0; i < spec.instances; i += spec.check_stride)
        h = hash_doubles(outs.subspan(i * nout, nout), h);
    return h;
}

struct PollLog {
    std::vector<double> lat_ns;  ///< from due time to response
    std::vector<double> late_ns; ///< how late the send left
    std::vector<double> rtt_ns;  ///< from send to response
    std::vector<std::uint64_t> hashes;
    /// Driver cycles completed before the send and after the response: the
    /// poll must see the outputs of one of the cycles in between.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> seen;
    std::uint64_t attempted = 0;
    std::string error;
};

/// Open-loop reader: request k is due at start + k / rps and is timed from
/// that due time, so a stalled server charges its backlog to later polls.
void poll_loop(serve::Client& client, const std::vector<serve::WireHandle>& handles,
               const ServeSpec& spec, std::size_t nout, const std::atomic<std::uint64_t>& completed,
               std::atomic<bool>& stop, Tracer& tr, PollLog& log) {
    try {
        const auto period = std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(1.0 / spec.poll_rps));
        const Clock::time_point start = Clock::now();
        for (std::uint64_t k = 0; !stop.load(std::memory_order_relaxed); ++k) {
            const Clock::time_point due = start + period * static_cast<long>(k);
            std::this_thread::sleep_until(due);
            const Clock::time_point sent = Clock::now();
            const std::uint64_t lo = completed.load();
            ++log.attempted;
            std::vector<double> outs;
            {
                auto s = tr.span("client.read_outputs(poll)", Layer::Serve, k);
                outs = client.read_outputs(kTenant, handles);
            }
            const Clock::time_point done = Clock::now();
            log.lat_ns.push_back(std::chrono::duration<double, std::nano>(done - due).count());
            log.late_ns.push_back(std::chrono::duration<double, std::nano>(sent - due).count());
            log.rtt_ns.push_back(std::chrono::duration<double, std::nano>(done - sent).count());
            log.hashes.push_back(checked_hash(outs, spec, nout));
            log.seen.emplace_back(lo, completed.load());
        }
    } catch (const std::exception& e) {
        log.error = e.what();
    }
}

/// Replays every driver cycle on a direct single-threaded interpreter
/// Engine and compares output fingerprints; every poll must match the
/// outputs of a cycle that completed while it was in flight.
void verify(const Rig& rig, const ServeSpec& spec, std::uint64_t seed,
            const std::vector<std::uint64_t>& cycle_hashes, const PollLog& polls, Result& r) {
    const std::size_t n = (spec.instances + spec.check_stride - 1) / spec.check_stride;
    runtime::EngineConfig ec;
    ec.capacity = n;
    runtime::Engine ref(*rig.sys, rig.root, ec);
    const std::vector<runtime::InstanceId> ids = ref.create(n);
    std::vector<runtime::LcgInputSource> src;
    for (std::size_t j = 0; j < n; ++j) src.emplace_back(mix_seed(seed, j * spec.check_stride));

    for (std::size_t c = 0; c < cycle_hashes.size(); ++c) {
        for (std::size_t j = 0; j < n; ++j) src[j].fill(ref.pool().inputs(ids[j]));
        ref.tick(spec.ticks_per_cycle);
        std::uint64_t h = hash_doubles({});
        for (std::size_t j = 0; j < n; ++j) h = hash_doubles(ref.pool().outputs(ids[j]), h);
        if (h != cycle_hashes[c])
            r.fail("cycle " + std::to_string(c) + ": served outputs differ from the interpreter");
    }
    // Polls start after the warm-up, so lo >= 1.
    for (std::size_t p = 0; p < polls.hashes.size(); ++p) {
        const auto [lo, hi] = polls.seen[p];
        bool ok = false;
        for (std::uint64_t c = lo - 1; c <= hi && c < cycle_hashes.size(); ++c)
            ok = ok || cycle_hashes[c] == polls.hashes[p];
        if (!ok) r.fail("poll " + std::to_string(p) + ": outputs match no cycle in flight");
    }
}

double counter_total(const obs::Snapshot& s, const std::string& name) {
    double v = 0;
    for (const obs::Sample& x : s.samples)
        if (x.name == name) v += static_cast<double>(x.value);
    return v;
}

double hist_sum(const obs::Snapshot& s, const std::string& name) {
    const obs::Sample* x = s.find(name);
    return x == nullptr ? 0.0 : static_cast<double>(x->sum);
}

/// Runs `body` in a loop for about kReplaySeconds inside one span; returns
/// mean ns per iteration.
template <typename F> double replay(Tracer& tr, const char* name, Layer layer, F&& body) {
    auto s = tr.span(name, layer);
    const std::uint64_t t0 = now_ns();
    const std::uint64_t until = t0 + static_cast<std::uint64_t>(kReplaySeconds * 1e9);
    std::uint64_t n = 0, t = t0;
    do {
        for (int k = 0; k < 16; ++k) body();
        n += 16;
        t = now_ns();
    } while (t < until);
    return static_cast<double>(t - t0) / static_cast<double>(n);
}

struct CycleData {
    std::vector<double> rows;
    std::vector<double> outs;
    std::uint64_t server_ticks = 0;
};

/// The cycle's POST_INPUTS request payload, as the client encodes it and
/// the server journals it.
std::vector<std::uint8_t> post_payload(const Rig& rig, const CycleData& cd) {
    const std::size_t nin = rig.root->num_inputs();
    serve::PayloadWriter w;
    w.u64(kTenant);
    w.u32(static_cast<std::uint32_t>(rig.handles.size()));
    for (std::size_t i = 0; i < rig.handles.size(); ++i) {
        serve::write_handle(w, rig.handles[i]);
        w.f64s(std::span(cd.rows).subspan(i * nin, nin));
    }
    return w.take();
}

void replay_codec(const Rig& rig, const ServeSpec& spec, const CycleData& cd, Tracer& tr,
                  Result& r) {
    const auto frame = [](serve::Op op, std::uint64_t id, std::vector<std::uint8_t> payload) {
        serve::Frame f;
        f.opcode = op;
        f.request_id = id;
        f.payload = std::move(payload);
        return f;
    };
    std::vector<serve::Frame> frames;
    frames.push_back(frame(serve::Op::PostInputs, 1, post_payload(rig, cd)));
    frames.push_back(frame(serve::Op::PostInputs, 1, {}));
    {
        serve::PayloadWriter w;
        w.u64(kTenant);
        w.u32(spec.ticks_per_cycle);
        frames.push_back(frame(serve::Op::Tick, 2, w.take()));
        serve::PayloadWriter resp;
        resp.u64(cd.server_ticks);
        resp.u32(spec.ticks_per_cycle);
        frames.push_back(frame(serve::Op::Tick, 2, resp.take()));
    }
    {
        serve::PayloadWriter w;
        w.u64(kTenant);
        w.u32(static_cast<std::uint32_t>(rig.handles.size()));
        for (const serve::WireHandle& h : rig.handles) serve::write_handle(w, h);
        frames.push_back(frame(serve::Op::ReadOutputs, 3, w.take()));
        serve::PayloadWriter resp;
        resp.u32(static_cast<std::uint32_t>(rig.handles.size()));
        resp.f64s(cd.outs);
        frames.push_back(frame(serve::Op::ReadOutputs, 3, resp.take()));
    }
    serve::Frame out;
    bool ok = true;
    const double ns = replay(tr, "serve::encode_frame+decode_frame x6", Layer::Serve, [&] {
        for (const serve::Frame& f : frames) {
            const std::vector<std::uint8_t> bytes = serve::encode_frame(f);
            const serve::DecodeResult d = serve::decode_frame(bytes, out);
            ok = ok && d.status == serve::DecodeStatus::Ok && d.consumed == bytes.size() &&
                 out.payload.size() == f.payload.size();
        }
    });
    if (!ok) r.fail("codec replay: a frame did not round-trip");
    r.set("serve.codec_us_per_cycle", us(ns));
}

void replay_journal(const Options& opt, const Rig& rig, const CycleData& cd, Tracer& tr,
                    Result& r) {
    const std::vector<std::uint8_t> post = post_payload(rig, cd);
    durable::Options d;
    d.data_dir = fresh_dir(opt, "journal-replay");
    d.checkpoint_every_ticks = 0;
    durable::Store store(d);
    const double ns = replay(tr, "durable::Journal::append x2", Layer::Durable, [&] {
        store.journal().append(durable::RecordKind::PostInputs, post);
        store.journal().append(durable::RecordKind::Tick, {});
    });
    r.set("durable.append_us", us(ns / 2));
}

double replay_engine(const Rig& rig, const ServeSpec& spec, std::size_t threads,
                     std::uint64_t seed, Tracer& tr) {
    runtime::EngineConfig ec;
    ec.capacity = spec.instances;
    ec.executable = rig.exe;
    ec.threads = threads;
    runtime::Engine e(*rig.sys, rig.root, ec);
    const std::vector<runtime::InstanceId> ids = e.create(spec.instances);
    for (std::size_t i = 0; i < ids.size(); ++i)
        runtime::LcgInputSource(mix_seed(seed, i)).fill(e.pool().inputs(ids[i]));
    e.tick(100);
    return replay(tr, threads == 1 ? "runtime::Engine::tick (1 thread)" : "runtime::Engine::tick",
                  Layer::Runtime, [&] { e.tick(); });
}

void replay_step(const Rig& rig, std::uint64_t seed, Tracer& tr, Result& r) {
    const std::size_t nin = rig.root->num_inputs();
    const std::unique_ptr<codegen::Instance> inst = rig.exe->instantiate();
    constexpr std::size_t kRows = 256;
    std::vector<double> rows(kRows * nin);
    runtime::LcgInputSource(mix_seed(seed, 0)).fill(rows);
    std::vector<double> out(rig.root->num_outputs());
    std::size_t k = 0;
    const double ns = replay(tr, "codegen::Instance::step_instant_into", Layer::Native, [&] {
        inst->step_instant_into(std::span(rows).subspan(k * nin, nin), out);
        k = (k + 1) % kRows;
    });
    r.set("native.step_ns", ns);
}

/// Everything one measurement window on one rig produced.
struct Window {
    std::vector<std::vector<double>> blocks = std::vector<std::vector<double>>(kBlocks);
    /// Kept in traced runs only, so untraced bookkeeping (and peak RSS)
    /// barely grows with throughput.
    std::vector<double> post_ns, tick_ns, read_ns, traced_ns, untraced_ns;
    PollLog polls;
    std::uint64_t cycles = 0; ///< including warm-up
    CycleData last;
    obs::Snapshot before, after; ///< the server's series around the window
};

/// Warm-up, then closed-loop driver cycles for `seconds` with the poller
/// alongside, then the oracle check of every cycle and poll.
void measure(const Options& opt, const ServeSpec& spec, Rig& rig, double seconds, Tracer& tr,
             Tracer& poll_tr, Window& w, Result& r) {
    const std::size_t nin = rig.root->num_inputs();
    const std::size_t nout = rig.root->num_outputs();
    std::vector<runtime::LcgInputSource> src;
    for (std::size_t i = 0; i < spec.instances; ++i) src.emplace_back(mix_seed(opt.seed, i));
    CycleData& cd = w.last;
    cd.rows.resize(spec.instances * nin);
    std::vector<std::uint64_t> cycle_hashes;

    std::atomic<std::uint64_t> completed{0}; ///< driver cycles done, read by the poller
    std::atomic<bool> stop_polls{false};
    std::thread poll_thread;
    // Stops and joins the poller on every exit path, exceptions included.
    struct Joiner {
        std::atomic<bool>& stop;
        std::thread& t;
        void join() {
            stop.store(true);
            if (t.joinable()) t.join();
        }
        ~Joiner() { join(); }
    } joiner{stop_polls, poll_thread};

    w.before = rig.registry.snapshot();
    std::uint64_t start = 0, until = 0;
    for (std::uint64_t c = 0; until == 0 || now_ns() < until; ++c) {
        if (c == kWarmupCycles) {
            start = now_ns();
            until = start + static_cast<std::uint64_t>(seconds * 1e9);
            if (rig.poller)
                poll_thread = std::thread(poll_loop, std::ref(*rig.poller),
                                          std::cref(rig.handles), std::cref(spec), nout,
                                          std::cref(completed), std::ref(stop_polls),
                                          std::ref(poll_tr),
                                          std::ref(w.polls));
        }
        const bool timed = c >= kWarmupCycles;
        // Traced runs alternate traced and untraced cycles, so the tracing
        // overhead is measured under identical conditions.
        tr.set_enabled(opt.trace && timed && c % 2 == 0);
        for (std::size_t i = 0; i < spec.instances; ++i)
            src[i].fill(std::span(cd.rows).subspan(i * nin, nin));
        ++r.attempted;
        std::uint64_t t0 = 0, t1 = 0, t2 = 0, t3 = 0;
        try {
            auto cycle = tr.span("cycle", Layer::Bench, c, true);
            t0 = now_ns();
            {
                auto s = tr.span("serve::Client::post_inputs", Layer::Serve, c);
                rig.driver->post_inputs(kTenant, rig.handles, cd.rows);
            }
            t1 = now_ns();
            serve::TickResult tick;
            {
                auto s = tr.span("serve::Client::tick", Layer::Serve, c);
                tick = rig.driver->tick(kTenant, spec.ticks_per_cycle);
            }
            t2 = now_ns();
            {
                auto s = tr.span("serve::Client::read_outputs", Layer::Serve, c);
                cd.outs = rig.driver->read_outputs(kTenant, rig.handles);
            }
            t3 = now_ns();
            cd.server_ticks = tick.server_ticks;
            if (tick.executed != spec.ticks_per_cycle) r.fail("tick executed a short batch");
        } catch (const std::exception& e) {
            r.fail(std::string("driver cycle: ") + e.what());
            break; // the connection state is unknown; stop the run
        }
        cycle_hashes.push_back(checked_hash(cd.outs, spec, nout));
        completed.store(++w.cycles);
        if (!timed) continue;
        const auto d = static_cast<double>(t3 - t0);
        w.blocks[std::min(kBlocks - 1, (t0 - start) * kBlocks / (until - start))].push_back(d);
        if (!opt.trace) continue;
        w.post_ns.push_back(static_cast<double>(t1 - t0));
        w.tick_ns.push_back(static_cast<double>(t2 - t1));
        w.read_ns.push_back(static_cast<double>(t3 - t2));
        (tr.enabled() ? w.traced_ns : w.untraced_ns).push_back(d);
    }
    tr.set_enabled(false);
    joiner.join();
    if (!w.polls.error.empty()) r.fail("poller: " + w.polls.error);
    w.after = rig.registry.snapshot();
    r.attempted += w.polls.attempted;
    verify(rig, spec, opt.seed, cycle_hashes, w.polls, r);
}

/// Sets ops_per_s, op_p50_us, op_p90_us and serve.cycle_p99_us, each the
/// median over the time slices of that slice's value, so a burst of host
/// noise moves one slice, not the result.
void set_cycle_metrics(Result& r, const std::vector<std::vector<double>>& blocks_ns) {
    std::vector<double> rate, p50, p90, p99;
    for (const std::vector<double>& b : blocks_ns) {
        if (b.empty()) continue;
        rate.push_back(1e9 / mean(b));
        p50.push_back(quantile(b, 0.50));
        p90.push_back(quantile(b, 0.90));
        p99.push_back(quantile(b, 0.99));
    }
    r.set("ops_per_s", median(rate));
    r.set("op_p50_us", us(median(p50)));
    r.set("op_p90_us", us(median(p90)));
    r.set("serve.cycle_p99_us", us(median(p99)));
}

template <typename T> void append(std::vector<T>& to, const std::vector<T>& from) {
    to.insert(to.end(), from.begin(), from.end());
}

} // namespace

Result run_serve(const Options& opt) {
    const ServeSpec spec = spec_for(opt.workload);
    Result r;
    Tracer tr(1), poll_tr(2);
    poll_tr.set_enabled(opt.trace);

    // kSetups complete set-ups, each measured for an equal share of the
    // run: every server start places its threads anew, and the median over
    // all windows' blocks keeps one unlucky placement from setting the
    // result. The last rig also serves the replays.
    std::vector<double> setup_ns, parse_ns, compile_ns, cc_ns, load_ns;
    std::vector<Window> windows(kSetups);
    std::unique_ptr<Rig> rig;
    for (int i = 0; i < kSetups; ++i) {
        rig.reset();
        rig = boot(opt, spec, i);
        setup_ns.push_back(rig->setup_ns);
        parse_ns.push_back(rig->parse_ns);
        compile_ns.push_back(rig->compile_ns);
        cc_ns.push_back(static_cast<double>(rig->build.compile_ns));
        load_ns.push_back(static_cast<double>(rig->build.load_ns));
        measure(opt, spec, *rig, opt.seconds / kSetups, tr, poll_tr, windows[i], r);
    }

    Window all;
    all.blocks.clear();
    PollLog& polls = all.polls;
    // Sums a counter's (or a histogram's sum and count's) growth over the windows.
    const auto growth = [&](const std::string& name) {
        double v = 0;
        for (const Window& w : windows) v += counter_total(w.after, name) - counter_total(w.before, name);
        return v;
    };
    const auto hist_mean = [&](const std::string& name) {
        double sum = 0;
        for (const Window& w : windows) sum += hist_sum(w.after, name) - hist_sum(w.before, name);
        const double n = growth(name);
        return n > 0 ? sum / n : 0.0;
    };
    for (const Window& w : windows) {
        append(all.blocks, w.blocks);
        append(all.post_ns, w.post_ns);
        append(all.tick_ns, w.tick_ns);
        append(all.read_ns, w.read_ns);
        append(all.traced_ns, w.traced_ns);
        append(all.untraced_ns, w.untraced_ns);
        append(polls.lat_ns, w.polls.lat_ns);
        append(polls.late_ns, w.polls.late_ns);
        append(polls.rtt_ns, w.polls.rtt_ns);
        all.cycles += w.cycles;
    }

    const double setup_median = median(setup_ns);
    r.set("setup_s", setup_median / 1e9);
    r.set("peak_rss_mb", peak_rss_mb());
    set_cycle_metrics(r, all.blocks);
    r.set("interface_functions", static_cast<double>(rig->sys->total_functions()));
    r.set("code_lines", static_cast<double>(rig->sys->total_lines()));
    if (!opt.trace) return r;

    // ---- per-layer ----------------------------------------------------
    std::vector<double> cycle_ns;
    for (const std::vector<double>& b : all.blocks) append(cycle_ns, b);
    const double timed_cycles = static_cast<double>(cycle_ns.size());
    const double post = mean(all.post_ns), tick = mean(all.tick_ns), read = mean(all.read_ns);
    r.set("serve.post_us", us(post));
    r.set("serve.tick_us", us(tick));
    r.set("serve.tick_p99_us", us(quantile(all.tick_ns, 0.99)));
    r.set("serve.read_us", us(read));
    // Base of the outside-handler share: the mean client round trip over
    // the same requests the handler histogram saw (driver and poller).
    double rtt_sum = (post + tick + read) * timed_cycles;
    for (const double x : polls.rtt_ns) rtt_sum += x;
    const double round_trip =
        rtt_sum / (3 * timed_cycles + static_cast<double>(polls.rtt_ns.size()));
    const double handler = hist_mean("sbd_serve_request_ns");
    r.set("serve.round_trip_us", us(round_trip));
    r.set("serve.handler_us", us(handler));
    r.set("serve.outside_handler_share", 1.0 - handler / round_trip);
    r.set("serve.requests", growth("sbd_serve_requests_total"));
    r.set("serve.errors", growth("sbd_serve_errors_total"));
    r.set("serve.polls", static_cast<double>(polls.lat_ns.size()));
    r.set("serve.poll_p50_us", us(quantile(polls.lat_ns, 0.50)));
    r.set("serve.poll_p99_us", us(quantile(polls.lat_ns, 0.99)));
    r.set("serve.poll_late_p50_us", us(quantile(polls.late_ns, 0.50)));
    r.set("serve.poll_late_p99_us", us(quantile(polls.late_ns, 0.99)));

    const double server_tick = hist_mean("sbd_serve_tick_ns");
    r.set("runtime.server_tick_us", us(server_tick));
    r.set("runtime.tick_share_of_cycle",
          server_tick * spec.ticks_per_cycle / mean(cycle_ns));
    if (spec.durable) {
        r.set("durable.fsync_us", us(hist_mean("sbd_durable_fsync_ns")));
        r.set("durable.fsyncs", growth("sbd_durable_fsyncs_total"));
        r.set("durable.bytes_per_cycle", growth("sbd_durable_journal_bytes_total") /
                                             static_cast<double>(all.cycles));
        r.set("durable.checkpoint_ms", ms(hist_mean("sbd_durable_checkpoint_ns")));
        r.set("durable.checkpoints", growth("sbd_durable_checkpoints_total"));
    }

    // Set-up layers (median over the set-ups).
    const double parse = median(parse_ns);
    r.set("sbd.parse_ms", ms(parse));
    r.set("sbd.parse_mb_per_s", static_cast<double>(rig->text_bytes) / (parse / 1e9) / 1e6);
    r.set("core.compile_ms", ms(median(compile_ns)));
    r.set("core.fingerprint_ms", ms(static_cast<double>(rig->stats.fingerprint_ns)));
    r.set("core.sdg_ms", ms(static_cast<double>(rig->stats.sdg_ns)));
    r.set("core.cluster_ms", ms(static_cast<double>(rig->stats.cluster_ns)));
    r.set("core.codegen_ms", ms(static_cast<double>(rig->stats.codegen_ns)));
    r.set("core.cluster_share",
          static_cast<double>(rig->stats.cluster_ns) / static_cast<double>(rig->stats.total_ns));
    r.set("core.macro_compiles", static_cast<double>(rig->stats.macro_compiles));
    r.set("core.macro_reuses", static_cast<double>(rig->stats.macro_reuses));
    r.set("native.cc_ms", ms(median(cc_ns)));
    r.set("native.load_ms", ms(median(load_ns)));
    r.set("native.cc_share", median(cc_ns) / setup_median);
    r.set("native.so_bytes", static_cast<double>(rig->build.so_bytes));
    r.set("native.tu_bytes", static_cast<double>(rig->build.tu_bytes));

    // Replays on the workload's own inputs.
    const CycleData& cd = windows.back().last;
    tr.set_enabled(true);
    {
        std::vector<double> emit_ns;
        for (int i = 0; i < 5; ++i) {
            auto s = tr.span("native::emit_native_module", Layer::Native);
            const std::uint64_t t0 = now_ns();
            const std::string tu = native::emit_native_module(*rig->sys);
            emit_ns.push_back(static_cast<double>(now_ns() - t0));
            if (tu.size() != rig->build.tu_bytes) r.fail("emit replay: TU size changed");
        }
        r.set("native.emit_ms", ms(median(emit_ns)));
    }
    replay_codec(*rig, spec, cd, tr, r);
    if (spec.durable) replay_journal(opt, *rig, cd, tr, r);
    const double engine = replay_engine(*rig, spec, spec.engine_threads, opt.seed, tr);
    r.set("runtime.engine_tick_us", us(engine));
    r.set("runtime.engine_tick_1t_us", us(replay_engine(*rig, spec, 1, opt.seed, tr)));
    r.set("runtime.step_ns", engine / static_cast<double>(spec.instances));
    replay_step(*rig, opt.seed, tr, r);
    tr.set_enabled(false);

    const double traced = median(all.traced_ns), untraced = median(all.untraced_ns);
    r.set("trace.overhead_us", us(traced - untraced));
    r.set("trace.overhead_share", (traced - untraced) / untraced);
    add_self_shares(r, {&tr, &poll_tr});
    write_chrome_trace(opt, {&tr, &poll_tr});
    return r;
}

} // namespace perfbench
