// Tests of the sbd-serve subsystem (src/serve): the SBDS wire protocol
// (golden frames, truncation/corruption rejection, payload bounds), the
// loopback server — whose outputs must be bit-identical to a directly
// driven Engine for every suite model at every worker-thread count — and
// the service semantics: multi-tenant isolation, budget shedding, coded
// errors, snapshots, metrics, and chaos on the accept/dispatch/tick fault
// points (coded rejections only, never a torn instant).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

#include "core/compiler.hpp"
#include "resilience/fault.hpp"
#include "runtime/engine.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "suite/models.hpp"

namespace {

using namespace sbd;
using namespace sbd::serve;
using Endpoint = sbd::serve::Endpoint; // sbd has another Endpoint type

Endpoint loopback() { return Endpoint::parse("tcp:127.0.0.1:0"); }

std::uint64_t bits_of(double v) {
    std::uint64_t b;
    std::memcpy(&b, &v, 8);
    return b;
}

// ---------------------------------------------------------------------------
// Protocol framing

TEST(Protocol, GoldenFrameLayout) {
    Frame f;
    f.opcode = Op::Tick;
    f.request_id = 0x1122334455667788ULL;
    f.payload = {0x01, 0x02};
    const std::vector<std::uint8_t> bytes = encode_frame(f);
    ASSERT_EQ(bytes.size(), kHeaderSize + 2);
    // Golden header layout — this is the wire format; a change here is a
    // protocol break, not a refactor.
    EXPECT_EQ(bytes[0], 'S');
    EXPECT_EQ(bytes[1], 'B');
    EXPECT_EQ(bytes[2], 'D');
    EXPECT_EQ(bytes[3], 'S');
    EXPECT_EQ(bytes[4], 1); // version lo
    EXPECT_EQ(bytes[5], 0);
    EXPECT_EQ(bytes[6], 4); // opcode = Tick
    EXPECT_EQ(bytes[7], 0);
    EXPECT_EQ(bytes[8], 0); // status = Ok
    EXPECT_EQ(bytes[9], 0);
    EXPECT_EQ(bytes[10], 0); // reserved
    EXPECT_EQ(bytes[11], 0);
    EXPECT_EQ(bytes[12], 2); // payload_len
    EXPECT_EQ(bytes[13], 0);
    EXPECT_EQ(bytes[16], 0x88); // request_id, little-endian
    EXPECT_EQ(bytes[23], 0x11);
    std::uint64_t checksum;
    std::memcpy(&checksum, bytes.data() + 24, 8);
    EXPECT_EQ(checksum, fnv1a64(f.payload));

    Frame out;
    const DecodeResult r = decode_frame(bytes, out);
    ASSERT_EQ(r.status, DecodeStatus::Ok);
    EXPECT_EQ(r.consumed, bytes.size());
    EXPECT_EQ(out.version, kProtocolVersion);
    EXPECT_EQ(out.opcode, Op::Tick);
    EXPECT_EQ(out.status, Err::Ok);
    EXPECT_EQ(out.request_id, f.request_id);
    EXPECT_EQ(out.payload, f.payload);
}

TEST(Protocol, Fnv1a64KnownVectors) {
    const auto h = [](const std::string& s) {
        return fnv1a64({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
    };
    EXPECT_EQ(h(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(h("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(h("foobar"), 0x85944171f73967e8ULL);
}

TEST(Protocol, TruncatedPrefixesNeedMore) {
    Frame f;
    f.opcode = Op::Stats;
    f.payload = {1, 2, 3, 4, 5};
    const std::vector<std::uint8_t> bytes = encode_frame(f);
    for (std::size_t n = 0; n < bytes.size(); ++n) {
        Frame out;
        const DecodeResult r =
            decode_frame(std::span(bytes.data(), n), out);
        EXPECT_EQ(r.status, DecodeStatus::NeedMore) << "prefix length " << n;
        EXPECT_EQ(r.consumed, 0u);
    }
}

TEST(Protocol, CorruptionIsCoded) {
    Frame f;
    f.opcode = Op::CreateInstances;
    f.payload = {9, 9, 9};
    std::vector<std::uint8_t> bytes = encode_frame(f);
    Frame out;

    std::vector<std::uint8_t> bad = bytes;
    bad[0] = 'X';
    EXPECT_EQ(decode_frame(bad, out).status, DecodeStatus::BadMagic);

    bad = bytes;
    bad[4] = 99;
    EXPECT_EQ(decode_frame(bad, out).status, DecodeStatus::BadVersion);

    bad = bytes;
    const std::uint32_t huge = kMaxPayload + 1;
    std::memcpy(bad.data() + 12, &huge, 4);
    EXPECT_EQ(decode_frame(bad, out).status, DecodeStatus::Oversized);

    bad = bytes;
    bad[kHeaderSize] ^= 0xFF; // flip a payload byte: checksum must catch it
    EXPECT_EQ(decode_frame(bad, out).status, DecodeStatus::BadChecksum);
}

TEST(Protocol, PayloadReaderBounds) {
    const std::vector<std::uint8_t> three = {1, 2, 3};
    PayloadReader r(three);
    EXPECT_THROW(r.u32(), ServeError);
    try {
        PayloadReader r2(three);
        r2.u32();
    } catch (const ServeError& e) {
        EXPECT_EQ(e.code(), Err::BadPayload);
    }
    // A string whose declared length exceeds the buffer must throw, not read.
    PayloadWriter w;
    w.u32(1000);
    const std::vector<std::uint8_t> lying = w.take();
    PayloadReader r3(lying);
    EXPECT_THROW(r3.str(), ServeError);
    // Trailing garbage fails the full-consumption check.
    PayloadReader r4(three);
    r4.u16();
    EXPECT_THROW(r4.done(), ServeError);
}

TEST(Protocol, DoublesTravelBitExact) {
    const double values[] = {0.0, -0.0, 5e-324, std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN(), 1.0 / 3.0};
    PayloadWriter w;
    for (const double v : values) w.f64(v);
    Frame f;
    f.payload = w.take();
    const std::vector<std::uint8_t> bytes = encode_frame(f);
    Frame out;
    ASSERT_EQ(decode_frame(bytes, out).status, DecodeStatus::Ok);
    PayloadReader r(out.payload);
    for (const double v : values) EXPECT_EQ(bits_of(r.f64()), bits_of(v));
    r.done();
}

TEST(Protocol, EndpointParsing) {
    const Endpoint tcp = Endpoint::parse("tcp:127.0.0.1:7070");
    EXPECT_FALSE(tcp.is_unix);
    EXPECT_EQ(tcp.host, "127.0.0.1");
    EXPECT_EQ(tcp.port, 7070);
    EXPECT_EQ(tcp.to_string(), "tcp:127.0.0.1:7070");
    const Endpoint ux = Endpoint::parse("unix:/tmp/s.sock");
    EXPECT_TRUE(ux.is_unix);
    EXPECT_EQ(ux.path, "/tmp/s.sock");
    EXPECT_THROW(Endpoint::parse("http:foo"), std::invalid_argument);
    EXPECT_THROW(Endpoint::parse("tcp:localhost"), std::invalid_argument);
    EXPECT_THROW(Endpoint::parse("tcp:h:99999"), std::invalid_argument);
    EXPECT_THROW(Endpoint::parse("unix:"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Loopback differential gate: server outputs vs. a directly driven Engine,
// bit-exact for every suite model, at 1 and 4 engine worker threads.

TEST(ServeLoopback, BitExactAcrossSuiteAndThreads) {
    constexpr std::size_t kInstances = 6;
    constexpr std::size_t kInstants = 20;
    for (const suite::NamedModel& m : suite::demo_suite()) {
        const codegen::CompiledSystem sys =
            codegen::compile_hierarchy(m.block, codegen::Method::Dynamic);
        const std::size_t nin = m.block->num_inputs();
        const std::size_t nout = m.block->num_outputs();

        // Reference: one single-threaded engine, driven directly.
        runtime::EngineConfig ecfg;
        ecfg.capacity = kInstances;
        runtime::Engine ref(sys, m.block, ecfg);
        const std::vector<runtime::InstanceId> ref_ids = ref.create(kInstances);

        for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
            ServerConfig cfg;
            cfg.endpoint = loopback();
            cfg.shard_capacity = 2 * kInstances; // deliberately more than needed
            cfg.engine_threads = threads;
            Server server(sys, m.block, cfg);
            server.start();
            Client client = Client::connect(server.endpoint());
            const std::vector<WireHandle> handles =
                client.create_instances(1, kInstances);
            ASSERT_EQ(handles.size(), kInstances) << m.name;

            std::vector<runtime::LcgInputSource> srv_src, ref_src;
            for (std::size_t i = 0; i < kInstances; ++i) {
                srv_src.emplace_back(100 + i);
                ref_src.emplace_back(100 + i);
            }
            std::vector<double> rows(kInstances * nin);
            for (std::size_t t = 0; t < kInstants; ++t) {
                for (std::size_t i = 0; i < kInstances; ++i) {
                    srv_src[i].fill(std::span(rows).subspan(i * nin, nin));
                    ref_src[i].fill(ref.pool().inputs(ref_ids[i]));
                }
                if (nin != 0) client.post_inputs(1, handles, rows);
                client.tick(1, 1);
                ref.tick();
                const std::vector<double> got = client.read_outputs(1, handles);
                ASSERT_EQ(got.size(), kInstances * nout);
                for (std::size_t i = 0; i < kInstances; ++i) {
                    const std::span<const double> want = ref.pool().outputs(ref_ids[i]);
                    for (std::size_t o = 0; o < nout; ++o)
                        ASSERT_EQ(bits_of(got[i * nout + o]), bits_of(want[o]))
                            << m.name << " threads=" << threads << " t=" << t
                            << " instance=" << i << " output=" << o;
                }
            }
            client.shutdown(1);
            server.wait();
            // Rewind the reference for the next thread count.
            for (const runtime::InstanceId id : ref_ids) ref.pool().reset(id);
        }
    }
}

TEST(ServeLoopback, UnixSocketRoundTrip) {
    const auto m = suite::thermostat();
    const codegen::CompiledSystem sys =
        codegen::compile_hierarchy(m, codegen::Method::Dynamic);
    const std::string path = testing::TempDir() + "sbd_serve_test.sock";
    ServerConfig cfg;
    cfg.endpoint = Endpoint::parse("unix:" + path);
    Server server(sys, m, cfg);
    server.start();
    Client client = Client::connect(server.endpoint());
    const std::vector<WireHandle> handles = client.create_instances(1, 2);
    client.tick(1, 3);
    EXPECT_EQ(server.ticks(), 3u);
    const std::vector<double> out = client.read_outputs(1, handles);
    EXPECT_EQ(out.size(), 2 * m->num_outputs());
    client.shutdown(1);
    server.wait();
}

TEST(ServeLoopback, UnixSocketStaleFileIsReclaimed) {
    // A server that died without unlinking leaves a socket file nobody
    // answers. The next Listener must probe it, find it dead and bind over
    // it instead of failing with EADDRINUSE (the systemd-restart scenario).
    const std::string path = testing::TempDir() + "sbd_serve_stale.sock";
    ::unlink(path.c_str());
    {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
        ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
        ::close(fd); // crash surrogate: file stays, listener is gone
    }
    ASSERT_EQ(::access(path.c_str(), F_OK), 0);
    Listener fresh(Endpoint::parse("unix:" + path));
    EXPECT_TRUE(fresh.valid());
}

TEST(ServeLoopback, UnixSocketLiveListenerIsNotHijacked) {
    // The flip side: a socket with a live listener behind it must refuse a
    // second bind instead of silently unlinking it and stranding the first
    // server's clients.
    const std::string path = testing::TempDir() + "sbd_serve_live.sock";
    ::unlink(path.c_str());
    Listener first(Endpoint::parse("unix:" + path));
    ASSERT_TRUE(first.valid());
    try {
        Listener second(Endpoint::parse("unix:" + path));
        FAIL() << "binding over a live unix socket must throw";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("address in use"), std::string::npos);
    }
    // The probe must not have destroyed the live listener's socket file.
    EXPECT_EQ(::access(path.c_str(), F_OK), 0);
}

// ---------------------------------------------------------------------------
// Service semantics

class ServeFixture : public ::testing::Test {
protected:
    void start(ServerConfig cfg = {}) {
        model_ = suite::thermostat();
        sys_ = codegen::compile_hierarchy(model_, codegen::Method::Dynamic);
        cfg.endpoint = loopback();
        if (cfg.shard_capacity == 1024) cfg.shard_capacity = 16;
        server_ = std::make_unique<Server>(sys_, model_, cfg);
        server_->start();
    }
    Client connect() { return Client::connect(server_->endpoint()); }

    BlockPtr model_;
    codegen::CompiledSystem sys_;
    std::unique_ptr<Server> server_;
};

TEST_F(ServeFixture, TenantsAreIsolated) {
    start();
    Client a = connect();
    Client b = connect();
    const std::vector<WireHandle> ha = a.create_instances(1, 2);
    const std::vector<WireHandle> hb = b.create_instances(2, 2);
    // Tenant 2 cannot read, write, snapshot or destroy tenant 1's handles.
    try {
        b.read_outputs(2, ha);
        FAIL() << "foreign read was not rejected";
    } catch (const ServeError& e) {
        EXPECT_EQ(e.code(), Err::BadHandle);
    }
    EXPECT_THROW(b.destroy_instances(2, ha), ServeError);
    EXPECT_THROW(b.snapshot(2, ha[0]), ServeError);
    // And the failed destroy really destroyed nothing.
    EXPECT_EQ(a.read_outputs(1, ha).size(), 2 * model_->num_outputs());
    a.destroy_instances(1, ha);
    b.destroy_instances(2, hb);
}

TEST_F(ServeFixture, StaleHandlesAreRejectedAfterChurn) {
    start();
    Client c = connect();
    const std::vector<WireHandle> first = c.create_instances(1, 2);
    c.destroy_instances(1, first);
    const std::vector<WireHandle> second = c.create_instances(1, 2);
    // Same slots may be recycled, but the generation moved on.
    try {
        c.read_outputs(1, first);
        FAIL() << "stale handle was not rejected";
    } catch (const ServeError& e) {
        EXPECT_EQ(e.code(), Err::BadHandle);
    }
    EXPECT_EQ(c.read_outputs(1, second).size(), 2 * model_->num_outputs());
    // A live handle naming any shard but 0 is rejected as well.
    std::vector<WireHandle> other_shard = second;
    other_shard[0].shard = 1;
    try {
        c.read_outputs(1, other_shard);
        FAIL() << "handle with shard 1 was not rejected";
    } catch (const ServeError& e) {
        EXPECT_EQ(e.code(), Err::BadHandle);
    }
}

TEST_F(ServeFixture, TenantBudgetShedsWhileOthersStayBitExact) {
    ServerConfig cfg;
    cfg.tenant_max_instances = 3;
    start(cfg);

    // Reference for the well-behaved tenant.
    runtime::EngineConfig ecfg;
    ecfg.capacity = 2;
    runtime::Engine ref(sys_, model_, ecfg);
    const std::vector<runtime::InstanceId> ref_ids = ref.create(2);

    Client good = connect();
    Client greedy = connect();
    const std::vector<WireHandle> hg = good.create_instances(1, 2);

    // The greedy tenant is shed with a coded rejection...
    try {
        greedy.create_instances(2, 10);
        FAIL() << "over-budget create was not shed";
    } catch (const ServeError& e) {
        EXPECT_EQ(e.code(), Err::TenantBudget);
    }
    // ...and nothing was partially created for it.
    EXPECT_EQ(server_->stats_view().live_instances, 2u);
    EXPECT_GE(server_->stats_view().shed, 1u);

    // The good tenant's results are unaffected: bit-exact vs. the reference.
    const std::size_t nin = model_->num_inputs();
    const std::size_t nout = model_->num_outputs();
    std::vector<runtime::LcgInputSource> sa, sb;
    for (std::size_t i = 0; i < 2; ++i) {
        sa.emplace_back(7 + i);
        sb.emplace_back(7 + i);
    }
    std::vector<double> rows(2 * nin);
    for (std::size_t t = 0; t < 10; ++t) {
        for (std::size_t i = 0; i < 2; ++i) {
            sa[i].fill(std::span(rows).subspan(i * nin, nin));
            sb[i].fill(ref.pool().inputs(ref_ids[i]));
        }
        good.post_inputs(1, hg, rows);
        good.tick(1, 1);
        ref.tick();
        const std::vector<double> got = good.read_outputs(1, hg);
        for (std::size_t i = 0; i < 2; ++i)
            for (std::size_t o = 0; o < nout; ++o)
                ASSERT_EQ(bits_of(got[i * nout + o]),
                          bits_of(ref.pool().outputs(ref_ids[i])[o]));
        // More shed attempts mid-run must not disturb anyone.
        EXPECT_THROW(greedy.create_instances(2, 10), ServeError);
    }
}

TEST_F(ServeFixture, PoolFullIsCoded) {
    ServerConfig cfg;
    cfg.shard_capacity = 4;
    start(cfg);
    Client c = connect();
    (void)c.create_instances(1, 4);
    try {
        c.create_instances(1, 1);
        FAIL() << "create beyond capacity was not rejected";
    } catch (const ServeError& e) {
        EXPECT_EQ(e.code(), Err::PoolFull);
    }
}

TEST_F(ServeFixture, SnapshotMatchesReferenceState) {
    start();
    runtime::EngineConfig ecfg;
    ecfg.capacity = 1;
    runtime::Engine ref(sys_, model_, ecfg);
    const runtime::InstanceId rid = ref.create();

    Client c = connect();
    const std::vector<WireHandle> h = c.create_instances(1, 1);
    const std::size_t nin = model_->num_inputs();
    runtime::LcgInputSource src_a(42), src_b(42);
    std::vector<double> row(nin);
    for (std::size_t t = 0; t < 8; ++t) {
        src_a.fill(row);
        src_b.fill(ref.pool().inputs(rid));
        c.post_inputs(1, h, row);
        c.tick(1, 1);
        ref.tick();
    }
    const std::vector<double> blob = c.snapshot(1, h[0]);
    const std::vector<double> want = ref.pool().snapshot_state(rid);
    ASSERT_EQ(blob.size(), want.size());
    for (std::size_t i = 0; i < blob.size(); ++i)
        EXPECT_EQ(bits_of(blob[i]), bits_of(want[i])) << "state word " << i;
}

TEST_F(ServeFixture, BadRequestsGetCodedErrors) {
    start();
    Client c = connect();
    // Unknown opcode.
    Frame r = c.call_raw(static_cast<Op>(99), {});
    EXPECT_EQ(r.status, Err::BadOpcode);
    // Malformed payload for a known opcode (truncated).
    r = c.call_raw(Op::CreateInstances, {1, 2, 3});
    EXPECT_EQ(r.status, Err::BadPayload);
    // Trailing garbage after a well-formed payload.
    PayloadWriter w;
    w.u64(1);
    w.u32(1);
    w.u32(0xDEAD);
    r = c.call_raw(Op::CreateInstances, w.take());
    EXPECT_EQ(r.status, Err::BadPayload);
    // The connection survives coded rejections.
    EXPECT_EQ(c.create_instances(1, 1).size(), 1u);
}

TEST_F(ServeFixture, FramingViolationsGetCodedRepliesOverTheWire) {
    start();
    {
        // Garbage magic: the server answers BAD_FRAME, then drops the stream.
        Conn raw = Conn::connect(server_->endpoint());
        const std::uint8_t junk[kHeaderSize] = {'J', 'U', 'N', 'K'};
        raw.send_all(junk);
        const std::optional<Frame> resp = raw.recv_frame();
        ASSERT_TRUE(resp.has_value());
        EXPECT_EQ(resp->status, Err::BadFrame);
        EXPECT_FALSE(raw.recv_frame().has_value()); // EOF: stream dropped
    }
    {
        // Corrupt checksum on an otherwise valid frame.
        Frame f;
        f.opcode = Op::Stats;
        PayloadWriter w;
        w.u64(1);
        f.payload = w.take();
        std::vector<std::uint8_t> bytes = encode_frame(f);
        bytes[kHeaderSize] ^= 0xFF;
        Conn raw = Conn::connect(server_->endpoint());
        raw.send_all(bytes);
        const std::optional<Frame> resp = raw.recv_frame();
        ASSERT_TRUE(resp.has_value());
        EXPECT_EQ(resp->status, Err::BadFrame);
    }
    {
        // Wrong protocol version.
        Frame f;
        f.opcode = Op::Stats;
        std::vector<std::uint8_t> bytes = encode_frame(f);
        bytes[4] = 42;
        Conn raw = Conn::connect(server_->endpoint());
        raw.send_all(bytes);
        const std::optional<Frame> resp = raw.recv_frame();
        ASSERT_TRUE(resp.has_value());
        EXPECT_EQ(resp->status, Err::BadVersion);
    }
    // The server is still healthy after all that.
    Client c = connect();
    EXPECT_EQ(c.create_instances(1, 1).size(), 1u);
}

TEST_F(ServeFixture, StatsAndHttpMetrics) {
    start();
    Client c = connect();
    (void)c.create_instances(1, 3);
    c.tick(1, 5);
    const std::string text = c.stats(1);
    EXPECT_NE(text.find("sbd_serve_ticks_total 5"), std::string::npos) << text;
    EXPECT_NE(text.find("sbd_serve_requests_total"), std::string::npos);
    EXPECT_NE(text.find("sbd_serve_instances 3"), std::string::npos) << text;
    EXPECT_NE(text.find("sbd_serve_capacity 16"), std::string::npos) << text;

    // The same registry over HTTP: a plain GET on the protocol port.
    Conn http = Conn::connect(server_->endpoint());
    const std::string req = "GET /metrics HTTP/1.0\r\n\r\n";
    http.send_all({reinterpret_cast<const std::uint8_t*>(req.data()), req.size()});
    std::string body;
    std::uint8_t buf[4096];
    for (;;) {
        const std::size_t n = http.recv_some(buf);
        if (n == 0) break;
        body.append(reinterpret_cast<const char*>(buf), n);
    }
    EXPECT_NE(body.find("HTTP/1.0 200 OK"), std::string::npos);
    EXPECT_NE(body.find("sbd_serve_ticks_total 5"), std::string::npos);
    // Unknown paths 404 instead of leaking anything.
    Conn http2 = Conn::connect(server_->endpoint());
    const std::string req2 = "GET /secrets HTTP/1.0\r\n\r\n";
    http2.send_all({reinterpret_cast<const std::uint8_t*>(req2.data()), req2.size()});
    std::string body2;
    for (;;) {
        const std::size_t n = http2.recv_some(buf);
        if (n == 0) break;
        body2.append(reinterpret_cast<const char*>(buf), n);
    }
    EXPECT_NE(body2.find("404"), std::string::npos);
}

TEST_F(ServeFixture, ShutdownIsAcknowledgedAndDrains) {
    start();
    Client c = connect();
    c.shutdown(1); // must receive the Ok before the server stops
    server_->wait();
    EXPECT_TRUE(server_->stopping());
    // New connections are refused or dropped once draining.
    EXPECT_THROW(
        {
            Client late = connect();
            late.create_instances(1, 1);
        },
        std::exception);
}

TEST_F(ServeFixture, TickDeadlineRejectsWholeInstants) {
    ServerConfig cfg;
    cfg.tick_deadline_ms = 60000; // never expires on its own...
    start(cfg);
    // ...the fault point forces the verdict deterministically instead: the
    // deadline check before instant 2 reports expired, so the request
    // completes exactly one whole instant and is then rejected coded.
    resilience::ScopedFaultPlan plan(
        resilience::FaultPlan::parse("seed=1;serve.deadline=nth:2"));
    Client c = connect();
    (void)c.create_instances(1, 2);
    try {
        c.tick(1, 5);
        FAIL() << "deadline was not enforced";
    } catch (const ServeError& e) {
        EXPECT_EQ(e.code(), Err::DeadlineExceeded);
    }
    EXPECT_EQ(server_->ticks(), 1u); // one complete instant, never a torn one
    c.tick(1, 1);                    // nth:2 consumed; healthy again
    EXPECT_EQ(server_->ticks(), 2u);
}

// ---------------------------------------------------------------------------
// Chaos: the serve fault points shed coded errors, never crash, never tear.

TEST_F(ServeFixture, DispatchFaultIsCodedAndRecoverable) {
    start();
    resilience::ScopedFaultPlan plan(
        resilience::FaultPlan::parse("seed=3;serve.dispatch=nth:2"));
    Client c = connect();
    const std::vector<WireHandle> h = c.create_instances(1, 1); // hit 1: passes
    try {
        c.tick(1, 1); // hit 2: injected before any engine state is touched
        FAIL() << "dispatch fault was not injected";
    } catch (const ServeError& e) {
        EXPECT_EQ(e.code(), Err::FaultInjected);
    }
    EXPECT_EQ(server_->ticks(), 0u); // nothing advanced
    c.tick(1, 1);                    // hit 3: healthy again
    EXPECT_EQ(server_->ticks(), 1u);
    EXPECT_EQ(c.read_outputs(1, h).size(), model_->num_outputs());
}

TEST_F(ServeFixture, TickFaultNeverTearsAnInstant) {
    start();
    runtime::EngineConfig ecfg;
    ecfg.capacity = 2;
    runtime::Engine ref(sys_, model_, ecfg);
    const std::vector<runtime::InstanceId> rid = ref.create(2);

    Client c = connect();
    const std::vector<WireHandle> h = c.create_instances(1, 2);
    {
        resilience::ScopedFaultPlan plan(
            resilience::FaultPlan::parse("seed=5;serve.tick=nth:1"));
        try {
            c.tick(1, 4);
            FAIL() << "tick fault was not injected";
        } catch (const ServeError& e) {
            EXPECT_EQ(e.code(), Err::FaultInjected);
        }
    }
    // The rejected request advanced nothing: outputs are still the initial
    // zeros, exactly like the untouched reference.
    const std::size_t nout = model_->num_outputs();
    std::vector<double> got = c.read_outputs(1, h);
    for (std::size_t i = 0; i < 2; ++i)
        for (std::size_t o = 0; o < nout; ++o)
            ASSERT_EQ(bits_of(got[i * nout + o]), bits_of(ref.pool().outputs(rid[i])[o]));
    EXPECT_EQ(server_->ticks(), 0u);
    // And the next tick produces exactly instant 1.
    c.tick(1, 1);
    ref.tick();
    got = c.read_outputs(1, h);
    for (std::size_t i = 0; i < 2; ++i)
        for (std::size_t o = 0; o < nout; ++o)
            ASSERT_EQ(bits_of(got[i * nout + o]), bits_of(ref.pool().outputs(rid[i])[o]));
}

TEST_F(ServeFixture, AcceptFaultDropsConnectionCleanly) {
    start();
    resilience::ScopedFaultPlan plan(
        resilience::FaultPlan::parse("seed=9;serve.accept=nth:1"));
    // The first connection is dropped before any request is read: the
    // client observes a closed stream, not a crash or a hang.
    EXPECT_THROW(
        {
            Client victim = connect();
            victim.create_instances(1, 1);
        },
        std::exception);
    // The next connection is served normally.
    Client ok = connect();
    EXPECT_EQ(ok.create_instances(1, 1).size(), 1u);
}

TEST_F(ServeFixture, ConcurrentTenantsUnderChaosStayConsistent) {
    ServerConfig cfg;
    cfg.shard_capacity = 64;
    start(cfg);
    std::atomic<std::uint64_t> coded{0}, okc{0};
    {
        // The plan ends before the health check below: how many dispatches the
        // tenants use varies with their interleaving, so a STATS request under
        // the plan would draw a fault on some runs and not on others.
        resilience::ScopedFaultPlan plan(
            resilience::FaultPlan::parse("seed=11;serve.dispatch=p:0.15"));
        constexpr std::size_t kTenants = 4;
        std::vector<std::thread> threads;
        for (std::size_t t = 0; t < kTenants; ++t)
            threads.emplace_back([&, t] {
                Client c = Client::connect(server_->endpoint());
                std::vector<WireHandle> h;
                for (int round = 0; round < 30; ++round) {
                    try {
                        if (h.empty()) h = c.create_instances(t + 1, 2);
                        c.tick(t + 1, 1);
                        (void)c.read_outputs(t + 1, h);
                        okc.fetch_add(1);
                    } catch (const ServeError&) {
                        coded.fetch_add(1);
                    }
                }
            });
        for (std::thread& th : threads) th.join();
    }
    // With p=0.15 over ~hundreds of dispatches both outcomes occur, every
    // failure was coded, and the server is still healthy.
    EXPECT_GT(okc.load(), 0u);
    EXPECT_GT(coded.load(), 0u);
    Client c = connect();
    EXPECT_FALSE(c.stats(0).empty());
}

} // namespace
