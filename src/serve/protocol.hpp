// The sbd-serve wire protocol: versioned, length-prefixed, checksummed
// binary frames over a byte stream (TCP or Unix socket).
//
// Every frame is a fixed 32-byte header followed by `payload_len` bytes:
//
//   u32 magic        "SBDS" (0x53444253, little-endian byte order S B D S)
//   u16 version      kProtocolVersion (responses echo the request's)
//   u16 opcode       Op — requests set it, responses echo it
//   u16 status       Err — 0 (Ok) in requests, the outcome in responses
//   u16 reserved     0
//   u32 payload_len  <= kMaxPayload
//   u64 request_id   chosen by the client, echoed verbatim in the response
//   u64 checksum     FNV-1a 64 over the payload bytes
//
// All integers and the raw bit patterns of doubles are little-endian. A
// frame with a bad magic, unsupported version, oversized payload or wrong
// checksum is *rejected with a coded error*, never partially interpreted —
// the same contract the SBDT/SBDO readers follow for files.
#ifndef SBD_SERVE_PROTOCOL_HPP
#define SBD_SERVE_PROTOCOL_HPP

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace sbd::serve {

inline constexpr std::uint32_t kMagic = 0x53444253; // "SBDS"
inline constexpr std::uint16_t kProtocolVersion = 1;
inline constexpr std::uint32_t kMaxPayload = 64u << 20; ///< 64 MiB
inline constexpr std::size_t kHeaderSize = 32;

/// Request opcodes. Values are wire format — append, never renumber.
enum class Op : std::uint16_t {
    CreateInstances = 1, ///< tenant, count -> handles
    DestroyInstances = 2,///< tenant, handles -> ()
    PostInputs = 3,      ///< tenant, (handle, input row)... -> ()
    Tick = 4,            ///< tenant, n -> server instants executed so far
    ReadOutputs = 5,     ///< tenant, handles -> output rows
    Snapshot = 6,        ///< tenant, handle -> state blob (doubles)
    Stats = 7,           ///< tenant -> Prometheus text exposition
    Shutdown = 8,        ///< tenant -> (); server drains and exits
    UpgradeModel = 9,    ///< tenant, flags, .sbd source -> version, reuse stats
};

/// UPGRADE_MODEL request flag bits.
inline constexpr std::uint32_t kUpgradeAllowDrain = 1u; ///< accept drain-and-replace plans

/// Coded protocol outcomes. Everything a server can refuse is one of these
/// — a client never sees a torn tick or an uncoded failure. CLI tools map
/// any non-Ok status to exit code 8 (kExitProtocol).
enum class Err : std::uint16_t {
    Ok = 0,
    BadFrame = 1,         ///< magic/length/checksum violation
    BadVersion = 2,       ///< unsupported protocol version
    BadOpcode = 3,        ///< unknown Op
    BadPayload = 4,       ///< payload too short / malformed for the Op
    BadHandle = 5,        ///< stale, foreign or out-of-range instance handle
    PoolFull = 6,         ///< instance capacity exhausted
    TenantBudget = 7,     ///< per-tenant instance budget exceeded (shed)
    DeadlineExceeded = 8, ///< tick deadline expired before the instant began
    FaultInjected = 9,    ///< armed fault plan failed the dispatch path
    ShuttingDown = 10,    ///< server is draining; no new work accepted
    Internal = 11,        ///< unexpected server-side exception
    UpgradeRejected = 12, ///< UPGRADE_MODEL refused (bad model, incompatible
                          ///< state, disabled, or lost a concurrent race);
                          ///< the running version is untouched
    DurableFailed = 13,   ///< the write-ahead journal could not make the
                          ///< mutation durable (append or fsync failed);
                          ///< nothing was applied — journal-then-apply means
                          ///< a rejected append leaves state untouched
};

const char* to_string(Op op);
const char* to_string(Err err);

/// Client-side exception carrying the server's coded rejection.
class ServeError : public std::runtime_error {
public:
    ServeError(Err code, const std::string& what) : std::runtime_error(what), code_(code) {}
    Err code() const { return code_; }

private:
    Err code_;
};

/// FNV-1a 64 over a byte range — the frame payload checksum.
std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes);

/// One decoded frame (header fields + owned payload bytes).
struct Frame {
    std::uint16_t version = kProtocolVersion;
    Op opcode = Op::CreateInstances;
    Err status = Err::Ok;
    std::uint64_t request_id = 0;
    std::vector<std::uint8_t> payload;
};

/// Serializes header + payload + checksum into one contiguous buffer.
std::vector<std::uint8_t> encode_frame(const Frame& f);

enum class DecodeStatus {
    Ok,          ///< one complete frame decoded; `consumed` bytes eaten
    NeedMore,    ///< the buffer holds a valid prefix of an incomplete frame
    BadMagic,    ///< first four bytes are not "SBDS"
    BadVersion,  ///< version field is not kProtocolVersion
    Oversized,   ///< payload_len exceeds kMaxPayload
    BadChecksum, ///< payload bytes do not match the header checksum
};

struct DecodeResult {
    DecodeStatus status = DecodeStatus::NeedMore;
    std::size_t consumed = 0; ///< bytes eaten on Ok (header + payload)
};

/// Attempts to decode one frame from the front of `bytes`. Never throws;
/// malformed input yields a coded status and consumes nothing.
DecodeResult decode_frame(std::span<const std::uint8_t> bytes, Frame& out);

/// Little-endian payload serializer. Doubles travel as raw bit patterns so
/// values round-trip bit-exactly (the serving differential gate depends on
/// this: -0.0 and NaN payloads survive the wire).
class PayloadWriter {
public:
    void u16(std::uint16_t v) { put(&v, 2); }
    void u32(std::uint32_t v) { put(&v, 4); }
    void u64(std::uint64_t v) { put(&v, 8); }
    void f64(double v) {
        std::uint64_t bits;
        std::memcpy(&bits, &v, 8);
        u64(bits);
    }
    void f64s(std::span<const double> vs) {
        for (const double v : vs) f64(v);
    }
    void bytes(std::span<const std::uint8_t> vs) {
        buf_.insert(buf_.end(), vs.begin(), vs.end());
    }
    void str(const std::string& s) {
        u32(static_cast<std::uint32_t>(s.size()));
        buf_.insert(buf_.end(), s.begin(), s.end());
    }

    std::vector<std::uint8_t> take() { return std::move(buf_); }

private:
    void put(const void* p, std::size_t n) {
        const auto* b = static_cast<const std::uint8_t*>(p);
        buf_.insert(buf_.end(), b, b + n); // little-endian hosts only (asserted in protocol.cpp)
    }
    std::vector<std::uint8_t> buf_;
};

/// Bounds-checked payload reader; any overrun or trailing-garbage check
/// failure throws ServeError(Err::BadPayload) — the server catches it and
/// answers with the coded status instead of crashing.
class PayloadReader {
public:
    explicit PayloadReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

    std::uint16_t u16() { return get<std::uint16_t>(); }
    std::uint32_t u32() { return get<std::uint32_t>(); }
    std::uint64_t u64() { return get<std::uint64_t>(); }
    double f64() {
        const std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, 8);
        return v;
    }
    void f64s(std::span<double> out) {
        for (double& v : out) v = f64();
    }
    std::string str() {
        const std::uint32_t n = u32();
        if (bytes_.size() - at_ < n) fail();
        std::string s(reinterpret_cast<const char*>(bytes_.data() + at_), n);
        at_ += n;
        return s;
    }
    std::size_t remaining() const { return bytes_.size() - at_; }
    /// Call when the payload must be fully consumed.
    void done() const {
        if (at_ != bytes_.size()) fail();
    }

private:
    template <typename T> T get() {
        if (bytes_.size() - at_ < sizeof(T)) fail();
        T v;
        std::memcpy(&v, bytes_.data() + at_, sizeof(T));
        at_ += sizeof(T);
        return v;
    }
    [[noreturn]] static void fail() {
        throw ServeError(Err::BadPayload, "malformed request payload");
    }

    std::span<const std::uint8_t> bytes_;
    std::size_t at_ = 0;
};

/// A client-visible instance handle: the pool's generational id. 96 bits on
/// the wire (3 x u32); opaque to clients. `shard` is kept for wire
/// compatibility: servers mint 0 and answer BAD_HANDLE to any other value.
struct WireHandle {
    std::uint32_t shard = 0;
    std::uint32_t slot = 0;
    std::uint32_t generation = 0;

    bool operator==(const WireHandle&) const = default;
};

inline void write_handle(PayloadWriter& w, const WireHandle& h) {
    w.u32(h.shard);
    w.u32(h.slot);
    w.u32(h.generation);
}

inline WireHandle read_handle(PayloadReader& r) {
    WireHandle h;
    h.shard = r.u32();
    h.slot = r.u32();
    h.generation = r.u32();
    return h;
}

} // namespace sbd::serve

#endif
