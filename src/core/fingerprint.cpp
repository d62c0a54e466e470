#include "core/fingerprint.hpp"

#include <cstring>

#include "sbd/library.hpp"
#include "sbd/opaque.hpp"

namespace sbd::codegen {

namespace {

/// splitmix64 finalizer: full-avalanche 64-bit mixing.
std::uint64_t mix(std::uint64_t z) {
    z ^= z >> 30;
    z *= 0xbf58476d1ce4e5b9ULL;
    z ^= z >> 27;
    z *= 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return z;
}

/// The cache-key schema version. Bump whenever the fingerprint recipe or
/// the serialized artifact layout changes: old on-disk entries then miss
/// instead of deserializing garbage.
constexpr std::uint64_t kKeySchemaVersion = 2; // v2: ClusterOptions::sat_budget_degrade

} // namespace

std::string Fingerprint::hex() const {
    static const char* digits = "0123456789abcdef";
    std::string s(32, '0');
    for (int i = 0; i < 16; ++i) {
        const std::uint64_t word = i < 8 ? hi : lo;
        const int shift = 56 - 8 * (i % 8);
        const std::uint8_t byte = static_cast<std::uint8_t>(word >> shift);
        s[2 * static_cast<std::size_t>(i)] = digits[byte >> 4];
        s[2 * static_cast<std::size_t>(i) + 1] = digits[byte & 0xF];
    }
    return s;
}

void Hasher::u64(std::uint64_t x) {
    ++count_;
    lo_ = mix(lo_ ^ (x * 0xff51afd7ed558ccdULL));
    hi_ = mix(hi_ + x * 0xc4ceb9fe1a85ec53ULL + count_);
}

void Hasher::f64(double d) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    u64(bits);
}

void Hasher::bytes(std::span<const std::uint8_t> data) {
    u64(data.size());
    std::uint64_t word = 0;
    std::size_t i = 0;
    for (const std::uint8_t b : data) {
        word |= static_cast<std::uint64_t>(b) << (8 * (i % 8));
        if (++i % 8 == 0) {
            u64(word);
            word = 0;
        }
    }
    if (i % 8 != 0) u64(word);
}

void Hasher::str(const std::string& s) {
    bytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

Fingerprint Hasher::digest() const {
    Fingerprint f;
    f.hi = mix(hi_ ^ mix(lo_ + count_));
    f.lo = mix(lo_ ^ mix(hi_ ^ 0x2545f4914f6cdd1dULL));
    return f;
}

namespace {

void absorb_endpoint(Hasher& h, const Endpoint& e) {
    h.u8(static_cast<std::uint8_t>(e.kind));
    h.i32(e.sub);
    h.i32(e.port);
}

void absorb_ports(Hasher& h, const Block& b) {
    h.u64(b.num_inputs());
    for (std::size_t i = 0; i < b.num_inputs(); ++i) h.str(b.input_name(i));
    h.u64(b.num_outputs());
    for (std::size_t o = 0; o < b.num_outputs(); ++o) h.str(b.output_name(o));
}

Fingerprint fingerprint_atomic(const AtomicBlock& a) {
    Hasher h;
    h.str("atomic");
    h.str(a.type_name());
    h.str(lib::sbd_spec(a));
    absorb_ports(h, a);
    h.u8(static_cast<std::uint8_t>(a.block_class()));
    h.u64(a.initial_state().size());
    for (const double v : a.initial_state()) h.f64(v);
    if (const auto cpp = lib::cpp_semantics(a)) {
        h.str(cpp->output_body);
        h.str(cpp->update_body);
    } else {
        h.u8(0);
    }
    return h.digest();
}

Fingerprint fingerprint_opaque(const OpaqueBlock& b) {
    Hasher h;
    h.str("opaque");
    h.str(b.type_name());
    absorb_ports(h, b);
    h.u8(static_cast<std::uint8_t>(b.block_class()));
    h.u64(b.functions().size());
    for (const auto& fn : b.functions()) {
        h.str(fn.name);
        h.u64(fn.reads.size());
        for (const auto r : fn.reads) h.u64(r);
        h.u64(fn.writes.size());
        for (const auto w : fn.writes) h.u64(w);
    }
    h.u64(b.order().size());
    for (const auto& [x, y] : b.order()) {
        h.u64(x);
        h.u64(y);
    }
    return h.digest();
}

} // namespace

Fingerprint BlockFingerprinter::of(const Block& b) {
    const auto it = memo_.find(&b);
    if (it != memo_.end()) return it->second;

    Fingerprint fp;
    if (b.is_opaque()) {
        fp = fingerprint_opaque(static_cast<const OpaqueBlock&>(b));
    } else if (b.is_atomic()) {
        fp = fingerprint_atomic(static_cast<const AtomicBlock&>(b));
    } else {
        const auto& m = static_cast<const MacroBlock&>(b);
        Hasher h;
        h.str("macro");
        h.str(m.type_name());
        absorb_ports(h, m);
        h.u64(m.num_subs());
        for (std::size_t s = 0; s < m.num_subs(); ++s) {
            const auto& sub = m.sub(s);
            h.str(sub.name);
            const Fingerprint sub_fp = of(*sub.type); // bottom-up, memoized
            h.u64(sub_fp.hi);
            h.u64(sub_fp.lo);
            h.boolean(sub.trigger.has_value());
            if (sub.trigger) absorb_endpoint(h, *sub.trigger);
        }
        // Connections in stored order: reordering cannot change semantics,
        // but it may change generated-code serialization tie-breaks, and a
        // cache hit must guarantee bit-identical artifacts — so a reordered
        // diagram conservatively misses.
        h.u64(m.connections().size());
        for (const Connection& c : m.connections()) {
            absorb_endpoint(h, c.src);
            absorb_endpoint(h, c.dst);
        }
        fp = h.digest();
    }
    memo_.emplace(&b, fp);
    return fp;
}

Fingerprint fingerprint_block(const Block& b) {
    BlockFingerprinter f;
    return f.of(b);
}

Fingerprint compile_key(const Fingerprint& block_fp, Method method, const ClusterOptions& opts) {
    Hasher h;
    h.u64(kKeySchemaVersion);
    h.u64(block_fp.hi);
    h.u64(block_fp.lo);
    h.u8(static_cast<std::uint8_t>(method));
    h.str(canonical_options(opts));
    return h.digest();
}

} // namespace sbd::codegen
