#include "analysis/absint.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <functional>

namespace sbd::analysis {

using lib::Op;

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
} // namespace

// ---------------------------------------------------------------------------
// Interval domain
// ---------------------------------------------------------------------------

bool Interval::contains(double v) const {
    if (std::isnan(v)) return nan;
    return !empty_real() && lo <= v && v <= hi;
}

std::string Interval::str_or(const char* if_bottom) const {
    if (is_bottom()) return if_bottom;
    return analysis::to_string(*this);
}

std::string to_string(const Interval& iv) {
    if (iv.empty_real()) return iv.nan ? "NaN" : "(bottom)";
    char buf[96];
    if (iv.lo == iv.hi) std::snprintf(buf, sizeof buf, "[%.6g]", iv.lo);
    else std::snprintf(buf, sizeof buf, "[%.6g, %.6g]", iv.lo, iv.hi);
    return iv.nan ? std::string(buf) + " or NaN" : std::string(buf);
}

Interval iv_join(const Interval& a, const Interval& b) {
    Interval r;
    r.nan = a.nan || b.nan;
    if (a.empty_real()) { r.lo = b.lo; r.hi = b.hi; }
    else if (b.empty_real()) { r.lo = a.lo; r.hi = a.hi; }
    else { r.lo = std::min(a.lo, b.lo); r.hi = std::max(a.hi, b.hi); }
    return r;
}

Interval iv_add(const Interval& a, const Interval& b) {
    Interval r = Interval::bottom();
    r.nan = a.nan || b.nan;
    if (a.empty_real() || b.empty_real()) return r;
    // inf + (-inf) is attainable iff the operands can take opposite
    // infinities; the concrete result is then NaN.
    if ((a.lo == -kInf && b.hi == kInf) || (a.hi == kInf && b.lo == -kInf)) r.nan = true;
    r.lo = (a.lo == -kInf || b.lo == -kInf) ? -kInf : a.lo + b.lo;
    r.hi = (a.hi == kInf || b.hi == kInf) ? kInf : a.hi + b.hi;
    if (r.lo > r.hi) { r.lo = -kInf; r.hi = kInf; } // mixed-inf corner; stay sound
    return r;
}

Interval iv_neg(const Interval& a) {
    Interval r = a;
    if (a.empty_real()) return r;
    r.lo = -a.hi;
    r.hi = -a.lo;
    return r;
}

Interval iv_sub(const Interval& a, const Interval& b) { return iv_add(a, iv_neg(b)); }

Interval iv_mul(const Interval& a, const Interval& b) {
    Interval r = Interval::bottom();
    r.nan = a.nan || b.nan;
    if (a.empty_real() || b.empty_real()) return r;
    bool indet = false;
    double lo = kInf, hi = -kInf;
    const double as[2] = {a.lo, a.hi};
    const double bs[2] = {b.lo, b.hi};
    for (const double x : as) {
        for (const double y : bs) {
            if ((x == 0.0 && std::isinf(y)) || (std::isinf(x) && y == 0.0)) {
                indet = true; // 0 * inf corner: concrete NaN
                continue;
            }
            const double p = x * y;
            lo = std::min(lo, p);
            hi = std::max(hi, p);
        }
    }
    // A zero factor against a finite co-factor yields 0 even when every
    // involved corner is an indeterminate form (e.g. [0,0] * [-inf,inf]).
    const auto has_finite = [](const Interval& v) {
        return std::isfinite(v.lo) || std::isfinite(v.hi) || (v.lo < 0.0 && v.hi > 0.0);
    };
    if ((a.contains(0.0) && has_finite(b)) || (b.contains(0.0) && has_finite(a))) {
        lo = std::min(lo, 0.0);
        hi = std::max(hi, 0.0);
    }
    if (indet) r.nan = true;
    if (lo <= hi) { r.lo = lo; r.hi = hi; }
    return r;
}

Interval iv_abs(const Interval& a) {
    Interval r = a;
    if (a.empty_real()) return r;
    if (a.lo >= 0.0) return r;
    if (a.hi <= 0.0) { r.lo = -a.hi; r.hi = -a.lo; return r; }
    r.lo = 0.0;
    r.hi = std::max(-a.lo, a.hi);
    return r;
}

namespace {
// std::min/std::max(x, y) return x when the comparison with a NaN operand
// is false, so a NaN co-operand lets the other operand's reals through.
Interval minmax(const Interval& a, const Interval& b, bool is_min) {
    Interval r = Interval::bottom();
    r.nan = a.nan || b.nan;
    if (!a.empty_real() && !b.empty_real()) {
        r.lo = is_min ? std::min(a.lo, b.lo) : std::max(a.lo, b.lo);
        r.hi = is_min ? std::min(a.hi, b.hi) : std::max(a.hi, b.hi);
    }
    if (b.nan && !a.empty_real()) r = iv_join(r, Interval{a.lo, a.hi, r.nan});
    if (a.nan && !b.empty_real()) r = iv_join(r, Interval{b.lo, b.hi, r.nan});
    return r;
}
} // namespace

Interval iv_min(const Interval& a, const Interval& b) { return minmax(a, b, true); }
Interval iv_max(const Interval& a, const Interval& b) { return minmax(a, b, false); }

Interval iv_clamp(const Interval& a, double lo, double hi) {
    Interval r = a; // std::clamp passes NaN through: keep the nan flag
    if (a.empty_real()) return r;
    r.lo = std::clamp(a.lo, lo, hi);
    r.hi = std::clamp(a.hi, lo, hi);
    return r;
}

DivResult iv_div(const Interval& a, const Interval& b) {
    DivResult res;
    Interval r = Interval::bottom();
    r.nan = a.nan || b.nan;
    if (a.empty_real() || b.empty_real()) { res.value = r; return res; }
    if (b.lo == 0.0 && b.hi == 0.0) {
        res.definite_zero_den = true;
        if (a.lo == 0.0 && a.hi == 0.0) { r.nan = true; } // 0/0: always NaN
        else {
            r.lo = -kInf; // x/0 = +-inf; the sign of the zero is unknown
            r.hi = kInf;
            if (a.contains(0.0)) r.nan = true;
        }
        res.value = r;
        return res;
    }
    if (b.lo <= 0.0 && b.hi >= 0.0) {
        res.possible_zero_den = true;
        r.lo = -kInf;
        r.hi = kInf;
        if (a.contains(0.0)) r.nan = true;
        res.value = r;
        return res;
    }
    bool indet = false;
    double lo = kInf, hi = -kInf;
    const double as[2] = {a.lo, a.hi};
    const double bs[2] = {b.lo, b.hi};
    for (const double x : as) {
        for (const double y : bs) {
            if (std::isinf(x) && std::isinf(y)) { indet = true; continue; }
            const double q = x / y;
            lo = std::min(lo, q);
            hi = std::max(hi, q);
        }
    }
    if (indet) r.nan = true;
    if (lo <= hi) { r.lo = lo; r.hi = hi; }
    res.value = r;
    return res;
}

Interval iv_widen(const Interval& prev, const Interval& next) {
    // Ascending rungs; an unstable bound jumps outward to the next one.
    static constexpr double kRungs[] = {0.0,    0.5,  1.0, 2.0, 4.0,  8.0,
                                        16.0,   64.0, 256.0, 1024.0, 65536.0, 1e6,
                                        1e9,    1e12, 1e300};
    Interval r = next;
    if (next.empty_real() || prev.empty_real()) return r;
    if (next.lo < prev.lo) {
        double w = -kInf;
        for (const double t : kRungs)
            if (-t <= next.lo) { w = -t; break; }
        r.lo = w;
    }
    if (next.hi > prev.hi) {
        double w = kInf;
        for (const double t : kRungs)
            if (t >= next.hi) { w = t; break; }
        r.hi = w;
    }
    return r;
}

// ---------------------------------------------------------------------------
// Atomic transfer functions
// ---------------------------------------------------------------------------

namespace {

bool join_into(Interval& dst, const Interval& v) {
    const Interval j = iv_join(dst, v);
    if (j == dst) return false;
    dst = j;
    return true;
}

// u >= 0.5 can be true / can be false (NaN compares false).
bool possible_true(const Interval& u) { return !u.empty_real() && u.hi >= 0.5; }
bool possible_false(const Interval& u) { return u.nan || (!u.empty_real() && u.lo < 0.5); }

/// Tri-state comparison: the set of outcomes {0, 1} reachable from the
/// operand intervals, mirroring IEEE semantics (every comparison with NaN
/// is false except !=).
Interval rel_result(const std::string& op, const Interval& a, const Interval& b) {
    bool ct = false, cf = false;
    if (!a.empty_real() && !b.empty_real()) {
        const bool overlap = std::max(a.lo, b.lo) <= std::min(a.hi, b.hi);
        const bool same_singleton = a.lo == a.hi && b.lo == b.hi && a.lo == b.lo;
        if (op == "<") { ct = a.lo < b.hi; cf = a.hi >= b.lo; }
        else if (op == "<=") { ct = a.lo <= b.hi; cf = a.hi > b.lo; }
        else if (op == ">") { ct = a.hi > b.lo; cf = a.lo <= b.hi; }
        else if (op == ">=") { ct = a.hi >= b.lo; cf = a.lo < b.hi; }
        else if (op == "==") { ct = overlap; cf = !same_singleton; }
        else if (op == "!=") { ct = !same_singleton; cf = overlap; }
        else { ct = cf = true; }
    }
    if (a.nan || b.nan) {
        if (op == "!=") ct = true;
        else cf = true;
    }
    Interval r = Interval::bottom();
    if (cf) r = iv_join(r, Interval::point(0.0));
    if (ct) r = iv_join(r, Interval::point(1.0));
    return r;
}

Interval logic_result(const std::string& op, std::span<const Interval> in) {
    for (const Interval& u : in)
        if (u.is_bottom()) return Interval::bottom();
    if (op == "NOT") {
        const bool ct = possible_false(in[0]), cf = possible_true(in[0]);
        Interval r = Interval::bottom();
        if (cf) r = iv_join(r, Interval::point(0.0));
        if (ct) r = iv_join(r, Interval::point(1.0));
        return r;
    }
    bool ct = false, cf = false;
    if (op == "AND") {
        ct = true;
        for (const Interval& u : in) {
            ct = ct && possible_true(u);
            cf = cf || possible_false(u);
        }
    } else if (op == "OR") {
        cf = true;
        for (const Interval& u : in) {
            cf = cf && possible_false(u);
            ct = ct || possible_true(u);
        }
    } else { // XOR
        bool ambiguous = false, parity = false;
        for (const Interval& u : in) {
            const bool pt = possible_true(u), pf = possible_false(u);
            if (pt && pf) ambiguous = true;
            else if (pt) parity = !parity;
        }
        if (ambiguous) { ct = cf = true; }
        else { ct = parity; cf = !parity; }
    }
    Interval r = Interval::bottom();
    if (cf) r = iv_join(r, Interval::point(0.0));
    if (ct) r = iv_join(r, Interval::point(1.0));
    return r;
}

/// One abstract firing of a library atomic: computes outputs from
/// (state, inputs), then applies the state update — the per-instant
/// contract of the concrete interpreter, operation for operation.
void atomic_fire(const lib::Atom& atom, std::span<const Interval> in,
                 std::vector<Interval>& state, std::vector<Interval>& out) {
    const std::vector<double>& par = atom.nums;
    switch (atom.op) {
    case Op::Constant: out[0] = Interval::point(par[0]); return;
    case Op::Gain: out[0] = iv_mul(Interval::point(par[0]), in[0]); return;
    case Op::Sum: {
        Interval acc = Interval::point(0.0);
        for (std::size_t i = 0; i < atom.word.size() && i < in.size(); ++i)
            acc = atom.word[i] == '-' ? iv_sub(acc, in[i]) : iv_add(acc, in[i]);
        out[0] = acc;
        return;
    }
    case Op::Product: {
        Interval acc = Interval::point(1.0);
        for (const Interval& u : in) acc = iv_mul(acc, u);
        out[0] = acc;
        return;
    }
    case Op::UnitDelay:
        out[0] = state[0];
        state[0] = in[0];
        return;
    case Op::Integrator:
        out[0] = state[0];
        state[0] = iv_add(state[0], iv_mul(Interval::point(par[0]), in[0]));
        return;
    case Op::Fir2:
        out[0] = iv_add(iv_mul(Interval::point(par[0]), in[0]),
                        iv_mul(Interval::point(par[1]), state[0]));
        state[0] = in[0];
        return;
    case Op::Saturation: out[0] = iv_clamp(in[0], par[0], par[1]); return;
    case Op::Abs: out[0] = iv_abs(in[0]); return;
    case Op::Div: out[0] = iv_div(in[0], in[1]).value; return;
    case Op::Min: out[0] = iv_min(in[0], in[1]); return;
    case Op::Max: out[0] = iv_max(in[0], in[1]); return;
    case Op::Relational: out[0] = rel_result(atom.word, in[0], in[1]); return;
    case Op::Switch: {
        const Interval& ctrl = in[1];
        const double th = par[0];
        Interval r = Interval::bottom();
        // A NaN control or threshold compares false and selects u2.
        if (!ctrl.empty_real() && ctrl.hi >= th) r = iv_join(r, in[0]);
        if (ctrl.nan || (!ctrl.empty_real() && !(ctrl.lo >= th))) r = iv_join(r, in[2]);
        out[0] = r;
        return;
    }
    case Op::Logic: out[0] = logic_result(atom.word, in); return;
    case Op::DeadZone: {
        const double lo = par[0], hi = par[1];
        const Interval& u = in[0];
        // A NaN bound fails its test for every input; the result is then
        // some real, NaN only from a NaN input, which yields 0.
        if (std::isnan(lo) || std::isnan(hi)) { out[0] = Interval::top(); return; }
        Interval r = Interval::bottom();
        if (!u.empty_real()) {
            if (u.lo < lo)
                r = iv_join(r, iv_sub(Interval::make(u.lo, std::min(u.hi, lo)),
                                      Interval::point(lo)));
            if (u.hi > hi)
                r = iv_join(r, iv_sub(Interval::make(std::max(u.lo, hi), u.hi),
                                      Interval::point(hi)));
            if (u.hi >= lo && u.lo <= hi) r = iv_join(r, Interval::point(0.0));
        }
        // A NaN input fails both range tests and yields 0, not NaN.
        if (u.nan) r = iv_join(r, Interval::point(0.0));
        out[0] = r;
        return;
    }
    case Op::Lookup1D: {
        const Interval& u = in[0];
        const std::size_t n = par.size() / 2; // breakpoints par[0, n), values par[n, 2n)
        const auto finite = [](double v) { return std::isfinite(v); };
        Interval r = Interval::bottom();
        if (!u.empty_real()) {
            if (!u.nan && u.hi <= par[0]) r = Interval::point(par[n]);
            else if (!u.nan && u.lo >= par[n - 1]) r = Interval::point(par[2 * n - 1]);
            else if (std::all_of(par.begin(), par.end(), finite)) {
                // Interpolation stays within the breakpoint values up to a
                // final rounding step; widen both bounds by one ulp.
                const auto [lo, hi] = std::minmax_element(par.begin() + n, par.end());
                r = Interval::make(std::nextafter(*lo, -kInf), std::nextafter(*hi, kInf));
            } else {
                r = Interval{-kInf, kInf, true}; // inf - inf, 0 * inf, NaN entries
            }
        }
        if (u.nan) { r.nan = true; r = iv_join(r, Interval::top()); }
        out[0] = r;
        return;
    }
    case Op::MovingAvg: {
        Interval acc = in[0];
        for (const Interval& s : state) acc = iv_add(acc, s);
        out[0] = iv_div(acc, Interval::point(static_cast<double>(state.size() + 1))).value;
        for (std::size_t i = 0; i + 1 < state.size(); ++i) state[i] = state[i + 1];
        state.back() = in[0];
        return;
    }
    case Op::Filter1: {
        const double b0 = par[0], b1 = par[1], a1 = par[2];
        const Interval w = iv_sub(in[0], iv_mul(Interval::point(a1), state[0]));
        // The Moore variant (b0 == 0) computes y = b1*s directly; going
        // through b0*w would fabricate a 0*inf NaN the kernel never sees.
        out[0] = b0 == 0.0 ? iv_mul(Interval::point(b1), state[0])
                           : iv_add(iv_mul(Interval::point(b0), w),
                                    iv_mul(Interval::point(b1), state[0]));
        state[0] = w;
        return;
    }
    case Op::Counter: {
        out[0] = state[0];
        Interval next = Interval::bottom();
        if (possible_false(in[0])) next = iv_join(next, state[0]);
        if (possible_true(in[0]))
            next = iv_join(next, iv_add(state[0], Interval::point(1.0)));
        state[0] = next;
        return;
    }
    case Op::Fanout:
        for (Interval& y : out) y = in[0];
        return;
    case Op::SampleHold: {
        out[0] = state[0];
        Interval next = Interval::bottom();
        if (possible_false(in[1])) next = iv_join(next, state[0]);
        if (possible_true(in[1])) next = iv_join(next, in[0]);
        state[0] = next;
        return;
    }
    case Op::Split2:
        out[0] = iv_add(iv_mul(Interval::point(par[0]), in[0]), Interval::point(par[1]));
        out[1] = iv_add(iv_mul(Interval::point(par[2]), in[0]), Interval::point(par[3]));
        return;
    case Op::Clock: {
        const double p = par[0], ph = par[1];
        const Interval& s = state[0];
        if (s.lo == s.hi && !s.nan) {
            out[0] = Interval::point(s.lo == ph ? 1.0 : 0.0);
            const double n = s.lo + 1.0;
            state[0] = Interval::point(n >= p ? 0.0 : n);
        } else {
            out[0] = (!s.empty_real() && ph >= s.lo && ph <= s.hi)
                         ? Interval::make(0.0, 1.0)
                         : Interval::point(0.0);
            Interval next = Interval::bottom();
            if (s.hi + 1.0 >= p) next = iv_join(next, Interval::point(0.0));
            if (s.lo + 1.0 < p)
                next = iv_join(next, Interval::make(s.lo + 1.0, std::min(s.hi + 1.0, p - 1.0)));
            state[0] = next;
        }
        return;
    }
    case Op::Custom:
        // Custom in-process atomic with no library semantics. Assume
        // it is NaN-free (top's nan flag is false) but otherwise anything.
        for (Interval& y : out) y = Interval::top();
        for (Interval& s : state) s = Interval::top();
        return;
    }
}

BlockSummary top_summary(std::size_t nouts) {
    BlockSummary s;
    s.first_outputs.assign(nouts, Interval::top());
    s.outputs.assign(nouts, Interval::top());
    s.instants = 1;
    return s;
}

std::vector<std::size_t> topo_order(const codegen::Profile& prof) {
    const std::size_t n = prof.functions.size();
    std::vector<std::size_t> indeg(n, 0);
    std::vector<std::vector<std::size_t>> adj(n);
    for (const auto& [a, b] : prof.pdg_edges) {
        adj[a].push_back(b);
        ++indeg[b];
    }
    std::vector<std::size_t> order;
    order.reserve(n);
    std::vector<bool> done(n, false);
    for (std::size_t round = 0; round < n; ++round) {
        // Smallest ready index first: deterministic across platforms.
        std::size_t pick = n;
        for (std::size_t i = 0; i < n; ++i)
            if (!done[i] && indeg[i] == 0) { pick = i; break; }
        if (pick == n) break; // cyclic PDG: compiler would have rejected it
        done[pick] = true;
        order.push_back(pick);
        for (const std::size_t b : adj[pick]) --indeg[b];
    }
    return order;
}

std::string interval_key(const Interval& iv) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%016llx%016llx%c",
                  static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(iv.lo)),
                  static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(iv.hi)),
                  iv.nan ? 'n' : '-');
    return buf;
}

std::string hazard_key(const Diagnostic& d) {
    return d.code + "|" + std::to_string(d.loc.line) + "|" + std::to_string(d.loc.col) + "|" +
           d.message;
}

} // namespace

// ---------------------------------------------------------------------------
// Analyzer
// ---------------------------------------------------------------------------

Analyzer::Analyzer(const codegen::CompiledSystem& sys, AbsOptions opts)
    : sys_(&sys), opts_(std::move(opts)) {
    memo_ = opts_.memo ? opts_.memo : std::make_shared<SummaryMemo>();
}

const BlockSummary& Analyzer::analyze(const BlockPtr& block, std::span<const Interval> first_inputs,
                                      std::span<const Interval> all_inputs) {
    std::vector<Interval> fin(first_inputs.begin(), first_inputs.end());
    std::vector<Interval> ain;
    ain.reserve(all_inputs.size());
    for (std::size_t i = 0; i < all_inputs.size(); ++i)
        ain.push_back(i < fin.size() ? iv_join(all_inputs[i], fin[i]) : all_inputs[i]);

    std::string key = fp_.of(*block).hex();
    for (const Interval& iv : fin) key += interval_key(iv);
    key += '/';
    for (const Interval& iv : ain) key += interval_key(iv);

    if (const auto it = memo_->map.find(key); it != memo_->map.end()) {
        ++memo_->hits;
        return *it->second;
    }
    ++memo_->computed;
    BlockSummary s = compute(block, fin, ain);
    const auto [pos, inserted] =
        memo_->map.emplace(std::move(key), std::make_unique<BlockSummary>(std::move(s)));
    (void)inserted;
    return *pos->second;
}

const BlockSummary& Analyzer::analyze_root(const BlockPtr& root) {
    const std::vector<Interval> in(root->num_inputs(), opts_.assumed_inputs);
    return analyze(root, in, in);
}

BlockSummary Analyzer::compute(const BlockPtr& block, std::span<const Interval> first_in,
                               std::span<const Interval> all_in) {
    if (block->is_opaque()) return top_summary(block->num_outputs());
    if (block->is_atomic())
        return compute_atomic(static_cast<const AtomicBlock&>(*block), first_in, all_in);
    return compute_macro(static_cast<const MacroBlock&>(*block), first_in, all_in);
}

BlockSummary Analyzer::compute_atomic(const AtomicBlock& a, std::span<const Interval> first_in,
                                      std::span<const Interval> all_in) {
    const lib::Atom& atom = a.atom();
    if (atom.op == Op::Custom) return top_summary(a.num_outputs());

    BlockSummary sum;
    std::vector<Interval> state;
    state.reserve(a.initial_state().size());
    for (const double v : a.initial_state()) state.push_back(Interval::point(v));
    const std::vector<Interval> init = state;

    // Instant 0 is exact: initial state, first-instant inputs.
    sum.first_outputs.assign(a.num_outputs(), Interval::bottom());
    atomic_fire(atom, first_in, state, sum.first_outputs);
    sum.outputs = sum.first_outputs;

    // All-instant fixpoint over the accumulated state join. The join
    // includes the *initial* state so that a triggered instance held for
    // k instants (a time-dilated execution) is covered too.
    std::vector<Interval> acc(init.size());
    for (std::size_t i = 0; i < init.size(); ++i) acc[i] = iv_join(init[i], state[i]);
    sum.instants = 1;
    for (std::size_t iter = 1; iter <= opts_.max_instants; ++iter) {
        std::vector<Interval> st = acc;
        std::vector<Interval> out(a.num_outputs(), Interval::bottom());
        atomic_fire(atom, all_in, st, out);
        bool changed = false;
        for (std::size_t o = 0; o < out.size(); ++o) changed |= join_into(sum.outputs[o], out[o]);
        for (std::size_t i = 0; i < acc.size(); ++i) {
            Interval next = iv_join(acc[i], st[i]);
            if (iter > opts_.widen_after) {
                const Interval w = iv_widen(acc[i], next);
                if (!(w == next)) sum.widened = true;
                next = w;
            }
            changed |= join_into(acc[i], next);
        }
        ++sum.instants;
        if (!changed) break;
    }
    return sum;
}

BlockSummary Analyzer::compute_macro(const MacroBlock& m, std::span<const Interval> first_in,
                                     std::span<const Interval> all_in) {
    const codegen::CompiledBlock& cb = sys_->at(m);
    const codegen::CodeUnit& code = *cb.code;
    const std::vector<std::size_t> order = topo_order(cb.profile);

    // Per-sub accumulation across every abstract pass: argument intervals
    // (first instant vs. all instants), trigger intervals, call evidence.
    struct SubCtx {
        std::vector<Interval> first_args, all_args;
        Interval trig_first = Interval::bottom();
        Interval trig_all = Interval::bottom();
        bool has_trigger = false;
        bool trig_first_seen = false;
        bool called_at_0 = false;
        bool ever_called = false;
    };
    std::vector<SubCtx> subs(m.num_subs());
    for (std::size_t i = 0; i < m.num_subs(); ++i) {
        subs[i].first_args.assign(m.sub(i).type->num_inputs(), Interval::bottom());
        subs[i].all_args.assign(m.sub(i).type->num_inputs(), Interval::bottom());
    }

    std::vector<std::string> hazard_seen;
    std::vector<Diagnostic> hazards;
    const auto absorb = [&](const Diagnostic& d) {
        const std::string key = hazard_key(d);
        if (std::find(hazard_seen.begin(), hazard_seen.end(), key) != hazard_seen.end()) return;
        hazard_seen.push_back(key);
        hazards.push_back(d);
    };

    bool pass_changed = false;

    // Abstractly executes [begin, end) of a generated function body over
    // the given slot/counter stores. Ambiguous guards fork the stores and
    // join; triggered calls join fire and hold outcomes.
    std::function<void(const codegen::GenFunction&, std::size_t, std::size_t,
                       std::vector<Interval>&, std::vector<Interval>&,
                       std::span<const Interval>, bool)>
        exec_range = [&](const codegen::GenFunction& fn, std::size_t begin, std::size_t end,
                         std::vector<Interval>& slots, std::vector<Interval>& counters,
                         std::span<const Interval> params, bool first) {
            const auto value = [&](const codegen::ValueRef& v) -> Interval {
                if (v.kind == codegen::ValueRef::Kind::Param)
                    return params[static_cast<std::size_t>(v.index)];
                return slots[static_cast<std::size_t>(v.index)];
            };
            for (std::size_t idx = begin; idx < end; ++idx) {
                const codegen::Stmt& st = fn.body[idx];
                if (const auto* gb = std::get_if<codegen::GuardBegin>(&st)) {
                    // Find the matching GuardEnd (guards do not nest today,
                    // but scan with a depth counter anyway).
                    std::size_t gend = idx + 1;
                    for (int depth = 1; gend < end; ++gend) {
                        if (std::holds_alternative<codegen::GuardBegin>(fn.body[gend])) ++depth;
                        else if (std::holds_alternative<codegen::GuardEnd>(fn.body[gend]) &&
                                 --depth == 0)
                            break;
                    }
                    const Interval c = counters[static_cast<std::size_t>(gb->counter)];
                    if (!c.empty_real() && c.lo >= 1.0) {
                        idx = gend; // counter definitely nonzero: region skipped
                    } else if (c.lo == 0.0 && c.hi == 0.0) {
                        continue; // definitely zero: execute the region inline
                    } else {
                        std::vector<Interval> fslots = slots, fcounters = counters;
                        exec_range(fn, idx + 1, gend, fslots, fcounters, params, first);
                        for (std::size_t i = 0; i < slots.size(); ++i)
                            slots[i] = iv_join(slots[i], fslots[i]);
                        for (std::size_t i = 0; i < counters.size(); ++i)
                            counters[i] = iv_join(counters[i], fcounters[i]);
                        idx = gend;
                    }
                    continue;
                }
                if (std::holds_alternative<codegen::GuardEnd>(st)) continue;
                if (const auto* bump = std::get_if<codegen::BumpStmt>(&st)) {
                    Interval& c = counters[static_cast<std::size_t>(bump->counter)];
                    const double mod = static_cast<double>(bump->mod);
                    if (c.lo == c.hi && !c.nan) {
                        const double n = c.lo + 1.0;
                        c = Interval::point(n >= mod ? 0.0 : n);
                    } else {
                        c = Interval::make(0.0, mod - 1.0);
                    }
                    continue;
                }
                if (const auto* as = std::get_if<codegen::AssignStmt>(&st)) {
                    slots[static_cast<std::size_t>(as->dst_slot)] = value(as->src);
                    continue;
                }
                const auto& call = std::get<codegen::CallStmt>(st);
                SubCtx& ctx = subs[static_cast<std::size_t>(call.sub)];
                const BlockPtr& subty = m.sub(static_cast<std::size_t>(call.sub)).type;
                const codegen::Profile& sp = sys_->at(*subty).profile;
                const auto& sig = sp.functions[static_cast<std::size_t>(call.fn)];
                bool fire = true, hold = false;
                if (call.trigger) {
                    const Interval tr = value(*call.trigger);
                    ctx.has_trigger = true;
                    pass_changed |= join_into(ctx.trig_all, tr);
                    if (first) {
                        ctx.trig_first_seen = true;
                        pass_changed |= join_into(ctx.trig_first, tr);
                    }
                    fire = possible_true(tr);
                    hold = possible_false(tr) || tr.is_bottom();
                }
                if (!fire) continue; // definitely held: result slots keep their values
                ctx.ever_called = true;
                if (first) ctx.called_at_0 = true;
                for (std::size_t k = 0; k < sig.reads.size(); ++k) {
                    const Interval av = value(call.args[k]);
                    pass_changed |= join_into(ctx.all_args[sig.reads[k]], av);
                    if (first) pass_changed |= join_into(ctx.first_args[sig.reads[k]], av);
                }
                // A triggered sub held at instant 0 first fires later, with
                // later args: its "first firing" inputs must then cover all.
                const std::vector<Interval>& feff =
                    ctx.called_at_0 && !(ctx.has_trigger && possible_false(ctx.trig_first))
                        ? ctx.first_args
                        : ctx.all_args;
                // Child hazards are NOT absorbed here: mid-fixpoint queries
                // see artificially narrow args whose spurious "definitely"
                // hazards would stick. The audit below re-queries each sub
                // once with the converged args and takes those hazards.
                const BlockSummary& ss = analyze(subty, feff, ctx.all_args);
                const std::vector<Interval>& outs = first ? ss.first_outputs : ss.outputs;
                for (std::size_t r = 0; r < sig.writes.size(); ++r) {
                    Interval res = outs[sig.writes[r]];
                    Interval& slot = slots[static_cast<std::size_t>(call.results[r])];
                    slot = hold ? iv_join(slot, res) : res;
                }
            }
        };

    const auto run_pass = [&](std::vector<Interval>& slots, std::vector<Interval>& counters,
                              std::span<const Interval> params,
                              bool first) -> std::vector<Interval> {
        std::vector<Interval> outputs(m.num_outputs(), Interval::bottom());
        for (const std::size_t fidx : order) {
            const codegen::GenFunction& fn = code.functions[fidx];
            exec_range(fn, 0, fn.body.size(), slots, counters, params, first);
            const auto value = [&](const codegen::ValueRef& v) -> Interval {
                if (v.kind == codegen::ValueRef::Kind::Param)
                    return params[static_cast<std::size_t>(v.index)];
                return slots[static_cast<std::size_t>(v.index)];
            };
            for (std::size_t r = 0; r < fn.sig.writes.size(); ++r)
                outputs[fn.sig.writes[r]] = value(fn.returns[r]);
        }
        return outputs;
    };

    BlockSummary sum;

    // Instant 0: zeroed slots and counters, exact single pass.
    std::vector<Interval> slots(code.num_slots, Interval::point(0.0));
    std::vector<Interval> counters(code.counter_mods.size(), Interval::point(0.0));
    sum.first_outputs = run_pass(slots, counters, first_in, true);
    sum.outputs = sum.first_outputs;

    std::vector<Interval> acc_slots(code.num_slots), acc_counters(counters.size());
    for (std::size_t i = 0; i < slots.size(); ++i)
        acc_slots[i] = iv_join(Interval::point(0.0), slots[i]);
    for (std::size_t i = 0; i < counters.size(); ++i)
        acc_counters[i] = iv_join(Interval::point(0.0), counters[i]);

    sum.instants = 1;
    for (std::size_t iter = 1; iter <= opts_.max_instants; ++iter) {
        pass_changed = false;
        std::vector<Interval> ws = acc_slots, wc = acc_counters;
        const std::vector<Interval> out = run_pass(ws, wc, all_in, false);
        bool changed = pass_changed;
        for (std::size_t o = 0; o < out.size(); ++o) changed |= join_into(sum.outputs[o], out[o]);
        for (std::size_t i = 0; i < acc_slots.size(); ++i) {
            Interval next = iv_join(acc_slots[i], ws[i]);
            if (iter > opts_.widen_after) {
                const Interval w = iv_widen(acc_slots[i], next);
                if (!(w == next)) sum.widened = true;
                next = w;
            }
            changed |= join_into(acc_slots[i], next);
        }
        for (std::size_t i = 0; i < acc_counters.size(); ++i)
            changed |= join_into(acc_counters[i], wc[i]);
        ++sum.instants;
        if (!changed) break;
    }

    // Hazard audit, on the fixpoint accumulations only — early iterations
    // see artificially narrow intervals and would produce spurious
    // "definitely" verdicts.
    for (std::size_t i = 0; i < m.num_subs(); ++i) {
        const auto& sb = m.sub(i);
        const SubCtx& ctx = subs[i];
        const std::string where = "sub-block '" + sb.name + "' in block '" + m.type_name() + "'";
        if (ctx.has_trigger) {
            const Interval& t = ctx.trig_all;
            if (!t.nan && (t.empty_real() || t.hi < 0.5)) {
                absorb(Diagnostic{"SBD027", Severity::Warning,
                                  sb.trigger_loc.line ? sb.trigger_loc : sb.loc,
                                  "unreachable code: " + where +
                                      " can never fire: its trigger is always < 0.5",
                                  {"trigger range " + t.str_or("(none)")}});
            } else if (ctx.trig_first_seen && !ctx.trig_first.nan &&
                       (ctx.trig_first.empty_real() || ctx.trig_first.hi < 0.5)) {
                absorb(Diagnostic{"SBD028", Severity::Warning,
                                  sb.trigger_loc.line ? sb.trigger_loc : sb.loc,
                                  where + " cannot fire at instant 0: its outputs read as "
                                          "the initial value 0 until the first fire",
                                  {"instant-0 trigger range " + ctx.trig_first.str_or("(none)")}});
            }
        }
        if (!ctx.ever_called) continue;
        // One final summary query with the converged args: its hazards
        // (including nested ones) are the ones decided on full ranges.
        {
            const std::vector<Interval>& feff =
                ctx.called_at_0 && !(ctx.has_trigger && possible_false(ctx.trig_first))
                    ? ctx.first_args
                    : ctx.all_args;
            const BlockSummary& ss = analyze(sb.type, feff, ctx.all_args);
            for (const Diagnostic& d : ss.hazards) absorb(d);
        }
        if (!sb.type->is_atomic() || sb.type->is_opaque()) continue;
        const lib::Atom& atom = static_cast<const AtomicBlock&>(*sb.type).atom();
        std::vector<Interval> args(ctx.all_args.size());
        for (std::size_t k = 0; k < args.size(); ++k)
            args[k] = iv_join(ctx.first_args[k], ctx.all_args[k]);
        if (atom.op == Op::Div && args.size() == 2 && !args[1].is_bottom()) {
            const Interval& den = args[1];
            if (!den.empty_real() && den.lo == 0.0 && den.hi == 0.0 && !den.nan) {
                absorb(Diagnostic{"SBD022", Severity::Error, sb.loc,
                                  "division by zero: the denominator of " + where +
                                      " is always 0",
                                  {"numerator range " + args[0].str_or("(none)")}});
            } else if (den.contains(0.0) || den.nan) {
                absorb(Diagnostic{"SBD023", Severity::Warning, sb.loc,
                                  "possible division by zero: the denominator of " + where +
                                      " spans " + to_string(den) +
                                      (den.nan && !den.contains(0.0) ? ", which may be NaN"
                                                                     : ", which contains 0"),
                                  {}});
            }
        }
        if (atom.op == Op::Switch && args.size() == 3 && !args[1].is_bottom()) {
            const Interval& ctrl = args[1];
            const double th = atom.nums[0];
            char thbuf[32];
            std::snprintf(thbuf, sizeof thbuf, "%.6g", th);
            if (!ctrl.nan && !ctrl.empty_real() && ctrl.lo >= th) {
                absorb(Diagnostic{"SBD027", Severity::Warning, sb.loc,
                                  "dead branch: " + where + " never selects input 'u2': its "
                                      "control is always >= " + thbuf,
                                  {"control range " + to_string(ctrl)}});
            } else if ((ctrl.empty_real() && ctrl.nan) || (!ctrl.empty_real() && ctrl.hi < th)) {
                absorb(Diagnostic{"SBD027", Severity::Warning, sb.loc,
                                  "dead branch: " + where + " never selects input 'u1': its "
                                      "control is always < " + thbuf,
                                  {"control range " + ctrl.str_or("NaN")}});
            }
        }
    }
    sum.hazards = std::move(hazards);
    return sum;
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

std::vector<Diagnostic> deep_diagnostics(const codegen::CompiledSystem& sys, const BlockPtr& root,
                                         const AbsOptions& opts) {
    Analyzer az(sys, opts);
    const BlockSummary& sum = az.analyze_root(root);
    std::vector<Diagnostic> out = sum.hazards;
    for (std::size_t o = 0; o < root->num_outputs(); ++o) {
        const Interval& all = sum.outputs[o];
        const Interval& first = sum.first_outputs[o];
        const std::string head = "output '" + root->output_name(o) + "' of block '" +
                                 root->type_name() + "' ";
        if (all.definitely_nonfinite()) {
            out.push_back(Diagnostic{"SBD024", Severity::Error, root->def_loc(),
                                     head + (all.empty_real() ? "is NaN on every instant"
                                                              : "is infinite on every instant"),
                                     {}});
        } else if (all.nan) {
            out.push_back(Diagnostic{"SBD025", Severity::Warning, root->def_loc(),
                                     head + "may be NaN",
                                     {"output range " + to_string(all)}});
        } else if (all.is_finite_singleton() && first == all) {
            char buf[32];
            std::snprintf(buf, sizeof buf, "%.6g", all.lo);
            out.push_back(Diagnostic{"SBD026", Severity::Warning, root->def_loc(),
                                     head + "is always the constant " + buf, {}});
        }
    }
    return out;
}

} // namespace sbd::analysis
