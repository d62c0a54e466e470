// Interval-domain abstract interpretation over the compiled interface-
// function IR — the deep half of sbd-lint (--deep, SBD022..SBD028).
//
// The analyzer runs over exactly the code core/exec interprets: per macro
// block it abstractly executes the generated interface functions (calls,
// assigns, guards, bumps, trigger predicates) on intervals instead of
// doubles, iterating synchronous instants to a fixpoint with widening for
// stateful blocks. Analysis composes the same way compilation does: a
// macro consumes only its sub-blocks' input->output interval summaries,
// and summaries are memoized content-addressed (structural fingerprint x
// input intervals), mirroring the profile cache.
#ifndef SBD_ANALYSIS_ABSINT_HPP
#define SBD_ANALYSIS_ABSINT_HPP

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "core/compiler.hpp"
#include "core/fingerprint.hpp"

namespace sbd::analysis {

/// An abstract signal value: the attainable non-NaN values form the
/// interval [lo, hi] over the extended reals (an infinite endpoint is
/// itself attainable — IEEE division by zero produces real infinities),
/// plus a flag for whether NaN is additionally attainable. lo > hi means
/// no non-NaN value is attainable; with `nan` set that is "always NaN".
struct Interval {
    double lo = -std::numeric_limits<double>::infinity();
    double hi = std::numeric_limits<double>::infinity();
    bool nan = false;

    static Interval top() { return {}; }
    static Interval bottom() {
        return {std::numeric_limits<double>::infinity(),
                -std::numeric_limits<double>::infinity(), false};
    }
    /// The constant v: NaN on every instant when v is NaN.
    static Interval point(double v) {
        return std::isnan(v) ? Interval{bottom().lo, bottom().hi, true} : Interval{v, v, false};
    }
    static Interval make(double lo, double hi) { return {lo, hi, false}; }

    bool empty_real() const { return lo > hi; }
    bool is_bottom() const { return empty_real() && !nan; }
    /// Exactly one attainable value, and it is a finite real.
    bool is_finite_singleton() const { return lo == hi && std::isfinite(lo) && !nan; }
    /// NaN on every instant, or a single infinite value on every instant.
    bool definitely_nonfinite() const {
        if (empty_real()) return nan;
        return lo == hi && std::isinf(lo) && !nan;
    }
    bool contains(double v) const; ///< NaN values test the nan flag
    /// to_string(*this), or `if_bottom` when no value is attainable.
    std::string str_or(const char* if_bottom) const;
    bool operator==(const Interval&) const = default;
};

std::string to_string(const Interval& iv); ///< "[lo, hi]", "[0, inf]?nan", ...

// Domain operations. Arithmetic mirrors the concrete kernels' IEEE double
// operations corner-by-corner, so bounds are attained exactly (rounding in
// double is monotone); indeterminate corner forms (inf-inf, 0*inf,
// inf/inf) set the nan flag. All operations are sound: the result covers
// every value the concrete operation can produce from operand values.
Interval iv_join(const Interval& a, const Interval& b);
Interval iv_add(const Interval& a, const Interval& b);
Interval iv_sub(const Interval& a, const Interval& b);
Interval iv_mul(const Interval& a, const Interval& b);
Interval iv_neg(const Interval& a);
Interval iv_abs(const Interval& a);
Interval iv_min(const Interval& a, const Interval& b);
Interval iv_max(const Interval& a, const Interval& b);
Interval iv_clamp(const Interval& a, double lo, double hi);

/// Division result plus the two division-by-zero verdicts the SBD022 and
/// SBD023 diagnostics are built from.
struct DivResult {
    Interval value;
    bool definite_zero_den = false; ///< denominator is exactly 0 always
    bool possible_zero_den = false; ///< denominator range contains 0
};
DivResult iv_div(const Interval& a, const Interval& b);

/// Widening: accelerates an unstable bound outward to the next rung of a
/// fixed threshold ladder (ending at +-inf), guaranteeing fixpoint
/// termination for stateful blocks whose state grows every instant.
/// `prev` is the previous iterate, `next` the joined new iterate.
Interval iv_widen(const Interval& prev, const Interval& next);

/// The input->output interval summary of one block under given per-input-
/// port intervals. `first_outputs` is the block's very first firing (from
/// initial state — exact for instant 0); `outputs` covers every firing.
/// `hazards` carries the SBD022..SBD028 site diagnostics found while
/// computing this summary, including those of nested sub-summaries (so a
/// memo hit still surfaces them), deduplicated.
struct BlockSummary {
    std::vector<Interval> first_outputs;
    std::vector<Interval> outputs;
    std::vector<Diagnostic> hazards;
    std::size_t instants = 0; ///< abstract instants until the fixpoint
    bool widened = false;     ///< some state dimension needed widening
};

/// Content-addressed summary store, shareable across Analyzer instances
/// (and thus across the files of one sbd-lint batch) the same way the
/// ProfileCache is shared across method probes: the key is the block's
/// structural fingerprint plus the exact input intervals, so clones of a
/// block hit the same entry.
struct SummaryMemo {
    std::unordered_map<std::string, std::unique_ptr<BlockSummary>> map;
    std::uint64_t computed = 0;
    std::uint64_t hits = 0;
};

/// Analysis knobs.
struct AbsOptions {
    /// Value range assumed for every free (diagram) input. The default
    /// matches the LCG input traces used by the differential tests and the
    /// emitted C++ drivers (values in [-8, 8)).
    Interval assumed_inputs = Interval::make(-8.0, 8.0);
    std::size_t widen_after = 4;    ///< plain joins before widening starts
    std::size_t max_instants = 256; ///< hard cap per summary fixpoint
    /// Optional shared summary store; when null the analyzer owns one.
    std::shared_ptr<SummaryMemo> memo;
};

/// The abstract interpreter. Bound to one CompiledSystem (any clustering
/// method: the summaries are semantic, so every method yields the same
/// concrete behavior and any compiled form can be analyzed).
class Analyzer {
public:
    explicit Analyzer(const codegen::CompiledSystem& sys, AbsOptions opts = {});

    /// Summary of `block` with the given per-input-port intervals for the
    /// first firing and for all firings (all is widened to include first).
    /// The reference stays valid for the life of the memo.
    const BlockSummary& analyze(const BlockPtr& block, std::span<const Interval> first_inputs,
                                std::span<const Interval> all_inputs);

    /// Summary of `root` with every input assumed in opts.assumed_inputs.
    const BlockSummary& analyze_root(const BlockPtr& root);

    std::uint64_t summaries_computed() const { return memo_->computed; }
    std::uint64_t memo_hits() const { return memo_->hits; }
    const SummaryMemo& memo() const { return *memo_; }

private:
    struct Impl;
    const codegen::CompiledSystem* sys_;
    AbsOptions opts_;
    std::shared_ptr<SummaryMemo> memo_;
    codegen::BlockFingerprinter fp_;

    BlockSummary compute(const BlockPtr& block, std::span<const Interval> first_in,
                         std::span<const Interval> all_in);
    BlockSummary compute_atomic(const AtomicBlock& a, std::span<const Interval> first_in,
                                std::span<const Interval> all_in);
    BlockSummary compute_macro(const MacroBlock& m, std::span<const Interval> first_in,
                               std::span<const Interval> all_in);
};

/// The full deep-analysis entry point used by sbd-lint --deep, sbdc --lint
/// and the sbd-serve load gate: analyzes `root` (compiled in `sys`) under
/// `opts` and returns every SBD022..SBD028 diagnostic — the site hazards
/// collected through the summaries plus the root-output checks (SBD024
/// guaranteed-NaN, SBD025 possible-NaN, SBD026 always-constant output).
std::vector<Diagnostic> deep_diagnostics(const codegen::CompiledSystem& sys,
                                         const BlockPtr& root, const AbsOptions& opts = {});

} // namespace sbd::analysis

#endif
