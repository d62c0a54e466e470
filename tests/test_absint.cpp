// Tests of the deep semantic analysis (src/analysis/absint, cost): the
// interval domain's algebra, and — the load-bearing gate — differential
// soundness: for every model we can execute, every concrete output value
// of every simulated instant must lie inside the interval the abstract
// interpreter predicted. The gate runs the demo suite under every
// clustering method plus 500 seeded random hierarchies, so a transfer
// function that forgets an IEEE corner case (inf - inf, 0 * inf, division
// by a zero-crossing range) fails here, not in a user's report.
//
// Also covered: summary memoization (content-addressed, shared across
// analyzers like the profile cache), the shipped models' expected deep
// findings, the SARIF golden file, and the static cost model (which writes
// the COST_suite.md artifact EXPERIMENTS.md quotes).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/absint.hpp"
#include "analysis/cost.hpp"
#include "analysis/lint.hpp"
#include "core/compiler.hpp"
#include "core/emit_cpp.hpp"
#include "core/exec.hpp"
#include "runtime/engine.hpp"
#include "sbd/library.hpp"
#include "sbd/text_format.hpp"
#include "suite/models.hpp"
#include "suite/random_models.hpp"

namespace {

using namespace sbd;
using namespace sbd::analysis;
using sbd::codegen::CompiledSystem;
using sbd::codegen::Method;
using sbd::codegen::SdgCycleError;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

constexpr Method kAllMethods[] = {Method::Monolithic,     Method::StepGet,
                                  Method::Dynamic,        Method::DisjointSat,
                                  Method::DisjointGreedy, Method::Singletons};

// ---------------------------------------------------------------------------
// Interval domain algebra.
// ---------------------------------------------------------------------------

TEST(IntervalDomain, JoinAndContains) {
    const Interval a = Interval::point(1.0);
    const Interval b = Interval::point(3.0);
    const Interval j = iv_join(a, b);
    EXPECT_EQ(j, Interval::make(1.0, 3.0));
    EXPECT_TRUE(j.contains(2.0));
    EXPECT_FALSE(j.contains(3.5));
    EXPECT_FALSE(j.contains(kNan));

    // Bottom is the join identity.
    EXPECT_EQ(iv_join(Interval::bottom(), b), b);
    EXPECT_EQ(iv_join(a, Interval::bottom()), a);

    // The nan flag survives joins and is what NaN membership tests.
    Interval n = Interval::point(0.0);
    n.nan = true;
    EXPECT_TRUE(iv_join(n, b).nan);
    EXPECT_TRUE(n.contains(kNan));

    // Infinite endpoints are themselves attainable values.
    EXPECT_TRUE(Interval::top().contains(kInf));
    EXPECT_TRUE(Interval::top().contains(-kInf));
}

TEST(IntervalDomain, Predicates) {
    EXPECT_TRUE(Interval::bottom().is_bottom());
    EXPECT_TRUE(Interval::point(2.0).is_finite_singleton());
    EXPECT_FALSE(Interval::point(kInf).is_finite_singleton());
    EXPECT_TRUE(Interval::point(kInf).definitely_nonfinite());
    Interval pure_nan = Interval::bottom();
    pure_nan.nan = true;
    EXPECT_TRUE(pure_nan.definitely_nonfinite());
    EXPECT_FALSE(pure_nan.is_bottom());
    EXPECT_FALSE(Interval::top().definitely_nonfinite());
    EXPECT_EQ(Interval::bottom().str_or("none"), "none");
}

TEST(IntervalDomain, AddCorners) {
    EXPECT_EQ(iv_add(Interval::make(1, 2), Interval::make(3, 4)), Interval::make(4, 6));
    // inf + inf of the same sign is a definite infinity, not NaN.
    const Interval pp = iv_add(Interval::point(kInf), Interval::point(kInf));
    EXPECT_EQ(pp.lo, kInf);
    EXPECT_FALSE(pp.nan);
    // Opposite infinities can meet: the indeterminate corner sets nan.
    const Interval mix = iv_add(Interval::make(0, kInf), Interval::make(-kInf, 0));
    EXPECT_TRUE(mix.nan);
    // Bottom operands stay bottom.
    EXPECT_TRUE(iv_add(Interval::bottom(), Interval::make(1, 2)).is_bottom());
}

TEST(IntervalDomain, MulCorners) {
    EXPECT_EQ(iv_mul(Interval::make(-2, 3), Interval::make(-5, 7)), Interval::make(-15, 21));
    // 0 * inf is indeterminate: NaN attainable.
    const Interval zi = iv_mul(Interval::point(0.0), Interval::make(0, kInf));
    EXPECT_TRUE(zi.nan);
    // A zero inside one operand times a finite range must keep 0 attainable
    // even when every corner product is nonzero.
    const Interval z = iv_mul(Interval::make(-1, 1), Interval::make(2, 3));
    EXPECT_TRUE(z.contains(0.0));
    EXPECT_EQ(z, Interval::make(-3, 3));
}

TEST(IntervalDomain, DivVerdicts) {
    // Plain division, zero-free denominator.
    const DivResult ok = iv_div(Interval::make(4, 8), Interval::make(2, 4));
    EXPECT_FALSE(ok.definite_zero_den);
    EXPECT_FALSE(ok.possible_zero_den);
    EXPECT_EQ(ok.value, Interval::make(1, 4));

    // Denominator is exactly zero always: the SBD022 verdict. 1/0 is a
    // real IEEE infinity of unknown sign (sign of zero unknown).
    const DivResult dz = iv_div(Interval::point(1.0), Interval::point(0.0));
    EXPECT_TRUE(dz.definite_zero_den);
    EXPECT_TRUE(dz.value.contains(kInf));
    EXPECT_TRUE(dz.value.contains(-kInf));

    // 0/0 always: pure NaN.
    const DivResult zz = iv_div(Interval::point(0.0), Interval::point(0.0));
    EXPECT_TRUE(zz.definite_zero_den);
    EXPECT_TRUE(zz.value.nan);
    EXPECT_TRUE(zz.value.definitely_nonfinite());

    // Zero-crossing denominator: the SBD023 verdict; with 0 in the
    // numerator too, NaN is attainable.
    const DivResult pz = iv_div(Interval::make(-1, 1), Interval::make(-1, 1));
    EXPECT_FALSE(pz.definite_zero_den);
    EXPECT_TRUE(pz.possible_zero_den);
    EXPECT_TRUE(pz.value.nan);
}

TEST(IntervalDomain, MinMaxNegAbsClamp) {
    EXPECT_EQ(iv_neg(Interval::make(-2, 5)), Interval::make(-5, 2));
    EXPECT_EQ(iv_abs(Interval::make(-2, 5)), Interval::make(0, 5));
    EXPECT_EQ(iv_abs(Interval::make(-5, -2)), Interval::make(2, 5));
    EXPECT_EQ(iv_min(Interval::make(0, 3), Interval::make(1, 2)), Interval::make(0, 2));
    EXPECT_EQ(iv_max(Interval::make(0, 3), Interval::make(1, 2)), Interval::make(1, 3));
    EXPECT_EQ(iv_clamp(Interval::make(-10, 10), -1, 1), Interval::make(-1, 1));
    // NaN operands pass through every kernel.
    Interval n = Interval::make(0, 1);
    n.nan = true;
    EXPECT_TRUE(iv_min(n, Interval::point(5.0)).nan);
    EXPECT_TRUE(iv_abs(n).nan);
}

TEST(IntervalDomain, WideningTerminates) {
    // An unstable upper bound climbs the rung ladder and must reach +inf in
    // a bounded number of widenings (this is the termination argument for
    // the stateful-block fixpoint).
    Interval cur = Interval::make(0, 0.1);
    std::size_t steps = 0;
    while (cur.hi < kInf) {
        const Interval next = iv_join(cur, Interval::make(0, std::nextafter(cur.hi, kInf)));
        const Interval widened = iv_widen(cur, next);
        ASSERT_GT(widened.hi, cur.hi);
        cur = widened;
        ASSERT_LT(++steps, 64u);
    }
    // A stable iterate is left alone.
    const Interval stable = Interval::make(-1, 1);
    EXPECT_EQ(iv_widen(stable, stable), stable);
}

// ---------------------------------------------------------------------------
// Differential soundness gate.
// ---------------------------------------------------------------------------

/// Compiles `root` under `method`, analyzes it, simulates `instants`
/// concrete instants with the LCG input stream (the same family the
/// engine/differential tests use; values in [-8, 8), matching the default
/// assumed-input range) and asserts every concrete output lies inside the
/// predicted intervals. Returns false when the method rejects the model or
/// the model is not executable (opaque blocks) — both are skips, not
/// failures.
bool check_soundness(const BlockPtr& root, Method method, std::uint64_t seed,
                     std::size_t instants, const std::string& tag) {
    CompiledSystem sys;
    try {
        sys = codegen::compile_hierarchy(root, method);
    } catch (const SdgCycleError&) {
        return false;
    }
    Analyzer analyzer(sys);
    const BlockSummary& sum = analyzer.analyze_root(root);
    EXPECT_EQ(sum.outputs.size(), root->num_outputs()) << tag;
    EXPECT_EQ(sum.first_outputs.size(), root->num_outputs()) << tag;

    std::unique_ptr<codegen::Instance> inst;
    try {
        inst = std::make_unique<codegen::InterpInstance>(sys, root);
    } catch (const std::logic_error&) {
        return false; // opaque (interface-only) blocks are not executable
    }
    runtime::LcgInputSource source(seed);
    std::vector<double> inputs(root->num_inputs());
    for (std::size_t t = 0; t < instants; ++t) {
        source.fill(inputs);
        std::vector<double> out;
        try {
            out = inst->step_instant(inputs);
        } catch (const std::logic_error&) {
            return false;
        }
        for (std::size_t o = 0; o < out.size(); ++o) {
            EXPECT_TRUE(sum.outputs[o].contains(out[o]))
                << tag << " method=" << to_string(method) << " instant=" << t
                << " output=" << o << " value=" << out[o]
                << " predicted=" << to_string(sum.outputs[o]);
            if (t == 0) {
                EXPECT_TRUE(sum.first_outputs[o].contains(out[o]))
                    << tag << " method=" << to_string(method) << " first-instant output="
                    << o << " value=" << out[o]
                    << " predicted=" << to_string(sum.first_outputs[o]);
            }
        }
    }
    return true;
}

TEST(AbsintSoundness, DemoSuiteAllMethods) {
    std::size_t executed = 0;
    for (const suite::NamedModel& m : suite::demo_suite())
        for (const Method method : kAllMethods)
            if (check_soundness(m.block, method, 7, 64, m.name)) ++executed;
    // Most of the suite executes under most methods; a handful of
    // (model, method) pairs are legitimate cycle rejections.
    EXPECT_GE(executed, 30u);
}

TEST(AbsintSoundness, ShippedModels) {
    std::size_t executed = 0;
    for (const auto& entry : std::filesystem::directory_iterator(SBD_MODELS_DIR)) {
        if (entry.path().extension() != ".sbd") continue;
        const auto file = text::parse_sbd_file(entry.path().string());
        if (check_soundness(file.root, Method::Dynamic, 11, 64,
                            entry.path().filename().string()))
            ++executed;
    }
    EXPECT_GE(executed, 4u);
}

TEST(AbsintSoundness, RandomHierarchies) {
    // 350 shallow/wide random models. The analysis is method-agnostic (the
    // summaries are semantic), and the engine tests already prove every
    // method bit-identical, so one method per model suffices here; the
    // method still rotates for coverage of the different generated shapes.
    std::mt19937_64 rng(20260808);
    std::size_t executed = 0;
    for (std::size_t i = 0; i < 350; ++i) {
        suite::RandomModelParams p;
        p.depth = 1 + i % 3;
        p.subs_per_level = 3 + i % 4;
        p.inputs = 1 + i % 3;
        p.outputs = 1 + (i / 2) % 3;
        p.backward_wire_probability = (i % 5) * 0.1;
        const auto root = suite::random_model(rng, p);
        const Method method = kAllMethods[i % 6];
        if (check_soundness(root, method, 100 + i, 64, "random#" + std::to_string(i)))
            ++executed;
        if (::testing::Test::HasFailure()) break; // one witness is enough
    }
    EXPECT_GE(executed, 250u);
}

TEST(AbsintSoundness, RandomDeepHierarchies) {
    // 150 deep shared-type hierarchies, including structural clones — the
    // shape that stresses the content-addressed summary memo.
    std::mt19937_64 rng(4242);
    std::size_t executed = 0;
    for (std::size_t i = 0; i < 150; ++i) {
        suite::DeepModelParams p;
        p.levels = 3 + i % 2;
        p.types_per_level = 2;
        p.subs_per_macro = 3;
        p.clone_probability = (i % 2) ? 0.5 : 0.0;
        const auto root = suite::random_deep_model(rng, p);
        if (check_soundness(root, Method::Dynamic, 1000 + i, 64,
                            "deep#" + std::to_string(i)))
            ++executed;
        if (::testing::Test::HasFailure()) break;
    }
    EXPECT_GE(executed, 120u);
}

/// `atom` between fresh macro ports, one per atom port.
std::shared_ptr<const MacroBlock> wrap(const BlockPtr& atom) {
    std::vector<std::string> in, out;
    for (std::size_t i = 0; i < atom->num_inputs(); ++i) in.push_back("x" + std::to_string(i));
    for (std::size_t o = 0; o < atom->num_outputs(); ++o) out.push_back("y" + std::to_string(o));
    auto m = std::make_shared<MacroBlock>("Wrap", in, out);
    const std::int32_t a = m->add_sub("A", atom);
    for (std::int32_t i = 0; i < static_cast<std::int32_t>(in.size()); ++i)
        m->connect(Endpoint{Endpoint::Kind::MacroInput, -1, i},
                   Endpoint{Endpoint::Kind::SubInput, a, i});
    for (std::int32_t o = 0; o < static_cast<std::int32_t>(out.size()); ++o)
        m->connect(Endpoint{Endpoint::Kind::SubOutput, a, o},
                   Endpoint{Endpoint::Kind::MacroOutput, -1, o});
    return m;
}

BlockPtr parse_atom(const std::string& spec) {
    const auto file = text::parse_sbd_string("block T {\n  sub A " + spec + "\n}\n",
                                             text::ParseMode::Lenient);
    EXPECT_TRUE(file.issues.empty()) << spec << ": " << file.issues.front().message;
    return file.root->sub(0).type;
}

/// check_soundness on the atom of `spec` alone, each input a diagram input.
bool check_atom(const std::string& spec) {
    return check_soundness(wrap(parse_atom(spec)), Method::Dynamic, 5, 64, spec);
}

TEST(AbsintSoundness, ConstantNan) { EXPECT_TRUE(check_atom("Constant nan")); }

TEST(AbsintSoundness, ConstantInfinities) {
    EXPECT_TRUE(check_atom("Constant inf"));
    EXPECT_TRUE(check_atom("Constant -inf"));
}

TEST(AbsintSoundness, GainNan) { EXPECT_TRUE(check_atom("Gain nan")); }

TEST(AbsintSoundness, UnitDelayMinusInf) { EXPECT_TRUE(check_atom("UnitDelay -inf")); }

TEST(AbsintSoundness, NonFiniteThresholdsAndTables) {
    // A NaN threshold or bound compares false for every input; a table with
    // infinite breakpoints interpolates inf/inf = NaN between them.
    EXPECT_TRUE(check_atom("Switch nan"));
    EXPECT_TRUE(check_atom("DeadZone nan 10"));
    EXPECT_TRUE(check_atom("Lookup1D -inf 0 inf / 0 1 2"));
}

// ---------------------------------------------------------------------------
// The op table as a whole: every library op's spec, C++ text and transfer.
// ---------------------------------------------------------------------------

TEST(OpTable, EveryRowRoundTripsEmitsAndHasATransfer) {
    std::size_t rows = 0;
    for (const lib::OpRow& row : lib::op_table()) {
        ++rows;
        // Sample parameters from the row's shape.
        std::string spec = row.name;
        for (const char* c = row.params; *c != '\0'; ++c) {
            if (*c == 'n') spec += " 0.5";
            else if (*c == 'k') spec += " 3";
            else if (*c == '/') spec += " 0 1 2 / 4 -1 6";
            else if (row.op == lib::Op::Sum) spec += " +-+";
            else spec += row.op == lib::Op::Logic ? " XOR" : " <=";
        }
        const BlockPtr block = parse_atom(spec);
        ASSERT_TRUE(block && block->is_atomic()) << spec;
        const auto& atom = static_cast<const AtomicBlock&>(*block);
        EXPECT_EQ(atom.atom().op, row.op) << spec;

        // The spec printed from the op parses back to the same block.
        const std::string printed = lib::sbd_spec(atom);
        EXPECT_EQ(printed.rfind(row.name, 0), 0u) << printed;
        EXPECT_EQ(codegen::fingerprint_block(*parse_atom(printed)),
                  codegen::fingerprint_block(atom))
            << spec << " printed as " << printed;

        // The C++ text is printed and emitted.
        const auto cpp = lib::cpp_semantics(atom);
        ASSERT_TRUE(cpp.has_value()) << spec;
        const auto root = wrap(block);
        const CompiledSystem sys = codegen::compile_hierarchy(root, Method::Dynamic);
        EXPECT_NE(codegen::emit_cpp(sys).find(cpp->output_body), std::string::npos) << spec;

        // absint knows the op: the first firing is never the unknown-op top.
        Analyzer analyzer(sys);
        const BlockSummary& sum = analyzer.analyze_root(root);
        for (const Interval& first : sum.first_outputs)
            EXPECT_FALSE(first == Interval::top()) << spec << " " << to_string(first);
    }
    EXPECT_EQ(rows, 24u);
}

// ---------------------------------------------------------------------------
// Summary memoization.
// ---------------------------------------------------------------------------

TEST(AbsintMemo, SharedAcrossAnalyzersLikeProfileCache) {
    const auto root = suite::thermostat();
    const CompiledSystem sys = codegen::compile_hierarchy(root, Method::Dynamic);
    const auto memo = std::make_shared<SummaryMemo>();
    AbsOptions opts;
    opts.memo = memo;

    Analyzer first(sys, opts);
    const BlockSummary& cold = first.analyze_root(root);
    EXPECT_GT(first.summaries_computed(), 0u);
    const std::uint64_t computed_cold = memo->computed;

    // A second analyzer over the same memo recomputes nothing.
    Analyzer second(sys, opts);
    const BlockSummary& warm = second.analyze_root(root);
    EXPECT_GT(memo->hits, 0u);
    EXPECT_EQ(memo->computed, computed_cold);
    ASSERT_EQ(warm.outputs.size(), cold.outputs.size());
    for (std::size_t o = 0; o < cold.outputs.size(); ++o)
        EXPECT_EQ(warm.outputs[o], cold.outputs[o]);
    // Memo hits must not lose the hazards collected on first computation.
    EXPECT_EQ(warm.hazards.size(), cold.hazards.size());
}

TEST(AbsintMemo, StructuralClonesHitTheMemo) {
    // clone_probability = 1: every shared type is a distinct Block object
    // with an identical fingerprint. Only content addressing (not pointer
    // identity) can dedup these — the same adversary the profile cache has.
    std::mt19937_64 rng(99);
    suite::DeepModelParams p;
    p.levels = 4;
    p.types_per_level = 2;
    p.subs_per_macro = 3;
    p.clone_probability = 1.0;
    const auto root = suite::random_deep_model(rng, p);
    const CompiledSystem sys = codegen::compile_hierarchy(root, Method::Dynamic);
    Analyzer analyzer(sys);
    analyzer.analyze_root(root);
    EXPECT_GT(analyzer.memo_hits(), 0u);
}

// ---------------------------------------------------------------------------
// Shipped models: expected deep findings, nothing else.
// ---------------------------------------------------------------------------

TEST(DeepLint, ShippedModelsExpectedFindings) {
    LintOptions opts;
    opts.deep = true;
    std::size_t files = 0;
    for (const auto& entry : std::filesystem::directory_iterator(SBD_MODELS_DIR)) {
        if (entry.path().extension() != ".sbd") continue;
        ++files;
        const LintReport rep = lint_file(entry.path().string(), opts);
        EXPECT_FALSE(rep.has_errors()) << entry.path().filename();
        std::vector<std::string> deep_codes;
        for (const Diagnostic& d : rep.diagnostics)
            if (d.code >= "SBD022" && d.code <= "SBD028") deep_codes.push_back(d.code);
        if (entry.path().filename() == "thermostat.sbd") {
            // The room-temperature feedback loop is stable in reality but
            // not provably bounded in the interval domain: widening takes
            // the integrator state to +-inf, where the heater sum has an
            // inf + (-inf) corner. The honest answer is "may be NaN" —
            // a warning, never an error (DESIGN.md, known imprecision).
            ASSERT_EQ(deep_codes.size(), 1u);
            EXPECT_EQ(deep_codes[0], "SBD025");
        } else {
            EXPECT_TRUE(deep_codes.empty())
                << entry.path().filename() << " unexpected " << deep_codes.front();
        }
    }
    EXPECT_GE(files, 5u);
}

TEST(DeepLint, DirectiveTurnsDeepOnPerFile) {
    // "# lint-deep" in the model text enables the deep pass with default
    // options even when the caller did not ask for it.
    EXPECT_TRUE(deep_directive("# lint-deep\nblock X {}\n"));
    EXPECT_FALSE(deep_directive("# lint-method: dynamic\n"));
    const LintReport rep = lint_string("# lint-deep\n"
                                       "block P {\n"
                                       "  inputs x\n"
                                       "  outputs y\n"
                                       "  sub One Constant 1\n"
                                       "  sub Q   Div\n"
                                       "  connect One.y Q.u1\n"
                                       "  connect x     Q.u2\n"
                                       "  connect Q.y y\n"
                                       "}\n");
    bool saw_023 = false;
    for (const Diagnostic& d : rep.diagnostics) saw_023 |= d.code == "SBD023";
    EXPECT_TRUE(saw_023);
}

TEST(DeepLint, NonFiniteParametersReachTheOutputs) {
    // Constant nan, Constant inf and x + (Gain nan)*x: NaN or infinite on
    // every instant, which the analyzer must prove from the parameters.
    LintOptions opts;
    opts.deep = true;
    const LintReport rep = lint_string("block NonFinite {\n"
                                       "  inputs x\n"
                                       "  outputs a b c\n"
                                       "  sub N Constant nan\n"
                                       "  sub I Constant inf\n"
                                       "  sub G Gain nan\n"
                                       "  sub S Sum ++\n"
                                       "  connect N.y a\n"
                                       "  connect I.y b\n"
                                       "  connect x G.u\n"
                                       "  connect x S.u1\n"
                                       "  connect G.y S.u2\n"
                                       "  connect S.y c\n"
                                       "}\n",
                                       opts);
    std::vector<std::string> found;
    for (const Diagnostic& d : rep.diagnostics)
        if (d.code == "SBD024") found.push_back(d.message);
    ASSERT_EQ(found.size(), 3u);
    EXPECT_NE(found[0].find("output 'a' of block 'NonFinite' is NaN on every instant"),
              std::string::npos)
        << found[0];
    EXPECT_NE(found[1].find("output 'b' of block 'NonFinite' is infinite on every instant"),
              std::string::npos)
        << found[1];
    EXPECT_NE(found[2].find("output 'c' of block 'NonFinite' is NaN on every instant"),
              std::string::npos)
        << found[2];
}

// ---------------------------------------------------------------------------
// Diagnostic catalog and SARIF rendering.
// ---------------------------------------------------------------------------

TEST(Sarif, CatalogIsCompleteAndOrdered) {
    const auto cat = catalog();
    ASSERT_EQ(cat.size(), 28u);
    for (std::size_t i = 0; i < cat.size(); ++i) {
        char expect[32];
        std::snprintf(expect, sizeof expect, "SBD%03u", static_cast<unsigned>(i + 1));
        EXPECT_EQ(cat[i].code, std::string(expect));
        EXPECT_FALSE(std::string(cat[i].summary).empty());
    }
    // The deep codes carry the severities the goldens pin down.
    EXPECT_EQ(cat[21].severity, Severity::Error);   // SBD022
    EXPECT_EQ(cat[23].severity, Severity::Error);   // SBD024
    EXPECT_EQ(cat[24].severity, Severity::Warning); // SBD025
}

TEST(Sarif, GoldenFileIsBitExact) {
    // Regenerate the SARIF for the SBD022 golden model exactly the way
    // tests/lint/golden.sarif was produced and compare byte-for-byte. The
    // default SarifOptions omit the tool version, so the golden does not
    // churn on releases.
    const LintReport rep = [] {
        LintReport r = lint_file(std::string(SBD_LINT_DIR) + "/SBD022_div_by_zero.sbd");
        r.file = "SBD022_div_by_zero.sbd";
        return r;
    }();
    const std::string got = render_sarif(std::span(&rep, 1));

    std::ifstream in(std::string(SBD_LINT_DIR) + "/golden.sarif", std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ostringstream want;
    want << in.rdbuf();
    EXPECT_EQ(got, want.str());
}

TEST(Sarif, StructurallySane) {
    LintOptions opts;
    opts.deep = true;
    const LintReport rep =
        lint_file(std::string(SBD_LINT_DIR) + "/SBD024_always_nan_output.sbd", opts);
    const std::string sarif = render_sarif(std::span(&rep, 1));
    EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
    EXPECT_NE(sarif.find("sarif-schema-2.1.0"), std::string::npos);
    EXPECT_NE(sarif.find("\"id\": \"SBD028\""), std::string::npos); // full rule catalog
    EXPECT_NE(sarif.find("\"ruleId\": \"SBD024\""), std::string::npos);
    EXPECT_NE(sarif.find("\"level\": \"error\""), std::string::npos);
    // Balanced braces — cheap structural JSON check, no parser dependency.
    long depth = 0;
    bool in_string = false;
    for (std::size_t i = 0; i < sarif.size(); ++i) {
        const char c = sarif[i];
        if (in_string) {
            if (c == '\\') ++i;
            else if (c == '"') in_string = false;
        } else if (c == '"') in_string = true;
        else if (c == '{' || c == '[') ++depth;
        else if (c == '}' || c == ']') --depth;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
}

// ---------------------------------------------------------------------------
// Static cost model.
// ---------------------------------------------------------------------------

TEST(CostModel, ThermostatPerMethod) {
    const auto file = text::parse_sbd_file(std::string(SBD_MODELS_DIR) + "/thermostat.sbd");
    const CostReport rep = cost_report(file.root, "models/thermostat.sbd");
    EXPECT_EQ(rep.model, file.root->type_name());
    ASSERT_EQ(rep.methods.size(), 6u);

    const auto find = [&](const char* name) -> const MethodCost& {
        for (const MethodCost& m : rep.methods)
            if (m.method == name) return m;
        ADD_FAILURE() << "method missing: " << name;
        static MethodCost none;
        return none;
    };
    // The thermostat has a false monolithic cycle: the paper's headline
    // rejection case. Every modular method accepts it.
    const MethodCost& mono = find("monolithic");
    EXPECT_FALSE(mono.accepted);
    EXPECT_FALSE(mono.reject_reason.empty());
    for (const char* name : {"step-get", "dynamic", "disjoint-sat", "disjoint-greedy",
                             "singletons"}) {
        const MethodCost& m = find(name);
        EXPECT_TRUE(m.accepted) << name;
        EXPECT_GT(m.functions, 0u) << name;
        EXPECT_GT(m.ops.total(), 0u) << name;
        EXPECT_GT(m.lines, 0u) << name;
        EXPECT_GT(m.code_bytes, 0u) << name;
        EXPECT_EQ(m.code_kind, "c++") << name;
        EXPECT_FALSE(m.blocks.empty()) << name;
    }
    // Modularity costs code size: one function per output-class (dynamic)
    // generates fewer interface functions than one block per cluster
    // (singletons), and the paper's Section 5 line measure orders the same
    // way on this model.
    EXPECT_LT(find("dynamic").functions, find("singletons").functions);
    EXPECT_LE(find("dynamic").lines, find("singletons").lines);
}

TEST(CostModel, OpaqueModelFallsBackToPseudocode) {
    const auto file =
        text::parse_sbd_file(std::string(SBD_MODELS_DIR) + "/vendor_integration.sbd");
    const CostReport rep = cost_report(file.root, "models/vendor_integration.sbd");
    bool some_accepted = false;
    for (const MethodCost& m : rep.methods)
        if (m.accepted) {
            some_accepted = true;
            // Opaque vendor blocks have no emit-time semantics; the size
            // measure must degrade to the pseudocode rendering, not throw.
            EXPECT_EQ(m.code_kind, "pseudocode") << m.method;
            EXPECT_GT(m.code_bytes, 0u) << m.method;
        }
    EXPECT_TRUE(some_accepted);
}

TEST(CostModel, RenderersAreStable) {
    const auto root = suite::counter_limited();
    const CostReport rep = cost_report(root, "counter_limited");
    const std::string table = render_cost_table(rep);
    EXPECT_NE(table.find("method"), std::string::npos);
    EXPECT_NE(table.find("dynamic"), std::string::npos);
    const std::string json = render_cost_json(rep);
    EXPECT_NE(json.find("\"file\": \"counter_limited\""), std::string::npos);
    EXPECT_NE(json.find("\"methods\""), std::string::npos);
    // Identical inputs render identically (the report is deterministic).
    EXPECT_EQ(render_cost_json(cost_report(root, "counter_limited")), json);
}

TEST(CostModel, SuiteTableArtifact) {
    // Writes COST_suite.md next to the test binary: the per-model,
    // per-method code-size table EXPERIMENTS.md quotes. Shared profile
    // cache across models, like one sbd-lint --report-cost batch.
    const auto cache = std::make_shared<codegen::ProfileCache>();
    std::ostringstream md;
    md << "# Static cost report — demo suite\n\n"
       << "Generated by test_absint (CostModel.SuiteTableArtifact); the same\n"
       << "tables come from `sbd-lint --report-cost` on each model.\n";
    std::size_t models = 0;
    for (const suite::NamedModel& m : suite::demo_suite()) {
        const CostReport rep = cost_report(m.block, m.name, cache);
        ASSERT_EQ(rep.methods.size(), 6u) << m.name;
        bool some_accepted = false;
        for (const MethodCost& mc : rep.methods) some_accepted |= mc.accepted;
        EXPECT_TRUE(some_accepted) << m.name;
        md << "\n## " << m.name << "\n\n" << render_cost_table(rep) << "\n";
        ++models;
    }
    EXPECT_GE(models, 8u);
    std::ofstream out("COST_suite.md", std::ios::binary);
    ASSERT_TRUE(out.good());
    out << md.str();
    out.close();
    ASSERT_TRUE(std::filesystem::exists("COST_suite.md"));
    EXPECT_GT(std::filesystem::file_size("COST_suite.md"), 1000u);
}

} // namespace
