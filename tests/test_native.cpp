// The native AOT backend's gate: everything the interpreter can run, the
// compiled-and-dlopen'ed module must run bit-identically.
//
//  - Demo suite x all 6 clustering methods x 64 instants, default flags
//    (exactly what ships).
//  - 500 seeded fuzzed hierarchies (random, deep-shared-with-clones,
//    triggered), sharded so ctest -j spreads the compiles.
//  - The state-layout contract: snapshots restore across backends.
//  - Error parity: validation messages are identical by construction;
//    opaque models are rejected by both backends with their own codes.
//  - Artifact-store healing: a corrupted .so is rebuilt, never fatal.
//  - Byte-pinned emit_cpp goldens for two shipped models, so emitter
//    drift fails loudly here instead of surfacing as a miscompile.
//  - Every CppSemantics op on ±0, ±inf, NaN and subnormals, bitwise but
//    for the sign of NaNs, and non-finite parameters; the built module
//    needs only libc.so.6.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
#include <sstream>

#include <elf.h>
#include <unistd.h>

#include "core/compiler.hpp"
#include "core/emit_cpp.hpp"
#include "core/exec.hpp"
#include "native/native.hpp"
#include "sbd/text_format.hpp"
#include "suite/models.hpp"
#include "suite/random_models.hpp"

namespace {

using namespace sbd;
using namespace sbd::codegen;

constexpr Method kAllMethods[] = {Method::Monolithic,  Method::StepGet,
                                  Method::Dynamic,     Method::DisjointSat,
                                  Method::DisjointGreedy, Method::Singletons};

std::string method_id(Method m) {
    std::string s = to_string(m);
    for (char& c : s)
        if (c == '-') c = '_';
    return s;
}

/// Shared artifact store for every test of this build tree; stable across
/// runs so a warm cache skips every compile (what CI's warm pass measures),
/// and keyed by the build tree so two checkouts tested on one host never
/// share it.
const std::string& store_dir() {
    static const std::string dir = [] {
        const auto d = std::filesystem::temp_directory_path() /
                       ("sbd-native-test-" SBD_NATIVE_STORE_TAG);
        std::filesystem::create_directories(d);
        return d.string();
    }();
    return dir;
}

std::shared_ptr<const Executable> build_native(const CompiledSystem& sys, BlockPtr root,
                                               Method method,
                                               const std::string& extra_flags = "",
                                               const std::string& cache_dir = "") {
    BackendConfig cfg;
    cfg.backend = Backend::Native;
    cfg.method = method;
    cfg.cache_dir = cache_dir.empty() ? store_dir() : cache_dir;
    cfg.extra_flags = extra_flags;
    return native::make_native_executable(sys, root, cfg);
}

void expect_rows_bit_equal(std::span<const double> a, std::span<const double> b,
                           const std::string& what) {
    ASSERT_EQ(a.size(), b.size()) << what;
    if (!a.empty()) {
        ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
            << what << ": outputs diverge bitwise";
    }
}

/// The differential core: drive interpreter and native module with the same
/// deterministic inputs and require bitwise-identical outputs every instant,
/// plus bitwise-identical state snapshots at a few checkpoints.
void expect_native_matches_interp(const std::shared_ptr<const MacroBlock>& block,
                                  Method method, std::size_t instants, std::uint64_t seed,
                                  const std::string& extra_flags = "") {
    const CompiledSystem sys = compile_hierarchy(block, method);
    InterpInstance interp(sys, block);
    const auto exe = build_native(sys, block, method, extra_flags);
    const std::unique_ptr<Instance> nat = exe->instantiate();
    ASSERT_STREQ(exe->backend_name(), "native");
    ASSERT_EQ(interp.state_size(), nat->state_size())
        << block->type_name() << ": state-layout contract broken";

    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> dist(-4.0, 4.0);
    std::vector<double> in(block->num_inputs());
    std::vector<double> out_i(block->num_outputs()), out_n(block->num_outputs());
    for (std::size_t t = 0; t < instants; ++t) {
        for (double& v : in) v = dist(rng);
        interp.step_instant_into(in, out_i);
        nat->step_instant_into(in, out_n);
        const std::string ctx = block->type_name() + " method=" + to_string(method) +
                                " seed=" + std::to_string(seed) + " t=" + std::to_string(t);
        expect_rows_bit_equal(out_i, out_n, ctx);
        if (t % 16 == 7) {
            std::vector<double> si, sn;
            interp.save_state(si);
            nat->save_state(sn);
            expect_rows_bit_equal(si, sn, ctx + " (state snapshot)");
        }
    }
}

// ------------------------------------------- demo suite, all six methods

class DemoSuiteDifferential : public ::testing::TestWithParam<Method> {};

TEST_P(DemoSuiteDifferential, NativeBitExactOverDemoSuite) {
    const Method method = GetParam();
    for (const auto& model : suite::demo_suite()) {
        const auto m = std::static_pointer_cast<const MacroBlock>(model.block);
        try {
            expect_native_matches_interp(m, method, 64, 0xD1FF + m->num_inputs());
        } catch (const SdgCycleError&) {
            // Rejection happens in compile_hierarchy, before either backend
            // exists — parity on this path is structural.
            EXPECT_TRUE(method == Method::Monolithic || method == Method::StepGet)
                << model.name;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllMethods, DemoSuiteDifferential, ::testing::ValuesIn(kAllMethods),
                         [](const auto& info) { return method_id(info.param); });

// ------------------------------------------------- fuzzed hierarchies
//
// 500 seeded diagrams total, compiled -O0 to keep the host compiler fast.
// Sharded by TEST_P index so gtest_discover_tests turns every shard into
// its own ctest entry and `ctest -j` spreads the compiles.

constexpr std::size_t kFuzzPerShard = 50;

class FuzzRandom : public ::testing::TestWithParam<std::size_t> {};

/// 300 random hierarchies; the method rotates with the seed so every method
/// sees structural variety.
TEST_P(FuzzRandom, NativeBitExactOnRandomHierarchies) {
    const std::size_t base = GetParam() * kFuzzPerShard;
    for (std::size_t i = 0; i < kFuzzPerShard; ++i) {
        const std::uint64_t seed = 1000 + base + i;
        std::mt19937_64 rng(seed);
        suite::RandomModelParams p;
        p.depth = 2;
        p.subs_per_level = 3;
        p.macro_probability = 0.4;
        const auto m = suite::random_model(rng, p);
        const Method method = kAllMethods[(base + i) % 6];
        try {
            expect_native_matches_interp(m, method, 16, seed, "-O0");
        } catch (const SdgCycleError&) {
            EXPECT_TRUE(method == Method::Monolithic || method == Method::StepGet)
                << "seed=" << seed;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Shards, FuzzRandom, ::testing::Range<std::size_t>(0, 6));

class FuzzDeepShared : public ::testing::TestWithParam<std::size_t> {};

/// 100 deep shared-type hierarchies with structural clones: exponential
/// instance trees over few distinct compilations, the artifact-store and
/// sub-instance-layout stress shape.
TEST_P(FuzzDeepShared, NativeBitExactOnDeepSharedHierarchies) {
    const std::size_t base = GetParam() * kFuzzPerShard;
    for (std::size_t i = 0; i < kFuzzPerShard; ++i) {
        const std::uint64_t seed = 7000 + base + i;
        std::mt19937_64 rng(seed);
        suite::DeepModelParams p;
        p.levels = 4;
        p.types_per_level = 2;
        p.subs_per_macro = 3;
        p.clone_probability = 0.3;
        const auto m = suite::random_deep_model(rng, p);
        const Method method = kAllMethods[2 + (base + i) % 4]; // never-rejected methods
        expect_native_matches_interp(m, method, 16, seed, "-O0");
    }
}

INSTANTIATE_TEST_SUITE_P(Shards, FuzzDeepShared, ::testing::Range<std::size_t>(0, 2));

class FuzzTriggered : public ::testing::TestWithParam<std::size_t> {};

/// 100 hierarchies with triggered sub-blocks (fire iff trigger >= 0.5, hold
/// otherwise): the guard-counter and held-output state must agree bitwise.
TEST_P(FuzzTriggered, NativeBitExactOnTriggeredHierarchies) {
    const std::size_t base = GetParam() * kFuzzPerShard;
    for (std::size_t i = 0; i < kFuzzPerShard; ++i) {
        const std::uint64_t seed = 9000 + base + i;
        std::mt19937_64 rng(seed);
        suite::RandomModelParams p;
        p.depth = 2;
        p.subs_per_level = 3;
        p.trigger_probability = 0.5;
        const auto m = suite::random_model(rng, p);
        const Method method = kAllMethods[2 + (base + i) % 4];
        expect_native_matches_interp(m, method, 16, seed, "-O0");
    }
}

INSTANTIATE_TEST_SUITE_P(Shards, FuzzTriggered, ::testing::Range<std::size_t>(0, 2));

// ---------------------------------------- CppSemantics conformance

/// Every library atom with C++ text, each fed straight from the root
/// inputs, so each body sees the special values below unmodified.
constexpr const char* kAllOpsModel = R"(
block AllOps {
  inputs a b c
  outputs sat abs mn mx dv lt le gt ge eq ne sw land lor lxor lnot dz lut ma
  outputs f1 f2 s1 s2 clk k g sum prod ud integ fir filt filt0 cnt sh
  sub Sat Saturation -1 1
  sub Ab Abs
  sub Mn Min
  sub Mx Max
  sub Dv Div
  sub Lt Relational <
  sub Le Relational <=
  sub Gt Relational >
  sub Ge Relational >=
  sub Eq Relational ==
  sub Ne Relational !=
  sub Sw Switch 0.5
  sub LAnd Logic AND 2
  sub LOr Logic OR 3
  sub LXor Logic XOR 2
  sub LNot Logic NOT 1
  sub DZ DeadZone -0.5 0.5
  sub Lut Lookup1D -1 0 0.5 2 / 3 -1 4 0.25
  sub MA MovingAvg 3
  sub Fan Fanout 2
  sub Sp Split2 2 -1 0.5 3
  sub Clk Clock 3 1
  sub K Constant 1.5
  sub G Gain -2
  sub S Sum +-+
  sub P Product 3
  sub UD UnitDelay 0.25
  sub I Integrator 0.5 1
  sub F Fir2 0.5 0.25
  sub Fl Filter1 0.5 0.25 -0.5
  sub Fl0 Filter1 0 0.5 0.25
  sub Cnt Counter
  sub SH SampleHold 0
  connect a Sat.u
  connect a Ab.u
  connect a Mn.u1
  connect b Mn.u2
  connect a Mx.u1
  connect b Mx.u2
  connect a Dv.u1
  connect b Dv.u2
  connect a Lt.u1
  connect b Lt.u2
  connect a Le.u1
  connect b Le.u2
  connect a Gt.u1
  connect b Gt.u2
  connect a Ge.u1
  connect b Ge.u2
  connect a Eq.u1
  connect b Eq.u2
  connect a Ne.u1
  connect b Ne.u2
  connect a Sw.u1
  connect b Sw.ctrl
  connect c Sw.u2
  connect a LAnd.u1
  connect b LAnd.u2
  connect a LOr.u1
  connect b LOr.u2
  connect c LOr.u3
  connect a LXor.u1
  connect b LXor.u2
  connect a LNot.u1
  connect a DZ.u
  connect a Lut.u
  connect a MA.u
  connect a Fan.u
  connect a Sp.x
  connect a G.u
  connect a S.u1
  connect b S.u2
  connect c S.u3
  connect a P.u1
  connect b P.u2
  connect c P.u3
  connect a UD.u
  connect a I.u
  connect a F.x
  connect a Fl.u
  connect a Fl0.u
  connect b Cnt.enable
  connect a SH.u
  connect b SH.trigger
  connect Sat.y sat
  connect Ab.y abs
  connect Mn.y mn
  connect Mx.y mx
  connect Dv.y dv
  connect Lt.y lt
  connect Le.y le
  connect Gt.y gt
  connect Ge.y ge
  connect Eq.y eq
  connect Ne.y ne
  connect Sw.y sw
  connect LAnd.y land
  connect LOr.y lor
  connect LXor.y lxor
  connect LNot.y lnot
  connect DZ.y dz
  connect Lut.y lut
  connect MA.y ma
  connect Fan.y1 f1
  connect Fan.y2 f2
  connect Sp.z1 s1
  connect Sp.z2 s2
  connect Clk.y clk
  connect K.y k
  connect G.y g
  connect S.y sum
  connect P.y prod
  connect UD.y ud
  connect I.y integ
  connect F.y fir
  connect Fl.y filt
  connect Fl0.y filt0
  connect Cnt.y cnt
  connect SH.y sh
}
)";

/// The DT_NEEDED entries of an ELF64 shared object.
std::vector<std::string> needed_libraries(const std::string& path) {
    std::ifstream f(path, std::ios::binary);
    const std::string elf{std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
    Elf64_Ehdr eh{};
    EXPECT_GE(elf.size(), sizeof eh) << path;
    if (elf.size() < sizeof eh) return {};
    std::memcpy(&eh, elf.data(), sizeof eh);
    EXPECT_EQ(std::memcmp(eh.e_ident, ELFMAG, SELFMAG), 0) << path;
    EXPECT_EQ(eh.e_ident[EI_CLASS], ELFCLASS64) << path;
    const auto section = [&](std::size_t i) {
        Elf64_Shdr sh{};
        std::memcpy(&sh, elf.data() + eh.e_shoff + i * eh.e_shentsize, sizeof sh);
        return sh;
    };
    std::vector<std::string> needed;
    for (std::size_t i = 0; i < eh.e_shnum; ++i) {
        const Elf64_Shdr dyn = section(i);
        if (dyn.sh_type != SHT_DYNAMIC) continue;
        const Elf64_Shdr strtab = section(dyn.sh_link);
        for (std::size_t off = 0; off + sizeof(Elf64_Dyn) <= dyn.sh_size;
             off += sizeof(Elf64_Dyn)) {
            Elf64_Dyn d{};
            std::memcpy(&d, elf.data() + dyn.sh_offset + off, sizeof d);
            if (d.d_tag == DT_NEEDED)
                needed.emplace_back(elf.data() + strtab.sh_offset + d.d_un.d_val);
        }
    }
    return needed;
}

/// The bits of `x`, minus the sign when `x` is a NaN. IEEE 754 (6.3) leaves
/// the sign of a NaN result unspecified, and both backends' compilers use
/// that freedom: GCC -O2 computes `2*u` as `-(-2*u)` when a block beside it
/// computes `-2*u` (the negation flips a NaN's sign), and either NaN
/// operand of a commutative op may be the one that propagates.
std::uint64_t bits_modulo_nan_sign(double x) {
    std::uint64_t b = 0;
    std::memcpy(&b, &x, sizeof b);
    return std::isnan(x) ? b & ~(std::uint64_t{1} << 63) : b;
}

void expect_rows_equal_modulo_nan_sign(std::span<const double> a, std::span<const double> b,
                                       const std::string& what) {
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(bits_modulo_nan_sign(a[i]), bits_modulo_nan_sign(b[i]))
            << what << " [" << i << "]: interp " << a[i] << ", native " << b[i];
}

/// Drives `text`'s root on both backends over every (a, b) pair of `values`
/// (c cycles out of step) and requires equal outputs every instant and
/// equal state every 16 instants, bit for bit but for the sign of NaNs.
/// Returns the module's path.
std::string expect_special_values_match(const std::string& text,
                                        const std::vector<double>& values) {
    const auto root = text::parse_sbd_string(text).root;
    const CompiledSystem sys = compile_hierarchy(root, Method::Dynamic);
    InterpInstance interp(sys, root);
    const auto exe = build_native(sys, root, Method::Dynamic);
    const std::unique_ptr<Instance> nat = exe->instantiate();

    const std::size_t n = values.size();
    std::vector<double> in(root->num_inputs());
    std::vector<double> out_i(root->num_outputs()), out_n(root->num_outputs());
    for (std::size_t t = 0; t < n * n; ++t) {
        const std::size_t pick[] = {t % n, t / n, (t * 7 + 3) % n};
        for (std::size_t i = 0; i < in.size(); ++i) in[i] = values[pick[i]];
        interp.step_instant_into(in, out_i);
        nat->step_instant_into(in, out_n);
        const std::string ctx = root->type_name() + " t=" + std::to_string(t);
        expect_rows_equal_modulo_nan_sign(out_i, out_n, ctx + " outputs");
        if (t % 16 == 15) {
            std::vector<double> si, sn;
            interp.save_state(si);
            nat->save_state(sn);
            expect_rows_equal_modulo_nan_sign(si, sn, ctx + " state");
        }
    }
    return native::build_info(*exe)->artifact_path;
}

TEST(NativeConformance, EveryCppSemanticsOpMatchesOnSpecialValues) {
    const double inf = std::numeric_limits<double>::infinity();
    const double qnan = std::numeric_limits<double>::quiet_NaN();
    const double sub = std::numeric_limits<double>::denorm_min();
    const double max_sub = std::nextafter(std::numeric_limits<double>::min(), 0.0);
    // ±0, ±inf, NaN, subnormals, the Lookup1D breakpoints (-1, 0, 0.5, 2;
    // 0.5 is also the logic and switch threshold), then ordinary values.
    const std::vector<double> values = {
        0.0, -0.0, inf, -inf, qnan, sub, -sub, max_sub,
        -1.0, 0.5, 2.0, 1.0, -0.5, 3.0,
    };
    const std::string so = expect_special_values_match(kAllOpsModel, values);
    // The module links against libc alone: no libstdc++, libm or libgcc_s.
    EXPECT_EQ(needed_libraries(so), std::vector<std::string>{"libc.so.6"}) << so;
}

TEST(NativeConformance, NonFiniteParametersBuildAndMatch) {
    const std::string text = R"(
block NonFinite {
  inputs u
  outputs pinf ninf gnan hold
  sub PInf Constant inf
  sub NInf Constant -inf
  sub GNan Gain nan
  sub Hold UnitDelay -inf
  connect u GNan.u
  connect u Hold.u
  connect PInf.y pinf
  connect NInf.y ninf
  connect GNan.y gnan
  connect Hold.y hold
}
)";
    const std::string so = expect_special_values_match(
        text, {0.0, -0.0, 1.0, std::numeric_limits<double>::infinity(),
               std::numeric_limits<double>::quiet_NaN()});
    EXPECT_EQ(needed_libraries(so), std::vector<std::string>{"libc.so.6"}) << so;
}

// ------------------------------------------------ state-layout contract

TEST(StateContract, SnapshotsRestoreAcrossBackends) {
    const auto m = suite::fuel_controller();
    const CompiledSystem sys = compile_hierarchy(m, Method::Dynamic);
    InterpInstance interp(sys, m);
    const auto exe = build_native(sys, m, Method::Dynamic);
    const std::unique_ptr<Instance> nat = exe->instantiate();

    std::mt19937_64 rng(42);
    std::uniform_real_distribution<double> dist(-4.0, 4.0);
    std::vector<double> in(m->num_inputs());
    std::vector<double> out_i(m->num_outputs()), out_n(m->num_outputs());

    // Warm up only the interpreter, snapshot it into the native instance,
    // then require both to continue bit-identically — and symmetrically.
    for (std::size_t t = 0; t < 20; ++t) {
        for (double& v : in) v = dist(rng);
        interp.step_instant_into(in, out_i);
    }
    std::vector<double> blob;
    interp.save_state(blob);
    ASSERT_EQ(nat->restore_state(blob), blob.size());
    for (std::size_t t = 0; t < 20; ++t) {
        for (double& v : in) v = dist(rng);
        interp.step_instant_into(in, out_i);
        nat->step_instant_into(in, out_n);
        expect_rows_bit_equal(out_i, out_n, "interp->native restore t=" + std::to_string(t));
    }

    blob.clear();
    nat->save_state(blob);
    InterpInstance fresh(sys, m);
    ASSERT_EQ(fresh.restore_state(blob), blob.size());
    for (std::size_t t = 0; t < 20; ++t) {
        for (double& v : in) v = dist(rng);
        fresh.step_instant_into(in, out_i);
        nat->step_instant_into(in, out_n);
        expect_rows_bit_equal(out_i, out_n, "native->interp restore t=" + std::to_string(t));
    }
}

// ------------------------------------------------------- error parity

template <typename F> std::string thrown_what(F&& f) {
    try {
        f();
    } catch (const std::exception& e) {
        return e.what();
    }
    return "";
}

TEST(ErrorParity, ValidationMessagesAreIdenticalAcrossBackends) {
    const auto m = suite::counter_limited();
    const CompiledSystem sys = compile_hierarchy(m, Method::Dynamic);
    InterpInstance interp(sys, m);
    const auto exe = build_native(sys, m, Method::Dynamic);
    const std::unique_ptr<Instance> nat = exe->instantiate();

    const std::vector<double> junk(16, 0.0);
    const auto wrong_args = [&](Instance& inst) {
        return thrown_what([&] {
            inst.call(0, std::span<const double>(junk.data(),
                                                 inst.profile().functions[0].reads.size() + 1));
        });
    };
    const auto wrong_inputs = [&](Instance& inst) {
        return thrown_what(
            [&] { inst.step_instant(std::span<const double>(junk.data(), m->num_inputs() + 3)); });
    };
    const auto short_blob = [&](Instance& inst) {
        return thrown_what(
            [&] { inst.restore_state(std::span<const double>(junk.data(), 0)); });
    };

    EXPECT_FALSE(wrong_args(interp).empty());
    EXPECT_EQ(wrong_args(interp), wrong_args(*nat));
    EXPECT_FALSE(wrong_inputs(interp).empty());
    EXPECT_EQ(wrong_inputs(interp), wrong_inputs(*nat));
    EXPECT_FALSE(short_blob(interp).empty());
    EXPECT_EQ(short_blob(interp), short_blob(*nat));
}

TEST(ErrorParity, OpaqueModelsRejectedByBothBackends) {
    const auto file = text::parse_sbd_file(std::string(SBD_MODELS_DIR) +
                                           "/vendor_integration.sbd");
    const CompiledSystem sys = compile_hierarchy(file.root, Method::Dynamic);
    // Interpreter: rejected when the instance is constructed.
    EXPECT_THROW(InterpInstance(sys, file.root), std::logic_error);
    // Native: rejected when the module is emitted, with the coded error the
    // tools map to exit 9.
    try {
        build_native(sys, file.root, Method::Dynamic);
        FAIL() << "opaque model must not build natively";
    } catch (const BackendError& e) {
        EXPECT_EQ(e.code(), BackendError::Code::EmitFailed);
    }
}

TEST(ErrorParity, MissingCompilerIsACodedError) {
    const auto m = suite::counter_limited();
    const CompiledSystem sys = compile_hierarchy(m, Method::Dynamic);
    BackendConfig cfg;
    cfg.backend = Backend::Native;
    cfg.cache_dir = store_dir();
    cfg.compiler = "/nonexistent/definitely-not-a-compiler";
    try {
        native::make_native_executable(sys, m, cfg);
        FAIL() << "missing compiler must not succeed";
    } catch (const BackendError& e) {
        EXPECT_EQ(e.code(), BackendError::Code::NoCompiler);
    }
}

// ----------------------------------------------- artifact-store healing

TEST(ArtifactStore, CorruptedArtifactIsRebuiltNotFatal) {
    namespace fs = std::filesystem;
    const auto m = suite::thermostat();
    const CompiledSystem sys = compile_hierarchy(m, Method::Dynamic);

    const std::string pid = std::to_string(::getpid());
    const fs::path dir_a = fs::temp_directory_path() / ("sbd-native-test-corrupt-a-" + pid);
    const fs::path dir_b = fs::temp_directory_path() / ("sbd-native-test-corrupt-b-" + pid);
    fs::remove_all(dir_a);
    fs::remove_all(dir_b);
    fs::create_directories(dir_b);

    const auto exe_a = build_native(sys, m, Method::Dynamic, "", dir_a.string());
    const native::BuildInfo* info = native::build_info(*exe_a);
    ASSERT_NE(info, nullptr);
    ASSERT_TRUE(fs::exists(info->artifact_path));

    // Plant a corrupted artifact at the exact path the store will probe
    // (same content key, different directory — so the in-process build memo
    // cannot mask the reload).
    const fs::path corrupted = dir_b / fs::path(info->artifact_path).filename();
    std::ofstream(corrupted, std::ios::binary) << "this is not a shared object";

    const auto exe_b = build_native(sys, m, Method::Dynamic, "", dir_b.string());
    const native::BuildInfo* info_b = native::build_info(*exe_b);
    ASSERT_NE(info_b, nullptr);
    EXPECT_FALSE(info_b->cache_hit);

    // And the healed module still matches the interpreter.
    InterpInstance interp(sys, m);
    const std::unique_ptr<Instance> nat = exe_b->instantiate();
    std::vector<double> in(m->num_inputs(), 1.0);
    std::vector<double> out_i(m->num_outputs()), out_n(m->num_outputs());
    for (std::size_t t = 0; t < 8; ++t) {
        interp.step_instant_into(in, out_i);
        nat->step_instant_into(in, out_n);
        expect_rows_bit_equal(out_i, out_n, "healed artifact t=" + std::to_string(t));
    }
    fs::remove_all(dir_a);
    fs::remove_all(dir_b);
}

TEST(ArtifactStore, SecondBuildIsACacheHit) {
    namespace fs = std::filesystem;
    const auto m = suite::gear_logic();
    const CompiledSystem sys = compile_hierarchy(m, Method::Singletons);
    const fs::path dir =
        fs::temp_directory_path() / ("sbd-native-test-warm-" + std::to_string(::getpid()));
    fs::remove_all(dir);

    const auto cold = build_native(sys, m, Method::Singletons, "-O1", dir.string());
    const native::BuildInfo* cold_info = native::build_info(*cold);
    ASSERT_NE(cold_info, nullptr);
    EXPECT_FALSE(cold_info->cache_hit);
    EXPECT_GT(cold_info->tu_bytes, 0u);
    EXPECT_GT(cold_info->so_bytes, 0u);

    // Same key from the same process: served from the build memo.
    const auto warm = build_native(sys, m, Method::Singletons, "-O1", dir.string());
    const native::BuildInfo* warm_info = native::build_info(*warm);
    ASSERT_NE(warm_info, nullptr);
    EXPECT_TRUE(warm_info->cache_hit);
    EXPECT_EQ(warm_info->artifact_path, cold_info->artifact_path);
    fs::remove_all(dir);
}

// ------------------------------------------------- emit_cpp golden files

std::string read_file(const std::string& path) {
    std::ifstream f(path, std::ios::binary);
    EXPECT_TRUE(f.is_open()) << "missing golden file " << path
                             << " (regenerate with sbdc --emit cpp)";
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

void expect_matches_golden(const std::string& model_file, Method method,
                           const std::string& golden_file) {
    const auto file = text::parse_sbd_file(std::string(SBD_MODELS_DIR) + "/" + model_file);
    const CompiledSystem sys = compile_hierarchy(file.root, method);
    const std::string emitted = emit_cpp(sys);
    const std::string golden = read_file(std::string(SBD_NATIVE_DIR) + "/" + golden_file);
    // Byte-pinned on purpose: any emitter change must consciously touch the
    // golden, because silent drift here is a silent native-backend change.
    EXPECT_EQ(emitted, golden) << "emit_cpp drifted from " << golden_file;
}

TEST(EmitCppGolden, Figure3Dynamic) {
    expect_matches_golden("figure3.sbd", Method::Dynamic, "figure3_dynamic.golden.cpp");
}

TEST(EmitCppGolden, ThermostatDisjointGreedy) {
    expect_matches_golden("thermostat.sbd", Method::DisjointGreedy,
                          "thermostat_disjoint_greedy.golden.cpp");
}

} // namespace
