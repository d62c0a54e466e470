#include <gtest/gtest.h>

#include "helpers.hpp"
#include "sbd/library.hpp"
#include "sbd/text_format.hpp"
#include "suite/figures.hpp"
#include "suite/models.hpp"

namespace {

using namespace sbd;

TEST(SbdParse, MinimalBlock) {
    const auto file = text::parse_sbd_string(R"(
# a gain
block M {
  inputs x
  outputs y
  sub G Gain 2.5
  connect x G.u
  connect G.y y
}
)");
    ASSERT_TRUE(file.root != nullptr);
    EXPECT_EQ(file.root->type_name(), "M");
    EXPECT_EQ(file.root->num_subs(), 1u);
    const auto out = sim::simulate(*file.root, {{4.0}});
    EXPECT_EQ(out[0][0], 10.0);
}

TEST(SbdParse, AllAtomicKinds) {
    const auto file = text::parse_sbd_string(R"(
block Zoo {
  inputs a b c
  outputs o1 o2
  sub K  Constant 1.5
  sub G  Gain -2
  sub S  Sum ++-
  sub P  Product 2
  sub D  UnitDelay 0.5
  sub I  Integrator 0.1 0
  sub F  Fir2 1 2
  sub Sat Saturation -1 1
  sub Ab Abs
  sub Mn Min
  sub Mx Max
  sub R  Relational <=
  sub Sw Switch 0.5
  sub L  Logic AND 2
  sub Dz DeadZone -1 1
  sub Lu Lookup1D 0 1 2 / 0 10 40
  sub Ma MovingAvg 3
  sub Fl Filter1 0.5 0.25 -0.25
  sub Cn Counter
  sub Fo Fanout 2
  sub Sh SampleHold 0
  connect a S.u1
  connect b S.u2
  connect c S.u3
  connect K.y P.u1
  connect S.y P.u2
  connect P.y G.u
  connect G.y D.u
  connect D.y I.u
  connect I.y F.x
  connect F.y Sat.u
  connect Sat.y Ab.u
  connect Ab.y Mn.u1
  connect K.y Mn.u2
  connect Mn.y Mx.u1
  connect K.y Mx.u2
  connect Mx.y R.u1
  connect K.y R.u2
  connect Ab.y Sw.u1
  connect R.y Sw.ctrl
  connect K.y Sw.u2
  connect R.y L.u1
  connect R.y L.u2
  connect Sw.y Dz.u
  connect Dz.y Lu.u
  connect Lu.y Ma.u
  connect Ma.y Fl.u
  connect Fl.y Fo.u
  connect Fo.y1 Sh.u
  connect L.y Sh.trigger
  connect Sh.y o1
  connect Fo.y2 o2
  connect Cn.y Cn.enable
}
)");
    EXPECT_EQ(file.root->num_subs(), 21u);
    EXPECT_NO_THROW(file.root->validate());
    // The whole zoo must simulate and compile.
    sbd::testing::expect_equivalent(file.root, codegen::Method::Dynamic,
                                    sbd::testing::random_trace(3, 25, 5150));
}

TEST(SbdParse, HierarchyAndBlockReferences) {
    const auto file = text::parse_sbd_string(R"(
block Inner {
  inputs x
  outputs y
  sub G Gain 2
  connect x G.u
  connect G.y y
}
block Outer {
  inputs x
  outputs y
  sub A Inner
  sub B Inner
  connect x A.x
  connect A.y B.x
  connect B.y y
}
)");
    EXPECT_EQ(file.order, (std::vector<std::string>{"Inner", "Outer"}));
    EXPECT_EQ(file.root->type_name(), "Outer");
    // Shared type: both subs point at the same Inner instance.
    EXPECT_EQ(file.root->sub(0).type.get(), file.root->sub(1).type.get());
    const auto out = sim::simulate(*file.root, {{3.0}});
    EXPECT_EQ(out[0][0], 12.0);
}

TEST(SbdParse, TriggersParsed) {
    const auto file = text::parse_sbd_string(R"(
block T {
  inputs u g
  outputs y
  sub G Gain 1
  connect u G.u
  connect G.y y
  trigger G g
}
)");
    ASSERT_TRUE(file.root->sub(0).trigger.has_value());
    const auto out = sim::simulate(*file.root, {{5.0, 1.0}, {9.0, 0.0}});
    EXPECT_EQ(out[0][0], 5.0);
    EXPECT_EQ(out[1][0], 5.0); // held
}

struct BadCase {
    const char* name;
    const char* text;
};

// ctest IDs end in the printed parameter. gtest's default printer would dump
// this struct's bytes, whose pointers move between builds and runs.
void PrintTo(const BadCase& c, std::ostream* os) { *os << c.name; }

class SbdParseErrors : public ::testing::TestWithParam<BadCase> {};

TEST_P(SbdParseErrors, Rejected) {
    EXPECT_THROW((void)text::parse_sbd_string(GetParam().text), ModelError);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SbdParseErrors,
    ::testing::Values(
        BadCase{"empty", ""},
        BadCase{"unknown_type", "block M { inputs x\noutputs y\nsub G Wat 2\n"
                                "connect x G.u\nconnect G.y y }"},
        BadCase{"bad_number", "block M { inputs x\noutputs y\nsub G Gain two\n"
                              "connect x G.u\nconnect G.y y }"},
        BadCase{"wrong_arity", "block M { inputs x\noutputs y\nsub G Gain 1 2\n"
                               "connect x G.u\nconnect G.y y }"},
        BadCase{"unconnected", "block M { inputs x\noutputs y\nsub G Gain 1\n"
                               "connect x G.u }"},
        BadCase{"duplicate_block", "block M { inputs x\noutputs y\nsub G Gain 1\n"
                                   "connect x G.u\nconnect G.y y }\n"
                                   "block M { inputs x\noutputs y\nconnect x y }"},
        BadCase{"double_writer", "block M { inputs x\noutputs y\nsub G Gain 1\n"
                                 "connect x G.u\nconnect x G.u\nconnect G.y y }"},
        BadCase{"bad_port", "block M { inputs x\noutputs y\nsub G Gain 1\n"
                            "connect x G.nope\nconnect G.y y }"},
        BadCase{"params_on_reference",
                "block A { inputs x\noutputs y\nconnect x y }\n"
                "block M { inputs x\noutputs y\nsub S A 3\nconnect x S.x\n"
                "connect S.y y }"},
        BadCase{"stray_token", "block M { inputs x\noutputs y\nbananas\n"
                               "connect x y }"}),
    [](const auto& info) { return info.param.name; });

TEST(SbdParse, CountsAreRangeCheckedBeforeTheCast) {
    // NaN and values of 2^64 and above have no size_t, and casting them is
    // undefined: each must get a coded SBD002 before any cast.
    for (const char* spec : {"Product nan", "Fanout 1e30", "Product 99999999999999999999",
                             "Clock 4 -inf", "MovingAvg 2.5"}) {
        const auto file = text::parse_sbd_string(
            std::string("block M {\n  sub B ") + spec + "\n}\n", text::ParseMode::Lenient);
        ASSERT_EQ(file.issues.size(), 1u) << spec;
        EXPECT_EQ(file.issues[0].code, "SBD002") << spec;
        EXPECT_NE(file.issues[0].message.find("expected a non-negative integer"),
                  std::string::npos)
            << spec << ": " << file.issues[0].message;
    }
}

TEST(SbdRoundTrip, SuiteModelsSurviveWriteParseWrite) {
    for (const auto& model : sbd::suite::demo_suite()) {
        const auto& m = static_cast<const MacroBlock&>(*model.block);
        const std::string once = text::to_sbd(m);
        const auto back = text::parse_sbd_string(once);
        const std::string twice = text::to_sbd(*back.root);
        EXPECT_EQ(once, twice) << model.name;
        // And behaviour is preserved.
        const auto trace =
            sbd::testing::random_trace(m.num_inputs(), 20, 31337);
        EXPECT_EQ(sim::simulate(m, trace), sim::simulate(*back.root, trace)) << model.name;
    }
}

TEST(SbdRoundTrip, TriggeredModelSurvives) {
    auto m = std::make_shared<MacroBlock>("Trig", std::vector<std::string>{"u", "g"},
                                          std::vector<std::string>{"y"});
    m->add_sub("A", lib::moving_average(3));
    m->connect("u", "A.u");
    m->connect("A.y", "y");
    m->set_trigger("A", "g");
    const auto back = text::parse_sbd_string(text::to_sbd(*m));
    ASSERT_TRUE(back.root->sub(0).trigger.has_value());
    const auto trace = sbd::testing::random_trace(2, 15, 99);
    EXPECT_EQ(sim::simulate(*m, trace), sim::simulate(*back.root, trace));
}

TEST(SbdWrite, CustomAtomicRejected) {
    auto m = std::make_shared<MacroBlock>("M", std::vector<std::string>{"x"},
                                          std::vector<std::string>{"y"});
    m->add_sub("B", lib::make_combinational(
                        "Custom", {"u"}, {"y"},
                        [](auto, std::span<const double> u, std::span<double> y) {
                            y[0] = u[0];
                        }));
    m->connect("x", "B.u");
    m->connect("B.y", "y");
    EXPECT_THROW((void)text::to_sbd(*m), ModelError);
}

TEST(SbdFiles, VendorIntegrationCompilesAgainstInterfaceOnly) {
    const auto file =
        text::parse_sbd_file(std::string(SBD_MODELS_DIR) + "/vendor_integration.sbd");
    const auto sys = codegen::compile_hierarchy(file.root, codegen::Method::Dynamic);
    const auto rep = codegen::check_validity(*sys.at(*file.root).sdg,
                                             *sys.at(*file.root).clustering);
    // Dynamic may overlap; what matters is maximal reusability.
    EXPECT_TRUE(codegen::false_io_dependencies(*sys.at(*file.root).sdg,
                                               *sys.at(*file.root).clustering)
                    .empty());
    (void)rep;
}

TEST(SbdFiles, ShippedModelsParseCompileAndRun) {
    for (const std::string name :
         {"figure3.sbd", "figure4.sbd", "thermostat.sbd", "triggered_logger.sbd"}) {
        const auto file = text::parse_sbd_file(std::string(SBD_MODELS_DIR) + "/" + name);
        ASSERT_TRUE(file.root != nullptr) << name;
        sbd::testing::expect_equivalent(
            file.root, codegen::Method::Dynamic,
            sbd::testing::random_trace(file.root->num_inputs(), 20, 77));
        sbd::testing::expect_equivalent(
            file.root, codegen::Method::DisjointSat,
            sbd::testing::random_trace(file.root->num_inputs(), 20, 78));
    }
}

} // namespace
