#include "sbd/library.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

namespace sbd::lib {

namespace {

std::vector<std::string> numbered(const std::string& prefix, std::size_t n) {
    std::vector<std::string> v;
    v.reserve(n);
    for (std::size_t i = 1; i <= n; ++i) v.push_back(prefix + std::to_string(i));
    return v;
}

/// Round-trip-exact spelling of a double for type names and .sbd specs:
/// the C++ literal when finite, else "inf", "-inf", "nan" or "-nan", which
/// the text format reads back.
std::string lit(double x) {
    if (std::isfinite(x)) return cpp_double_literal(x);
    return std::string(std::signbit(x) ? "-" : "") + (std::isnan(x) ? "nan" : "inf");
}

/// A double inside a CppSemantics body.
std::string clit(double x) { return cpp_double_literal(x); }

} // namespace

AtomicPtr make_combinational(std::string name, std::vector<std::string> inputs,
                             std::vector<std::string> outputs, AtomicBlock::OutputFn fn,
                             CppSemantics cpp, std::string text_spec) {
    auto b = std::make_shared<AtomicBlock>(std::move(name), std::move(inputs), std::move(outputs),
                                           BlockClass::Combinational, std::vector<double>{},
                                           std::move(fn), AtomicBlock::UpdateFn{});
    if (!cpp.output_body.empty()) b->set_cpp_semantics(std::move(cpp));
    b->set_text_spec(std::move(text_spec));
    return b;
}

AtomicPtr make_moore(std::string name, std::vector<std::string> inputs,
                     std::vector<std::string> outputs, std::vector<double> init_state,
                     AtomicBlock::OutputFn output_fn, AtomicBlock::UpdateFn update_fn,
                     CppSemantics cpp, std::string text_spec) {
    auto b = std::make_shared<AtomicBlock>(std::move(name), std::move(inputs), std::move(outputs),
                                           BlockClass::MooreSequential, std::move(init_state),
                                           std::move(output_fn), std::move(update_fn));
    if (!cpp.output_body.empty() || !cpp.update_body.empty())
        b->set_cpp_semantics(std::move(cpp));
    b->set_text_spec(std::move(text_spec));
    return b;
}

AtomicPtr make_sequential(std::string name, std::vector<std::string> inputs,
                          std::vector<std::string> outputs, std::vector<double> init_state,
                          AtomicBlock::OutputFn output_fn, AtomicBlock::UpdateFn update_fn,
                          CppSemantics cpp, std::string text_spec) {
    auto b = std::make_shared<AtomicBlock>(std::move(name), std::move(inputs), std::move(outputs),
                                           BlockClass::Sequential, std::move(init_state),
                                           std::move(output_fn), std::move(update_fn));
    if (!cpp.output_body.empty() || !cpp.update_body.empty())
        b->set_cpp_semantics(std::move(cpp));
    b->set_text_spec(std::move(text_spec));
    return b;
}

AtomicPtr constant(double c) {
    return make_combinational(
        "Constant(" + lit(c) + ")", {}, {"y"},
        [c](auto, auto, std::span<double> y) { y[0] = c; },
        CppSemantics{"y0 = " + clit(c) + ";", ""}, "Constant " + lit(c));
}

AtomicPtr gain(double k) {
    return make_combinational(
        "Gain(" + lit(k) + ")", {"u"}, {"y"},
        [k](auto, std::span<const double> u, std::span<double> y) { y[0] = k * u[0]; },
        CppSemantics{"y0 = " + clit(k) + " * u0;", ""}, "Gain " + lit(k));
}

AtomicPtr sum(const std::string& signs) {
    std::vector<double> coef;
    for (const char s : signs) coef.push_back(s == '-' ? -1.0 : 1.0);
    std::string body = "y0 = 0.0";
    for (std::size_t i = 0; i < coef.size(); ++i)
        body += (coef[i] < 0 ? " - u" : " + u") + std::to_string(i);
    body += ";";
    return make_combinational(
        "Sum(" + signs + ")", numbered("u", coef.size()), {"y"},
        [coef](auto, std::span<const double> u, std::span<double> y) {
            double acc = 0.0;
            for (std::size_t i = 0; i < coef.size(); ++i) acc += coef[i] * u[i];
            y[0] = acc;
        },
        CppSemantics{body, ""}, "Sum " + signs);
}

AtomicPtr product(std::size_t n) {
    std::string body = "y0 = 1.0";
    for (std::size_t i = 0; i < n; ++i) body += " * u" + std::to_string(i);
    body += ";";
    return make_combinational(
        "Product" + std::to_string(n), numbered("u", n), {"y"},
        [](auto, std::span<const double> u, std::span<double> y) {
            y[0] = std::accumulate(u.begin(), u.end(), 1.0, std::multiplies<>());
        },
        CppSemantics{body, ""}, "Product " + std::to_string(n));
}

AtomicPtr unit_delay(double init) {
    auto b = make_moore(
        "UnitDelay(" + lit(init) + ")", {"u"}, {"y"}, {init},
        [](std::span<const double> s, auto, std::span<double> y) { y[0] = s[0]; },
        [](std::span<double> s, std::span<const double> u) { s[0] = u[0]; },
        CppSemantics{"y0 = s0;", "s0 = u0;"}, "UnitDelay " + lit(init));
    return b;
}

AtomicPtr integrator(double ts, double init) {
    return make_moore(
        "Integrator(" + lit(ts) + "," + lit(init) + ")", {"u"}, {"y"}, {init},
        [](std::span<const double> s, auto, std::span<double> y) { y[0] = s[0]; },
        [ts](std::span<double> s, std::span<const double> u) { s[0] += ts * u[0]; },
        CppSemantics{"y0 = s0;", "s0 = s0 + " + clit(ts) + " * u0;"}, "Integrator " + lit(ts) + " " + lit(init));
}

AtomicPtr fir2(double a, double b) {
    // State holds x(k-1).
    return make_sequential(
        "Fir2(" + lit(a) + "," + lit(b) + ")", {"x"}, {"y"}, {0.0},
        [a, b](std::span<const double> s, std::span<const double> x, std::span<double> y) {
            y[0] = a * x[0] + b * s[0];
        },
        [](std::span<double> s, std::span<const double> x) { s[0] = x[0]; },
        CppSemantics{"y0 = " + clit(a) + " * u0 + " + clit(b) + " * s0;", "s0 = u0;"}, "Fir2 " + lit(a) + " " + lit(b));
}

AtomicPtr saturation(double lo, double hi) {
    return make_combinational(
        "Saturation(" + lit(lo) + "," + lit(hi) + ")", {"u"}, {"y"},
        [lo, hi](auto, std::span<const double> u, std::span<double> y) {
            y[0] = std::clamp(u[0], lo, hi);
        },
        CppSemantics{"y0 = std::clamp(u0, " + clit(lo) + ", " + clit(hi) + ");", ""}, "Saturation " + lit(lo) + " " + lit(hi));
}

AtomicPtr divide() {
    return make_combinational(
        "Div", {"u1", "u2"}, {"y"},
        [](auto, std::span<const double> u, std::span<double> y) { y[0] = u[0] / u[1]; },
        CppSemantics{"y0 = u0 / u1;", ""}, "Div");
}

AtomicPtr abs_block() {
    return make_combinational(
        "Abs", {"u"}, {"y"},
        [](auto, std::span<const double> u, std::span<double> y) { y[0] = std::fabs(u[0]); },
        CppSemantics{"y0 = std::fabs(u0);", ""}, "Abs");
}

AtomicPtr min_block() {
    return make_combinational(
        "Min", {"u1", "u2"}, {"y"},
        [](auto, std::span<const double> u, std::span<double> y) { y[0] = std::min(u[0], u[1]); },
        CppSemantics{"y0 = std::min(u0, u1);", ""}, "Min");
}

AtomicPtr max_block() {
    return make_combinational(
        "Max", {"u1", "u2"}, {"y"},
        [](auto, std::span<const double> u, std::span<double> y) { y[0] = std::max(u[0], u[1]); },
        CppSemantics{"y0 = std::max(u0, u1);", ""}, "Max");
}

AtomicPtr relational(const std::string& op) {
    std::function<bool(double, double)> cmp;
    if (op == "<") cmp = [](double a, double b) { return a < b; };
    else if (op == "<=") cmp = [](double a, double b) { return a <= b; };
    else if (op == ">") cmp = [](double a, double b) { return a > b; };
    else if (op == ">=") cmp = [](double a, double b) { return a >= b; };
    else if (op == "==") cmp = [](double a, double b) { return a == b; };
    else if (op == "!=") cmp = [](double a, double b) { return a != b; };
    else throw ModelError("relational: unknown op '" + op + "'");
    return make_combinational(
        "Relational(" + op + ")", {"u1", "u2"}, {"y"},
        [cmp](auto, std::span<const double> u, std::span<double> y) {
            y[0] = cmp(u[0], u[1]) ? 1.0 : 0.0;
        },
        CppSemantics{"y0 = (u0 " + op + " u1) ? 1.0 : 0.0;", ""}, "Relational " + op);
}

AtomicPtr switch_block(double threshold) {
    return make_combinational(
        "Switch(" + lit(threshold) + ")", {"u1", "ctrl", "u2"}, {"y"},
        [threshold](auto, std::span<const double> u, std::span<double> y) {
            y[0] = u[1] >= threshold ? u[0] : u[2];
        },
        CppSemantics{"y0 = (u1 >= " + clit(threshold) + ") ? u0 : u2;", ""}, "Switch " + lit(threshold));
}

AtomicPtr logic(const std::string& op, std::size_t n) {
    if (op == "NOT") {
        return make_combinational(
            "Logic(NOT)", {"u1"}, {"y"},
            [](auto, std::span<const double> u, std::span<double> y) {
                y[0] = u[0] >= 0.5 ? 0.0 : 1.0;
            },
            CppSemantics{"y0 = (u0 >= 0.5) ? 0.0 : 1.0;", ""}, "Logic NOT 1");
    }
    std::function<bool(bool, bool)> join;
    std::string cxx_op;
    bool unit = true;
    if (op == "AND") { join = [](bool a, bool b) { return a && b; }; cxx_op = "&&"; }
    else if (op == "OR") { join = [](bool a, bool b) { return a || b; }; unit = false; cxx_op = "||"; }
    else if (op == "XOR") { join = [](bool a, bool b) { return a != b; }; unit = false; cxx_op = "!="; }
    else throw ModelError("logic: unknown op '" + op + "'");
    std::string expr = unit ? "true" : "false";
    for (std::size_t i = 0; i < n; ++i)
        expr = "(" + expr + " " + cxx_op + " (u" + std::to_string(i) + " >= 0.5))";
    return make_combinational(
        "Logic(" + op + std::to_string(n) + ")", numbered("u", n), {"y"},
        [join, unit](auto, std::span<const double> u, std::span<double> y) {
            bool acc = unit;
            for (const double v : u) acc = join(acc, v >= 0.5);
            y[0] = acc ? 1.0 : 0.0;
        },
        CppSemantics{"y0 = " + expr + " ? 1.0 : 0.0;", ""}, "Logic " + op + " " + std::to_string(n));
}

AtomicPtr dead_zone(double lo, double hi) {
    return make_combinational(
        "DeadZone(" + lit(lo) + "," + lit(hi) + ")", {"u"}, {"y"},
        [lo, hi](auto, std::span<const double> u, std::span<double> y) {
            if (u[0] < lo) y[0] = u[0] - lo;
            else if (u[0] > hi) y[0] = u[0] - hi;
            else y[0] = 0.0;
        },
        CppSemantics{"y0 = (u0 < " + clit(lo) + ") ? (u0 - " + clit(lo) + ") : (u0 > " + clit(hi) +
                         ") ? (u0 - " + clit(hi) + ") : 0.0;",
                     ""},
        "DeadZone " + lit(lo) + " " + lit(hi));
}

AtomicPtr lookup1d(std::vector<double> xs, std::vector<double> ys) {
    if (xs.size() != ys.size() || xs.size() < 2)
        throw ModelError("lookup1d: need >= 2 matching breakpoints");
    std::ostringstream body;
    body << "static const double xs[] = {";
    for (std::size_t i = 0; i < xs.size(); ++i) body << (i ? "," : "") << clit(xs[i]);
    body << "}; static const double ys[] = {";
    for (std::size_t i = 0; i < ys.size(); ++i) body << (i ? "," : "") << clit(ys[i]);
    body << "};\n";
    body << "    if (u0 <= xs[0]) { y0 = ys[0]; } else if (u0 >= xs[" << xs.size() - 1
         << "]) { y0 = ys[" << xs.size() - 1 << "]; } else {\n"
         << "      std::size_t hi = 1; while (xs[hi] <= u0) ++hi;\n"
         << "      const double t = (u0 - xs[hi-1]) / (xs[hi] - xs[hi-1]);\n"
         << "      y0 = ys[hi-1] + t * (ys[hi] - ys[hi-1]); }";
    std::string lut_spec = "Lookup1D";
    for (const double x : xs) lut_spec += " " + lit(x);
    lut_spec += " /";
    for (const double y : ys) lut_spec += " " + lit(y);
    return make_combinational(
        "Lookup1D" + std::to_string(xs.size()), {"u"}, {"y"},
        [xs = std::move(xs), ys = std::move(ys)](auto, std::span<const double> u,
                                                 std::span<double> y) {
            const double x = u[0];
            if (x <= xs.front()) { y[0] = ys.front(); return; }
            if (x >= xs.back()) { y[0] = ys.back(); return; }
            // The emitted `while (xs[hi] <= u0) ++hi;` over the interior
            // only: a NaN input stops at hi = 1 there instead of running
            // off the end of the table.
            const auto it = std::partition_point(xs.begin() + 1, xs.end() - 1,
                                                 [x](double v) { return v <= x; });
            const std::size_t hi = static_cast<std::size_t>(it - xs.begin());
            const std::size_t lo = hi - 1;
            const double t = (x - xs[lo]) / (xs[hi] - xs[lo]);
            y[0] = ys[lo] + t * (ys[hi] - ys[lo]);
        },
        CppSemantics{body.str(), ""}, lut_spec);
}

AtomicPtr moving_average(std::size_t n) {
    if (n < 2) throw ModelError("moving_average: need n >= 2");
    std::string out_body = "y0 = (u0";
    for (std::size_t i = 0; i + 1 < n; ++i) out_body += " + s" + std::to_string(i);
    out_body += ") / " + clit(static_cast<double>(n)) + ";";
    std::string upd_body;
    for (std::size_t i = 0; i + 2 < n; ++i)
        upd_body += "s" + std::to_string(i) + " = s" + std::to_string(i + 1) + "; ";
    upd_body += "s" + std::to_string(n - 2) + " = u0;";
    // State: ring of the previous n-1 samples (slot 0 = oldest).
    return make_sequential(
        "MovingAvg(" + std::to_string(n) + ")", {"u"}, {"y"},
        std::vector<double>(n - 1, 0.0),
        [n](std::span<const double> s, std::span<const double> u, std::span<double> y) {
            double acc = u[0];
            for (const double v : s) acc += v;
            y[0] = acc / static_cast<double>(n);
        },
        [](std::span<double> s, std::span<const double> u) {
            for (std::size_t i = 0; i + 1 < s.size(); ++i) s[i] = s[i + 1];
            s[s.size() - 1] = u[0];
        },
        CppSemantics{out_body, upd_body}, "MovingAvg " + std::to_string(n));
}

AtomicPtr first_order_filter(double b0, double b1, double a1) {
    // Direct form II: w(k) = u(k) - a1*w(k-1); y = b0*w(k) + b1*w(k-1).
    const std::string upd = "s0 = u0 - " + clit(a1) + " * s0;";
    if (b0 != 0.0) {
        return make_sequential(
            "Filter1(" + lit(b0) + "," + lit(b1) + "," + lit(a1) + ")", {"u"}, {"y"}, {0.0},
            [b0, b1, a1](std::span<const double> s, std::span<const double> u,
                         std::span<double> y) {
                const double w = u[0] - a1 * s[0];
                y[0] = b0 * w + b1 * s[0];
            },
            [a1](std::span<double> s, std::span<const double> u) { s[0] = u[0] - a1 * s[0]; },
            CppSemantics{"y0 = " + clit(b0) + " * (u0 - " + clit(a1) + " * s0) + " + clit(b1) +
                             " * s0;",
                         upd},
            "Filter1 " + lit(b0) + " " + lit(b1) + " " + lit(a1));
    }
    return make_moore(
        "Filter1(0," + lit(b1) + "," + lit(a1) + ")", {"u"}, {"y"}, {0.0},
        [b1](std::span<const double> s, std::span<const double>, std::span<double> y) {
            y[0] = b1 * s[0];
        },
        [a1](std::span<double> s, std::span<const double> u) { s[0] = u[0] - a1 * s[0]; },
        CppSemantics{"y0 = " + clit(b1) + " * s0;", upd}, "Filter1 0 " + lit(b1) + " " + lit(a1));
}

AtomicPtr counter() {
    return make_moore(
        "Counter", {"enable"}, {"y"}, {0.0},
        [](std::span<const double> s, auto, std::span<double> y) { y[0] = s[0]; },
        [](std::span<double> s, std::span<const double> u) {
            if (u[0] >= 0.5) s[0] += 1.0;
        },
        CppSemantics{"y0 = s0;", "if (u0 >= 0.5) s0 = s0 + 1.0;"}, "Counter");
}

AtomicPtr fanout(std::size_t m) {
    std::string body;
    for (std::size_t i = 0; i < m; ++i) body += "y" + std::to_string(i) + " = u0; ";
    return make_combinational(
        "Fanout" + std::to_string(m), {"u"}, numbered("y", m),
        [](auto, std::span<const double> u, std::span<double> y) {
            for (double& v : y) v = u[0];
        },
        CppSemantics{body, ""}, "Fanout " + std::to_string(m));
}

AtomicPtr sample_hold(double init) {
    return make_moore(
        "SampleHold(" + lit(init) + ")", {"u", "trigger"}, {"y"}, {init},
        [](std::span<const double> s, auto, std::span<double> y) { y[0] = s[0]; },
        [](std::span<double> s, std::span<const double> u) {
            if (u[1] >= 0.5) s[0] = u[0];
        },
        CppSemantics{"y0 = s0;", "if (u1 >= 0.5) s0 = u0;"}, "SampleHold " + lit(init));
}

AtomicPtr splitter2(double a1, double b1, double a2, double b2) {
    return make_combinational(
        "Split2(" + lit(a1) + "," + lit(b1) + "," + lit(a2) + "," + lit(b2) + ")", {"x"},
        {"z1", "z2"},
        [a1, b1, a2, b2](auto, std::span<const double> u, std::span<double> y) {
            y[0] = a1 * u[0] + b1;
            y[1] = a2 * u[0] + b2;
        },
        CppSemantics{"y0 = " + clit(a1) + " * u0 + " + clit(b1) + "; y1 = " + clit(a2) +
                         " * u0 + " + clit(b2) + ";",
                     ""},
        "Split2 " + lit(a1) + " " + lit(b1) + " " + lit(a2) + " " + lit(b2));
}

AtomicPtr clock_divider(std::size_t period, std::size_t phase) {
    if (period == 0) throw ModelError("clock_divider: period must be positive");
    phase %= period;
    // State: instant counter modulo period.
    const double p = static_cast<double>(period);
    const double ph = static_cast<double>(phase);
    return make_moore(
        "Clock(" + std::to_string(period) + "," + std::to_string(phase) + ")", {}, {"y"},
        {0.0},
        [ph](std::span<const double> s, auto, std::span<double> y) {
            y[0] = s[0] == ph ? 1.0 : 0.0;
        },
        [p](std::span<double> s, std::span<const double>) {
            s[0] = s[0] + 1.0 >= p ? 0.0 : s[0] + 1.0;
        },
        CppSemantics{"y0 = (s0 == " + clit(ph) + ") ? 1.0 : 0.0;",
                     "s0 = (s0 + 1.0 >= " + clit(p) + ") ? 0.0 : s0 + 1.0;"},
        "Clock " + std::to_string(period) + " " + std::to_string(phase));
}

} // namespace sbd::lib
