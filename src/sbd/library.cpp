#include "sbd/library.hpp"

#include <algorithm>
#include <cmath>

namespace sbd::lib {

namespace {

constexpr OpRow kOps[] = {
    {Op::Constant, "Constant", "n"},     {Op::Gain, "Gain", "n"},
    {Op::Sum, "Sum", "w"},               {Op::Product, "Product", "k"},
    {Op::UnitDelay, "UnitDelay", "n"},   {Op::Integrator, "Integrator", "nn"},
    {Op::Fir2, "Fir2", "nn"},            {Op::Saturation, "Saturation", "nn"},
    {Op::Abs, "Abs", ""},                {Op::Div, "Div", ""},
    {Op::Min, "Min", ""},                {Op::Max, "Max", ""},
    {Op::Relational, "Relational", "w"}, {Op::Switch, "Switch", "n"},
    {Op::Logic, "Logic", "wk"},          {Op::DeadZone, "DeadZone", "nn"},
    {Op::Lookup1D, "Lookup1D", "/"},     {Op::MovingAvg, "MovingAvg", "k"},
    {Op::Filter1, "Filter1", "nnn"},     {Op::Counter, "Counter", ""},
    {Op::Fanout, "Fanout", "k"},         {Op::SampleHold, "SampleHold", "n"},
    {Op::Split2, "Split2", "nnnn"},      {Op::Clock, "Clock", "kk"},
};

constexpr bool in_op_order() {
    for (std::size_t i = 0; i < std::size(kOps); ++i)
        if (kOps[i].op != static_cast<Op>(i)) return false;
    return std::size(kOps) == static_cast<std::size_t>(Op::Custom);
}
static_assert(in_op_order(), "one op table row per Op, in Op order");

const OpRow& row(Op op) { return kOps[static_cast<std::size_t>(op)]; }

/// Parameter i of `o` as a count. The parser admits only integers in
/// [0, 2^64), and the factories store size_t values, so the cast is exact.
std::size_t count(const Atom& o, std::size_t i) { return static_cast<std::size_t>(o.nums[i]); }

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

/// The .sbd spec of a library atom: its name, then its parameters.
std::string spec_of(const Atom& o) {
    std::string s = row(o.op).name;
    std::size_t k = 0;
    for (const char* c = row(o.op).params; *c != '\0'; ++c) {
        if (*c == 'w') {
            s += " " + o.word;
        } else if (*c == 'k') {
            s += " " + std::to_string(count(o, k++));
        } else if (*c == 'n') {
            // Filter1's Moore form (b0 == 0) spells b0 as a bare "0".
            const double v = o.nums[k++];
            s += " " + (o.op == Op::Filter1 && k == 1 && v == 0.0 ? "0" : lit(v));
        } else { // '/': Lookup1D's breakpoints, then its values
            for (std::size_t j = 0; j < o.nums.size(); ++j)
                s += (j == o.nums.size() / 2 ? " / " : " ") + lit(o.nums[j]);
        }
    }
    return s;
}

/// The type name: the spec as "Name(p1,p2,...)", but for the ops below.
std::string type_name(const Atom& o) {
    const std::string name = row(o.op).name;
    switch (o.op) {
    case Op::Product:
    case Op::Fanout: return name + std::to_string(count(o, 0));
    // Every table is named "Lookup1D0", without its size: GCC builds have
    // always spelled it so, and fingerprints and emitted class names include
    // the name.
    case Op::Lookup1D: return name + "0";
    case Op::Logic:
        return name + "(" + o.word + (o.word == "NOT" ? "" : std::to_string(count(o, 0))) + ")";
    default: break;
    }
    std::string s = spec_of(o);
    if (s.size() == name.size()) return s;
    std::replace(s.begin(), s.end(), ' ', ',');
    s[name.size()] = '(';
    return s + ")";
}

const char* const kBadLookup = "lookup1d: need >= 2 matching breakpoints";

/// a <op> b for a Relational operator that make() validated.
bool compare(const std::string& op, double a, double b) {
    if (op == "!=") return a != b;
    return (a < b && op[0] == '<') || (a > b && op[0] == '>') || (a == b && op.back() == '=');
}

} // namespace

std::span<const OpRow> op_table() { return kOps; }

AtomicPtr make(Atom o) {
    using enum BlockClass;
    std::vector<std::string> in{"u"}, out{"y"};
    BlockClass cls = Combinational;
    std::vector<double> init; // initial state
    switch (o.op) {
    case Op::Constant: in.clear(); break;
    case Op::Sum: in = numbered("u", o.word.size()); break;
    case Op::Product: in = numbered("u", count(o, 0)); break;
    case Op::UnitDelay: cls = MooreSequential; init = {o.nums[0]}; break;
    case Op::Integrator: cls = MooreSequential; init = {o.nums[1]}; break;
    case Op::Fir2: in = {"x"}; cls = Sequential; init = {0.0}; break; // x(k-1)
    case Op::Relational:
        if (o.word != "<" && o.word != "<=" && o.word != ">" && o.word != ">=" &&
            o.word != "==" && o.word != "!=")
            throw ModelError("relational: unknown op '" + o.word + "'");
        [[fallthrough]];
    case Op::Div:
    case Op::Min:
    case Op::Max: in = {"u1", "u2"}; break;
    case Op::Switch: in = {"u1", "ctrl", "u2"}; break;
    case Op::Logic:
        if (o.word == "NOT") o.nums = {1.0};
        else if (o.word != "AND" && o.word != "OR" && o.word != "XOR")
            throw ModelError("logic: unknown op '" + o.word + "'");
        in = numbered("u", count(o, 0));
        break;
    case Op::Lookup1D:
        if (o.nums.size() < 4 || o.nums.size() % 2 != 0) throw ModelError(kBadLookup);
        break;
    case Op::MovingAvg: // the previous n-1 samples, slot 0 the oldest
        if (count(o, 0) < 2) throw ModelError("moving_average: need n >= 2");
        cls = Sequential;
        init.assign(count(o, 0) - 1, 0.0);
        break;
    case Op::Filter1: cls = o.nums[0] != 0.0 ? Sequential : MooreSequential; init = {0.0}; break;
    case Op::Counter: in = {"enable"}; cls = MooreSequential; init = {0.0}; break;
    case Op::Fanout: out = numbered("y", count(o, 0)); break;
    case Op::SampleHold: in = {"u", "trigger"}; cls = MooreSequential; init = {o.nums[0]}; break;
    case Op::Split2: in = {"x"}; out = {"z1", "z2"}; break;
    case Op::Clock: // the instant counter modulo the period
        if (count(o, 0) == 0) throw ModelError("clock_divider: period must be positive");
        o.nums[1] = static_cast<double>(count(o, 1) % count(o, 0));
        in.clear(); cls = MooreSequential; init = {0.0}; break;
    case Op::Custom: throw ModelError("lib::make: Custom is not a library op");
    default: break;
    }
    std::string name = type_name(o);
    return std::make_shared<AtomicBlock>(std::move(name), std::move(in), std::move(out), cls,
                                         std::move(init), std::move(o));
}

void compute_outputs(const Atom& o, std::span<const double> s, std::span<const double> u,
                     std::span<double> y) {
    const double* p = o.nums.data();
    switch (o.op) {
    case Op::Constant: y[0] = p[0]; return;
    case Op::Gain: y[0] = p[0] * u[0]; return;
    case Op::Sum: {
        double acc = 0.0;
        for (std::size_t i = 0; i < o.word.size(); ++i)
            acc += (o.word[i] == '-' ? -1.0 : 1.0) * u[i];
        y[0] = acc;
        return;
    }
    case Op::Product: {
        double acc = 1.0;
        for (const double v : u) acc = acc * v;
        y[0] = acc;
        return;
    }
    case Op::UnitDelay:
    case Op::Integrator:
    case Op::Counter:
    case Op::SampleHold: y[0] = s[0]; return;
    case Op::Fir2: y[0] = p[0] * u[0] + p[1] * s[0]; return;
    case Op::Saturation: y[0] = std::clamp(u[0], p[0], p[1]); return;
    case Op::Abs: y[0] = std::fabs(u[0]); return;
    case Op::Div: y[0] = u[0] / u[1]; return;
    case Op::Min: y[0] = std::min(u[0], u[1]); return;
    case Op::Max: y[0] = std::max(u[0], u[1]); return;
    case Op::Relational: y[0] = compare(o.word, u[0], u[1]) ? 1.0 : 0.0; return;
    case Op::Switch: y[0] = u[1] >= p[0] ? u[0] : u[2]; return;
    case Op::Logic: { // 'N'OT, 'A'ND, 'O'R or 'X'OR
        const char op = o.word[0];
        bool acc = op == 'A';
        for (const double v : u) {
            const bool b = v >= 0.5;
            acc = op == 'N' ? !b : op == 'A' ? acc && b : op == 'O' ? acc || b : acc != b;
        }
        y[0] = acc ? 1.0 : 0.0;
        return;
    }
    case Op::DeadZone: y[0] = u[0] < p[0] ? u[0] - p[0] : u[0] > p[1] ? u[0] - p[1] : 0.0; return;
    case Op::Lookup1D: {
        const std::size_t n = o.nums.size() / 2;
        const double* xs = p;
        const double* ys = p + n;
        const double x = u[0];
        if (x <= xs[0]) { y[0] = ys[0]; return; }
        if (x >= xs[n - 1]) { y[0] = ys[n - 1]; return; }
        // The emitted `while (xs[hi] <= u0) ++hi;` over the interior only:
        // a NaN input stops at hi = 1 there instead of running off the end
        // of the table.
        const std::size_t hi = static_cast<std::size_t>(
            std::partition_point(xs + 1, xs + n - 1, [x](double v) { return v <= x; }) - xs);
        const double t = (x - xs[hi - 1]) / (xs[hi] - xs[hi - 1]);
        y[0] = ys[hi - 1] + t * (ys[hi] - ys[hi - 1]);
        return;
    }
    case Op::MovingAvg: {
        double acc = u[0];
        for (const double v : s) acc += v;
        y[0] = acc / p[0];
        return;
    }
    case Op::Filter1:
        // w(k) = u(k) - a1*w(k-1); y = b0*w(k) + b1*w(k-1). The Moore form
        // (b0 == 0) never reads its (empty) input span.
        y[0] = p[0] != 0.0 ? p[0] * (u[0] - p[2] * s[0]) + p[1] * s[0] : p[1] * s[0];
        return;
    case Op::Fanout: std::fill(y.begin(), y.end(), u[0]); return;
    case Op::Split2: y[0] = p[0] * u[0] + p[1]; y[1] = p[2] * u[0] + p[3]; return;
    case Op::Clock: y[0] = s[0] == p[1] ? 1.0 : 0.0; return;
    case Op::Custom: return;
    }
}

void update_state(const Atom& o, std::span<double> s, std::span<const double> u) {
    const double* p = o.nums.data();
    switch (o.op) {
    case Op::UnitDelay:
    case Op::Fir2: s[0] = u[0]; return;
    case Op::Integrator: s[0] += p[0] * u[0]; return;
    case Op::MovingAvg:
        std::copy(s.begin() + 1, s.end(), s.begin());
        s.back() = u[0];
        return;
    case Op::Filter1: s[0] = u[0] - p[2] * s[0]; return;
    case Op::Counter: if (u[0] >= 0.5) s[0] += 1.0; return;
    case Op::SampleHold: if (u[1] >= 0.5) s[0] = u[0]; return;
    case Op::Clock: s[0] = s[0] + 1.0 >= p[0] ? 0.0 : s[0] + 1.0; return;
    default: return; // stateless
    }
}

std::optional<CppSemantics> cpp_semantics(const AtomicBlock& a) {
    const Atom& o = a.atom();
    std::vector<std::string> c; // the parameters as C++ literals
    for (const double v : o.nums) c.push_back(cpp_double_literal(v));
    std::string y;
    switch (o.op) {
    case Op::Constant: return CppSemantics{"y0 = " + c[0] + ";", ""};
    case Op::Gain: return CppSemantics{"y0 = " + c[0] + " * u0;", ""};
    case Op::Sum:
        y = "y0 = 0.0";
        for (std::size_t i = 0; i < o.word.size(); ++i)
            y += (o.word[i] == '-' ? " - u" : " + u") + std::to_string(i);
        return CppSemantics{y + ";", ""};
    case Op::Product:
        y = "y0 = 1.0";
        for (std::size_t i = 0; i < a.num_inputs(); ++i) y += " * u" + std::to_string(i);
        return CppSemantics{y + ";", ""};
    case Op::UnitDelay: return CppSemantics{"y0 = s0;", "s0 = u0;"};
    case Op::Integrator: return CppSemantics{"y0 = s0;", "s0 = s0 + " + c[0] + " * u0;"};
    case Op::Fir2: return CppSemantics{"y0 = " + c[0] + " * u0 + " + c[1] + " * s0;", "s0 = u0;"};
    case Op::Saturation:
        return CppSemantics{"y0 = std::clamp(u0, " + c[0] + ", " + c[1] + ");", ""};
    case Op::Abs: return CppSemantics{"y0 = std::fabs(u0);", ""};
    case Op::Div: return CppSemantics{"y0 = u0 / u1;", ""};
    case Op::Min: return CppSemantics{"y0 = std::min(u0, u1);", ""};
    case Op::Max: return CppSemantics{"y0 = std::max(u0, u1);", ""};
    case Op::Relational: return CppSemantics{"y0 = (u0 " + o.word + " u1) ? 1.0 : 0.0;", ""};
    case Op::Switch: return CppSemantics{"y0 = (u1 >= " + c[0] + ") ? u0 : u2;", ""};
    case Op::Logic: {
        if (o.word == "NOT") return CppSemantics{"y0 = (u0 >= 0.5) ? 0.0 : 1.0;", ""};
        const std::string op = o.word == "AND" ? "&&" : o.word == "OR" ? "||" : "!=";
        y = o.word == "AND" ? "true" : "false";
        for (std::size_t i = 0; i < a.num_inputs(); ++i)
            y = "(" + y + " " + op + " (u" + std::to_string(i) + " >= 0.5))";
        return CppSemantics{"y0 = " + y + " ? 1.0 : 0.0;", ""};
    }
    case Op::DeadZone:
        return CppSemantics{"y0 = (u0 < " + c[0] + ") ? (u0 - " + c[0] + ") : (u0 > " + c[1] +
                                ") ? (u0 - " + c[1] + ") : 0.0;",
                            ""};
    case Op::Lookup1D: {
        const std::size_t n = c.size() / 2;
        std::string xs, ys;
        for (std::size_t i = 0; i < n; ++i) {
            xs += (i ? "," : "") + c[i];
            ys += (i ? "," : "") + c[n + i];
        }
        const std::string last = std::to_string(n - 1);
        return CppSemantics{
            "static const double xs[] = {" + xs + "}; static const double ys[] = {" + ys +
                "};\n    if (u0 <= xs[0]) { y0 = ys[0]; } else if (u0 >= xs[" + last +
                "]) { y0 = ys[" + last + "]; } else {\n"
                "      std::size_t hi = 1; while (xs[hi] <= u0) ++hi;\n"
                "      const double t = (u0 - xs[hi-1]) / (xs[hi] - xs[hi-1]);\n"
                "      y0 = ys[hi-1] + t * (ys[hi] - ys[hi-1]); }",
            ""};
    }
    case Op::MovingAvg: {
        const std::size_t n = count(o, 0);
        std::string s;
        y = "y0 = (u0";
        for (std::size_t i = 0; i + 1 < n; ++i) y += " + s" + std::to_string(i);
        for (std::size_t i = 0; i + 2 < n; ++i)
            s += "s" + std::to_string(i) + " = s" + std::to_string(i + 1) + "; ";
        return CppSemantics{y + ") / " + c[0] + ";", s + "s" + std::to_string(n - 2) + " = u0;"};
    }
    case Op::Filter1:
        return CppSemantics{o.nums[0] != 0.0 ? "y0 = " + c[0] + " * (u0 - " + c[2] + " * s0) + " +
                                                   c[1] + " * s0;"
                                             : "y0 = " + c[1] + " * s0;",
                            "s0 = u0 - " + c[2] + " * s0;"};
    case Op::Counter: return CppSemantics{"y0 = s0;", "if (u0 >= 0.5) s0 = s0 + 1.0;"};
    case Op::Fanout:
        for (std::size_t i = 0; i < a.num_outputs(); ++i) y += "y" + std::to_string(i) + " = u0; ";
        if (y.empty()) return std::nullopt; // Fanout 0: nothing to emit
        return CppSemantics{y, ""};
    case Op::SampleHold: return CppSemantics{"y0 = s0;", "if (u1 >= 0.5) s0 = u0;"};
    case Op::Split2:
        return CppSemantics{
            "y0 = " + c[0] + " * u0 + " + c[1] + "; y1 = " + c[2] + " * u0 + " + c[3] + ";", ""};
    case Op::Clock:
        return CppSemantics{"y0 = (s0 == " + c[1] + ") ? 1.0 : 0.0;",
                            "s0 = (s0 + 1.0 >= " + c[0] + ") ? 0.0 : s0 + 1.0;"};
    case Op::Custom: break;
    }
    return std::nullopt;
}

std::string sbd_spec(const AtomicBlock& a) {
    return a.atom().op == Op::Custom ? std::string() : spec_of(a.atom());
}

AtomicPtr make_combinational(std::string name, std::vector<std::string> inputs,
                             std::vector<std::string> outputs, AtomicBlock::OutputFn fn) {
    return std::make_shared<AtomicBlock>(std::move(name), std::move(inputs), std::move(outputs),
                                         BlockClass::Combinational, std::vector<double>{},
                                         std::move(fn), AtomicBlock::UpdateFn{});
}

AtomicPtr make_moore(std::string name, std::vector<std::string> inputs,
                     std::vector<std::string> outputs, std::vector<double> init_state,
                     AtomicBlock::OutputFn output_fn, AtomicBlock::UpdateFn update_fn) {
    return std::make_shared<AtomicBlock>(std::move(name), std::move(inputs), std::move(outputs),
                                         BlockClass::MooreSequential, std::move(init_state),
                                         std::move(output_fn), std::move(update_fn));
}

AtomicPtr make_sequential(std::string name, std::vector<std::string> inputs,
                          std::vector<std::string> outputs, std::vector<double> init_state,
                          AtomicBlock::OutputFn output_fn, AtomicBlock::UpdateFn update_fn) {
    return std::make_shared<AtomicBlock>(std::move(name), std::move(inputs), std::move(outputs),
                                         BlockClass::Sequential, std::move(init_state),
                                         std::move(output_fn), std::move(update_fn));
}

AtomicPtr constant(double c) { return make({Op::Constant, {c}, {}}); }
AtomicPtr gain(double k) { return make({Op::Gain, {k}, {}}); }
AtomicPtr sum(const std::string& signs) { return make({Op::Sum, {}, signs}); }
AtomicPtr product(std::size_t n) { return make({Op::Product, {static_cast<double>(n)}, {}}); }
AtomicPtr unit_delay(double init) { return make({Op::UnitDelay, {init}, {}}); }
AtomicPtr integrator(double ts, double init) { return make({Op::Integrator, {ts, init}, {}}); }
AtomicPtr fir2(double a, double b) { return make({Op::Fir2, {a, b}, {}}); }
AtomicPtr saturation(double lo, double hi) { return make({Op::Saturation, {lo, hi}, {}}); }
AtomicPtr abs_block() { return make({Op::Abs, {}, {}}); }
AtomicPtr divide() { return make({Op::Div, {}, {}}); }
AtomicPtr min_block() { return make({Op::Min, {}, {}}); }
AtomicPtr max_block() { return make({Op::Max, {}, {}}); }
AtomicPtr relational(const std::string& op) { return make({Op::Relational, {}, op}); }
AtomicPtr switch_block(double threshold) { return make({Op::Switch, {threshold}, {}}); }
AtomicPtr logic(const std::string& op, std::size_t n) {
    return make({Op::Logic, {static_cast<double>(n)}, op});
}
AtomicPtr dead_zone(double lo, double hi) { return make({Op::DeadZone, {lo, hi}, {}}); }
AtomicPtr lookup1d(std::vector<double> xs, std::vector<double> ys) {
    if (xs.size() != ys.size()) throw ModelError(kBadLookup);
    xs.insert(xs.end(), ys.begin(), ys.end());
    return make({Op::Lookup1D, std::move(xs), {}});
}
AtomicPtr moving_average(std::size_t n) {
    return make({Op::MovingAvg, {static_cast<double>(n)}, {}});
}
AtomicPtr first_order_filter(double b0, double b1, double a1) {
    return make({Op::Filter1, {b0, b1, a1}, {}});
}
AtomicPtr counter() { return make({Op::Counter, {}, {}}); }
AtomicPtr fanout(std::size_t m) { return make({Op::Fanout, {static_cast<double>(m)}, {}}); }
AtomicPtr sample_hold(double init) { return make({Op::SampleHold, {init}, {}}); }
AtomicPtr splitter2(double a1, double b1, double a2, double b2) {
    return make({Op::Split2, {a1, b1, a2, b2}, {}});
}
AtomicPtr clock_divider(std::size_t period, std::size_t phase) {
    return make({Op::Clock, {static_cast<double>(period), static_cast<double>(phase)}, {}});
}

} // namespace sbd::lib
