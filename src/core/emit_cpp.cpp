#include "core/emit_cpp.hpp"

#include <cctype>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "sbd/library.hpp"

namespace sbd::codegen {

namespace {

std::string sanitize_ident(const std::string& s) {
    std::string out;
    for (const char c : s)
        out += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
    if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0]))) out = "b_" + out;
    return out;
}

/// Unique C++ class names per block type.
class NameTable {
public:
    const std::string& of(const Block& b) {
        const auto it = names_.find(&b);
        if (it != names_.end()) return it->second;
        std::string base = sanitize_ident(b.type_name());
        std::string name = base;
        int n = 1;
        while (used_.contains(name)) name = base + "_" + std::to_string(++n);
        used_.insert(name);
        return names_.emplace(&b, std::move(name)).first->second;
    }

private:
    std::map<const Block*, std::string> names_;
    std::set<std::string> used_;
};

std::string return_type(std::size_t nout) {
    if (nout == 0) return "void";
    if (nout == 1) return "double";
    return "std::array<double, " + std::to_string(nout) + ">";
}

void emit_atomic(std::ostream& os, const AtomicBlock& a, const std::string& cls) {
    const auto cpp = lib::cpp_semantics(a);
    if (!cpp)
        throw std::runtime_error("emit_cpp: atomic block '" + a.type_name() +
                                 "' has no C++ semantics");
    const std::size_t nstate = a.initial_state().size();
    os << "class " << cls << " {\npublic:\n";
    // init(): restore initial state.
    os << "  void init() {";
    for (std::size_t i = 0; i < nstate; ++i)
        os << " s" << i << " = " << cpp_double_literal(a.initial_state()[i]) << ";";
    os << " }\n";
    // State serialization: the same flat-double layout the interpreter's
    // Instance::save_state uses, so snapshots cross backends bit-exactly.
    os << "  static constexpr std::size_t k_state_size = " << nstate << ";\n";
    os << "  void save_state(double*& p) const {";
    for (std::size_t i = 0; i < nstate; ++i) os << " *p++ = s" << i << ";";
    if (nstate == 0) os << " (void)p;";
    os << " }\n";
    os << "  void load_state(const double*& p) {";
    for (std::size_t i = 0; i < nstate; ++i) os << " s" << i << " = *p++;";
    if (nstate == 0) os << " (void)p;";
    os << " }\n";

    const auto params = [&](bool with_inputs) {
        std::string p;
        if (with_inputs)
            for (std::size_t i = 0; i < a.num_inputs(); ++i)
                p += (i ? ", double u" : "double u") + std::to_string(i);
        return p;
    };
    const auto output_epilogue = [&](std::ostream& o) {
        if (a.num_outputs() == 1) {
            o << "    return y0;\n";
        } else if (a.num_outputs() > 1) {
            o << "    return {";
            for (std::size_t i = 0; i < a.num_outputs(); ++i) o << (i ? ", y" : "y") << i;
            o << "};\n";
        }
    };
    const auto declare_outputs = [&](std::ostream& o) {
        if (a.num_outputs() == 0) return;
        o << "    double ";
        for (std::size_t i = 0; i < a.num_outputs(); ++i) o << (i ? ", y" : "y") << i << " = 0";
        o << ";\n";
    };

    if (a.block_class() == BlockClass::MooreSequential) {
        os << "  " << return_type(a.num_outputs()) << " get() {\n";
        declare_outputs(os);
        os << "    " << cpp->output_body << "\n";
        output_epilogue(os);
        os << "  }\n";
        os << "  void step(" << params(true) << ") {\n";
        os << "    " << cpp->update_body << "\n";
        // Silence unused-parameter warnings for inputs the body ignores.
        for (std::size_t i = 0; i < a.num_inputs(); ++i) os << "    (void)u" << i << ";\n";
        os << "  }\n";
    } else {
        os << "  " << return_type(a.num_outputs()) << " step(" << params(true) << ") {\n";
        declare_outputs(os);
        if (!cpp->output_body.empty()) os << "    " << cpp->output_body << "\n";
        if (a.block_class() == BlockClass::Sequential && !cpp->update_body.empty())
            os << "    " << cpp->update_body << "\n";
        for (std::size_t i = 0; i < a.num_inputs(); ++i) os << "    (void)u" << i << ";\n";
        output_epilogue(os);
        os << "  }\n";
    }
    if (!a.initial_state().empty()) {
        os << "private:\n ";
        for (std::size_t i = 0; i < a.initial_state().size(); ++i)
            os << " double s" << i << " = " << cpp_double_literal(a.initial_state()[i]) << ";";
        os << "\n";
    }
    os << "};\n\n";
}

void emit_macro(std::ostream& os, const CompiledBlock& cb, const MacroBlock& m,
                NameTable& names) {
    const CodeUnit& code = *cb.code;
    const std::string cls = names.of(m);
    os << "class " << cls << " {\npublic:\n";

    // init(): slots and counters back to zero, sub-blocks re-initialized —
    // the same full reset the interpreter performs, so a recycled native
    // instance is indistinguishable from a fresh one.
    os << "  void init() {\n";
    for (std::size_t slot = 0; slot < code.num_slots; ++slot)
        os << "    z_" << code.slot_names[slot] << " = 0;\n";
    for (std::size_t c = 0; c < code.counter_mods.size(); ++c)
        os << "    c" << c << " = 0;\n";
    for (std::size_t s = 0; s < m.num_subs(); ++s)
        os << "    m_" << sanitize_ident(m.sub(s).name) << ".init();\n";
    os << "  }\n";

    // State serialization, interpreter layout: slots, guard counters
    // (widened to double), then sub-instances depth-first in sub order.
    os << "  static constexpr std::size_t k_state_size = "
       << (code.num_slots + code.counter_mods.size());
    for (std::size_t s = 0; s < m.num_subs(); ++s)
        os << " + " << names.of(*m.sub(s).type) << "::k_state_size";
    os << ";\n";
    os << "  void save_state(double*& p) const {\n";
    for (std::size_t slot = 0; slot < code.num_slots; ++slot)
        os << "    *p++ = z_" << code.slot_names[slot] << ";\n";
    for (std::size_t c = 0; c < code.counter_mods.size(); ++c)
        os << "    *p++ = static_cast<double>(c" << c << ");\n";
    for (std::size_t s = 0; s < m.num_subs(); ++s)
        os << "    m_" << sanitize_ident(m.sub(s).name) << ".save_state(p);\n";
    if (code.num_slots + code.counter_mods.size() + m.num_subs() == 0) os << "    (void)p;\n";
    os << "  }\n";
    os << "  void load_state(const double*& p) {\n";
    for (std::size_t slot = 0; slot < code.num_slots; ++slot)
        os << "    z_" << code.slot_names[slot] << " = *p++;\n";
    for (std::size_t c = 0; c < code.counter_mods.size(); ++c)
        os << "    c" << c << " = static_cast<int>(*p++);\n";
    for (std::size_t s = 0; s < m.num_subs(); ++s)
        os << "    m_" << sanitize_ident(m.sub(s).name) << ".load_state(p);\n";
    if (code.num_slots + code.counter_mods.size() + m.num_subs() == 0) os << "    (void)p;\n";
    os << "  }\n";

    for (const GenFunction& fn : code.functions) {
        const auto param_name = [&](std::size_t port) {
            return "in_" + sanitize_ident(code.param_names[port]);
        };
        const auto value = [&](const ValueRef& v) -> std::string {
            if (v.kind == ValueRef::Kind::Param)
                return param_name(static_cast<std::size_t>(v.index));
            return "z_" + code.slot_names[v.index];
        };
        os << "  " << return_type(fn.sig.writes.size()) << " " << fn.sig.name << "(";
        for (std::size_t i = 0; i < fn.sig.reads.size(); ++i)
            os << (i ? ", double " : "double ") << param_name(fn.sig.reads[i]);
        os << ") {\n";
        std::string indent = "    ";
        for (const Stmt& s : fn.body) {
            if (const auto* gb = std::get_if<GuardBegin>(&s)) {
                os << indent << "if (c" << gb->counter << " == 0) {\n";
                indent += "  ";
            } else if (std::holds_alternative<GuardEnd>(s)) {
                indent.resize(indent.size() - 2);
                os << indent << "}\n";
            } else if (const auto* bump = std::get_if<BumpStmt>(&s)) {
                os << indent << "c" << bump->counter << " = (c" << bump->counter << " + 1) % "
                   << bump->mod << ";\n";
            } else if (const auto* assign = std::get_if<AssignStmt>(&s)) {
                os << indent << "z_" << code.slot_names[assign->dst_slot] << " = "
                   << value(assign->src) << ";\n";
            } else {
                const auto& call = std::get<CallStmt>(s);
                const std::string inst = "m_" + sanitize_ident(m.sub(call.sub).name);
                // Method name: last path component of the display callee.
                const std::string meth = call.callee.substr(call.callee.rfind('.') + 1);
                std::string invocation = inst + "." + meth + "(";
                for (std::size_t i = 0; i < call.args.size(); ++i)
                    invocation += (i ? ", " : "") + value(call.args[i]);
                invocation += ")";
                os << indent;
                // NaN triggers fire: the interpreter skips only when
                // trigger < 0.5, so the emitted guard must be the negation
                // of that comparison, not `>= 0.5` (which NaN fails).
                if (call.trigger) os << "if (!(" << value(*call.trigger) << " < 0.5)) ";
                if (call.results.empty()) {
                    os << invocation << ";\n";
                } else if (call.results.size() == 1) {
                    os << "z_" << code.slot_names[call.results[0]] << " = " << invocation
                       << ";\n";
                } else {
                    os << "{ const auto r = " << invocation << ";";
                    for (std::size_t i = 0; i < call.results.size(); ++i)
                        os << " z_" << code.slot_names[call.results[i]] << " = r[" << i << "];";
                    os << " }\n";
                }
            }
        }
        if (fn.returns.size() == 1) {
            os << "    return " << value(fn.returns[0]) << ";\n";
        } else if (fn.returns.size() > 1) {
            os << "    return {";
            for (std::size_t i = 0; i < fn.returns.size(); ++i)
                os << (i ? ", " : "") << value(fn.returns[i]);
            os << "};\n";
        }
        os << "  }\n";
    }

    os << "private:\n";
    for (std::size_t s = 0; s < m.num_subs(); ++s)
        os << "  " << names.of(*m.sub(s).type) << " m_" << sanitize_ident(m.sub(s).name)
           << ";\n";
    for (std::size_t slot = 0; slot < code.num_slots; ++slot)
        os << "  double z_" << code.slot_names[slot] << " = 0;\n";
    for (std::size_t c = 0; c < code.counter_mods.size(); ++c) os << "  int c" << c << " = 0;\n";
    os << "};\n\n";
}

} // namespace

std::string emit_cpp(const CompiledSystem& sys) {
    return "// Generated by sbdgen: modular code from a synchronous block diagram.\n"
           "#include <algorithm>\n#include <array>\n#include <cmath>\n#include <cstddef>\n\n" +
           emit_cpp_classes(sys);
}

std::string emit_cpp_classes(const CompiledSystem& sys) {
    std::ostringstream os;
    os << "namespace gen {\n\n";
    NameTable names;
    for (const Block* b : sys.order()) {
        const CompiledBlock& cb = sys.at(*b);
        if (b->is_opaque())
            throw std::runtime_error("emit_cpp: block '" + b->type_name() +
                                     "' is interface-only; supply its implementation to emit "
                                     "a complete program");
        if (b->is_atomic())
            emit_atomic(os, static_cast<const AtomicBlock&>(*b), names.of(*b));
        else
            emit_macro(os, cb, static_cast<const MacroBlock&>(*b), names);
    }
    os << "} // namespace gen\n";
    return os.str();
}

std::string emit_cpp_class_name(const CompiledSystem& sys, const Block& block) {
    // Rebuild the same name table emit_cpp produced (same visit order).
    NameTable names;
    for (const Block* b : sys.order()) names.of(*b);
    return names.of(block);
}

std::vector<std::vector<double>> lcg_input_trace(std::size_t num_inputs, std::size_t steps,
                                                 std::uint64_t seed) {
    std::vector<std::vector<double>> trace(steps, std::vector<double>(num_inputs));
    std::uint64_t s = seed;
    for (std::size_t t = 0; t < steps; ++t)
        for (std::size_t i = 0; i < num_inputs; ++i) {
            s = s * 6364136223846793005ULL + 1442695040888963407ULL;
            trace[t][i] = static_cast<double>((s >> 33) & 0xFFFF) / 4096.0 - 8.0;
        }
    return trace;
}

std::string emit_cpp_driver(const CompiledSystem& sys, std::size_t steps, std::uint64_t seed) {
    const CompiledBlock& root = sys.root();
    if (root.block->is_atomic())
        throw std::runtime_error("emit_cpp_driver: root must be a macro block");
    const auto& m = static_cast<const MacroBlock&>(*root.block);
    const Profile& p = root.profile;

    // PDG-consistent call order.
    graph::Digraph pdg(p.functions.size());
    for (const auto& [a, b] : p.pdg_edges)
        pdg.add_edge(static_cast<graph::NodeId>(a), static_cast<graph::NodeId>(b));
    const auto order = pdg.topological_order();
    if (!order) throw std::runtime_error("emit_cpp_driver: cyclic PDG");

    // Rebuild the same name table emit_cpp produced (same visit order).
    NameTable names;
    for (const Block* b : sys.order()) names.of(*b);
    std::ostringstream os;
    os << "#include <cstdio>\n#include <cstdint>\n\n"
       << "int main() {\n"
       << "  gen::" << names.of(m) << " root;\n"
       << "  root.init();\n"
       << "  std::uint64_t s = " << seed << "ULL;\n"
       << "  auto rnd = [&]() { s = s * 6364136223846793005ULL + 1442695040888963407ULL;\n"
       << "    return static_cast<double>((s >> 33) & 0xFFFF) / 4096.0 - 8.0; };\n"
       << "  double in[" << std::max<std::size_t>(m.num_inputs(), 1) << "];\n"
       << "  double out[" << std::max<std::size_t>(m.num_outputs(), 1) << "];\n"
       << "  for (std::size_t t = 0; t < " << steps << "; ++t) {\n"
       << "    for (std::size_t i = 0; i < " << m.num_inputs() << "; ++i) in[i] = rnd();\n";
    for (const auto f : *order) {
        const InterfaceFunction& fn = p.functions[f];
        std::string call = "root." + fn.name + "(";
        for (std::size_t i = 0; i < fn.reads.size(); ++i)
            call += (i ? ", in[" : "in[") + std::to_string(fn.reads[i]) + "]";
        call += ")";
        if (fn.writes.empty()) {
            os << "    " << call << ";\n";
        } else if (fn.writes.size() == 1) {
            os << "    out[" << fn.writes[0] << "] = " << call << ";\n";
        } else {
            os << "    { const auto r = " << call << ";";
            for (std::size_t i = 0; i < fn.writes.size(); ++i)
                os << " out[" << fn.writes[i] << "] = r[" << i << "];";
            os << " }\n";
        }
    }
    os << "    for (std::size_t o = 0; o < " << m.num_outputs()
       << "; ++o) std::printf(\"%.17g\\n\", out[o]);\n"
       << "  }\n  return 0;\n}\n";
    return os.str();
}

} // namespace sbd::codegen
