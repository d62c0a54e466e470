// Emission of the native module translation unit: a header-free prelude,
// the generated classes from core/emit_cpp, and the extern "C" ABI shim
// that exposes one root-block class through a C symbol table dlopen can
// bind. The unit includes no header and needs no C++ runtime, so the
// module links against libc alone (see kBaseFlags in backend.cpp).
#include <functional>
#include <sstream>
#include <stdexcept>

#include "core/emit_cpp.hpp"
#include "core/fingerprint.hpp"
#include "native/native.hpp"

namespace sbd::native {

namespace {

/// Stands in for the std headers the generated classes would include. It
/// supplies only what the CppSemantics bodies and the class printer use;
/// `gen` sees it as `std`. min, max and clamp copy libstdc++'s comparison
/// order, so NaN and signed-zero operands pick the same result bits as the
/// interpreter's std:: calls.
constexpr const char* kPrelude =
    R"(// Generated by sbdgen: a native module for a synchronous block diagram.
// Self-contained: no #include, no C++ runtime.
namespace sbd_rt {
typedef __SIZE_TYPE__ size_t;
typedef __UINT32_TYPE__ uint32_t;
typedef __UINT64_TYPE__ uint64_t;
template <typename T, size_t N> struct array {
  T elems[N];
  T& operator[](size_t i) { return elems[i]; }
  const T& operator[](size_t i) const { return elems[i]; }
};
template <typename T> constexpr const T& min(const T& a, const T& b) {
  if (b < a) return b;
  return a;
}
template <typename T> constexpr const T& max(const T& a, const T& b) {
  if (a < b) return b;
  return a;
}
template <typename T> constexpr const T& clamp(const T& v, const T& lo, const T& hi) {
  return sbd_rt::min(sbd_rt::max(v, lo), hi);
}
inline double fabs(double x) { return __builtin_fabs(x); }
struct place_t {};
template <typename T> void destroy(T* p) { p->~T(); }
} // namespace sbd_rt
inline void* operator new(sbd_rt::size_t, void* p, sbd_rt::place_t) noexcept { return p; }
namespace gen { namespace std = ::sbd_rt; }

)";

/// A PDG-consistent interface-function order for the root profile — the
/// same order the interpreter precomputes, so the exported step() visits
/// functions identically on both backends.
std::vector<std::size_t> pdg_order(const codegen::Profile& p) {
    graph::Digraph pdg(p.functions.size());
    for (const auto& [a, b] : p.pdg_edges)
        pdg.add_edge(static_cast<graph::NodeId>(a), static_cast<graph::NodeId>(b));
    const auto order = pdg.topological_order();
    if (!order) throw std::runtime_error("emit_native_module: cyclic PDG");
    return {order->begin(), order->end()};
}

/// `root.fn(args[i]...)` with arguments drawn via `arg(i)`.
std::string invocation(const codegen::InterfaceFunction& fn,
                       const std::string& obj,
                       const std::function<std::string(std::size_t)>& arg) {
    std::string call = obj + "." + fn.name + "(";
    for (std::size_t i = 0; i < fn.reads.size(); ++i) call += (i ? ", " : "") + arg(i);
    call += ")";
    return call;
}

void emit_call_result(std::ostream& os, const codegen::InterfaceFunction& fn,
                      const std::string& call,
                      const std::function<std::string(std::size_t)>& dst) {
    if (fn.writes.empty()) {
        os << "    " << call << ";\n";
    } else if (fn.writes.size() == 1) {
        os << "    " << dst(0) << " = " << call << ";\n";
    } else {
        os << "    { const auto r = " << call << ";";
        for (std::size_t i = 0; i < fn.writes.size(); ++i)
            os << " " << dst(i) << " = r[" << i << "];";
        os << " }\n";
    }
}

} // namespace

std::string emit_native_module(const codegen::CompiledSystem& sys) {
    const codegen::CompiledBlock& root = sys.root();
    const codegen::Profile& p = root.profile;
    const std::string cls = "gen::" + codegen::emit_cpp_class_name(sys, *root.block);
    const std::vector<std::size_t> order = pdg_order(p);
    const std::string key =
        codegen::fingerprint_block(*root.block).hex(); // method/options mixed in by the store

    std::ostringstream os;
    os << kPrelude << codegen::emit_cpp_classes(sys);
    os << "\n// --- sbdgen native ABI shim (see src/native/module.hpp) ---\n"
       << "extern \"C\" {\n\n"
       << "sbd_rt::uint32_t sbd_nat_abi() { return " << kAbiVersion << "u; }\n"
       << "const char* sbd_nat_key() { return \"" << key << "\"; }\n"
       << "sbd_rt::uint64_t sbd_nat_num_inputs() { return " << root.block->num_inputs()
       << "u; }\n"
       << "sbd_rt::uint64_t sbd_nat_num_outputs() { return " << root.block->num_outputs()
       << "u; }\n"
       << "sbd_rt::uint64_t sbd_nat_num_functions() { return " << p.functions.size()
       << "u; }\n"
       << "sbd_rt::uint64_t sbd_nat_state_size() { return " << cls << "::k_state_size; }\n\n"
       // malloc/free from libc instead of new/delete from the C++ runtime;
       // a failed malloc returns nullptr, which the loader reports.
       << "void* sbd_nat_create() {\n"
       << "  void* p = __builtin_malloc(sizeof(" << cls << "));\n"
       << "  return p == nullptr ? nullptr : new (p, sbd_rt::place_t{}) " << cls << "();\n"
       << "}\n"
       << "void sbd_nat_destroy(void* h) {\n"
       << "  if (h == nullptr) return;\n"
       << "  sbd_rt::destroy(static_cast<" << cls << "*>(h));\n"
       << "  __builtin_free(h);\n"
       << "}\n"
       << "void sbd_nat_init(void* h) { static_cast<" << cls << "*>(h)->init(); }\n"
       << "void sbd_nat_save(const void* h, double* out) {\n"
       << "  double* p = out;\n"
       << "  static_cast<const " << cls << "*>(h)->save_state(p);\n"
       << "}\n"
       << "void sbd_nat_load(void* h, const double* in) {\n"
       << "  const double* p = in;\n"
       << "  static_cast<" << cls << "*>(h)->load_state(p);\n"
       << "}\n\n";

    // sbd_nat_call: one switch case per interface function. Arguments arrive
    // in reads order, results leave in writes order — exactly the
    // codegen::Instance::call_into contract.
    os << "void sbd_nat_call(void* h, sbd_rt::uint32_t fn, const double* args, "
          "double* results) {\n"
       << "  " << cls << "& root = *static_cast<" << cls << "*>(h);\n"
       << "  (void)args; (void)results;\n"
       << "  switch (fn) {\n";
    for (std::size_t f = 0; f < p.functions.size(); ++f) {
        const codegen::InterfaceFunction& fn = p.functions[f];
        os << "  case " << f << ":\n";
        const std::string call = invocation(
            fn, "root", [](std::size_t i) { return "args[" + std::to_string(i) + "]"; });
        emit_call_result(os, fn, call,
                         [](std::size_t i) { return "results[" + std::to_string(i) + "]"; });
        os << "    break;\n";
    }
    os << "  default: break;\n  }\n}\n\n";

    // sbd_nat_step: one full synchronous instant in PDG order, outputs
    // zero-filled first — the interpreter's step_instant_into, compiled.
    os << "void sbd_nat_step(void* h, const double* in, double* out) {\n"
       << "  " << cls << "& root = *static_cast<" << cls << "*>(h);\n"
       << "  (void)in;\n";
    if (root.block->num_outputs() > 0)
        os << "  for (sbd_rt::uint64_t o = 0; o < " << root.block->num_outputs()
           << "u; ++o) out[o] = 0.0;\n";
    else
        os << "  (void)out;\n";
    for (const std::size_t f : order) {
        const codegen::InterfaceFunction& fn = p.functions[f];
        const std::string call = invocation(fn, "root", [&](std::size_t i) {
            return "in[" + std::to_string(fn.reads[i]) + "]";
        });
        emit_call_result(os, fn, call, [&](std::size_t i) {
            return "out[" + std::to_string(fn.writes[i]) + "]";
        });
    }
    os << "}\n\n} // extern \"C\"\n";
    return os.str();
}

} // namespace sbd::native
