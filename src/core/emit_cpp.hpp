#ifndef SBD_CORE_EMIT_CPP_HPP
#define SBD_CORE_EMIT_CPP_HPP

#include <cstdint>
#include <string>

#include "core/compiler.hpp"

namespace sbd::codegen {

/// Emits a self-contained C++17 translation unit implementing every block
/// type reachable from the compiled system's root, one class per type, in
/// namespace `gen`. Macro-block classes are the generated modular code
/// (interface functions + persistent slots + guard counters + init());
/// atomic-block classes are emitted from their CppSemantics bodies.
///
/// Throws std::runtime_error if some atomic block lacks CppSemantics.
std::string emit_cpp(const CompiledSystem& sys);

/// emit_cpp without its comment and #include lines: just the `namespace gen
/// { ... }` classes. The caller puts in scope what the bodies use
/// (std::size_t, std::array, std::min/max/clamp/fabs); the native backend
/// does so with a header-free prelude.
std::string emit_cpp_classes(const CompiledSystem& sys);

/// Emits a main() that instantiates the root block, drives it for `steps`
/// synchronous instants with a deterministic LCG input sequence (see
/// lcg_input_trace for the host-side twin) and prints every output with
/// %.17g, one value per line. Combined with emit_cpp this yields an
/// executable used by the end-to-end tests: generated C++ is compiled with
/// the system compiler and its output compared against the interpreted
/// generated code and the reference simulator.
std::string emit_cpp_driver(const CompiledSystem& sys, std::size_t steps, std::uint64_t seed);

/// The C++ class name emit_cpp assigned to `block` (namespace `gen` not
/// included). Deterministic: rebuilds the same name table from the same
/// visit order, so callers can reference emitted classes — the native
/// backend's ABI shim instantiates the root class by this name.
std::string emit_cpp_class_name(const CompiledSystem& sys, const Block& block);

/// The host-side twin of the emitted driver's input generator: input values
/// for `steps` instants of a block with `num_inputs` ports.
std::vector<std::vector<double>> lcg_input_trace(std::size_t num_inputs, std::size_t steps,
                                                 std::uint64_t seed);

} // namespace sbd::codegen

#endif
