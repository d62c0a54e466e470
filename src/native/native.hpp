// The native AOT backend: emit a self-contained C++ translation unit for a
// compiled system, build it with the host C++ compiler into a shared
// object, dlopen it, and bind the exported interface functions behind the
// backend-neutral codegen::Instance contract.
//
// Artifacts live in a content-addressed on-disk store next to the profile
// cache: keyed by structural fingerprint x clustering method/options (the
// human-auditable prefix) x emitted-source hash x compiler version x flags
// x ABI version (the full content key). Writes are atomic renames; a
// corrupted or stale artifact never loads — its content key cannot match —
// and is silently rebuilt. Within a process, builds are memoized and
// concurrent builders of the same key share one compile, so an engine
// fleet pays for each distinct artifact once.
#ifndef SBD_NATIVE_NATIVE_HPP
#define SBD_NATIVE_NATIVE_HPP

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/exec.hpp"

namespace sbd::native {

/// Version of the extern "C" contract between the loader and generated
/// modules. Bumped whenever the exported symbol set or a signature changes;
/// a module built by an older emitter then fails validation and is rebuilt.
inline constexpr std::uint32_t kAbiVersion = 1;

/// Registers the native backend with codegen::make_executable, making
/// `--backend=native` resolvable. Idempotent; binaries that link sbd_native
/// call this once at startup (a static library cannot self-register —
/// nothing would pull the object file in).
void install();

/// The complete translation unit for a compiled system: a header-free
/// prelude, emit_cpp_classes(), and the extern "C" ABI shim
/// (create/destroy/init/step/call/save/load + identity exports) the loader
/// binds to. It includes no header and links against libc alone. Throws
/// std::runtime_error for systems that cannot be emitted (opaque blocks,
/// atomics without C++ semantics).
std::string emit_native_module(const codegen::CompiledSystem& sys);

/// The compiler driver the backend will invoke: cfg.compiler if set, else
/// $SBD_NATIVE_CXX, else $CXX, else "c++".
std::string compiler_driver(const codegen::BackendConfig& cfg);

/// First line of `driver --version`, or nullopt when the driver cannot be
/// executed — the probe behind BackendError::Code::NoCompiler.
std::optional<std::string> compiler_version(const std::string& driver);

/// What one make_native_executable() call did, for observability and the
/// code-size experiments.
struct BuildInfo {
    std::string artifact_path;    ///< final .so path in the store
    std::string key;              ///< structural key (fingerprint x method x options), hex
    std::string store_key;        ///< full content key (adds source/compiler/flags/ABI), hex
    std::string compiler;         ///< resolved driver
    std::string compiler_version; ///< first line of `driver --version`
    std::size_t tu_bytes = 0;     ///< emitted translation-unit size
    std::size_t so_bytes = 0;     ///< built shared-object size
    bool cache_hit = false;       ///< loaded from store without compiling
    std::uint64_t compile_ns = 0; ///< 0 on cache hit
    std::uint64_t load_ns = 0;    ///< dlopen + validation
};

/// Emits, compiles (or cache-hits) and loads the native module for `root`,
/// returning a reusable Executable. Throws codegen::BackendError on every
/// failure path (no compiler, emission rejected, compile failed, artifact
/// unloadable even after a rebuild). Thread-safe; concurrent calls with the
/// same content key share one build.
std::shared_ptr<const codegen::Executable>
make_native_executable(const codegen::CompiledSystem& sys, BlockPtr root,
                       const codegen::BackendConfig& cfg);

/// The build record behind a native executable; nullptr when `e` is not
/// native. Valid for the executable's lifetime.
const BuildInfo* build_info(const codegen::Executable& e);

} // namespace sbd::native

#endif
