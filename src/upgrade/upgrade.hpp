// Live model upgrades: structural diff, state migration planning and
// incremental recompilation of a new model version against an old one.
//
// The paper's modular profiles make this possible: a macro block compiles
// from its sub-blocks' profiles only, keyed by structural fingerprint, so
// two versions of a diagram share every compiled artifact whose subtree
// fingerprint is unchanged. diff_models() reports exactly that sharing;
// compile_version() realizes it by compiling the new version through a
// Pipeline that shares the old version's ProfileCache (only the changed
// frontier recompiles); plan_migration() maps the persistent instance state
// old -> new by stable block path using the documented cross-backend state
// layout (atomic state, then signal slots, then guard counters widened to
// double, then sub-instances depth-first), producing a runtime::StateMigrator
// the InstancePool rebind machinery applies at an instant boundary.
//
// Migration rules, by node, walking both instance trees in lockstep:
//   - equal subtree fingerprint  -> the whole contiguous state segment is
//     copied verbatim (equal fingerprints compile to bit-identical
//     artifacts under equal (method, options), hence equal layouts);
//   - both atomic, same state arity -> state carried (a retuned parameter
//     keeps its memory); different arity -> reinitialized;
//   - both macro -> local slots/counters reset to init (the generated code
//     changed, so slot meanings may have moved), sub-instances matched by
//     instance name and recursed; unmatched old subs are dropped, unmatched
//     new subs start from init;
//   - anything else (atomic vs macro) -> reinitialized.
// When the root port interface itself changes (names, order or arity of
// inputs/outputs), state continuity is meaningless to clients and the plan
// is marked drain-and-replace: appliers must opt in, and every instance
// restarts from init values.
#ifndef SBD_UPGRADE_UPGRADE_HPP
#define SBD_UPGRADE_UPGRADE_HPP

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/exec.hpp"
#include "core/pipeline.hpp"
#include "runtime/pool.hpp"

namespace sbd::upgrade {

// ---------------------------------------------------------------------------
// Structural diff

enum class SubtreeChange { Unchanged, Changed, Added, Removed };

const char* to_string(SubtreeChange c);

/// One entry of a model diff, addressed by stable instance path ("" is the
/// root, "ctrl.pid" is sub `pid` of sub `ctrl`). The walk stops at the
/// change frontier: an Unchanged entry covers its entire subtree (which is
/// reused wholesale), and Added/Removed entries are subtree roots.
struct DiffEntry {
    std::string path;
    std::string type_name;
    SubtreeChange change = SubtreeChange::Unchanged;
};

/// Structural diff of two model versions. `units_*` count *distinct macro
/// compilation units* of the new model (the pipeline compiles each distinct
/// structure once): a reused unit's fingerprint already occurs in the old
/// model, so compiling the new version against the old version's profile
/// cache serves it without work.
struct ModelDiff {
    std::vector<DiffEntry> entries;
    std::size_t units_total = 0;  ///< distinct macro units in the new model
    std::size_t units_reused = 0; ///< of those, fingerprint-identical to old

    double reuse_ratio() const {
        return units_total == 0 ? 0.0
                                : static_cast<double>(units_reused) /
                                      static_cast<double>(units_total);
    }
    std::string summary() const;
    std::string to_json() const;
};

ModelDiff diff_models(const BlockPtr& old_root, const BlockPtr& new_root);

// ---------------------------------------------------------------------------
// State migration plan

enum class RuleKind {
    CopySubtree, ///< contiguous verbatim copy (fingerprint-equal subtree)
    CarryAtomic, ///< atomic changed but state arity matches: state carried
    ResetLocal,  ///< changed macro: its own slots/counters restart from init
    InitSubtree, ///< added or irreconcilable: new subtree starts from init
    DropSubtree, ///< removed: old subtree's state is discarded
};

const char* to_string(RuleKind k);

struct MigrationRule {
    RuleKind kind = RuleKind::CopySubtree;
    std::string path;
    std::size_t old_offset = 0; ///< into the old flat state blob (copy/carry/drop)
    std::size_t new_offset = 0; ///< into the new flat state blob (copy/carry/init)
    std::size_t count = 0;      ///< doubles governed by this rule
};

/// A complete old->new state mapping for one (old, new) compiled version
/// pair. Implements runtime::StateMigrator, so it plugs directly into
/// InstancePool::prepare_rebind. Immutable once planned; safe to apply to
/// any number of instances concurrently.
class MigrationPlan final : public runtime::StateMigrator {
public:
    bool drain_and_replace() const { return drain_; }
    const std::string& drain_reason() const { return drain_reason_; }

    std::size_t old_state_size() const { return old_state_size_; }
    std::size_t new_state_size() const { return new_state_size_; }
    std::size_t copied() const { return copied_; }      ///< doubles carried over
    std::size_t initialized() const { return inited_; } ///< doubles from init values
    std::size_t dropped() const { return dropped_; }    ///< old doubles discarded

    const std::vector<MigrationRule>& rules() const { return rules_; }
    /// New port index -> old port index, -1 where no old port of that name
    /// exists (the new port starts from 0.0). Identity for unchanged roots.
    const std::vector<std::int32_t>& input_map() const { return input_map_; }
    const std::vector<std::int32_t>& output_map() const { return output_map_; }

    /// StateMigrator: applies the plan to one instance snapshot. The new
    /// spans arrive pre-filled with init values / zeros (the pool contract),
    /// so only the copy rules and port maps execute. Drain-and-replace plans
    /// intentionally migrate nothing. Throws std::invalid_argument when the
    /// span sizes do not match the planned layouts — the irreconcilable-
    /// divergence safety net that turns a torn swap into a coded rejection.
    void migrate(std::span<const double> old_state, std::span<const double> old_in,
                 std::span<const double> old_out, std::span<double> new_state,
                 std::span<double> new_in, std::span<double> new_out) const override;

    std::string summary() const;
    std::string to_json() const;

private:
    friend MigrationPlan plan_migration(const codegen::CompiledSystem&, const BlockPtr&,
                                        const codegen::CompiledSystem&, const BlockPtr&);
    friend struct PlanBuilder; ///< the recursive walker behind plan_migration

    bool drain_ = false;
    std::string drain_reason_;
    std::size_t old_state_size_ = 0;
    std::size_t new_state_size_ = 0;
    std::size_t copied_ = 0;
    std::size_t inited_ = 0;
    std::size_t dropped_ = 0;
    std::vector<MigrationRule> rules_;
    std::vector<std::int32_t> input_map_;
    std::vector<std::int32_t> output_map_;
};

/// Plans the migration between two compiled versions. Both systems must be
/// compiled with the same (method, options) — the serve layer guarantees
/// this by recompiling new versions with its boot-time options — because
/// the fingerprint-equal => layout-equal step relies on it.
MigrationPlan plan_migration(const codegen::CompiledSystem& old_sys, const BlockPtr& old_root,
                             const codegen::CompiledSystem& new_sys, const BlockPtr& new_root);

// ---------------------------------------------------------------------------
// Incremental recompilation of a new version

/// Everything needed to compile a new model version the same way the
/// running one was compiled. `cache` shared with the old version's pipeline
/// is what makes the recompile incremental (unchanged subtrees hit).
struct CompileContext {
    codegen::Method method = codegen::Method::Dynamic;
    codegen::ClusterOptions cluster;
    std::size_t jobs = 1;
    std::shared_ptr<codegen::ProfileCache> cache; ///< shared across versions
    codegen::BackendConfig backend;               ///< interp unless configured
};

/// An owned, executable compiled model version: the compiled system, its
/// root and the backend executable, plus the compile-side reuse accounting.
/// Shared-pointer ownership is the point — a server retires the old version
/// only after its instance pool has rebound to the new one.
struct ModelVersion {
    std::uint64_t version = 0;
    BlockPtr root;
    std::shared_ptr<const codegen::CompiledSystem> sys;
    std::shared_ptr<const codegen::Executable> exec;
    std::uint64_t compile_ns = 0;
    std::uint64_t macro_compiles = 0; ///< units actually recompiled
    std::uint64_t macro_reuses = 0;   ///< units served from the shared cache
};

/// Coded upgrade failures; the serve layer maps every code to the
/// UPGRADE_REJECTED protocol status, the CLIs to exit 10 (kExitUpgrade).
class UpgradeError : public std::runtime_error {
public:
    enum class Code {
        Parse,        ///< new model source does not parse
        Compile,      ///< pipeline rejected it (cycle, budget, ...)
        Analysis,     ///< deep-analysis load gate (SBD022/SBD024)
        Backend,      ///< native backend could not build the new version
        Incompatible, ///< drain-and-replace required but not allowed
        Conflict,     ///< a concurrent upgrade won the race
    };

    UpgradeError(Code code, const std::string& what)
        : std::runtime_error(what), code_(code) {}
    Code code() const { return code_; }

private:
    Code code_;
};

const char* to_string(UpgradeError::Code c);

/// Parses, pipeline-compiles (through ctx.cache when set — the incremental
/// path), deep-gates (SBD022/SBD024, the same load gate sbd-serve applies
/// at boot) and backend-builds one new model version. Per-version reuse
/// counters come from a private pipeline registry, so they measure exactly
/// this compile. Throws UpgradeError for every coded failure mode;
/// resilience::FaultInjected and DeadlineExceeded propagate unchanged so
/// chaos schedules keep their own coded statuses.
ModelVersion compile_version(const std::string& source_text, const CompileContext& ctx,
                             std::uint64_t version);

} // namespace sbd::upgrade

#endif
