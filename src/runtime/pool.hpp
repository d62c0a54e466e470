#ifndef SBD_RUNTIME_POOL_HPP
#define SBD_RUNTIME_POOL_HPP

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/exec.hpp"

namespace sbd::runtime {

/// Generational handle to a pooled instance. A handle goes stale when its
/// slot is destroyed: the pool bumps the slot's generation, so a later
/// create() reusing the same slot yields a distinguishable id and stale
/// accesses throw instead of silently touching the new occupant.
struct InstanceId {
    std::uint32_t slot = UINT32_MAX;
    std::uint32_t generation = 0;

    bool operator==(const InstanceId&) const = default;
};

/// Maps one instance's state across a live model upgrade. The pool calls
/// migrate() once per live instance while preparing a rebind: `old_*` carry
/// the outgoing instance's persistent state (Instance::save_state layout)
/// and its arena I/O rows; `new_state` arrives pre-filled with the state of
/// a freshly initialized instance of the new model, `new_in`/`new_out`
/// arrive zeroed. Implementations copy whatever carries over and leave the
/// rest at init values. The interface lives here (not in src/upgrade) so
/// the runtime stays independent of the upgrade planner; upgrade's
/// MigrationPlan is the production implementation.
class StateMigrator {
public:
    virtual ~StateMigrator() = default;

    virtual void migrate(std::span<const double> old_state, std::span<const double> old_in,
                         std::span<const double> old_out, std::span<double> new_state,
                         std::span<double> new_in, std::span<double> new_out) const = 0;
};

/// A StateMigrator that carries nothing: every instance restarts from the
/// new model's init values with zeroed I/O (the drain-and-replace path).
class DrainMigrator final : public StateMigrator {
public:
    void migrate(std::span<const double>, std::span<const double>, std::span<const double>,
                 std::span<double>, std::span<double>, std::span<double>) const override {}
};

/// A pool of executable instances of one compiled block, with contiguous
/// reusable slots and arena-allocated per-instance input/output buffers.
///
/// Capacity is fixed at construction: the I/O arena is a single contiguous
/// array (slot-strided), and the spans handed out by inputs()/outputs()
/// stay valid for the pool's lifetime — which is what lets the engine's
/// worker threads step disjoint slot ranges without any synchronization.
///
/// Destroyed slots go on a free list and are recycled by the next create();
/// recycling re-initializes the instance state and zeroes its I/O buffers,
/// so a recycled slot is indistinguishable from a fresh one.
class InstancePool {
public:
    /// `executable` selects the execution backend for every instance this
    /// pool builds; nullptr means the interpreter (the historical default),
    /// so existing callers are unchanged.
    InstancePool(const codegen::CompiledSystem& sys, BlockPtr root, std::size_t capacity,
                 std::shared_ptr<const codegen::Executable> executable = nullptr);

    /// Creates (or recycles) an instance; throws std::length_error when the
    /// pool is full.
    InstanceId create();
    /// Destroys a live instance; its slot becomes reusable. Throws
    /// std::invalid_argument on a stale or invalid id.
    ///
    /// Handle-churn edge: each destroy bumps the slot's generation, and a
    /// slot whose generation reaches UINT32_MAX is *retired* — taken out of
    /// circulation instead of wrapping to 0 — so an ancient handle minted
    /// before 2^32 destroys of one slot can never validate against a new
    /// occupant (no ABA, ever). Retired slots reduce the usable capacity.
    void destroy(InstanceId id);
    /// Re-initializes a live instance's state and zeroes its I/O buffers.
    void reset(InstanceId id);

    bool alive(InstanceId id) const;
    std::size_t size() const { return live_.size(); }
    std::size_t capacity() const { return slots_.size(); }
    /// Slots permanently taken out of circulation by generation exhaustion.
    std::size_t retired() const { return retired_; }

    codegen::Instance& instance(InstanceId id) { return *slots_[check(id)].inst; }
    std::span<double> inputs(InstanceId id) { return inputs_of(check(id)); }
    std::span<double> outputs(InstanceId id) { return outputs_of(check(id)); }
    std::span<const double> inputs(InstanceId id) const { return inputs_of(check(id)); }
    std::span<const double> outputs(InstanceId id) const { return outputs_of(check(id)); }

    std::size_t num_inputs() const { return nin_; }
    std::size_t num_outputs() const { return nout_; }

    /// Dense list of live slot indices, in creation order (destroy()
    /// swap-removes). The engine chunks this list across worker threads.
    const std::vector<std::uint32_t>& live_slots() const { return live_; }

    /// Advances the instance in `slot` one synchronous instant, reading its
    /// input buffer and writing its output buffer. Allocation-free; safe to
    /// call concurrently for distinct slots.
    void step_slot(std::uint32_t slot);

    /// The id currently occupying `slot` (live slots only).
    InstanceId id_of(std::uint32_t slot) const { return {slot, slots_[slot].generation}; }

    const codegen::CompiledSystem& system() const { return *sys_; }
    BlockPtr root() const { return root_; }
    /// The backend recipe instances are stamped from ("interp" or "native").
    const codegen::Executable& executable() const { return *exec_; }

    /// Serialized footprint of one instance's snapshot: the interpreter's
    /// persistent state (Instance::state_size) plus the input and output
    /// buffers. Identical for every slot of the pool; requires a live id
    /// because instances are built lazily on first create().
    std::size_t state_size(InstanceId id) const;
    /// The complete state of one live instance as a flat double blob —
    /// persistent state, then inputs, then outputs — suitable for wire
    /// transfer (the serve layer's SNAPSHOT) or migration.
    std::vector<double> snapshot_state(InstanceId id) const;
    /// Restores a blob written by snapshot_state() into a live instance of
    /// the same compiled system. Throws std::invalid_argument on a size
    /// mismatch; on success the instance is bit-identical to the snapshot
    /// source, including its I/O buffers.
    void restore_state(InstanceId id, std::span<const double> blob);

    /// Opaque token produced by prepare_rebind() and consumed by
    /// commit_rebind(): the complete replacement population (one migrated
    /// instance per live slot, in live-list order) plus the new arena.
    /// Treat the fields as private; they are public only so a caller can
    /// hold the token across the journal append that precedes the commit.
    struct Rebind {
        const codegen::CompiledSystem* sys = nullptr;
        BlockPtr root;
        std::shared_ptr<const codegen::Executable> exec;
        std::size_t nin = 0, nout = 0, stride = 0;
        std::vector<double> arena;
        std::vector<std::unique_ptr<codegen::Instance>> insts; ///< by live_ order
    };

    /// Phase 1 of a hot-swap: builds a fully migrated replacement population
    /// for the new compiled model without touching any live state. For each
    /// live slot it instantiates the new executable, runs `migrate` from the
    /// old instance's snapshot into the fresh instance's state/I-O, and
    /// restores the result. May throw (instantiation or an irreconcilable
    /// migration); the pool is untouched either way, so a failed prepare
    /// leaves the whole fleet on the old version — no torn fleet.
    /// `executable` nullptr selects the interpreter, as in the constructor.
    /// Must not overlap step_slot() (externally synchronous, like create()).
    Rebind prepare_rebind(const codegen::CompiledSystem& sys, BlockPtr root,
                          std::shared_ptr<const codegen::Executable> executable,
                          const StateMigrator& migrate) const;

    /// Phase 2: installs a prepared rebind. Never throws apart from
    /// allocation failure (everything fallible happened in phase 1). Slot
    /// numbering, generations, the live list, the free list, retirement and
    /// therefore every outstanding InstanceId survive unchanged — only the
    /// instances, the I/O arena (ports may differ) and the compiled-system/
    /// root/executable bindings are replaced. Non-live slots drop their
    /// cached instance so the next create() stamps from the new executable.
    void commit_rebind(Rebind&& r);

    /// Testing hook (wraparound regression tests): forces the generation
    /// counter of a non-live slot. Throws std::invalid_argument for a live
    /// or out-of-range slot, or a slot already retired.
    void debug_set_generation(std::uint32_t slot, std::uint32_t generation);

    /// Complete structural snapshot of the pool for durable checkpoints:
    /// not just the live instances' state (snapshot_state) but the exact
    /// slot machinery around them — free-list order, live-list order and
    /// per-slot generations — so that after restore_image() the pool
    /// assigns the same slots and generations to future create() calls as
    /// the original would have. That determinism is what makes journal
    /// replay reproduce handles (and therefore client-visible ids)
    /// bit-for-bit.
    struct Image {
        std::vector<std::uint32_t> free_order;  ///< free_ verbatim (LIFO order)
        std::vector<std::uint32_t> live_order;  ///< live_ verbatim (creation order)
        std::vector<std::uint32_t> generations; ///< per slot, size == capacity
        std::vector<std::vector<double>> blobs; ///< snapshot_state per live_order entry
    };

    Image image() const;

    /// Rebuilds the pool from an image. Only valid on a pool with no live
    /// instances (fresh, or fully destroyed) whose capacity and compiled
    /// model match the image's origin. Throws std::invalid_argument on any
    /// structural mismatch; the pool is unchanged when it throws before
    /// instantiating, and must be considered unusable if an instantiate or
    /// blob restore fails midway (recovery treats that as fatal-for-this-
    /// checkpoint and falls back).
    void restore_image(const Image& img);

private:
    struct Slot {
        std::unique_ptr<codegen::Instance> inst; ///< built on first use, then reused
        std::uint32_t generation = 0;
        std::uint32_t live_pos = 0; ///< position in live_, valid while live
        bool live = false;
    };

    std::uint32_t check(InstanceId id) const;
    std::span<double> inputs_of(std::uint32_t slot) { return {arena_.data() + slot * stride_, nin_}; }
    std::span<double> outputs_of(std::uint32_t slot) {
        return {arena_.data() + slot * stride_ + nin_, nout_};
    }
    std::span<const double> inputs_of(std::uint32_t slot) const {
        return {arena_.data() + slot * stride_, nin_};
    }
    std::span<const double> outputs_of(std::uint32_t slot) const {
        return {arena_.data() + slot * stride_ + nin_, nout_};
    }

    const codegen::CompiledSystem* sys_;
    BlockPtr root_;
    std::shared_ptr<const codegen::Executable> exec_;
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> free_; ///< reusable slot indices (LIFO)
    std::vector<std::uint32_t> live_;
    std::size_t retired_ = 0; ///< slots lost to generation exhaustion
    std::vector<double> arena_; ///< capacity * (num_inputs + num_outputs)
    std::size_t nin_;
    std::size_t nout_;
    std::size_t stride_;
};

} // namespace sbd::runtime

#endif
