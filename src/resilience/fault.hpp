#ifndef SBD_RESILIENCE_FAULT_HPP
#define SBD_RESILIENCE_FAULT_HPP

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace sbd::obs {
class MetricsRegistry;
}

namespace sbd::resilience {

/// Deterministic fault injection in the KEDR mold: code under test registers
/// named *fault points* (SBD_FAULT_HIT below); a seeded *fault plan* decides,
/// per point and per hit, whether the site must simulate a failure. When no
/// plan is armed the check is a single relaxed atomic load — the same
/// null-handle trick the obs counters use — so shipping the points costs
/// nothing in production. When a plan is armed every decision is a pure
/// function of (seed, point name, hit index), so a failing schedule replays
/// exactly from its text spec.

/// When a point injects relative to its own hit counter (1-based).
enum class ScheduleKind {
    Never, ///< count hits, never inject (default for unplanned points)
    Nth,   ///< inject exactly on hit #n
    EveryK,///< inject on every k-th hit (k, 2k, 3k, ...)
    Prob   ///< inject with probability p per hit (seeded, stateless)
};

struct Schedule {
    ScheduleKind kind = ScheduleKind::Never;
    std::uint64_t n = 0; ///< Nth / EveryK parameter
    double p = 0.0;      ///< Prob parameter, [0, 1]
};

/// A complete injection plan: a seed plus one schedule per point name.
/// Serializable to/from the text spec
///   seed=S;point=nth:N;point=every:K;point=p:F;point=off
/// (order-insensitive; to_spec() emits points sorted so specs round-trip).
struct FaultPlan {
    std::uint64_t seed = 0;
    std::vector<std::pair<std::string, Schedule>> points;

    /// Parses a spec; throws std::invalid_argument naming the bad clause.
    static FaultPlan parse(const std::string& spec);
    std::string to_spec() const;
};

/// Per-point observation: how often the site executed while a plan was
/// armed, and how often it was told to fail.
struct PointStats {
    std::string name;
    std::uint64_t hits = 0;
    std::uint64_t injected = 0;
    bool scheduled = false; ///< the armed plan named this point
};

extern std::atomic<bool> g_fault_armed;

/// The unarmed fast path: one relaxed load, no function call beyond this
/// inline, no allocation.
inline bool fault_armed() { return g_fault_armed.load(std::memory_order_relaxed); }

/// Process-global registry of fault points. Points are created lazily on
/// first hit (so the set of points is exactly the set of sites executed) and
/// reset on every arm(). Thread-safe; should_fail() takes the mutex, which
/// is fine because it only runs in testing mode.
class FaultRegistry {
public:
    static FaultRegistry& instance();

    /// Installs `plan` and resets all counters. Armed mode stays on until
    /// disarm(). Deterministic: re-arming the same plan replays the same
    /// injection sequence for the same sequence of hits.
    void arm(FaultPlan plan);
    void disarm(); ///< stops injecting; keeps counters for inspection

    /// Decides hit #N of `point` under the armed plan. Only meaningful when
    /// armed (SBD_FAULT_HIT short-circuits otherwise).
    bool should_fail(const char* point);

    /// Counters of every point seen since the last arm(), sorted by name.
    std::vector<PointStats> snapshot() const;
    /// Publishes sbd_fault_hits_total / sbd_fault_injected_total{point=...}
    /// counters into `reg` from the current snapshot.
    void export_metrics(obs::MetricsRegistry& reg) const;

private:
    FaultRegistry() = default;

    struct Point {
        std::string name;
        Schedule sched;
        std::uint64_t hits = 0;
        std::uint64_t injected = 0;
        bool scheduled = false;
    };

    Point& find_or_create(const std::string& name);

    mutable std::mutex m_;
    std::uint64_t seed_ = 0;
    std::deque<Point> points_; ///< deque: stable addresses for index_
    std::unordered_map<std::string, Point*> index_;
};

/// RAII arm/disarm for tests and tools.
class ScopedFaultPlan {
public:
    explicit ScopedFaultPlan(FaultPlan plan) { FaultRegistry::instance().arm(std::move(plan)); }
    ~ScopedFaultPlan() { FaultRegistry::instance().disarm(); }
    ScopedFaultPlan(const ScopedFaultPlan&) = delete;
    ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;
};

/// The documented fault points wired through the toolchain (DESIGN.md
/// "Resilience" has the catalog with the degradation each one exercises).
/// Sites may register further points; these are the stable, tested set.
inline constexpr const char* kFaultPointCatalog[] = {
    "cache.dir_create",   // ProfileCache ctor: cache directory creation fails
    "cache.disk_read",    // ProfileCache::disk_load: transient read failure
    "cache.disk_corrupt", // ProfileCache::disk_load: record bytes corrupted
    "cache.disk_write",   // ProfileCache::disk_store: transient write failure
    "cache.disk_rename",  // ProfileCache::disk_store: atomic rename fails
    "sat.budget",         // cluster_disjoint_sat: conflict budget exhausted
    "pipeline.task",      // Pipeline worker: task fails at its boundary
    "pipeline.deadline",  // Pipeline worker: deadline check reports expired
    "engine.tick",        // Engine::tick: tick fails before stepping
    "engine.deadline",    // Engine::tick: deadline check reports expired
    "serve.accept",       // Server accept loop: accepting a connection fails
    "serve.dispatch",     // Server dispatch: a request fails before touching
                          // any instance (client sees FAULT_INJECTED)
    "serve.tick",         // Server TICK: instant refused before any instance
                          // advances (atomic reject, never a torn instant)
    "serve.deadline",     // Server TICK: deadline check reports expired
                          // before an instant (coded DEADLINE_EXCEEDED)
    "serve.upgrade",      // Server UPGRADE_MODEL: request rejected before
                          // any compile work (state untouched, coded
                          // FAULT_INJECTED)
    "durable.append",     // Journal::append: write fails before any state
                          // change (mutation rejected coded DURABLE_FAILED)
    "durable.fsync",      // Journal::sync: fsync fails (always-mode acks
                          // reject coded; batch-mode counts and retries)
    "durable.checkpoint", // CheckpointStore::write: durable publish fails
                          // (kept serving; journal retained; retried next
                          // cadence)
    "durable.recover",    // CheckpointStore::load_latest: newest checkpoint
                          // unreadable/corrupt (falls back to the previous
                          // one + longer replay, never fatal)
};

} // namespace sbd::resilience

/// True iff this execution of the named point must simulate a failure.
/// Unarmed cost: one relaxed atomic load and a branch.
#define SBD_FAULT_HIT(point)                                                                   \
    (::sbd::resilience::fault_armed() &&                                                       \
     ::sbd::resilience::FaultRegistry::instance().should_fail(point))

#endif
