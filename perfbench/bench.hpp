// Shared plumbing of the benchmark binary: run options, the result record
// printed as the last stdout line, order statistics, and the in-memory span
// recorder used by traced runs.
#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

#include <array>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::filesystem::path work_dir; ///< scratch space, removed at exit
    std::filesystem::path repo;     ///< checkout root (models/ lives here)
};

/// What a workload reports: the correctness verdict, op counts, and metric
/// values by name. main() prints them in the order and with the units of
/// its metric catalog (the one BENCHMARK.json lists); a layer a workload
/// does not exercise reads 0.
struct Result {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, double> metrics;

    void set(const std::string& name, double value) { metrics[name] = value; }
    /// Records a failed op; any failure makes the run incorrect.
    void fail(const std::string& what);
};

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
            .count());
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double mean(const std::vector<double>& v);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// splitmix64: derives independent per-item seeds from the run seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t item);

/// FNV-1a 64 over the raw bit patterns of a run of doubles: the bitwise
/// fingerprint compared against the oracle.
std::uint64_t hash_doubles(std::span<const double> v, std::uint64_t h = 14695981039346656037ull);

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// The whole file; throws std::runtime_error when it cannot be read.
std::string read_file(const std::filesystem::path& p);

/// Creates (empty) and returns work_dir/<name>.
std::filesystem::path fresh_dir(const Options& opt, const std::string& name);

/// Layers spans are attributed to, named after the src/ modules. `Bench`
/// is the benchmark's own code between calls.
enum class Layer : std::uint8_t { Bench, Serve, Runtime, Native, Durable, Sbd, Core, Sim };
inline constexpr std::size_t kLayers = 8;
const char* layer_name(Layer l);

/// In-memory span recorder for one thread. A span covers one public call
/// the benchmark makes into the program; spans opened inside another span
/// become its children, so each layer's self time is its spans' duration
/// minus the part their children cover. Recording is skipped entirely when
/// disabled, so untraced ops pay nothing but a branch.
class Tracer {
public:
    struct Span {
        const char* name = "";
        Layer layer = Layer::Bench;
        bool op_root = false;         ///< a timed end-to-end op (cycle or compile)
        std::uint32_t parent = kNone; ///< index of the enclosing span
        std::uint64_t op = 0;         ///< op number spans of one op share
        std::uint64_t t0 = 0, t1 = 0;
    };
    static constexpr std::uint32_t kNone = UINT32_MAX;

    class Scope {
    public:
        Scope() = default;
        Scope(Tracer* t, std::uint32_t idx) : t_(t), idx_(idx) {}
        Scope(Scope&& o) noexcept : t_(o.t_), idx_(o.idx_) { o.t_ = nullptr; }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;
        Scope& operator=(Scope&&) = delete;
        ~Scope() { end(); }
        void end();

    private:
        Tracer* t_ = nullptr;
        std::uint32_t idx_ = 0;
    };

    explicit Tracer(std::uint32_t tid) : tid_(tid) {}

    void set_enabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    Scope span(const char* name, Layer layer, std::uint64_t op = 0, bool op_root = false);

    const std::vector<Span>& spans() const { return spans_; }
    std::uint32_t tid() const { return tid_; }

    /// Self time per layer summed over the spans of op roots (the timed
    /// end-to-end path), and the total duration of those roots.
    void self_times(std::array<double, kLayers>& self_ns, double& root_ns) const;

private:
    std::uint32_t tid_;
    bool enabled_ = false;
    std::vector<Span> spans_;
    std::vector<std::uint32_t> open_;
};

/// Writes the spans of every tracer as a Chrome trace-event JSON file,
/// traces/<workload>.json beside the work dir (the latest traced run of
/// each workload is kept).
void write_chrome_trace(const Options& opt, const std::vector<const Tracer*>& tracers);

/// Adds trace.self_share.<layer> for every layer from the op-root spans of
/// the given tracers.
void add_self_shares(Result& r, const std::vector<const Tracer*>& tracers);

/// Workload entry points.
Result run_serve(const Options& opt);
Result run_compile(const Options& opt);

} // namespace perfbench

#endif
