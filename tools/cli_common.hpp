// Shared command-line plumbing for the sbd* tools: one flag-table parser,
// one usage printer, the common exit-code contract, --version, and the
// observability flags (--metrics-out / --metrics-format / --trace-out)
// every instrumented tool exposes the same way.
#ifndef SBD_TOOLS_CLI_COMMON_HPP
#define SBD_TOOLS_CLI_COMMON_HPP

#include <concepts>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/exec.hpp"
#include "core/methods.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "resilience/budget.hpp"
#include "resilience/fault.hpp"

namespace sbd::cli {

/// One released artifact, one version: every tool reports this via
/// --version as "<tool> <version>".
inline constexpr const char* kVersion = "0.11.0";

// Exit-code contract shared by every tool (tools use the subset that
// applies to them; no tool assigns a different meaning to these values).
inline constexpr int kExitOk = 0;       ///< success
inline constexpr int kExitError = 1;    ///< I/O, runtime or internal error
inline constexpr int kExitUsage = 2;    ///< bad command line
inline constexpr int kExitParse = 3;    ///< model parse error
inline constexpr int kExitCycle = 4;    ///< compile (cycle) rejection
inline constexpr int kExitLint = 5;     ///< lint diagnostics with errors
inline constexpr int kExitBudget = 6;   ///< resource budget exhausted (SBD021)
inline constexpr int kExitDeadline = 7; ///< wall-clock deadline exceeded
inline constexpr int kExitProtocol = 8; ///< coded wire-protocol error (serve)
inline constexpr int kExitNative = 9;   ///< native backend unavailable/failed
inline constexpr int kExitUpgrade = 10; ///< model upgrade rejected (diff/migration)
inline constexpr int kExitDurable = 11; ///< durable store unusable (journal/recovery)

/// Flag-table argument parser. Flags are registered against variables; the
/// table then drives both parsing and the usage text, so the two cannot
/// drift apart. Conventions (identical across tools): unknown flags and
/// malformed values print usage and exit kExitUsage; --help prints usage
/// and exits kExitOk; --version prints the tool name and version and exits
/// kExitOk; everything else is collected as a positional.
class ArgParser {
public:
    /// `positional` names the operand(s) in the usage line, e.g.
    /// "model.sbd" or "model.sbd...".
    ArgParser(std::string tool, std::string positional)
        : tool_(std::move(tool)), positional_(std::move(positional)) {}

    void flag(const char* name, const char* value_name, const char* help, std::string* out) {
        add(name, value_name, help, [out](const std::string& v) {
            *out = v;
            return true;
        });
    }
    /// Unsigned integer flag (std::size_t, std::uint64_t, ...). Rejects
    /// non-digit input and overflow instead of crashing through stoull.
    template <typename T>
        requires std::unsigned_integral<T>
    void flag(const char* name, const char* value_name, const char* help, T* out) {
        add(name, value_name, help, [out](const std::string& v) { return parse_u64_into(v, out); });
    }
    /// Value-less switch; `value` is what the switch sets `*out` to.
    void flag(const char* name, const char* help, bool* out, bool value = true) {
        Entry e;
        e.name = name;
        e.help = help;
        e.apply = [out, value](const std::string&) {
            *out = value;
            return true;
        };
        entries_.push_back(std::move(e));
    }

    /// Parses argv. Returns nullopt to continue running, or the process
    /// exit code (--help/--version/usage errors).
    std::optional<int> parse(int argc, char** argv) {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--help" || arg == "-h") return usage(stdout), kExitOk;
            if (arg == "--version") {
                std::printf("%s %s\n", tool_.c_str(), kVersion);
                return kExitOk;
            }
            const Entry* hit = nullptr;
            for (const Entry& e : entries_)
                if (arg == e.name) {
                    hit = &e;
                    break;
                }
            if (hit == nullptr) {
                if (!arg.empty() && arg[0] == '-') return usage(stderr), kExitUsage;
                positionals_.push_back(arg);
                continue;
            }
            std::string value;
            if (hit->value_name != nullptr) {
                if (i + 1 >= argc) {
                    std::fprintf(stderr, "%s: missing value for %s\n", tool_.c_str(),
                                 arg.c_str());
                    return kExitUsage;
                }
                value = argv[++i];
            }
            if (!hit->apply(value)) {
                std::fprintf(stderr, "%s: bad value '%s' for %s\n", tool_.c_str(),
                             value.c_str(), arg.c_str());
                return kExitUsage;
            }
        }
        return std::nullopt;
    }

    /// Prints usage built from the flag table (plus the implicit
    /// --help/--version every tool has).
    void usage(std::FILE* to) const {
        std::fprintf(to, "usage: %s [options] %s\n", tool_.c_str(), positional_.c_str());
        // help == nullptr marks a hidden (testing-only) flag: parsed but
        // not advertised.
        for (const Entry& e : entries_)
            if (e.help != nullptr) print_entry(to, e.name, e.value_name, e.help);
        print_entry(to, "--version", nullptr, "print tool name and version, then exit");
        print_entry(to, "--help", nullptr, "print this help, then exit");
    }

    const std::vector<std::string>& positionals() const { return positionals_; }

private:
    struct Entry {
        const char* name = nullptr;
        const char* value_name = nullptr; ///< nullptr = boolean switch
        const char* help = nullptr;
        std::function<bool(const std::string&)> apply;
    };

    template <typename T> static bool parse_u64_into(const std::string& v, T* out) {
        if (v.empty()) return false;
        std::uint64_t x = 0;
        for (const char c : v) {
            if (c < '0' || c > '9') return false;
            const std::uint64_t d = static_cast<std::uint64_t>(c - '0');
            if (x > (UINT64_MAX - d) / 10) return false; // overflow
            x = x * 10 + d;
        }
        *out = static_cast<T>(x);
        return true;
    }

    static void print_entry(std::FILE* to, const char* name, const char* value_name,
                            const char* help) {
        std::string head = "  ";
        head += name;
        if (value_name != nullptr) {
            head += ' ';
            head += value_name;
        }
        // Help text starts in column 17; a head too long to leave a gap
        // before it gets a line of its own. Multi-line help: continuation
        // lines are pre-indented by callers.
        if (head.size() < 17)
            std::fprintf(to, "%-17s%s\n", head.c_str(), help);
        else
            std::fprintf(to, "%s\n%17s%s\n", head.c_str(), "", help);
    }

    void add(const char* name, const char* value_name, const char* help,
             std::function<bool(const std::string&)> apply) {
        Entry e;
        e.name = name;
        e.value_name = value_name;
        e.help = help;
        e.apply = std::move(apply);
        entries_.push_back(std::move(e));
    }

    std::string tool_;
    std::string positional_;
    std::vector<Entry> entries_;
    std::vector<std::string> positionals_;
};

/// Parses a clustering-method name; returns nullopt for unknown names (the
/// caller decides between usage exit and ModelError).
inline std::optional<codegen::Method> parse_method(const std::string& name) {
    using codegen::Method;
    for (const Method m : {Method::Monolithic, Method::StepGet, Method::Dynamic,
                           Method::DisjointSat, Method::DisjointGreedy, Method::Singletons})
        if (name == to_string(m)) return m;
    return std::nullopt;
}

/// Parses an execution-backend name (every tool spells the choice the same
/// way: --backend interp | native); nullopt for unknown names.
inline std::optional<codegen::Backend> parse_backend(const std::string& name) {
    using codegen::Backend;
    for (const Backend b : {Backend::Interp, Backend::Native})
        if (name == to_string(b)) return b;
    return std::nullopt;
}

/// The observability surface shared by sbdc and sbd-run.
struct ObsOptions {
    std::string metrics_out;    ///< metrics snapshot file ("" = off)
    std::string metrics_format; ///< "prom" | "json" | "table" ("" = by extension)
    std::string trace_out;      ///< span trace file ("" = off)

    bool enabled() const { return !metrics_out.empty() || !trace_out.empty(); }
};

inline void add_obs_flags(ArgParser& p, ObsOptions* o) {
    p.flag("--metrics-out", "FILE",
           "write a metrics snapshot on exit (.json = JSON, .txt = table,\n"
           "                 else Prometheus text exposition)",
           &o->metrics_out);
    p.flag("--metrics-format", "F", "prom | json | table (overrides the extension rule)",
           &o->metrics_format);
    p.flag("--trace-out", "FILE",
           "record trace spans and write them on exit (.json = Chrome\n"
           "                 about:tracing, else compact SBDO binary)",
           &o->trace_out);
}

/// The resilience surface shared by the tools: budgets (user-facing) and
/// the hidden deterministic fault-plan flag the chaos tests drive.
struct ResilienceOptions {
    std::uint64_t deadline_ms = 0;           ///< 0 = no deadline
    std::uint64_t sat_conflict_budget = 0;   ///< 0 = unlimited
    bool sat_budget_degrade = false;         ///< degrade instead of exit 6
    std::string fault_plan;                  ///< testing: FaultPlan text spec
};

inline void add_resilience_flags(ArgParser& p, ResilienceOptions* r, bool sat_flags = true) {
    p.flag("--deadline-ms", "MS",
           "wall-clock budget; expiry exits 7 with a partial-result error", &r->deadline_ms);
    if (sat_flags) {
        p.flag("--sat-conflict-budget", "N",
               "per-instance SAT conflict budget for the sat method;\n"
               "                 exhaustion exits 6 (see --sat-degrade)",
               &r->sat_conflict_budget);
        p.flag("--sat-degrade",
               "on SAT budget exhaustion degrade to a valid non-optimal\n"
               "                 clustering (warns SBD021) instead of exiting 6",
               &r->sat_budget_degrade);
    }
    // --fault-plan is intentionally absent from the usage text (DESIGN.md
    // "Testing hooks" documents the grammar and seed semantics): it is the
    // chaos-testing hook (tests/test_resilience.cpp), not a user feature.
    p.flag("--fault-plan", "SPEC", nullptr, &r->fault_plan);
}

/// Arms the process-global fault registry when --fault-plan was given.
/// Returns kExitUsage on a malformed spec, nullopt to continue.
inline std::optional<int> arm_fault_plan(const char* tool, const ResilienceOptions& r) {
    if (r.fault_plan.empty()) return std::nullopt;
    try {
        resilience::FaultRegistry::instance().arm(resilience::FaultPlan::parse(r.fault_plan));
    } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s: %s\n", tool, e.what());
        return kExitUsage;
    }
    return std::nullopt;
}

/// RAII activation of span collection for the duration of a tool run:
/// installs a collector iff --trace-out was given (otherwise TraceSpan
/// stays a no-op costing one relaxed atomic load).
class ScopedTracing {
public:
    explicit ScopedTracing(const ObsOptions& o) {
        if (!o.trace_out.empty()) {
            collector_.emplace();
            collector_->install();
        }
    }
    obs::TraceCollector* collector() { return collector_ ? &*collector_ : nullptr; }

private:
    std::optional<obs::TraceCollector> collector_;
};

/// Writes the requested --metrics-out/--trace-out files. Returns kExitOk,
/// or kExitError if any write failed (the tool's real exit code wins if it
/// is already nonzero).
inline int write_obs_outputs(const ObsOptions& o, obs::MetricsRegistry* reg,
                             ScopedTracing& tracing) {
    bool ok = true;
    if (reg != nullptr && resilience::fault_armed())
        resilience::FaultRegistry::instance().export_metrics(*reg);
    if (!o.metrics_out.empty() && reg != nullptr)
        ok = obs::write_metrics_file(reg->snapshot(), o.metrics_out, o.metrics_format) && ok;
    if (!o.trace_out.empty() && tracing.collector() != nullptr) {
        obs::TraceCollector* col = tracing.collector();
        col->uninstall(); // stop recording before the drain
        ok = obs::write_trace_file(col->drain(), o.trace_out) && ok;
    }
    return ok ? kExitOk : kExitError;
}

} // namespace sbd::cli

#endif
