#ifndef SBD_TESTS_HELPERS_HPP
#define SBD_TESTS_HELPERS_HPP

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <vector>

#include "core/compiler.hpp"
#include "core/exec.hpp"
#include "sbd/flatten.hpp"
#include "sim/simulator.hpp"

namespace sbd::testing {

/// Random input trace for a block: `steps` instants of uniform values.
inline std::vector<std::vector<double>> random_trace(std::size_t num_inputs, std::size_t steps,
                                                     std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> dist(-4.0, 4.0);
    std::vector<std::vector<double>> trace(steps, std::vector<double>(num_inputs));
    for (auto& row : trace)
        for (auto& v : row) v = dist(rng);
    return trace;
}

/// The bits of `x`: oracle comparisons are bitwise, so 0.0 vs -0.0 and
/// one-ULP differences fail, and NaN matches NaN of the same bits.
inline std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// The central semantic property of the whole framework: executing the
/// modularly generated code (any clustering method) for T instants produces
/// exactly the trace of the reference simulator on the flattened diagram.
inline void expect_equivalent(const std::shared_ptr<const MacroBlock>& block,
                              codegen::Method method,
                              const std::vector<std::vector<double>>& trace) {
    const auto expected = sim::simulate(*block, trace);
    const auto sys = codegen::compile_hierarchy(block, method);
    codegen::InterpInstance inst(sys, block);
    for (std::size_t t = 0; t < trace.size(); ++t) {
        const auto got = inst.step_instant(trace[t]);
        ASSERT_EQ(got.size(), expected[t].size());
        for (std::size_t o = 0; o < got.size(); ++o)
            ASSERT_EQ(bits(got[o]), bits(expected[t][o]))
                << got[o] << " vs " << expected[t][o] << " method=" << codegen::to_string(method)
                << " t=" << t << " output=" << o << " block=" << block->type_name();
    }
}

} // namespace sbd::testing

#endif
