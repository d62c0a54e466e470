#ifndef SBD_SBD_LIBRARY_HPP
#define SBD_SBD_LIBRARY_HPP

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sbd/block.hpp"

namespace sbd::lib {

using AtomicPtr = std::shared_ptr<const AtomicBlock>;

/// y = c, no inputs.
AtomicPtr constant(double c);
/// y = k * u.
AtomicPtr gain(double k);
/// y = sum(signs[i] * u_i); signs like "++-" (Simulink style).
AtomicPtr sum(const std::string& signs);
/// y = product of n inputs.
AtomicPtr product(std::size_t n);
/// Unit delay, Moore-sequential: y(k) = x(k-1), y(0) = init.
AtomicPtr unit_delay(double init = 0.0);
/// Discrete-time integrator (forward Euler), Moore-sequential:
/// y(k) = s(k); s(k+1) = s(k) + ts * u(k).
AtomicPtr integrator(double ts = 1.0, double init = 0.0);
/// First-order FIR, sequential but NOT Moore (the paper's Section 3
/// example): y(k) = a*x(k) + b*x(k-1).
AtomicPtr fir2(double a, double b);
/// y = clamp(u, lo, hi).
AtomicPtr saturation(double lo, double hi);
/// y = |u|.
AtomicPtr abs_block();
/// y = u1 / u2 (IEEE-754 semantics: x/0 = +-inf, 0/0 = NaN). The deep
/// analyzer (sbd-lint --deep) proves or refutes division-by-zero per use.
AtomicPtr divide();
/// y = min(u1, u2) or max(u1, u2).
AtomicPtr min_block();
AtomicPtr max_block();
/// y = (u1 <op> u2) ? 1 : 0 with op in {"<", "<=", ">", ">=", "==", "!="}.
AtomicPtr relational(const std::string& op);
/// y = (ctrl >= threshold) ? u1 : u2; 3 inputs (u1, ctrl, u2).
AtomicPtr switch_block(double threshold = 0.5);
/// Logical ops over {0,1}-valued doubles: "AND", "OR", "NOT", "XOR".
AtomicPtr logic(const std::string& op, std::size_t n = 2);
/// Dead zone: y = 0 inside [lo,hi], else distance to the zone.
AtomicPtr dead_zone(double lo, double hi);
/// 1-D lookup table with linear interpolation and clamped ends.
AtomicPtr lookup1d(std::vector<double> xs, std::vector<double> ys);
/// Moving average of the last n samples (sequential, non-Moore: includes
/// the current sample).
AtomicPtr moving_average(std::size_t n);
/// Discrete transfer function b0 + b1 z^-1 / (1 + a1 z^-1) realized in
/// direct form II; sequential, non-Moore when b0 != 0.
AtomicPtr first_order_filter(double b0, double b1, double a1);
/// Moore counter: y(k) = s(k); s(k+1) = s(k) + 1 if enable else s(k).
AtomicPtr counter();
/// Fan-out helper with m outputs all equal to the input (combinational).
AtomicPtr fanout(std::size_t m);
/// Sample-and-hold, Moore: y = held value; update: if trigger>=0.5 hold u.
AtomicPtr sample_hold(double init = 0.0);
/// Affine splitter, combinational: y1 = a1*u + b1; y2 = a2*u + b2.
AtomicPtr splitter2(double a1, double b1, double a2, double b2);
/// Clock divider, Moore: emits 1 every `period` instants (at instants k
/// with k mod period == phase), else 0. No inputs. Together with triggers
/// this realizes the timed/multi-rate diagrams of Lublinerman-Tripakis
/// 2008a: a block triggered by clock_divider(n) runs at 1/n rate.
AtomicPtr clock_divider(std::size_t period, std::size_t phase = 0);

/// One row of the op table: the op's .sbd type name and its parameter
/// shape, one character per parameter: 'n' a number, 'k' a count (a
/// non-negative integer), 'w' a word; "/" is Lookup1D's `xs.. / ys..`.
struct OpRow { Op op; const char* name; const char* params; };

/// Every library op, in Op order.
std::span<const OpRow> op_table();

/// The block for a library atom. Throws ModelError when the parameters are
/// invalid (an unknown operator word, a count out of range, ...).
AtomicPtr make(Atom atom);

/// Library semantics, one switch per op: the interpreter's firing.
void compute_outputs(const Atom& atom, std::span<const double> state,
                     std::span<const double> inputs, std::span<double> outputs);
void update_state(const Atom& atom, std::span<double> state, std::span<const double> inputs);

/// C++ source form of an atomic block's semantics, used by the C++ emitter
/// so that generated code is compilable stand-alone. Bodies are statement
/// lists over variables u0,u1,... (inputs), s0,s1,... (state) and
/// y0,y1,... (outputs). Only std::size_t, std::array, std::min, std::max,
/// std::clamp and std::fabs may be used: the native backend's header-free
/// prelude provides exactly these.
struct CppSemantics {
    std::string output_body; ///< assigns y*; reads u*, s*
    std::string update_body; ///< assigns s*; reads u*, s* (sequential only)
};

/// The block's C++ semantics, printed from its op; nullopt for a Custom
/// block (and for a library block whose bodies are both empty).
std::optional<CppSemantics> cpp_semantics(const AtomicBlock& a);

/// The block's .sbd type spec ("Gain 2"), printed from its op; empty for a
/// Custom block.
std::string sbd_spec(const AtomicBlock& a);

/// Custom blocks: generic stateless block with custom arity and semantics.
AtomicPtr make_combinational(std::string name, std::vector<std::string> inputs,
                             std::vector<std::string> outputs, AtomicBlock::OutputFn fn);

/// Generic Moore-sequential block (outputs read state only).
AtomicPtr make_moore(std::string name, std::vector<std::string> inputs,
                     std::vector<std::string> outputs, std::vector<double> init_state,
                     AtomicBlock::OutputFn output_fn, AtomicBlock::UpdateFn update_fn);

/// Generic non-Moore sequential block.
AtomicPtr make_sequential(std::string name, std::vector<std::string> inputs,
                          std::vector<std::string> outputs, std::vector<double> init_state,
                          AtomicBlock::OutputFn output_fn, AtomicBlock::UpdateFn update_fn);

} // namespace sbd::lib

#endif
