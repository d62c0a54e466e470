#ifndef SBD_SBD_BLOCK_HPP
#define SBD_SBD_BLOCK_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

namespace sbd {

/// Raised for structurally invalid diagrams (unconnected inputs, duplicate
/// writers, bad port references, ...).
class ModelError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// A position in a textual .sbd source: 1-based line and column, (0, 0) when
/// the element was built programmatically. Carried from the parser into
/// blocks, sub-block instances and connections so that the static-analysis
/// layer (src/analysis) can point diagnostics at the offending source line.
struct SourceLoc {
    std::int32_t line = 0;
    std::int32_t col = 0;

    bool valid() const { return line > 0; }
    bool operator==(const SourceLoc&) const = default;
};

/// The paper's three-way classification of blocks (Section 3): combinational
/// blocks are stateless; sequential blocks have internal state; a
/// Moore-sequential block's outputs depend only on its current state, never
/// on its current inputs (e.g. a unit delay).
enum class BlockClass { Combinational, Sequential, MooreSequential };

const char* to_string(BlockClass c);

class Block;
using BlockPtr = std::shared_ptr<const Block>;

/// Common interface of atomic and macro blocks: a named type with ordered,
/// named input and output ports.
class Block {
public:
    Block(std::string type_name, std::vector<std::string> inputs, std::vector<std::string> outputs);
    virtual ~Block() = default;

    Block(const Block&) = delete;
    Block& operator=(const Block&) = delete;

    const std::string& type_name() const { return type_name_; }
    std::size_t num_inputs() const { return inputs_.size(); }
    std::size_t num_outputs() const { return outputs_.size(); }
    const std::string& input_name(std::size_t i) const { return inputs_.at(i); }
    const std::string& output_name(std::size_t i) const { return outputs_.at(i); }

    /// Index of the named port; throws ModelError if absent.
    std::size_t input_index(const std::string& name) const;
    std::size_t output_index(const std::string& name) const;

    virtual bool is_atomic() const = 0;
    /// True for interface-only black boxes (see OpaqueBlock): they can be
    /// analyzed and compiled against, but carry no executable semantics.
    virtual bool is_opaque() const { return false; }
    virtual BlockClass block_class() const = 0;

    /// Where this block's definition starts in its .sbd source, if any
    /// (set by the parser before the block is shared).
    void set_def_loc(SourceLoc loc) { def_loc_ = loc; }
    const SourceLoc& def_loc() const { return def_loc_; }

private:
    std::string type_name_;
    std::vector<std::string> inputs_;
    std::vector<std::string> outputs_;
    SourceLoc def_loc_;
};

/// A C++ expression for `x` that reads back bit-exactly: "%.17g" (with
/// ".0" appended to integers) when finite, and __builtin_bit_cast over the
/// raw bits otherwise, since `inf` and `nan` are not C++ tokens.
std::string cpp_double_literal(double x);

namespace lib {

/// The block library's atomic operations (src/sbd/library.hpp defines
/// each); `Custom` is an in-process block given by its own functions.
enum class Op : std::uint8_t {
    Constant, Gain, Sum, Product, UnitDelay, Integrator, Fir2, Saturation, Abs, Div, Min, Max,
    Relational, Switch, Logic, DeadZone, Lookup1D, MovingAvg, Filter1, Counter, Fanout,
    SampleHold, Split2, Clock, Custom,
};

/// A library atom: an op with its parameters. `nums` holds the numbers
/// (counts included) in .sbd spec order, Lookup1D's breakpoints then its
/// values; `word` holds the Sum signs or the Relational/Logic operator.
struct Atom {
    Op op = Op::Custom;
    std::vector<double> nums;
    std::string word;
};

} // namespace lib

/// An atomic block with executable synchronous semantics:
///   outputs(k) = output_fn(state(k), inputs(k))   (inputs ignored if Moore)
///   state(k+1) = update_fn(state(k), inputs(k))   (sequential only)
/// A library block reaches its functions through its op (lib::make); a
/// Custom block carries them.
class AtomicBlock final : public Block {
public:
    /// Computes outputs from state and current inputs. For Moore-sequential
    /// blocks the simulator passes an *empty* input span, so semantics that
    /// illegally peek at inputs fault loudly in tests.
    using OutputFn =
        std::function<void(std::span<const double> state, std::span<const double> inputs,
                           std::span<double> outputs)>;
    /// Advances the state at the end of the synchronous instant.
    using UpdateFn = std::function<void(std::span<double> state, std::span<const double> inputs)>;

    /// A Custom block.
    AtomicBlock(std::string type_name, std::vector<std::string> inputs,
                std::vector<std::string> outputs, BlockClass cls, std::vector<double> init_state,
                OutputFn output_fn, UpdateFn update_fn);
    /// A library block; lib::make derives its name and shape from `atom`.
    AtomicBlock(std::string type_name, std::vector<std::string> inputs,
                std::vector<std::string> outputs, BlockClass cls, std::vector<double> init_state,
                lib::Atom atom);

    bool is_atomic() const override { return true; }
    BlockClass block_class() const override { return class_; }

    const std::vector<double>& initial_state() const { return init_state_; }
    const lib::Atom& atom() const { return atom_; }

    void compute_outputs(std::span<const double> state, std::span<const double> inputs,
                         std::span<double> outputs) const;
    void update_state(std::span<double> state, std::span<const double> inputs) const;

private:
    BlockClass class_;
    std::vector<double> init_state_;
    lib::Atom atom_;
    OutputFn output_fn_;
    UpdateFn update_fn_;
};

/// A reference to a port in the internal diagram of a macro block.
struct Endpoint {
    enum class Kind : std::uint8_t { MacroInput, MacroOutput, SubInput, SubOutput };
    Kind kind = Kind::MacroInput;
    std::int32_t sub = -1; ///< sub-block index for Sub* kinds, -1 otherwise
    std::int32_t port = 0;

    bool operator==(const Endpoint&) const = default;
    bool is_source() const { return kind == Kind::MacroInput || kind == Kind::SubOutput; }
};

std::string to_string(const Endpoint& e);

/// A wire from a source (macro input or sub output) to a destination (sub
/// input or macro output). A source may fan out to many destinations; each
/// destination has exactly one source.
struct Connection {
    Endpoint src;
    Endpoint dst;
    SourceLoc loc; ///< the `connect` statement's position, if parsed
};

/// A macro (composite) block: an encapsulated diagram of sub-block
/// instances.
///
/// Macro blocks are built with add_sub()/connect() and then frozen by
/// sharing them as `BlockPtr` (`shared_ptr<const Block>`); all analysis
/// entry points take const references.
class MacroBlock final : public Block {
public:
    struct SubBlock {
        std::string name; ///< instance name, unique within the macro
        BlockPtr type;
        /// Triggered-diagram extension (Lublinerman & Tripakis 2008a): when
        /// set, the instance fires only at instants where this source signal
        /// is >= 0.5; otherwise its outputs hold their previous values
        /// (initially 0) and its state does not advance.
        std::optional<Endpoint> trigger;
        SourceLoc loc;         ///< the `sub` statement's position, if parsed
        SourceLoc trigger_loc; ///< the `trigger` statement's position, if parsed
    };

    MacroBlock(std::string type_name, std::vector<std::string> inputs,
               std::vector<std::string> outputs);

    /// Adds a sub-block instance; returns its index.
    std::int32_t add_sub(std::string instance_name, BlockPtr type, SourceLoc loc = {});

    /// Wires src -> dst. Throws ModelError on malformed endpoints or if dst
    /// already has a writer.
    void connect(Endpoint src, Endpoint dst, SourceLoc loc = {});

    /// Name-based convenience: "inst.port" addresses a sub-block port,
    /// a bare "port" addresses a port of this macro block.
    void connect(const std::string& from, const std::string& to, SourceLoc loc = {});

    /// Resolves textual endpoint syntax ("inst.port" or a bare macro port)
    /// without connecting; as_source selects input vs output orientation.
    /// Throws ModelError on unknown instances or ports. Public so that the
    /// diagnostics layer can classify connection problems precisely.
    Endpoint resolve_endpoint(const std::string& text, bool as_source) const {
        return parse_endpoint(text, as_source);
    }

    /// Makes sub-block `instance` triggered by the source `src` (a macro
    /// input or a sub-block output). A sub-block has at most one trigger.
    void set_trigger(std::int32_t sub, Endpoint src, SourceLoc loc = {});
    void set_trigger(const std::string& instance, const std::string& src, SourceLoc loc = {});

    std::size_t num_subs() const { return subs_.size(); }
    const SubBlock& sub(std::size_t i) const { return subs_.at(i); }
    /// Index of the named instance; throws if absent.
    std::int32_t sub_index(const std::string& instance_name) const;

    const std::vector<Connection>& connections() const { return conns_; }

    /// The unique connection writing `dst`, or nullptr if unconnected.
    const Connection* writer_of(const Endpoint& dst) const;

    /// Checks structural well-formedness: every sub input and every macro
    /// output has exactly one writer; endpoints in range. Throws ModelError
    /// describing the first problem found.
    void validate() const;

    bool is_atomic() const override { return false; }

    /// Derived per Section 3 "the definitions extend to macro blocks": the
    /// class is computed on the flattened diagram (combinational if no
    /// sequential sub; Moore-sequential if additionally no combinational
    /// path from any input to any output). Cached after first call.
    BlockClass block_class() const override;

private:
    friend class FlattenContext;
    static std::uint64_t dst_key(const Endpoint& e);
    Endpoint parse_endpoint(const std::string& text, bool as_source) const;

    std::vector<SubBlock> subs_;
    std::vector<Connection> conns_;
    std::unordered_map<std::string, std::int32_t> sub_names_;
    std::unordered_map<std::uint64_t, std::int32_t> writer_index_;
    mutable std::optional<BlockClass> class_cache_;
};

} // namespace sbd

#endif
