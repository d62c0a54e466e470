#include "sbd/flatten.hpp"

#include <cassert>
#include <functional>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>

#include "sbd/library.hpp"

namespace sbd {

/// Performs one level of splicing at a time, recursively; memoizes flattened
/// sub-blocks so shared block types are flattened once.
class FlattenContext {
public:
    std::shared_ptr<const MacroBlock> flatten_block(const MacroBlock& m) {
        const auto it = memo_.find(&m);
        if (it != memo_.end()) return it->second;
        auto flat = splice(m);
        memo_.emplace(&m, flat);
        return flat;
    }

private:
    /// Flattens `m` assuming nothing; recursively flattens macro sub-blocks
    /// first, then splices them into a single-level diagram.
    std::shared_ptr<const MacroBlock> splice(const MacroBlock& m) {
        m.validate();

        // Flattened version of each sub-block type (atomic subs stay as is).
        std::vector<std::shared_ptr<const MacroBlock>> flat_sub(m.num_subs());
        for (std::size_t s = 0; s < m.num_subs(); ++s)
            if (!m.sub(s).type->is_atomic())
                flat_sub[s] = flatten_block(static_cast<const MacroBlock&>(*m.sub(s).type));

        auto result = std::make_shared<MacroBlock>(
            m.type_name(), input_names(m), output_names(m));

        // new_atomic[s] maps: for an atomic sub s, inner index 0 -> new idx;
        // for a macro sub s, inner atomic index j -> new idx.
        std::vector<std::vector<std::int32_t>> new_atomic(m.num_subs());
        for (std::size_t s = 0; s < m.num_subs(); ++s) {
            if (m.sub(s).type->is_atomic()) {
                new_atomic[s].push_back(result->add_sub(m.sub(s).name, m.sub(s).type));
            } else {
                const MacroBlock& f = *flat_sub[s];
                new_atomic[s].resize(f.num_subs());
                for (std::size_t j = 0; j < f.num_subs(); ++j)
                    new_atomic[s][j] =
                        result->add_sub(m.sub(s).name + "/" + f.sub(j).name, f.sub(j).type);
            }
        }

        // Resolves a source endpoint of `m` to a source endpoint of the
        // result (macro input, or output of a new atomic sub), following
        // pass-through wires of flattened macro subs. A triggered sub holds
        // its outputs, pass-throughs too: those resolve to a triggered Fanout1.
        std::map<std::pair<std::int32_t, std::int32_t>, std::int32_t> holds;
        std::function<Endpoint(Endpoint)> resolve = [&](Endpoint src) -> Endpoint {
            std::set<std::pair<std::int32_t, std::int32_t>> visited;
            for (;;) {
                if (src.kind == Endpoint::Kind::MacroInput) return src;
                assert(src.kind == Endpoint::Kind::SubOutput);
                const std::size_t s = static_cast<std::size_t>(src.sub);
                if (m.sub(s).type->is_atomic())
                    return Endpoint{Endpoint::Kind::SubOutput, new_atomic[s][0], src.port};
                const MacroBlock& f = *flat_sub[s];
                const Connection* inner =
                    f.writer_of(Endpoint{Endpoint::Kind::MacroOutput, -1, src.port});
                assert(inner != nullptr); // f validated
                if (inner->src.kind == Endpoint::Kind::SubOutput)
                    return Endpoint{Endpoint::Kind::SubOutput,
                                    new_atomic[s][inner->src.sub], inner->src.port};
                // Pass-through: f's output comes straight from f's input
                // `inner->src.port`; chase the wire feeding that input of s.
                const Connection* outer = m.writer_of(Endpoint{
                    Endpoint::Kind::SubInput, src.sub, inner->src.port});
                assert(outer != nullptr); // m validated
                if (m.sub(s).trigger) {
                    const auto [it, fresh] = holds.try_emplace({src.sub, src.port}, -1);
                    if (fresh) {
                        it->second = result->add_sub(
                            m.sub(s).name + "/hold/" + f.output_name(src.port), lib::fanout(1));
                        result->connect(resolve(outer->src),
                                        Endpoint{Endpoint::Kind::SubInput, it->second, 0});
                        result->set_trigger(it->second, resolve(*m.sub(s).trigger));
                    }
                    return Endpoint{Endpoint::Kind::SubOutput, it->second, 0};
                }
                if (!visited.insert({src.sub, inner->src.port}).second)
                    throw ModelError("cycle of pass-through wires in macro '" + m.type_name() +
                                     "'");
                src = outer->src;
            }
        };

        // 1. Splice connections of m itself.
        for (const Connection& c : m.connections()) {
            switch (c.dst.kind) {
            case Endpoint::Kind::MacroOutput:
                result->connect(resolve(c.src), c.dst);
                break;
            case Endpoint::Kind::SubInput: {
                const std::size_t s = static_cast<std::size_t>(c.dst.sub);
                if (m.sub(s).type->is_atomic()) {
                    result->connect(resolve(c.src), Endpoint{Endpoint::Kind::SubInput,
                                                             new_atomic[s][0], c.dst.port});
                } else {
                    // Fan the wire out to every inner consumer of this input
                    // of the flattened sub-block.
                    const MacroBlock& f = *flat_sub[s];
                    for (const Connection& ic : f.connections()) {
                        if (ic.src.kind != Endpoint::Kind::MacroInput ||
                            ic.src.port != c.dst.port)
                            continue;
                        if (ic.dst.kind == Endpoint::Kind::SubInput)
                            result->connect(resolve(c.src),
                                            Endpoint{Endpoint::Kind::SubInput,
                                                     new_atomic[s][ic.dst.sub], ic.dst.port});
                        // MacroOutput dst: a pass-through, handled by
                        // resolve() at its consumers.
                    }
                }
                break;
            }
            default:
                assert(false);
            }
        }

        // 2. Lift internal atomic-to-atomic connections of macro subs.
        for (std::size_t s = 0; s < m.num_subs(); ++s) {
            if (m.sub(s).type->is_atomic()) continue;
            const MacroBlock& f = *flat_sub[s];
            for (const Connection& ic : f.connections()) {
                if (ic.src.kind != Endpoint::Kind::SubOutput ||
                    ic.dst.kind != Endpoint::Kind::SubInput)
                    continue;
                result->connect(
                    Endpoint{Endpoint::Kind::SubOutput, new_atomic[s][ic.src.sub], ic.src.port},
                    Endpoint{Endpoint::Kind::SubInput, new_atomic[s][ic.dst.sub], ic.dst.port});
            }
        }

        // 3. Distribute triggers (triggered-diagram extension). An atomic
        // sub keeps its (resolved) trigger. For a triggered macro sub, the
        // trigger reaches every inner block; where an inner block has its
        // own trigger, the two are conjoined through a synthesized AND.
        std::size_t and_serial = 0;
        const auto conjoin = [&](const std::optional<Endpoint>& outer,
                                 const std::optional<Endpoint>& inner) -> std::optional<Endpoint> {
            if (!outer) return inner;
            if (!inner) return outer;
            const auto and_idx = result->add_sub(
                "trigand/" + std::to_string(and_serial++), lib::logic("AND", 2));
            result->connect(*outer, Endpoint{Endpoint::Kind::SubInput, and_idx, 0});
            result->connect(*inner, Endpoint{Endpoint::Kind::SubInput, and_idx, 1});
            return Endpoint{Endpoint::Kind::SubOutput, and_idx, 0};
        };
        for (std::size_t s = 0; s < m.num_subs(); ++s) {
            std::optional<Endpoint> outer;
            if (m.sub(s).trigger) outer = resolve(*m.sub(s).trigger);
            if (m.sub(s).type->is_atomic()) {
                if (outer) result->set_trigger(new_atomic[s][0], *outer);
                continue;
            }
            const MacroBlock& f = *flat_sub[s];
            for (std::size_t j = 0; j < f.num_subs(); ++j) {
                std::optional<Endpoint> inner;
                if (f.sub(j).trigger) {
                    const Endpoint t = *f.sub(j).trigger;
                    if (t.kind == Endpoint::Kind::SubOutput) {
                        inner = Endpoint{Endpoint::Kind::SubOutput, new_atomic[s][t.sub], t.port};
                    } else {
                        // Inner trigger wired to f's input: chase the outer wire.
                        const Connection* outer_conn =
                            m.writer_of(Endpoint{Endpoint::Kind::SubInput,
                                                 static_cast<std::int32_t>(s), t.port});
                        assert(outer_conn != nullptr);
                        inner = resolve(outer_conn->src);
                    }
                }
                const auto effective = conjoin(outer, inner);
                if (effective) result->set_trigger(new_atomic[s][j], *effective);
            }
        }

        result->validate();
        return result;
    }

    static std::vector<std::string> input_names(const Block& b) {
        std::vector<std::string> v;
        for (std::size_t i = 0; i < b.num_inputs(); ++i) v.push_back(b.input_name(i));
        return v;
    }
    static std::vector<std::string> output_names(const Block& b) {
        std::vector<std::string> v;
        for (std::size_t i = 0; i < b.num_outputs(); ++i) v.push_back(b.output_name(i));
        return v;
    }

    std::unordered_map<const MacroBlock*, std::shared_ptr<const MacroBlock>> memo_;
};

std::shared_ptr<const MacroBlock> flatten(const MacroBlock& root) {
    FlattenContext ctx;
    return ctx.flatten_block(root);
}

graph::Digraph block_dependency_graph(const MacroBlock& flat) {
    graph::Digraph g(flat.num_subs());
    // Data wire A -> B constrains the instant iff B's outputs read
    // same-instant inputs, i.e. B is not Moore-sequential. (On untriggered
    // diagrams this consumer-side rule admits exactly the same cycles as
    // Section 3's producer-side rule — a cycle contains only non-Moore
    // blocks either way — and additionally provides the firing order the
    // simulator executes.) A trigger wire always constrains: even a Moore
    // block's outputs depend on the *current* trigger value (fire vs hold).
    for (const Connection& c : flat.connections()) {
        if (c.src.kind != Endpoint::Kind::SubOutput || c.dst.kind != Endpoint::Kind::SubInput)
            continue;
        const Block& consumer = *flat.sub(c.dst.sub).type;
        if (consumer.block_class() == BlockClass::MooreSequential) continue;
        g.add_edge(static_cast<graph::NodeId>(c.src.sub), static_cast<graph::NodeId>(c.dst.sub));
    }
    for (std::size_t s = 0; s < flat.num_subs(); ++s) {
        const auto& trig = flat.sub(s).trigger;
        if (trig && trig->kind == Endpoint::Kind::SubOutput)
            g.add_edge(static_cast<graph::NodeId>(trig->sub), static_cast<graph::NodeId>(s));
    }
    return g;
}

bool is_acyclic_diagram(const MacroBlock& root) {
    const auto flat = flatten(root);
    return block_dependency_graph(*flat).is_acyclic();
}

BlockClass MacroBlock::block_class() const {
    if (class_cache_) return *class_cache_;
    const auto flat = flatten(*this);
    bool sequential = false;
    for (std::size_t s = 0; s < flat->num_subs(); ++s)
        if (flat->sub(s).type->block_class() != BlockClass::Combinational ||
            flat->sub(s).trigger)
            sequential = true; // held outputs of a triggered block are state
    if (!sequential) {
        class_cache_ = BlockClass::Combinational;
        return *class_cache_;
    }
    // Moore-sequential iff no same-instant path from any input to any
    // output of the flattened diagram. Nodes: inputs, blocks, outputs.
    // Same-instant propagation *into* a block: through data wires iff the
    // block is non-Moore, through trigger wires always (fire-vs-hold is
    // decided by the current trigger value).
    const std::size_t nin = num_inputs();
    const std::size_t nblocks = flat->num_subs();
    const std::size_t nout = num_outputs();
    graph::Digraph g(nin + nblocks + nout);
    auto in_node = [&](std::int32_t p) { return static_cast<graph::NodeId>(p); };
    auto blk_node = [&](std::int32_t s) { return static_cast<graph::NodeId>(nin + s); };
    auto out_node = [&](std::int32_t p) { return static_cast<graph::NodeId>(nin + nblocks + p); };
    const auto src_node = [&](const Endpoint& e) {
        return e.kind == Endpoint::Kind::MacroInput ? in_node(e.port) : blk_node(e.sub);
    };
    for (const Connection& c : flat->connections()) {
        if (c.dst.kind == Endpoint::Kind::MacroOutput) {
            g.add_edge(src_node(c.src), out_node(c.dst.port));
            continue;
        }
        const Block& consumer = *flat->sub(c.dst.sub).type;
        if (consumer.block_class() == BlockClass::MooreSequential)
            continue; // same-instant data never crosses a Moore block
        g.add_edge(src_node(c.src), blk_node(c.dst.sub));
    }
    for (std::size_t s = 0; s < flat->num_subs(); ++s)
        if (flat->sub(s).trigger)
            g.add_edge(src_node(*flat->sub(s).trigger), blk_node(static_cast<std::int32_t>(s)));
    bool moore = true;
    for (std::size_t i = 0; i < nin && moore; ++i) {
        const auto reach = g.reachable_from(in_node(static_cast<std::int32_t>(i)));
        for (std::size_t o = 0; o < nout && moore; ++o)
            if (reach.test(out_node(static_cast<std::int32_t>(o)))) moore = false;
    }
    class_cache_ = moore ? BlockClass::MooreSequential : BlockClass::Sequential;
    return *class_cache_;
}

} // namespace sbd
