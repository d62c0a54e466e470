#include "sbd/block.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "sbd/library.hpp"

namespace sbd {

std::string cpp_double_literal(double x) {
    char buf[64];
    if (!std::isfinite(x)) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &x, sizeof bits);
        std::snprintf(buf, sizeof buf, "__builtin_bit_cast(double, 0x%016llxULL)",
                      static_cast<unsigned long long>(bits));
        return buf;
    }
    // to_chars with a precision prints exactly what printf's "%.17g" does.
    std::string s(buf, std::to_chars(buf, buf + sizeof buf, x, std::chars_format::general, 17).ptr);
    if (s.find_first_of(".eE") == std::string::npos) s += ".0";
    return s;
}

const char* to_string(BlockClass c) {
    switch (c) {
    case BlockClass::Combinational: return "combinational";
    case BlockClass::Sequential: return "sequential";
    case BlockClass::MooreSequential: return "Moore-sequential";
    }
    return "?";
}

Block::Block(std::string type_name, std::vector<std::string> inputs,
             std::vector<std::string> outputs)
    : type_name_(std::move(type_name)), inputs_(std::move(inputs)), outputs_(std::move(outputs)) {}

std::size_t Block::input_index(const std::string& name) const {
    for (std::size_t i = 0; i < inputs_.size(); ++i)
        if (inputs_[i] == name) return i;
    throw ModelError("block '" + type_name_ + "' has no input port '" + name + "'");
}

std::size_t Block::output_index(const std::string& name) const {
    for (std::size_t i = 0; i < outputs_.size(); ++i)
        if (outputs_[i] == name) return i;
    throw ModelError("block '" + type_name_ + "' has no output port '" + name + "'");
}

AtomicBlock::AtomicBlock(std::string type_name, std::vector<std::string> inputs,
                         std::vector<std::string> outputs, BlockClass cls,
                         std::vector<double> init_state, OutputFn output_fn, UpdateFn update_fn)
    : Block(std::move(type_name), std::move(inputs), std::move(outputs)),
      class_(cls),
      init_state_(std::move(init_state)),
      output_fn_(std::move(output_fn)),
      update_fn_(std::move(update_fn)) {
    if (class_ == BlockClass::Combinational) {
        if (!init_state_.empty())
            throw ModelError("combinational block '" + this->type_name() + "' must be stateless");
        if (update_fn_)
            throw ModelError("combinational block '" + this->type_name() + "' has an update function");
    } else if (!update_fn_) {
        throw ModelError("sequential block '" + this->type_name() + "' needs an update function");
    }
    if (!output_fn_ && num_outputs() > 0)
        throw ModelError("block '" + this->type_name() + "' with outputs needs an output function");
}

AtomicBlock::AtomicBlock(std::string type_name, std::vector<std::string> inputs,
                         std::vector<std::string> outputs, BlockClass cls,
                         std::vector<double> init_state, lib::Atom atom)
    : Block(std::move(type_name), std::move(inputs), std::move(outputs)),
      class_(cls),
      init_state_(std::move(init_state)),
      atom_(std::move(atom)) {}

void AtomicBlock::compute_outputs(std::span<const double> state, std::span<const double> inputs,
                                  std::span<double> outputs) const {
    if (atom_.op != lib::Op::Custom) lib::compute_outputs(atom_, state, inputs, outputs);
    else if (output_fn_) output_fn_(state, inputs, outputs);
}

void AtomicBlock::update_state(std::span<double> state, std::span<const double> inputs) const {
    if (atom_.op != lib::Op::Custom) lib::update_state(atom_, state, inputs);
    else if (update_fn_) update_fn_(state, inputs);
}

std::string to_string(const Endpoint& e) {
    std::ostringstream os;
    switch (e.kind) {
    case Endpoint::Kind::MacroInput: os << "in:" << e.port; break;
    case Endpoint::Kind::MacroOutput: os << "out:" << e.port; break;
    case Endpoint::Kind::SubInput: os << "sub" << e.sub << ".in:" << e.port; break;
    case Endpoint::Kind::SubOutput: os << "sub" << e.sub << ".out:" << e.port; break;
    }
    return os.str();
}

MacroBlock::MacroBlock(std::string type_name, std::vector<std::string> inputs,
                       std::vector<std::string> outputs)
    : Block(std::move(type_name), std::move(inputs), std::move(outputs)) {}

std::int32_t MacroBlock::add_sub(std::string instance_name, BlockPtr type, SourceLoc loc) {
    if (!type) throw ModelError("null sub-block type in macro '" + type_name() + "'");
    if (sub_names_.contains(instance_name))
        throw ModelError("duplicate sub-block name '" + instance_name + "' in macro '" +
                         type_name() + "'");
    const auto idx = static_cast<std::int32_t>(subs_.size());
    sub_names_.emplace(instance_name, idx);
    subs_.push_back(SubBlock{std::move(instance_name), std::move(type), std::nullopt, loc, {}});
    class_cache_.reset();
    return idx;
}

std::uint64_t MacroBlock::dst_key(const Endpoint& e) {
    return (static_cast<std::uint64_t>(e.kind) << 62) |
           (static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.sub)) << 30) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.port));
}

void MacroBlock::connect(Endpoint src, Endpoint dst, SourceLoc loc) {
    auto check = [this](const Endpoint& e, bool want_source) {
        if (e.is_source() != want_source)
            throw ModelError("endpoint " + to_string(e) + " used on the wrong side in macro '" +
                             type_name() + "'");
        switch (e.kind) {
        case Endpoint::Kind::MacroInput:
            if (e.port < 0 || static_cast<std::size_t>(e.port) >= num_inputs())
                throw ModelError("bad macro input port in '" + type_name() + "'");
            break;
        case Endpoint::Kind::MacroOutput:
            if (e.port < 0 || static_cast<std::size_t>(e.port) >= num_outputs())
                throw ModelError("bad macro output port in '" + type_name() + "'");
            break;
        case Endpoint::Kind::SubInput:
        case Endpoint::Kind::SubOutput: {
            if (e.sub < 0 || static_cast<std::size_t>(e.sub) >= subs_.size())
                throw ModelError("bad sub-block index in '" + type_name() + "'");
            const Block& b = *subs_[e.sub].type;
            const std::size_t n =
                e.kind == Endpoint::Kind::SubInput ? b.num_inputs() : b.num_outputs();
            if (e.port < 0 || static_cast<std::size_t>(e.port) >= n)
                throw ModelError("bad port " + to_string(e) + " in macro '" + type_name() + "'");
            break;
        }
        }
    };
    check(src, true);
    check(dst, false);
    const std::uint64_t key = dst_key(dst);
    if (writer_index_.contains(key))
        throw ModelError("destination " + to_string(dst) + " already has a writer in macro '" +
                         type_name() + "'");
    writer_index_.emplace(key, static_cast<std::int32_t>(conns_.size()));
    conns_.push_back(Connection{src, dst, loc});
    class_cache_.reset();
}

Endpoint MacroBlock::parse_endpoint(const std::string& text, bool as_source) const {
    const auto dot = text.find('.');
    Endpoint e;
    if (dot == std::string::npos) {
        // A port of this macro block: an input when used as a source, an
        // output when used as a destination.
        if (as_source) {
            e.kind = Endpoint::Kind::MacroInput;
            e.port = static_cast<std::int32_t>(input_index(text));
        } else {
            e.kind = Endpoint::Kind::MacroOutput;
            e.port = static_cast<std::int32_t>(output_index(text));
        }
        return e;
    }
    const std::string inst = text.substr(0, dot);
    const std::string port = text.substr(dot + 1);
    e.sub = sub_index(inst);
    const Block& b = *subs_[e.sub].type;
    if (as_source) {
        e.kind = Endpoint::Kind::SubOutput;
        e.port = static_cast<std::int32_t>(b.output_index(port));
    } else {
        e.kind = Endpoint::Kind::SubInput;
        e.port = static_cast<std::int32_t>(b.input_index(port));
    }
    return e;
}

void MacroBlock::connect(const std::string& from, const std::string& to, SourceLoc loc) {
    connect(parse_endpoint(from, true), parse_endpoint(to, false), loc);
}

void MacroBlock::set_trigger(std::int32_t sub, Endpoint src, SourceLoc loc) {
    if (sub < 0 || static_cast<std::size_t>(sub) >= subs_.size())
        throw ModelError("set_trigger: bad sub-block index in '" + type_name() + "'");
    if (!src.is_source())
        throw ModelError("set_trigger: " + to_string(src) + " is not a source endpoint");
    if (src.kind == Endpoint::Kind::MacroInput) {
        if (src.port < 0 || static_cast<std::size_t>(src.port) >= num_inputs())
            throw ModelError("set_trigger: bad macro input port in '" + type_name() + "'");
    } else {
        if (src.sub < 0 || static_cast<std::size_t>(src.sub) >= subs_.size() || src.port < 0 ||
            static_cast<std::size_t>(src.port) >= subs_[src.sub].type->num_outputs())
            throw ModelError("set_trigger: bad source port in '" + type_name() + "'");
    }
    if (subs_[sub].trigger)
        throw ModelError("sub-block '" + subs_[sub].name + "' already has a trigger");
    subs_[sub].trigger = src;
    subs_[sub].trigger_loc = loc;
    class_cache_.reset();
}

void MacroBlock::set_trigger(const std::string& instance, const std::string& src, SourceLoc loc) {
    set_trigger(sub_index(instance), parse_endpoint(src, true), loc);
}

std::int32_t MacroBlock::sub_index(const std::string& instance_name) const {
    const auto it = sub_names_.find(instance_name);
    if (it == sub_names_.end())
        throw ModelError("macro '" + type_name() + "' has no sub-block '" + instance_name + "'");
    return it->second;
}

const Connection* MacroBlock::writer_of(const Endpoint& dst) const {
    const auto it = writer_index_.find(dst_key(dst));
    if (it == writer_index_.end()) return nullptr;
    return &conns_[it->second];
}

void MacroBlock::validate() const {
    for (std::size_t s = 0; s < subs_.size(); ++s) {
        const Block& b = *subs_[s].type;
        for (std::size_t i = 0; i < b.num_inputs(); ++i) {
            const Endpoint dst{Endpoint::Kind::SubInput, static_cast<std::int32_t>(s),
                               static_cast<std::int32_t>(i)};
            if (writer_of(dst) == nullptr)
                throw ModelError("macro '" + type_name() + "': input '" + b.input_name(i) +
                                 "' of sub-block '" + subs_[s].name + "' is unconnected");
        }
    }
    for (std::size_t o = 0; o < num_outputs(); ++o) {
        const Endpoint dst{Endpoint::Kind::MacroOutput, -1, static_cast<std::int32_t>(o)};
        if (writer_of(dst) == nullptr)
            throw ModelError("macro '" + type_name() + "': output '" + output_name(o) +
                             "' is unconnected");
    }
}

} // namespace sbd
