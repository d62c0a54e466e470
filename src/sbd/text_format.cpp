#include "sbd/text_format.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "graph/digraph.hpp"
#include "sbd/library.hpp"
#include "sbd/opaque.hpp"

namespace sbd::text {

namespace {

struct Token {
    std::string text;
    int line;
    int col;
};

SourceLoc loc_of(const Token& t) { return SourceLoc{t.line, t.col}; }

std::vector<Token> tokenize(std::istream& in) {
    std::vector<Token> out;
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const auto hash = line.find('#');
        if (hash != std::string::npos) line.resize(hash);
        std::size_t j = 0;
        while (j < line.size()) {
            const char c = line[j];
            if (std::isspace(static_cast<unsigned char>(c))) {
                ++j;
                continue;
            }
            // Allow '{' and '}' to stick to neighbours.
            if (c == '{' || c == '}') {
                out.push_back({std::string(1, c), lineno, static_cast<int>(j + 1)});
                ++j;
                continue;
            }
            const std::size_t start = j;
            while (j < line.size() && !std::isspace(static_cast<unsigned char>(line[j])) &&
                   line[j] != '{' && line[j] != '}')
                ++j;
            out.push_back({line.substr(start, j - start), lineno, static_cast<int>(start + 1)});
        }
    }
    return out;
}

/// Internal parse-abort signal; converted to ModelError (strict mode) or a
/// recorded ParseIssue (lenient mode) by parse_sbd. An empty code means a
/// structural problem rethrown from the model layer.
struct ParseFail {
    std::string code;
    SourceLoc loc;
    std::string message;
};

[[noreturn]] void fail(const Token& t, const char* code, const std::string& msg) {
    throw ParseFail{code, loc_of(t), msg};
}

double num(const Token& t) {
    std::size_t pos = 0;
    double v = 0;
    try {
        v = std::stod(t.text, &pos);
    } catch (const std::exception&) {
        fail(t, "SBD002", "expected a number, got '" + t.text + "'");
    }
    if (pos != t.text.size()) fail(t, "SBD002", "trailing junk in number '" + t.text + "'");
    return v;
}

/// A count parameter: an integer in [0, 2^64). The range is checked on
/// the double, because casting NaN or an out-of-range value is undefined.
double natural(const Token& t) {
    const double v = num(t);
    if (!(v >= 0 && v < 0x1p64 && v == std::floor(v)))
        fail(t, "SBD002", "expected a non-negative integer, got '" + t.text + "'");
    return v;
}

/// Builds an atomic block from its type token and parameter tokens, read
/// by the op table's parameter shape.
BlockPtr make_atomic(const Token& type, std::span<const Token> params) {
    const auto ops = lib::op_table();
    const auto row = std::find_if(ops.begin(), ops.end(),
                                  [&](const lib::OpRow& r) { return type.text == r.name; });
    if (row == ops.end()) fail(type, "SBD002", "unknown block type '" + type.text + "'");
    const std::string_view shape = row->params;
    if (shape == "/") {
        std::vector<double> xs, ys;
        bool after_slash = false;
        for (const Token& p : params) {
            if (p.text == "/") { after_slash = true; continue; }
            (after_slash ? ys : xs).push_back(num(p));
        }
        if (!after_slash) fail(type, "SBD002", "Lookup1D needs 'x.. / y..'");
        return lib::lookup1d(std::move(xs), std::move(ys));
    }
    if (params.size() != shape.size())
        fail(type, "SBD002", type.text + " expects " + std::to_string(shape.size()) +
                                 " parameter(s), got " + std::to_string(params.size()));
    lib::Atom atom{row->op, {}, {}};
    for (std::size_t i = 0; i < shape.size(); ++i) {
        if (shape[i] == 'w') atom.word = params[i].text;
        else atom.nums.push_back(shape[i] == 'k' ? natural(params[i]) : num(params[i]));
    }
    return lib::make(std::move(atom));
}

/// Index of `name` in `names`, or nullopt (used for extern port lookups
/// where a miss must not abort the whole lenient parse).
std::optional<std::size_t> find_name(const std::vector<std::string>& names,
                                     const std::string& name) {
    for (std::size_t p = 0; p < names.size(); ++p)
        if (names[p] == name) return p;
    return std::nullopt;
}

ParsedFile parse_sbd_impl(std::istream& in, ParseMode mode) {
    const auto toks = tokenize(in);
    const bool lenient = mode == ParseMode::Lenient;
    std::size_t i = 0;
    const auto eof_loc = [&]() -> SourceLoc {
        return toks.empty() ? SourceLoc{1, 1} : loc_of(toks.back());
    };
    const auto peek = [&]() -> const Token& {
        if (i >= toks.size()) throw ParseFail{"SBD001", eof_loc(), "unexpected end of file"};
        return toks[i];
    };
    const auto next = [&]() -> const Token& {
        const Token& t = peek();
        ++i;
        return t;
    };
    const auto expect = [&](const std::string& what) -> const Token& {
        const Token& t = next();
        if (t.text != what) fail(t, "SBD001", "expected '" + what + "', got '" + t.text + "'");
        return t;
    };

    ParsedFile file;
    // Records a problem (lenient) or aborts the parse with it (strict).
    const auto problem = [&](const char* code, const Token& t, const std::string& msg) {
        if (!lenient) throw ParseFail{code, loc_of(t), msg};
        file.issues.push_back(ParseIssue{code, msg, loc_of(t)});
    };
    const std::vector<std::string> stmt_keywords = {"inputs", "outputs", "sub",    "connect",
                                                    "trigger", "class",  "function", "order",
                                                    "}"};
    const auto is_keyword = [&](const std::string& s) {
        for (const auto& k : stmt_keywords)
            if (k == s) return true;
        return s == "block" || s == "extern";
    };
    // Lenient-mode recovery: skip to the start of the next statement.
    const auto resync_statement = [&] {
        while (i < toks.size() && !is_keyword(toks[i].text)) ++i;
    };

    while (i < toks.size()) {
        try {
        bool is_extern = false;
        if (peek().text == "extern") {
            next();
            is_extern = true;
        }
        expect("block");
        const Token name = next();
        const bool duplicate = file.blocks.contains(name.text);
        if (duplicate)
            problem("SBD001", name, "duplicate block '" + name.text + "'");
        expect("{");

        std::vector<std::string> inputs, outputs;
        struct SubDecl {
            Token inst;
            Token type;
            std::vector<Token> params;
        };
        std::vector<SubDecl> subs;
        std::vector<std::pair<Token, Token>> wires;    // (src, dst)
        std::vector<std::pair<Token, Token>> triggers; // (inst, src)
        // extern-block declarations
        struct FnDecl {
            Token name;
            std::vector<Token> reads;
            std::vector<Token> writes;
        };
        std::vector<FnDecl> fn_decls;
        std::vector<std::pair<Token, Token>> order_decls; // (before, after)
        std::optional<Token> class_decl;

        for (;;) {
            if (lenient && i >= toks.size()) {
                problem("SBD001", toks.back(), "unclosed block '" + name.text + "'");
                break;
            }
            const Token kw = next();
            if (kw.text == "}") break;
            try {
            if (kw.text == "inputs" || kw.text == "outputs") {
                auto& dst = kw.text == "inputs" ? inputs : outputs;
                while (i < toks.size() && !is_keyword(peek().text)) dst.push_back(next().text);
            } else if (kw.text == "sub") {
                SubDecl d{next(), next(), {}};
                while (i < toks.size() && !is_keyword(peek().text)) d.params.push_back(next());
                subs.push_back(std::move(d));
            } else if (kw.text == "connect") {
                const Token src = next();
                const Token dst = next();
                wires.emplace_back(src, dst);
            } else if (kw.text == "trigger") {
                const Token inst = next();
                const Token src = next();
                triggers.emplace_back(inst, src);
            } else if (kw.text == "class" && is_extern) {
                class_decl = next();
            } else if (kw.text == "function" && is_extern) {
                FnDecl d{next(), {}, {}};
                while (i < toks.size() &&
                       (peek().text == "reads" || peek().text == "writes")) {
                    const bool into_reads = next().text == "reads";
                    auto& dst = into_reads ? d.reads : d.writes;
                    while (i < toks.size() && !is_keyword(peek().text) &&
                           peek().text != "reads" && peek().text != "writes")
                        dst.push_back(next());
                }
                fn_decls.push_back(std::move(d));
            } else if (kw.text == "order" && is_extern) {
                const Token before = next();
                const Token after = next();
                order_decls.emplace_back(before, after);
            } else {
                fail(kw, "SBD001", "unexpected token '" + kw.text + "' in block body");
            }
            } catch (const ParseFail& f) {
                if (!lenient) throw;
                file.issues.push_back(ParseIssue{f.code, f.message, f.loc});
                resync_statement();
            }
        }

        if (is_extern) {
            bool bad = duplicate;
            const auto oops = [&](const char* code, const Token& t, const std::string& msg) {
                bad = true;
                problem(code, t, msg);
            };
            if (!subs.empty() || !wires.empty() || !triggers.empty())
                oops("SBD001", name, "extern blocks declare an interface only (no sub/connect)");
            BlockClass cls = BlockClass::Combinational;
            if (class_decl) {
                if (class_decl->text == "combinational") cls = BlockClass::Combinational;
                else if (class_decl->text == "sequential") cls = BlockClass::Sequential;
                else if (class_decl->text == "moore") cls = BlockClass::MooreSequential;
                else oops("SBD001", *class_decl, "class must be combinational|sequential|moore");
            }
            std::vector<OpaqueBlock::Function> fns;
            std::vector<std::vector<const Token*>> writers(outputs.size());
            for (const auto& d : fn_decls) {
                OpaqueBlock::Function fn;
                fn.name = d.name.text;
                fn.loc = loc_of(d.name);
                for (const Token& t : d.reads) {
                    if (const auto p = find_name(inputs, t.text)) fn.reads.push_back(*p);
                    else
                        oops("SBD014", t, "extern block '" + name.text + "': unknown input port '" +
                                              t.text + "' read by function '" + fn.name + "'");
                }
                for (const Token& t : d.writes) {
                    if (const auto p = find_name(outputs, t.text)) {
                        fn.writes.push_back(*p);
                        writers[*p].push_back(&d.name);
                    } else {
                        oops("SBD014", t, "extern block '" + name.text +
                                              "': unknown output port '" + t.text +
                                              "' written by function '" + fn.name + "'");
                    }
                }
                fns.push_back(std::move(fn));
            }
            for (std::size_t o = 0; o < outputs.size(); ++o) {
                if (writers[o].size() == 1) continue;
                if (writers[o].empty())
                    oops("SBD015", name, "extern block '" + name.text + "': output '" +
                                             outputs[o] + "' is written by no function");
                else
                    oops("SBD015", *writers[o][1],
                         "extern block '" + name.text + "': output '" + outputs[o] +
                             "' is written by " + std::to_string(writers[o].size()) +
                             " functions (expected exactly one)");
            }
            std::vector<std::pair<std::size_t, std::size_t>> order_edges;
            for (const auto& [a, b] : order_decls) {
                const auto fa = [&](const Token& t) -> std::optional<std::size_t> {
                    for (std::size_t f = 0; f < fns.size(); ++f)
                        if (fns[f].name == t.text) return f;
                    oops("SBD017", t, "extern block '" + name.text + "': order constraint names "
                                      "unknown function '" + t.text + "'");
                    return std::nullopt;
                };
                const auto ia = fa(a), ib = fa(b);
                if (ia && ib) order_edges.emplace_back(*ia, *ib);
            }
            {
                graph::Digraph pdg(fns.size());
                for (const auto& [a, b] : order_edges)
                    pdg.add_edge(static_cast<graph::NodeId>(a), static_cast<graph::NodeId>(b));
                if (const auto cyc = pdg.find_cycle()) {
                    std::string path;
                    for (const auto v : *cyc) path += fns[v].name + " -> ";
                    path += fns[cyc->front()].name;
                    const Token& at = order_decls.empty() ? name : order_decls.front().first;
                    oops("SBD016", at, "extern block '" + name.text +
                                           "': declared call-order relation is cyclic: " + path);
                }
            }
            if (!bad) {
                try {
                    auto opaque = std::make_shared<OpaqueBlock>(name.text, inputs, outputs, cls,
                                                                std::move(fns),
                                                                std::move(order_edges));
                    opaque->set_def_loc(loc_of(name));
                    file.blocks.emplace(name.text, std::move(opaque));
                    file.order.push_back(name.text);
                } catch (const ModelError& e) {
                    problem("SBD001", name, e.what());
                }
            }
            continue; // an extern block cannot be the root
        }

        auto macro = std::make_shared<MacroBlock>(name.text, inputs, outputs);
        macro->set_def_loc(loc_of(name));
        for (const auto& d : subs) {
            BlockPtr type;
            const auto it = file.blocks.find(d.type.text);
            try {
                if (it != file.blocks.end()) {
                    if (!d.params.empty())
                        fail(d.type, "SBD002",
                             "block reference '" + d.type.text + "' takes no parameters");
                    type = it->second;
                } else {
                    type = make_atomic(d.type, d.params);
                }
                macro->add_sub(d.inst.text, std::move(type), loc_of(d.inst));
            } catch (const ParseFail& f) {
                if (!lenient) throw;
                file.issues.push_back(ParseIssue{f.code, f.message, f.loc});
            } catch (const ModelError& e) {
                problem("SBD002", d.inst, e.what());
            }
        }
        for (const auto& [src, dst] : wires) {
            // A bare name on both sides is a legal input->output pass-through
            // (distinct namespaces); identical dotted endpoints can never be.
            if (src.text == dst.text && src.text.find('.') != std::string::npos) {
                problem("SBD005", src,
                        "self-connection: source and destination are both '" + src.text + "'");
                continue;
            }
            Endpoint se, de;
            try {
                se = macro->resolve_endpoint(src.text, true);
            } catch (const ModelError& e) {
                problem("SBD003", src, e.what());
                continue;
            }
            try {
                de = macro->resolve_endpoint(dst.text, false);
            } catch (const ModelError& e) {
                problem("SBD003", dst, e.what());
                continue;
            }
            if (se.kind == Endpoint::Kind::SubOutput && de.kind == Endpoint::Kind::SubInput &&
                se.sub == de.sub) {
                // An output wired straight back into an input of the same
                // instance is an instantaneous self-loop unless the block is
                // Moore-sequential (whose outputs lag its inputs).
                BlockClass cls = BlockClass::MooreSequential;
                try {
                    cls = macro->sub(se.sub).type->block_class();
                } catch (const ModelError&) {
                    // Undeterminable class (e.g. nested flattening failure):
                    // give the wire the benefit of the doubt here.
                }
                if (cls != BlockClass::MooreSequential) {
                    problem("SBD005", src,
                            "self-connection: output '" + src.text + "' of non-Moore sub-block '" +
                                macro->sub(se.sub).name + "' feeds its own input '" + dst.text +
                                "'");
                    continue;
                }
            }
            if (macro->writer_of(de) != nullptr) {
                problem("SBD004", dst,
                        "multiply-driven: '" + dst.text + "' already has a writer");
                continue;
            }
            try {
                macro->connect(se, de, loc_of(src));
            } catch (const ModelError& e) {
                problem("SBD003", src, e.what());
            }
        }
        for (const auto& [inst, src] : triggers) {
            std::int32_t s = -1;
            try {
                s = macro->sub_index(inst.text);
            } catch (const ModelError& e) {
                problem("SBD006", inst, std::string("malformed trigger: ") + e.what());
                continue;
            }
            Endpoint se;
            try {
                se = macro->resolve_endpoint(src.text, true);
            } catch (const ModelError& e) {
                problem("SBD006", src, std::string("malformed trigger: bad source: ") + e.what());
                continue;
            }
            if (macro->sub(s).trigger) {
                problem("SBD006", inst,
                        "malformed trigger: sub-block '" + inst.text + "' already has a trigger");
                continue;
            }
            try {
                macro->set_trigger(s, se, loc_of(inst));
            } catch (const ModelError& e) {
                problem("SBD006", inst, std::string("malformed trigger: ") + e.what());
            }
        }
        if (!lenient) {
            // Strict mode keeps the historical contract: a structurally
            // incomplete block aborts the parse. Lenient mode leaves the
            // checks to the analysis passes, which report precise per-port
            // diagnostics (SBD007/SBD008).
            try {
                macro->validate();
            } catch (const ModelError& e) {
                throw ParseFail{"", loc_of(name), e.what()};
            }
        }
        if (!duplicate) {
            file.blocks.emplace(name.text, macro);
            file.order.push_back(name.text);
            file.root = macro;
        }
        } catch (const ParseFail& f) {
            if (!lenient) throw;
            file.issues.push_back(ParseIssue{f.code, f.message, f.loc});
            // Resync to the next top-level definition.
            while (i < toks.size() && toks[i].text != "block" && toks[i].text != "extern") ++i;
        }
    }
    if (!file.root && !lenient) throw ModelError("sbd: no block definitions found");
    if (!file.root && lenient && file.issues.empty())
        file.issues.push_back(ParseIssue{"SBD001", "no block definitions found", {1, 1}});
    return file;
}

} // namespace

ParsedFile parse_sbd(std::istream& in, ParseMode mode) {
    try {
        return parse_sbd_impl(in, mode);
    } catch (const ParseFail& f) {
        std::string msg = "sbd:" + std::to_string(f.loc.line) + ":" + std::to_string(f.loc.col) +
                          ": ";
        if (!f.code.empty()) msg += "[" + f.code + "] ";
        throw ModelError(msg + f.message);
    }
}

ParsedFile parse_sbd_string(const std::string& text, ParseMode mode) {
    std::istringstream is(text);
    return parse_sbd(is, mode);
}

ParsedFile parse_sbd_file(const std::string& path, ParseMode mode) {
    std::ifstream f(path);
    if (!f) throw ModelError("sbd: cannot open '" + path + "'");
    return parse_sbd(f, mode);
}

namespace {

std::string endpoint_name(const MacroBlock& m, const Endpoint& e) {
    switch (e.kind) {
    case Endpoint::Kind::MacroInput: return m.input_name(e.port);
    case Endpoint::Kind::MacroOutput: return m.output_name(e.port);
    case Endpoint::Kind::SubInput:
        return m.sub(e.sub).name + "." + m.sub(e.sub).type->input_name(e.port);
    case Endpoint::Kind::SubOutput:
        return m.sub(e.sub).name + "." + m.sub(e.sub).type->output_name(e.port);
    }
    return "?";
}

void check_token(const std::string& s) {
    if (s.empty() || s.find_first_of(" \t#{}") != std::string::npos ||
        (s.find('.') != std::string::npos))
        throw ModelError("sbd writer: name '" + s + "' is not representable");
}

void write_block(const MacroBlock& m, std::ostream& os,
                 std::map<const Block*, std::string>& emitted, int& serial);

std::string fresh_name(const Block& b, std::map<const Block*, std::string>& emitted,
                       int& serial) {
    std::string name = b.type_name();
    for (char& c : name)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
    for (const auto& [blk, nm] : emitted)
        if (nm == name) name += "_" + std::to_string(++serial);
    emitted.emplace(&b, name);
    return name;
}

void write_opaque(const OpaqueBlock& b, std::ostream& os,
                  std::map<const Block*, std::string>& emitted, int& serial) {
    if (emitted.contains(&b)) return;
    const std::string name = fresh_name(b, emitted, serial);
    os << "extern block " << name << " {\n  inputs";
    for (std::size_t p = 0; p < b.num_inputs(); ++p) {
        check_token(b.input_name(p));
        os << " " << b.input_name(p);
    }
    os << "\n  outputs";
    for (std::size_t p = 0; p < b.num_outputs(); ++p) {
        check_token(b.output_name(p));
        os << " " << b.output_name(p);
    }
    const char* cls = "combinational";
    if (b.block_class() == BlockClass::Sequential) cls = "sequential";
    if (b.block_class() == BlockClass::MooreSequential) cls = "moore";
    os << "\n  class " << cls << "\n";
    for (const auto& fn : b.functions()) {
        check_token(fn.name);
        os << "  function " << fn.name;
        if (!fn.reads.empty()) {
            os << " reads";
            for (const std::size_t p : fn.reads) os << " " << b.input_name(p);
        }
        if (!fn.writes.empty()) {
            os << " writes";
            for (const std::size_t p : fn.writes) os << " " << b.output_name(p);
        }
        os << "\n";
    }
    for (const auto& [a, c] : b.order())
        os << "  order " << b.functions()[a].name << " " << b.functions()[c].name << "\n";
    os << "}\n\n";
}

void write_block(const MacroBlock& m, std::ostream& os,
                 std::map<const Block*, std::string>& emitted, int& serial) {
    if (emitted.contains(&m)) return;
    // Inner macro and extern definitions first.
    for (std::size_t s = 0; s < m.num_subs(); ++s) {
        const Block& t = *m.sub(s).type;
        if (t.is_opaque())
            write_opaque(static_cast<const OpaqueBlock&>(t), os, emitted, serial);
        else if (!t.is_atomic())
            write_block(static_cast<const MacroBlock&>(t), os, emitted, serial);
    }

    const std::string name = fresh_name(m, emitted, serial);

    os << "block " << name << " {\n";
    os << "  inputs";
    for (std::size_t p = 0; p < m.num_inputs(); ++p) {
        check_token(m.input_name(p));
        os << " " << m.input_name(p);
    }
    os << "\n  outputs";
    for (std::size_t p = 0; p < m.num_outputs(); ++p) {
        check_token(m.output_name(p));
        os << " " << m.output_name(p);
    }
    os << "\n";
    for (std::size_t s = 0; s < m.num_subs(); ++s) {
        check_token(m.sub(s).name);
        os << "  sub " << m.sub(s).name << " ";
        if (m.sub(s).type->is_opaque() || !m.sub(s).type->is_atomic()) {
            os << emitted.at(m.sub(s).type.get());
        } else {
            const auto& a = static_cast<const AtomicBlock&>(*m.sub(s).type);
            const std::string spec = lib::sbd_spec(a);
            if (spec.empty())
                throw ModelError("sbd writer: custom atomic block '" + a.type_name() +
                                 "' has no textual spec");
            os << spec;
        }
        os << "\n";
    }
    for (const Connection& c : m.connections())
        os << "  connect " << endpoint_name(m, c.src) << " " << endpoint_name(m, c.dst) << "\n";
    for (std::size_t s = 0; s < m.num_subs(); ++s)
        if (m.sub(s).trigger)
            os << "  trigger " << m.sub(s).name << " " << endpoint_name(m, *m.sub(s).trigger)
               << "\n";
    os << "}\n\n";
}

} // namespace

std::string to_sbd(const MacroBlock& root) {
    std::ostringstream os;
    std::map<const Block*, std::string> emitted;
    int serial = 0;
    write_block(root, os, emitted, serial);
    return os.str();
}

} // namespace sbd::text
