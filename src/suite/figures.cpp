#include "suite/figures.hpp"

#include "sbd/library.hpp"

namespace sbd::suite {

namespace {

/// A(x) -> (z1, z2): the 1-in/2-out combinational splitter of Figure 1.
BlockPtr splitter() { return lib::splitter2(0.5, 1.0, 0.25, -1.0); }

} // namespace

std::shared_ptr<const MacroBlock> figure1_p() {
    auto p = std::make_shared<MacroBlock>("P_fig1", std::vector<std::string>{"x1", "x2"},
                                          std::vector<std::string>{"y1", "y2"});
    p->add_sub("A", splitter());
    p->add_sub("B", lib::gain(2.0));
    p->add_sub("C", lib::sum("++"));
    p->connect("x1", "A.x");
    p->connect("A.z1", "B.u");
    p->connect("A.z2", "C.u1");
    p->connect("x2", "C.u2");
    p->connect("B.y", "y1");
    p->connect("C.y", "y2");
    return p;
}

std::shared_ptr<const MacroBlock> figure2_context(BlockPtr inner) {
    auto ctx = std::make_shared<MacroBlock>("Fig2Context", std::vector<std::string>{"x1"},
                                            std::vector<std::string>{"y1", "y2"});
    const auto p = ctx->add_sub("P", std::move(inner));
    ctx->connect(Endpoint{Endpoint::Kind::MacroInput, -1, 0},
                 Endpoint{Endpoint::Kind::SubInput, p, 0});
    // The feedback wire of Figure 2: y1 -> x2.
    ctx->connect(Endpoint{Endpoint::Kind::SubOutput, p, 0},
                 Endpoint{Endpoint::Kind::SubInput, p, 1});
    ctx->connect(Endpoint{Endpoint::Kind::SubOutput, p, 0},
                 Endpoint{Endpoint::Kind::MacroOutput, -1, 0});
    ctx->connect(Endpoint{Endpoint::Kind::SubOutput, p, 1},
                 Endpoint{Endpoint::Kind::MacroOutput, -1, 1});
    return ctx;
}

std::shared_ptr<const MacroBlock> figure3_p() {
    auto p = std::make_shared<MacroBlock>("P_fig3", std::vector<std::string>{"P_in"},
                                          std::vector<std::string>{"P_out"});
    p->add_sub("A", lib::gain(3.0));
    p->add_sub("U", lib::unit_delay(0.0));
    p->add_sub("C", lib::gain(0.5));
    p->connect("P_in", "C.u");
    p->connect("C.y", "U.u");
    p->connect("U.y", "A.u");
    p->connect("A.y", "P_out");
    return p;
}

std::shared_ptr<const MacroBlock> figure4_chain(std::size_t n) {
    auto p = std::make_shared<MacroBlock>("P_fig4_" + std::to_string(n),
                                          std::vector<std::string>{"x1", "x2", "x3"},
                                          std::vector<std::string>{"y1", "y2"});
    // A1 .. A(n-1): unary combinational stages; An: splits into (z_b, z_c).
    for (std::size_t i = 1; i + 1 <= n; ++i) {
        if (i == n) break;
        p->add_sub("A" + std::to_string(i), lib::gain(0.9));
    }
    p->add_sub("A" + std::to_string(n), splitter());
    p->add_sub("B", lib::sum("++"));
    p->add_sub("C", lib::sum("+-"));

    p->connect("x2", "A1." + std::string(n == 1 ? "x" : "u"));
    for (std::size_t i = 1; i < n; ++i) {
        const std::string from = "A" + std::to_string(i) + ".y";
        const std::string to =
            "A" + std::to_string(i + 1) + (i + 1 == n ? ".x" : ".u");
        p->connect(from, to);
    }
    const std::string an = "A" + std::to_string(n);
    p->connect("x1", "B.u1");
    p->connect(an + ".z1", "B.u2");
    p->connect(an + ".z2", "C.u1");
    p->connect("x3", "C.u2");
    p->connect("B.y", "y1");
    p->connect("C.y", "y2");
    return p;
}

std::shared_ptr<const MacroBlock> feedback_context(BlockPtr inner, std::size_t out,
                                                   std::size_t in) {
    std::vector<std::string> ins, outs;
    for (std::size_t i = 0; i < inner->num_inputs(); ++i)
        if (i != in) ins.push_back("c_" + inner->input_name(i));
    for (std::size_t o = 0; o < inner->num_outputs(); ++o)
        outs.push_back("c_" + inner->output_name(o));
    auto ctx = std::make_shared<MacroBlock>("FeedbackCtx", ins, outs);
    const auto p = ctx->add_sub("P", std::move(inner));
    std::int32_t next_in = 0;
    const Block& b = *ctx->sub(p).type;
    for (std::size_t i = 0; i < b.num_inputs(); ++i) {
        if (i == in) continue;
        ctx->connect(Endpoint{Endpoint::Kind::MacroInput, -1, next_in++},
                     Endpoint{Endpoint::Kind::SubInput, p, static_cast<std::int32_t>(i)});
    }
    ctx->connect(Endpoint{Endpoint::Kind::SubOutput, p, static_cast<std::int32_t>(out)},
                 Endpoint{Endpoint::Kind::SubInput, p, static_cast<std::int32_t>(in)});
    for (std::size_t o = 0; o < b.num_outputs(); ++o)
        ctx->connect(Endpoint{Endpoint::Kind::SubOutput, p, static_cast<std::int32_t>(o)},
                     Endpoint{Endpoint::Kind::MacroOutput, -1, static_cast<std::int32_t>(o)});
    return ctx;
}

} // namespace sbd::suite
