/**
 * @file
 * ddsc-graph: dump the dynamic dependence graph of a (small) program
 * as Graphviz DOT, with collapsible arcs highlighted -- the tool
 * equivalent of the paper's Figure 1.
 *
 * Usage:
 *   ddsc-graph prog.s [--limit N] > graph.dot
 *   dot -Tsvg graph.dot -o graph.svg
 *
 * Nodes are dynamic instructions (label: disassembly); solid edges are
 * value dependences, dashed edges address-generation dependences,
 * dotted edges cc dependences.  Green edges are collapsible under the
 * paper's rules; red edges are not.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "collapse/rules.hh"
#include "masm/assembler.hh"
#include "support/decimal.hh"
#include "support/version.hh"
#include "vm/vm.hh"

namespace
{

using namespace ddsc;

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: ddsc-graph prog.s [--limit N] [--version]\n");
    std::exit(2);
}

const char *
edgeColor(const TraceRecord &producer, const TraceRecord &consumer,
          bool address_arc, bool cc_arc)
{
    const bool collapsible =
        CollapseRules::producerEligible(producer) &&
        CollapseRules::consumerEligible(consumer, address_arc, cc_arc);
    return collapsible ? "forestgreen" : "firebrick";
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string input;
    std::uint64_t limit = 200;
    bool version = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--limit") {
            if (i + 1 >= argc || !support::parseDecimal(argv[++i], limit))
                usage();
        } else if (arg == "--version") {
            version = true;
        } else if (!arg.empty() && arg[0] == '-') {
            usage();
        } else if (input.empty()) {
            input = arg;
        } else {
            usage();
        }
    }
    if (version) {     // only once the whole command line parses
        support::version::print("ddsc-graph");
        return 0;
    }
    if (input.empty())
        usage();

    const Program program = assembleFileOrDie(input);

    VectorTraceSource trace;
    VectorTraceSink sink(trace);
    Vm vm(program);
    vm.run(&sink, limit);

    const auto &records = trace.records();
    std::printf("digraph ddsc {\n"
                "  rankdir=TB;\n"
                "  node [shape=box, fontname=\"monospace\", "
                "fontsize=10];\n");

    // Node labels from the static program's disassembly.
    for (std::size_t i = 0; i < records.size(); ++i) {
        const std::size_t idx = Program::indexOf(records[i].pc);
        std::printf("  n%zu [label=\"%zu: %s\"];\n", i, i,
                    program.text[idx].toString().c_str());
    }

    // Edges: the same derivation the scheduler uses.
    std::uint64_t last_writer[kNumRegs] = {};
    std::uint64_t last_cc = 0;
    for (std::size_t i = 0; i < records.size(); ++i) {
        const TraceRecord &rec = records[i];
        auto edge = [&](std::uint64_t from, const char *style,
                        bool address_arc, bool cc_arc) {
            if (from == 0)
                return;
            std::printf("  n%llu -> n%zu [style=%s, color=%s];\n",
                        static_cast<unsigned long long>(from - 1), i,
                        style,
                        edgeColor(records[from - 1], rec, address_arc,
                                  cc_arc));
        };
        for (const int reg : rec.dataSources()) {
            if (reg >= 0)
                edge(last_writer[reg], "solid", false, false);
        }
        for (const int reg : rec.addressSources()) {
            if (reg >= 0)
                edge(last_writer[reg], "dashed", true, false);
        }
        if (rec.readsCC())
            edge(last_cc, "dotted", false, true);
        if (const int dest = rec.destReg(); dest >= 0)
            last_writer[dest] = i + 1;
        if (rec.setsCC())
            last_cc = i + 1;
    }
    std::printf("}\n");
    return 0;
}
