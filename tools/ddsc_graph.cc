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
#include "trace/dep_arcs.hh"
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
edgeStyle(DepKind kind)
{
    switch (kind) {
      case DepKind::Data:    return "solid";
      case DepKind::Address: return "dashed";
      case DepKind::CC:      return "dotted";
    }
    return "solid";
}

const char *
edgeColor(const TraceRecord &producer, const TraceRecord &consumer,
          DepKind kind)
{
    const bool collapsible =
        CollapseRules::producerEligible(producer) &&
        CollapseRules::consumerEligible(consumer,
                                        kind == DepKind::Address,
                                        kind == DepKind::CC);
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

    // Edges: the register and cc arcs the scheduler derives too.
    for (const DepArc &arc : registerArcs(records)) {
        std::printf("  n%zu -> n%zu [style=%s, color=%s];\n",
                    arc.producer, arc.consumer, edgeStyle(arc.kind),
                    edgeColor(records[arc.producer],
                              records[arc.consumer], arc.kind));
    }
    std::printf("}\n");
    return 0;
}
