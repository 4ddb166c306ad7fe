/**
 * @file
 * Dependence-collapsing explorer.
 *
 * Recreates the paper's Section 1/Section 3 walk-through on a concrete
 * code fragment: assembles it, shows the dynamic dependence graph the
 * scheduler sees, then simulates with and without d-collapsing and
 * reports which dependences collapsed (category, signature, distance)
 * and what happened to the critical path.
 */

#include <cstdio>

#include "core/scheduler.hh"
#include "masm/assembler.hh"
#include "trace/dep_arcs.hh"
#include "vm/vm.hh"

namespace
{

// The flavour of the paper's running example: address arithmetic
// feeding a load, a shifted index, and a cc-setting compare feeding a
// branch.  Executed once (no loop) so the graph is easy to read.
const char kFragment[] = R"(
main:
    mov  r1, 5             ; Ra = 5
    sll  r2, r1, 3         ; Rb = Ra << 3
    add  r3, r2, 64        ; Rc = Rb + 64            (collapses w/ sll)
    la   r4, buf
    add  r5, r4, r3        ; address = buf + Rc
    ldw  r6, [r5 + 8]      ; Re = [8 + address]      (addr-gen collapse)
    add  r7, r6, 1         ; Rf = Re + 1
    cmp  r7, 42            ; cc = Rf - 42            (collapses w/ branch)
    beq  done
    mov  r25, 1
done:
    halt
.data
buf: .space 256
)";

} // anonymous namespace

int
main()
{
    using namespace ddsc;

    const Program program = assembleOrDie(kFragment);
    std::printf("fragment:\n");
    for (std::size_t i = 0; i < program.text.size(); ++i) {
        std::printf("  %2zu: %s\n", i,
                    program.text[i].toString().c_str());
    }

    VectorTraceSource trace;
    VectorTraceSink sink(trace);
    Vm vm(program);
    vm.run(&sink);

    std::printf("\ndynamic dependence graph (producer -> consumer):\n");
    // The RAW arcs the scheduler derives, walked from the trace alone.
    for (const DepArc &arc : registerArcs(trace.records())) {
        std::printf("  %zu -> %zu  (%.*s)\n", arc.producer, arc.consumer,
                    static_cast<int>(depKindName(arc.kind).size()),
                    depKindName(arc.kind).data());
    }

    for (const bool collapsing : {false, true}) {
        trace.reset();
        MachineConfig config = MachineConfig::paper(
            collapsing ? 'C' : 'A', 8);
        LimitScheduler scheduler(config);
        const SchedStats stats = scheduler.run(trace);
        std::printf("\n%s: %llu instructions in %llu cycles (IPC %.2f)\n",
                    collapsing ? "with d-collapsing" : "base machine",
                    static_cast<unsigned long long>(stats.instructions),
                    static_cast<unsigned long long>(stats.cycles),
                    stats.ipc());
        if (collapsing) {
            std::printf("collapse events: %llu  (3-1: %llu, 4-1: %llu, "
                        "0-op: %llu)\n",
                        static_cast<unsigned long long>(
                            stats.collapse.events()),
                        static_cast<unsigned long long>(
                            stats.collapse.eventsOf(
                                CollapseCategory::ThreeOne)),
                        static_cast<unsigned long long>(
                            stats.collapse.eventsOf(
                                CollapseCategory::FourOne)),
                        static_cast<unsigned long long>(
                            stats.collapse.eventsOf(
                                CollapseCategory::ZeroOp)));
            std::printf("collapsed signatures:\n");
            for (const auto &[sig, count] :
                     stats.collapse.pairSignatures()) {
                std::printf("  pair   %-18s x%llu\n", sig.c_str(),
                            static_cast<unsigned long long>(count));
            }
            for (const auto &[sig, count] :
                     stats.collapse.tripleSignatures()) {
                std::printf("  triple %-18s x%llu\n", sig.c_str(),
                            static_cast<unsigned long long>(count));
            }
        }
    }
    return 0;
}
