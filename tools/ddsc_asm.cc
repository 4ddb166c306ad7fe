/**
 * @file
 * ddsc-asm: assemble a program, execute it, and write its dynamic
 * trace to a binary trace file for later simulation (the qpt2 role).
 *
 * Usage:
 *   ddsc-asm prog.s -o prog.trc [--limit N] [--list]
 *
 * Options:
 *   -o FILE     output trace file (required)
 *   --limit N   stop tracing after N instructions
 *   --list      print the assembled program before running
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "masm/assembler.hh"
#include "support/decimal.hh"
#include "support/version.hh"
#include "trace/source.hh"
#include "vm/vm.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace ddsc;

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
        "usage: ddsc-asm prog.s -o prog.trc [--limit N] [--list]\n"
        "       ddsc-asm --version\n");
    std::exit(2);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string input, output;
    std::uint64_t limit = std::numeric_limits<std::uint64_t>::max();
    bool list = false;
    bool version = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "-o") {
            if (i + 1 >= argc)
                usage();
            output = argv[++i];
        } else if (arg == "--limit") {
            if (i + 1 >= argc || !support::parseDecimal(argv[++i], limit))
                usage();
        } else if (arg == "--list") {
            list = true;
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
        support::version::print("ddsc-asm");
        return 0;
    }
    if (input.empty() || output.empty())
        usage();

    const Program program = assembleFileOrDie(input);

    if (list) {
        for (std::size_t i = 0; i < program.text.size(); ++i) {
            std::printf("%08llx  %s\n",
                        static_cast<unsigned long long>(
                            Program::pcOf(i)),
                        program.text[i].toString().c_str());
        }
    }

    TraceFileWriter writer(output);
    Vm vm(program);
    const Vm::RunResult run = vm.run(&writer, limit);
    writer.close();
    std::printf("%s: %llu instructions traced to %s (halted: %s, "
                "r25=%u)\n",
                input.c_str(),
                static_cast<unsigned long long>(run.instructions),
                output.c_str(), run.halted ? "yes" : "no",
                vm.reg(kChecksumReg));
    return 0;
}
