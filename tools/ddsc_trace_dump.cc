/**
 * @file
 * ddsc-trace-dump: inspect a binary trace file.
 *
 * Usage:
 *   ddsc-trace-dump prog.trc [--head N] [--stats]
 *
 * Options:
 *   --head N   print the first N records (default 20; 0 = none)
 *   --stats    print the instruction-mix summary
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "support/decimal.hh"
#include "support/version.hh"
#include "trace/source.hh"
#include "trace/trace_stats.hh"

namespace
{

using namespace ddsc;

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
        "usage: ddsc-trace-dump prog.trc [--head N] [--stats]\n"
        "       ddsc-trace-dump --version\n");
    std::exit(2);
}

void
printRecord(const TraceRecord &rec)
{
    std::printf("%08llx  %-6s", static_cast<unsigned long long>(rec.pc),
                std::string(opTraits(rec.op).mnemonic).c_str());
    if (rec.isLoad() || rec.isStore()) {
        std::printf(" ea=%08llx",
                    static_cast<unsigned long long>(rec.ea));
    } else if (rec.isCondBranch()) {
        std::printf(" %s -> %s",
                    std::string(condName(rec.cond)).c_str(),
                    rec.taken ? "taken" : "not-taken");
    }
    std::printf("\n");
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string path;
    std::uint64_t head = 20;
    bool stats = false;
    bool version = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--head") {
            if (i + 1 >= argc || !support::parseDecimal(argv[++i], head))
                usage();
        } else if (arg == "--stats") {
            stats = true;
        } else if (arg == "--version") {
            version = true;
        } else if (!arg.empty() && arg[0] == '-') {
            usage();
        } else if (path.empty()) {
            path = arg;
        } else {
            usage();
        }
    }
    if (version) {     // only once the whole command line parses
        support::version::print("ddsc-trace-dump");
        return 0;
    }
    if (path.empty())
        usage();

    TraceFileSource source(path);
    std::printf("%s: %llu records\n", path.c_str(),
                static_cast<unsigned long long>(source.count()));

    TraceStats mix;
    TraceRecord rec;
    std::uint64_t printed = 0;
    while (source.next(rec)) {
        if (printed < head) {
            printRecord(rec);
            ++printed;
        }
        if (stats)
            mix.account(rec);
        else if (printed >= head)
            break;
    }

    if (stats) {
        std::printf("\nmix: %.1f%% loads, %.1f%% stores, %.1f%% "
                    "conditional branches, %.1f%% shifts\n",
                    mix.pctLoads(), mix.pctOf(OpClass::Store),
                    mix.pctCondBranches(), mix.pctOf(OpClass::Shift));
        std::printf("mean basic block: %.1f instructions\n",
                    mix.basicBlockSizes().mean());
    }
    return 0;
}
