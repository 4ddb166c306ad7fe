/**
 * @file
 * The preamble ddsc-sim and ddsc-matrix share: the `--list-configs`
 * listing and the `--cache-dir`/`--resume` store opening.
 */

#ifndef DDSC_TOOLS_CLI_COMMON_HH
#define DDSC_TOOLS_CLI_COMMON_HH

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "core/config.hh"
#include "core/frontend.hh"
#include "sim/result_store.hh"
#include "support/logging.hh"
#include "support/version.hh"

namespace ddsc::cli
{

/** `--list-configs`: every known configuration letter with the
 *  speculation steps its front-end runs and its fingerprint at
 *  @p width. */
inline void
printConfigList(unsigned width)
{
    std::printf("known configurations (fingerprint schema %u, %u "
                "fields; width %u shown):\n",
                support::version::kFingerprintSchema,
                support::version::kFingerprintFields, width);
    for (const char c : MachineConfig::knownConfigs()) {
        const MachineConfig cfg = MachineConfig::paper(c, width);
        std::printf("  %c  %s\n", c, MachineConfig::letterSummary(c));
        std::printf("     modules    : %s\n",
                    speculationSummary(cfg).c_str());
        std::printf("     fingerprint: %s\n", cfg.fingerprint().c_str());
    }
}

/**
 * Open @p tool's result store under @p dir (--cache-dir or
 * $DDSC_CACHE_DIR; "" = none, nullptr).  --resume without a directory
 * is a usage error: a note, then @p usage().  Without --resume an
 * existing DIR/results.ddsc is fatal, so a stale directory is never
 * picked up by accident; with it, a "# resuming from" line on stderr
 * says what the store holds.
 */
inline std::unique_ptr<ResultStore>
openCacheDir(const char *tool, const std::string &dir, bool resume,
             void (*usage)())
{
    if (dir.empty()) {
        if (resume) {
            std::fprintf(stderr,
                         "%s: --resume needs --cache-dir "
                         "(or $DDSC_CACHE_DIR)\n", tool);
            usage();
        }
        return nullptr;
    }
    const auto file = std::filesystem::path(dir) / "results.ddsc";
    std::error_code ec;
    if (!resume && std::filesystem::exists(file, ec)) {
        ddsc_fatal("cache '%s' already exists; pass --resume to "
                   "reuse it or remove the directory",
                   file.string().c_str());
    }
    auto store = std::make_unique<ResultStore>(dir);
    if (resume) {
        const StoreLoadReport &report = store->loadReport();
        std::fprintf(stderr,
                     "# resuming from %s: %zu cells on disk, "
                     "%zu discarded%s%s\n",
                     store->path().c_str(), report.loaded,
                     report.discarded,
                     report.note.empty() ? "" : " -- ",
                     report.note.c_str());
    }
    return store;
}

} // namespace ddsc::cli

#endif // DDSC_TOOLS_CLI_COMMON_HH
