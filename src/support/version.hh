/**
 * @file
 * The single source of truth for every persistent-format and protocol
 * version in ddsc.
 *
 * A client, a server, and an on-disk cache can each be built from a
 * different checkout, and a mismatch between any pair must be
 * diagnosable from the command line (`<tool> --version`) and at
 * connection time (the ddsc-served Hello handshake).  Collecting the
 * numbers here keeps the diagnosis trustworthy: the trace reader, the
 * result store, and the wire protocol all consume these constants, so
 * the banner can never drift from what the code actually writes.
 *
 *   kTraceFormat        DDSCTRC header version written by
 *                       TraceFileWriter (readers also accept
 *                       kTraceLegacyFormat).
 *   kStoreSchema        ResultStore record-payload schema
 *                       (ResultStore::kSchema aliases it).
 *   kFingerprintSchema  layout of MachineConfig::fingerprint(); bump
 *                       it whenever a field is added, removed, or
 *                       reordered there (kFingerprintFields pins the
 *                       field count in the test suite).
 *   kProtocol           ddsc-served wire protocol (src/net/).
 */

#ifndef DDSC_SUPPORT_VERSION_HH
#define DDSC_SUPPORT_VERSION_HH

#include <cstdint>
#include <cstdio>

namespace ddsc::support::version
{

constexpr std::uint32_t kTraceFormat = 4;       ///< v4: mmap'able blocks
constexpr std::uint32_t kTraceStreamFormat = 3; ///< v3 added the CRC footer
constexpr std::uint32_t kTraceLegacyFormat = 2; ///< v2 added memValue

constexpr std::uint32_t kStoreSchema = 2;   ///< v2 added mem-dep
                                            ///< speculation counters

constexpr std::uint32_t kFingerprintSchema = 2; ///< v2 added the
                                                ///< speculation-module knobs
/** '|'-separated fields in MachineConfig::fingerprint(). */
constexpr unsigned kFingerprintFields = 28;

constexpr std::uint32_t kProtocol = 6;  ///< v6: CellsReply carries a
                                        ///< fixed per-cell summary,
                                        ///< not the whole SchedStats

/** The `--version` banner every CLI tool prints. */
inline void
print(const char *tool)
{
    std::printf("%s (ddsc)\n", tool);
    std::printf("trace format      : DDSCTRC v%u (reads v%u, v%u, "
                "and v%u)\n",
                kTraceFormat, kTraceLegacyFormat, kTraceStreamFormat,
                kTraceFormat);
    std::printf("result store      : DDSCRES1 schema %u\n", kStoreSchema);
    std::printf("fingerprint schema: %u (%u fields)\n",
                kFingerprintSchema, kFingerprintFields);
    std::printf("wire protocol     : DDSN v%u\n", kProtocol);
}

} // namespace ddsc::support::version

#endif // DDSC_SUPPORT_VERSION_HH
