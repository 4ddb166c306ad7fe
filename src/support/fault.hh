/**
 * @file
 * Deterministic fault injection for the durability layer.
 *
 * Error-handling code that never runs is broken code waiting for its
 * first production outage, so the crash-safety paths (torn cache
 * writes, truncated traces, failing matrix cells) carry named
 * injection points that tests and CI can arm:
 *
 *   point                   where it fires
 *   ----------------------  -------------------------------------------
 *   trace-short-write       TraceFileWriter::emit (v3) / block flush
 *                           (v4), before the fwrite
 *   trace-short-read        TraceFileSource::next, before the fread
 *   trace-close-fail        TraceFileWriter::close, at the final
 *                           fflush — models ENOSPC/EIO surfacing only
 *                           when buffered bytes hit the disk
 *   cell-throw              runBatchedGroup (every driver and
 *                           ddsc-sim cell runs there), once per chunk
 *                           fed to a cell and once at its final drain
 *   checkpoint-torn-write   ResultStore::append: writes a partial
 *                           record then dies, simulating a mid-write
 *                           kill
 *   cell-stall              same hook as cell-throw, but sleeps
 *                           $DDSC_FAULT_STALL_MS (default 400 ms) per
 *                           firing instead of throwing, in 20 ms
 *                           slices that poll the cell's cancel token —
 *                           the serving deadline/single-flight tests
 *                           use it to hold a cell in flight.  A tag
 *                           spec fires on every chunk, so a persistent
 *                           stall on test-scale li (35k records, four
 *                           firings) lasts about 1.6 s
 *   net-torn-frame          net::writeFrame: sends only a prefix of
 *                           the frame and reports failure, as if the
 *                           writer died mid-send
 *   net-disconnect          ddsc-served session, before writing a
 *                           MatrixReply: closes the connection
 *                           instead (mid-response hang-up)
 *
 * Arming is driven by $DDSC_FAULT or faultArm(), with two spec forms:
 *
 *   DDSC_FAULT=<point>:<nth>   fire exactly once, on the nth hit of
 *                              the point (1-based).  Models a
 *                              *transient* fault: a retry succeeds.
 *   DDSC_FAULT=<point>:<tag>   fire on every hit whose tag matches
 *                              (e.g. cell-throw:li/D/16).  Models a
 *                              *persistent* fault: retries keep
 *                              failing and the cell is quarantined.
 *
 * Both forms are deterministic: the nth counter observes hits in the
 * program's own order (use --jobs 1 when which-hit-is-nth matters),
 * and tag matching does not depend on scheduling at all.
 *
 * Release deployments configure with -DDDSC_FAULT_INJECTION=OFF, which
 * defines DDSC_NO_FAULT_INJECTION and compiles every hook to a
 * constant false that the optimizer removes.
 */

#ifndef DDSC_SUPPORT_FAULT_HH
#define DDSC_SUPPORT_FAULT_HH

#include <string>

namespace ddsc::support
{

#ifndef DDSC_NO_FAULT_INJECTION

/**
 * True when the armed fault matches @p point (and @p tag, for tag
 * specs) and should fire now.  Thread-safe; unarmed calls are a single
 * relaxed atomic load.
 */
bool faultShouldFire(const char *point, const char *tag = nullptr);

/** Arm from a spec ("point:nth" or "point:tag"); "" disarms.  Resets
 *  the hit counter.  Malformed specs warn and disarm. */
void faultArm(const std::string &spec);

/** The currently armed spec ("" when disarmed). */
std::string faultArmed();

#else

inline bool
faultShouldFire(const char *, const char * = nullptr)
{
    return false;
}

inline void faultArm(const std::string &) {}
inline std::string faultArmed() { return {}; }

#endif // DDSC_NO_FAULT_INJECTION

} // namespace ddsc::support

#endif // DDSC_SUPPORT_FAULT_HH
