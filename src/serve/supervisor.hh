/**
 * @file
 * Crash-only supervision: the one restart loop behind both
 * `ddsc-served --supervise` (one Supervisor over the serving process)
 * and `ddsc-served --fleet K` (one Supervisor per shard, each on its
 * own thread of the fleet manager).
 *
 * run() starts a generation through spawn, waits for it to die, and
 * classifies the death.  Exit 0 is a clean drain, and a death after a
 * shutdown request (support/shutdown.hh, which is also forwarded to
 * the live generation as SIGTERM) is not restarted either: both
 * return 0.  Any other death is unclean and restarts, after a backoff
 * of 100 ms doubling to 5 s when the dead generation lived under 5 s.
 * maxRestarts consecutive such rapid deaths trip the flap breaker,
 * which gives up (1) rather than spin on a process that cannot stay
 * up; so does a failed fork or waitpid.
 *
 * A Supervisor holds no static state, so K of them may run at once.
 */

#ifndef DDSC_SERVE_SUPERVISOR_HH
#define DDSC_SERVE_SUPERVISOR_HH

#include <cstdint>
#include <functional>
#include <string>
#include <sys/types.h>

namespace ddsc::serve
{

struct Supervisor
{
    /** Starts every stderr line, e.g. "ddsc-served[supervisor]:" or
     *  "ddsc-served[fleet]: shard 2". */
    std::string label;
    unsigned maxRestarts = 10;
    /** Start a generation: fork (then exec, or serve in the child)
     *  and return the child's pid, or -1 with errno set when fork
     *  failed.  The child never returns from it. */
    std::function<pid_t(std::uint64_t generation)> spawn;

    // Observers (the fleet feeds its ShardSlot atomics from them);
    // any may be empty.
    /** Before each spawn, with the generation about to start. */
    std::function<void(std::uint64_t generation)> onGeneration = {};
    /** After each unclean death, the breaker-tripping one included. */
    std::function<void()> onDeath = {};
    /** Once, just before run() returns 1. */
    std::function<void()> onGiveUp = {};

    /** Supervise until a generation drains cleanly or shutdown was
     *  requested (0), or until fork or waitpid fails or the flap
     *  breaker trips (1). */
    int run() const;
};

} // namespace ddsc::serve

#endif // DDSC_SERVE_SUPERVISOR_HH
