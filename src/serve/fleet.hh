/**
 * @file
 * The fleet manager behind `ddsc-served --fleet K`: K crash-isolated
 * server shards, each its own process with its own port file, pid
 * file, result store, and restart/backoff state, fronted by one
 * in-process Router speaking the ordinary DDSN protocol.
 *
 * Failure domains, smallest to largest:
 *
 *   shard process   SIGKILL/SIGSEGV/exit!=0 → its supervisor thread
 *                   fork+execs the next generation with capped
 *                   exponential backoff; the new generation re-opens
 *                   the same per-shard store, so everything durable
 *                   before the crash serves from disk.  Other shards
 *                   never notice.
 *   shard flapping  K consecutive rapid deaths trip the per-shard
 *                   flap breaker: the slot is marked broken, the
 *                   router fails that shard's cells *typed* (n/a +
 *                   per-cell error, quarantine semantics), and the
 *                   rest of the fleet keeps serving.
 *   fleet manager   runs the router and the supervisor threads; its
 *                   own death orphans the shards (they keep draining
 *                   on SIGTERM from init) — restarting the manager
 *                   re-adopts nothing but respawns a fresh fleet over
 *                   the same stores.
 *
 * Shards are spawned by fork+*exec* of the ddsc-served binary itself
 * (FleetOptions::serverExe) rather than bare fork: the manager is
 * multi-threaded (router sessions, K supervisor threads), and a
 * non-exec'ing fork from a threaded process inherits locks frozen
 * mid-flight.  Exec also makes a shard exactly what an operator could
 * run by hand — one plain `ddsc-served --port 0 --port-file ...`.
 *
 * File layout, relative to FleetOptions::runtimeDir / cacheRoot:
 *
 *   <runtimeDir>/shard-<i>.port   written by shard i once its
 *                                 listener is live (every generation
 *                                 rewrites it; atomic rename)
 *   <runtimeDir>/shard-<i>.pid    pid of shard i's serving process
 *   <cacheRoot>/shard-<i>/        shard i's private result store
 *
 * `ddsc-store merge` folds the per-shard stores back into one
 * resumable store.
 */

#ifndef DDSC_SERVE_FLEET_HH
#define DDSC_SERVE_FLEET_HH

#include <string>

#include "serve/router.hh"
#include "serve/server.hh"

namespace ddsc::serve
{

struct FleetOptions
{
    unsigned shards = 2;        ///< K server shards (>= 1)
    /** Path to the ddsc-served binary, exec'd per shard generation. */
    std::string serverExe;
    /** Directory for the per-shard port/pid files (created). */
    std::string runtimeDir;
    /** "" = in-memory shards; else shard i stores under
     *  <cacheRoot>/shard-<i>. */
    std::string cacheRoot;
    std::string portFile;       ///< router port file ("" = none)
    std::string pidFile;        ///< manager pid file ("" = none)
    /** Per-shard flap breaker: consecutive rapid deaths before the
     *  shard is declared broken. */
    unsigned maxRestarts = 10;
    /** Template for every shard (jobs, maxSessions, watchdog budget,
     *  trace dir/budget).  port and cacheDir are overridden
     *  per shard; generation is stamped per life. */
    ServerOptions shardOpts;
    /** Router front-end (port = the --port flag; retry policy rides
     *  restarting shards). */
    RouterOptions router;
};

/**
 * Run the fleet until SIGTERM/SIGINT: spawn and supervise the shards,
 * serve the router, then drain everything.  Returns the process exit
 * code (0 = clean drain, even if some shard broke along the way — a
 * degraded fleet that shut down on request still shut down cleanly).
 *
 * Expects support::installShutdownHandler() to have been called.
 */
int runFleet(const FleetOptions &opts);

} // namespace ddsc::serve

#endif // DDSC_SERVE_FLEET_HH
