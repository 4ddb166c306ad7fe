/**
 * @file
 * The fleet router: one DDSN front-end fanning matrix requests out to
 * K crash-isolated server shards and merging their per-cell summaries
 * into replies byte-identical to a single fresh ddsc-matrix run.
 *
 * Topology: each shard owns a deterministic slice of the experiment
 * matrix — a cell (config, width) column lands on shard
 * hash(MachineConfig::paper(config, width).fingerprint()) mod K, so
 * the *machine fingerprint* (the same identity that keys the result
 * store) decides placement, every workload of a column co-locates
 * with its store records, and placement never depends on request
 * order or shard health.  The router speaks the same protocol on both
 * sides: clients talk to it exactly as to a single ddsc-served, and
 * it talks to shards with CellsRequest batches that resolve through
 * each shard's own single-flight registry, watchdog, and store.
 *
 * Byte-identity: the router never aggregates on its own — it feeds
 * the shard-returned per-cell summaries (encodeCellSummary: the
 * SchedStats fields the merge reads) through the very
 * aggregateMatrixResult() that runMatrixQuery() uses locally, so a
 * routed sweep and a local sweep render identical bytes by
 * construction (tests/router_test.cpp holds it to that, and its
 * summary oracle checks every metric against full records).
 *
 * Degraded modes, per shard:
 *  - dead or restarting (its supervisor is between generations): the
 *    fan-out retries through net::Client's RetryPolicy, re-reading
 *    the shard's port file before every connect, so the request rides
 *    onto the shard's next generation;
 *  - broken (the shard's flap breaker tripped; it is not coming
 *    back): its cells fail *typed* — they aggregate as n/a with a
 *    per-cell failure naming the shard, exactly the quarantine
 *    semantics a poisoned cell has on a single server — while every
 *    healthy shard's cells keep serving;
 *  - stalled or past the deadline: the shard's typed Stalled/Deadline
 *    answer propagates to the client unchanged, keeping single-server
 *    retry semantics.
 */

#ifndef DDSC_SERVE_ROUTER_HH
#define DDSC_SERVE_ROUTER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/client.hh"
#include "net/protocol.hh"
#include "serve/accept_loop.hh"

namespace ddsc::serve
{

/** One shard as the router sees it: where to find it (its port file
 *  survives process generations) and the liveness the fleet manager
 *  maintains.  The atomics are written by the manager's supervise
 *  loops and read by router fan-out threads. */
struct ShardSlot
{
    std::string portFile;
    std::string cacheDir;                       ///< its private store
    std::atomic<std::uint64_t> generation{0};   ///< lives started
    std::atomic<std::uint64_t> restarts{0};     ///< unclean deaths
    /** The flap breaker tripped: the manager stopped restarting this
     *  shard.  The router fails its cells typed instead of retrying
     *  into a port file that will never be rewritten. */
    std::atomic<bool> broken{false};
};

/** The shared fleet state: built by the fleet manager (or a test)
 *  before the router starts, structurally immutable afterwards —
 *  only the per-slot atomics change. */
struct FleetState
{
    std::vector<std::unique_ptr<ShardSlot>> shards;

    std::size_t count() const { return shards.size(); }

    /** Convenience: append a slot and return it. */
    ShardSlot &add(const std::string &port_file,
                   const std::string &cache_dir)
    {
        shards.push_back(std::make_unique<ShardSlot>());
        shards.back()->portFile = port_file;
        shards.back()->cacheDir = cache_dir;
        return *shards.back();
    }
};

/**
 * Which shard owns cell (config, width): a hash of the paper machine's
 * fingerprint, mod @p shard_count.  The hash is FNV-1a's xor-multiply
 * step, but seeded with 1469598103934665603, not FNV-1a's offset basis
 * 14695981039346656037.  Never "correct" the seed: it fixes every
 * column's shard, and so every shard's store.  Workload-independent on
 * purpose — a whole (config, width) column lands together, and the
 * speedup metric's base-machine column 'A' is just another column.
 */
unsigned shardForCell(char config, unsigned width,
                      std::size_t shard_count);

struct RouterOptions
{
    std::uint16_t port = 0;     ///< 0 = kernel-assigned
    int backlog = 16;
    unsigned maxSessions = 16;  ///< live client sessions before shed
    /** Per-reply wait against a shard, ms (-1 = forever).  Deadline
     *  requests widen it like net::Client::matrix() does. */
    int shardTimeoutMs = -1;
    /** How long the fan-out rides a restarting shard before failing
     *  its cells typed.  The defaults cover several supervisor
     *  backoff rounds; tests shrink them. */
    net::RetryPolicy retry{.retries = 10, .budgetMs = 20000};
    /** Reported as InfoReply storePath ("" = no store). */
    std::string storeRoot;
};

/**
 * The fan-out/merge front-end on the shared AcceptLoop; each
 * MatrixRequest fans out to the owning shards in parallel and merges.
 * Thread-safe against the fleet manager mutating slot atomics.
 */
class Router : public AcceptLoop::Owner
{
  public:
    Router(const RouterOptions &opts, FleetState &fleet);

    /** False when the listener failed to bind. */
    bool valid() const { return loop_.valid(); }

    /** The bound port (resolves port 0). */
    std::uint16_t port() const { return loop_.port(); }

    /** Accept-and-serve until stop() (or a process shutdown request).
     *  Returns after every session thread joined. */
    void run() { loop_.run(); }

    /** Request a drain from another thread (idempotent). */
    void stop() { loop_.stop(); }

    /** True once draining started. */
    bool draining() const { return loop_.draining(); }

    /** Aggregated fleet health: scalar sums over the reachable shards
     *  plus one ShardHealth entry per shard.  Also the HealthReply
     *  payload.  Callable from any thread. */
    net::HealthInfo healthSnapshot() const override;

    /** Aggregated fleet counters (InfoReply payload). */
    net::ServerInfo infoSnapshot() const override;

    /** Fan @p query out and merge — the MatrixRequest path, exposed
     *  for tests.  @p arrival is when the request hit this hop: the
     *  v5 budget rule forwards deadlineMs minus the time already
     *  spent here (floored at kShardFloorMs per shard; 0 = forever
     *  stays 0), so the client's --deadline-ms is an end-to-end
     *  budget, not a fresh allowance per hop.  A budget already
     *  exhausted at fan-out throws the typed Deadline without
     *  touching any shard.  @throws net::ServerError to signal a
     *  typed error reply (Deadline/Stalled/Cancelled propagation),
     *  std::exception for Internal. */
    MatrixResult routeMatrix(const MatrixQuery &query,
                             std::chrono::steady_clock::time_point
                                 arrival =
                                     std::chrono::steady_clock::now())
        const;

    /** Minimum budget forwarded to a shard once a request was viable
     *  at arrival: routing overhead must not starve it to nothing. */
    static constexpr std::uint64_t kShardFloorMs = 50;

  private:
    /** Decode and answer one MatrixRequest.  False when the
     *  connection died, or for a CellsRequest: that is a shard-side
     *  verb, and a client sending it to the router is confused. */
    bool handleRequest(Connection &conn,
                       const net::Frame &frame) override;

    RouterOptions opts_;
    FleetState &fleet_;
    std::atomic<std::uint64_t> requestsServed_{0};
    /** Last member, so it is destroyed (every session joined) before
     *  anything a session uses. */
    AcceptLoop loop_;
};

} // namespace ddsc::serve

#endif // DDSC_SERVE_ROUTER_HH
