/**
 * @file
 * The resident sweep server: keeps one ExperimentDriver (traces,
 * cell cache, optional persistent store) warm and serves
 * experiment-matrix queries over localhost TCP.
 *
 * Concurrency model: the shared AcceptLoop (accept_loop.hh) — one
 * accept thread plus one thread per live session, with its overload
 * shed and drain.  Sessions share the driver through the
 * single-flight CellRegistry, and the driver farms actual simulation
 * onto its own worker pool — so K concurrent identical requests cost
 * one simulation per unique cell, and a repeated request is answered
 * entirely from memory or the store.
 *
 * Drain (SIGINT/SIGTERM or stop()): the loop stops accepting and
 * joins every session once its in-flight request replied; then the
 * store is flushed and compacted.  A drained server exits with every
 * finished cell durable.
 */

#ifndef DDSC_SERVE_SERVER_HH
#define DDSC_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "net/protocol.hh"
#include "serve/accept_loop.hh"
#include "serve/admission.hh"
#include "serve/registry.hh"
#include "sim/experiment.hh"
#include "sim/result_store.hh"

namespace ddsc::serve
{

struct ServerOptions
{
    std::uint16_t port = 0;     ///< 0 = kernel-assigned; see port()
    unsigned jobs = 0;          ///< driver workers (0 = default policy)
    std::string cacheDir;       ///< "" = in-memory only; otherwise the
                                ///< store is (re)opened — a warm start
                                ///< over an existing store is the
                                ///< normal daemon restart
    unsigned maxSessions = 8;   ///< live sessions before shedding
    int backlog = 16;           ///< listen(2) backlog
    bool testScale = false;     ///< small workloads (tests only)
    /** Soft watchdog budget per in-flight cell, ms.  0 = adaptive:
     *  8x the slowest cell ever observed (2 s floor), and no sweeps
     *  at all until at least one cell has finished.  A cell past the
     *  soft budget fails its waiters with ErrCode::Stalled; past 8x
     *  the soft budget it is provisionally quarantined. */
    std::uint64_t watchdogBudgetMs = 0;
    /** Cancel budget per in-flight cell, ms: past it the watchdog
     *  fires the flight's CancelToken, actively reclaiming the stuck
     *  worker (the rung above quarantine).  0 = 8x the hard budget,
     *  i.e. 64x soft — late enough that a merely slow flight which
     *  would still publish and self-heal is never killed
     *  (--cancel-stalled-ms). */
    std::uint64_t cancelStalledMs = 0;
    /** Admission control in front of the registry: concurrent
     *  resolving requests, the bounded FIFO behind them
     *  (--queue-depth), the per-connection in-flight cap
     *  (--per-conn-inflight), and the brownout bypass for
     *  cache-answerable requests (--brownout / --no-brownout). */
    AdmissionOptions admission;
    /** Supervisor restart count, reported in HealthInfo (0 =
     *  unsupervised first life). */
    std::uint64_t generation = 0;
    /** "" = traces stay as in-memory vectors; otherwise each workload
     *  is spilled once to a DDSCTRC v4 file under this directory and
     *  served through mmap'd zero-copy cursors. */
    std::string traceDir;
    /** Residency budget over the mapped traces, MiB (0 = unlimited).
     *  Needs traceDir; cold traces are evicted (madvise) LRU-wise so
     *  the sweep's RSS stays bounded. */
    std::uint64_t traceBudgetMb = 0;
};

class Server : public AcceptLoop::Owner
{
  public:
    explicit Server(const ServerOptions &opts);

    /** False when the listener failed to bind (port in use). */
    bool valid() const { return loop_.valid(); }

    /** The bound port (resolves port 0). */
    std::uint16_t port() const { return loop_.port(); }

    /**
     * Accept-and-serve until a drain is requested — by stop(), or by
     * SIGINT/SIGTERM when installShutdownHandler() was called.
     * Returns after the drain completes: no listener, no sessions,
     * store flushed.
     */
    void run();

    /** Request a drain from another thread (idempotent). */
    void stop() { loop_.stop(); }

    /** True once draining started; late requests get ErrCode::Draining. */
    bool draining() const { return loop_.draining(); }

    /** Counters snapshot for InfoReply. */
    net::ServerInfo infoSnapshot() const override;

    /** Readiness snapshot for HealthReply (what a supervisor or
     *  operator probes for). */
    net::HealthInfo healthSnapshot() const override;

    ExperimentDriver &driver() { return driver_; }
    CellRegistry &registry() { return registry_; }
    AdmissionController &admission() { return admission_; }

    void countRequest() { requestsServed_.fetch_add(1); }

  private:
    /** MatrixRequest and CellsRequest, through a Session. */
    bool handleRequest(Connection &conn,
                       const net::Frame &frame) override;

    /** An accept-time shed prices its retry the way a request-level
     *  shed would (admission's latency EWMA and queue depth). */
    std::uint64_t retryHintMs() const override;

    /** The hung-cell watchdog: periodically sweep the registry for
     *  claims past their budget.  Runs on its own thread for the
     *  whole of run(), including the drain (a stalled cell must fail
     *  its waiters or the drain's join would inherit the hang). */
    void watchdogLoop();

    /** This sweep's soft budget in ms (0 = adaptive with no history
     *  yet: skip the sweep). */
    std::uint64_t watchdogBudget() const;

    ServerOptions opts_;
    ExperimentDriver driver_;
    std::unique_ptr<ResultStore> store_;
    CellRegistry registry_;
    AdmissionController admission_;
    std::atomic<std::uint64_t> requestsServed_{0};

    std::thread watchdog_;
    std::mutex watchdogMutex_;
    std::condition_variable watchdogCv_;
    bool watchdogStop_ = false;         ///< guarded by watchdogMutex_
    /** Last sweep's effective soft budget, for HealthInfo. */
    std::atomic<std::uint64_t> effectiveBudgetMs_{0};
    /** Last member, so it is destroyed (every session joined) before
     *  anything a session uses. */
    AcceptLoop loop_;
};

} // namespace ddsc::serve

#endif // DDSC_SERVE_SERVER_HH
