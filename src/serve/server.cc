#include "server.hh"

#include <algorithm>

#include "serve/session.hh"
#include "support/logging.hh"

namespace ddsc::serve
{

Server::Server(const ServerOptions &opts)
    : opts_(opts),
      driver_(0, opts.testScale, opts.jobs),
      registry_(driver_),
      admission_(opts.admission),
      loop_(*this, "server", opts.port, opts.backlog, opts.maxSessions)
{
    if (!opts_.traceDir.empty()) {
        driver_.setTraceDir(opts_.traceDir);
        driver_.setTraceBudgetMb(opts_.traceBudgetMb);
    }
    if (!opts_.cacheDir.empty()) {
        // A daemon restart over its existing store is the normal warm
        // start — no --resume gate like the one-shot CLI has.
        store_ = std::make_unique<ResultStore>(opts_.cacheDir);
        driver_.attachStore(store_.get());
    }
}

void
Server::run()
{
    watchdog_ = std::thread([this]() { watchdogLoop(); });
    loop_.run();
    // The watchdog outlives the loop's session join on purpose: a
    // session waiting on a stalled cell is failed by a sweep, which is
    // what lets that join complete.  Only then is it stopped.
    {
        std::lock_guard<std::mutex> lock(watchdogMutex_);
        watchdogStop_ = true;
    }
    watchdogCv_.notify_all();
    watchdog_.join();
    if (store_)
        store_->compact();
}

bool
Server::handleRequest(Connection &conn, const net::Frame &frame)
{
    Session session(*this, conn);
    return frame.type == net::MsgType::MatrixRequest
               ? session.handleMatrix(frame)
               : session.handleCells(frame);
}

std::uint64_t
Server::retryHintMs() const
{
    return admission_.retryHintMs();
}

net::HealthInfo
Server::healthSnapshot() const
{
    net::HealthInfo health;
    health.uptimeMs = loop_.uptimeMs();
    health.generation = opts_.generation;
    health.liveSessions = loop_.activeSessions();
    health.quarantinedCells = driver_.quarantineCount();
    health.registryDepth = registry_.inflightDepth();
    health.stalledCells = registry_.stalledCount();
    health.storeRecords = store_ ? store_->size() : 0;
    health.watchdogBudgetMs = effectiveBudgetMs_.load();
    const TraceResidencyManager::Counters residency =
        driver_.traceResidency();
    health.traceMappedBytes = residency.mappedBytes;
    health.traceResidentBytes = residency.residentBytes;
    health.traceBudgetBytes = residency.budgetBytes;
    health.traceEvictions = residency.evictions;
    return health;
}

net::ServerInfo
Server::infoSnapshot() const
{
    net::ServerInfo info;
    info.versions = net::Hello::current();
    info.jobs = driver_.jobs();
    info.cachedCells = driver_.cachedCells();
    info.simulated = driver_.simulatedCells();
    info.storeHits = driver_.storeHits();
    info.coalesced = registry_.coalescedTotal();
    info.requestsServed = requestsServed_.load();
    info.activeSessions = loop_.activeSessions();
    info.hasStore = store_ ? 1 : 0;
    if (store_)
        info.storePath = store_->path();
    return info;
}

std::uint64_t
Server::watchdogBudget() const
{
    if (opts_.watchdogBudgetMs != 0)
        return opts_.watchdogBudgetMs;
    // Adaptive: a cell in flight for many times the slowest cell ever
    // observed is stuck, not slow.  With no finished cell yet there
    // is no baseline — first cells on a cold server legitimately pay
    // trace materialization — so the sweep waits for history.
    const std::uint64_t maxNanos = driver_.maxCellWallNanos();
    if (maxNanos == 0)
        return 0;
    constexpr std::uint64_t kFloorMs = 2000;
    return std::max<std::uint64_t>(kFloorMs, 8 * (maxNanos / 1000000));
}

void
Server::watchdogLoop()
{
    constexpr auto kSweepInterval = std::chrono::milliseconds(100);
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(watchdogMutex_);
            watchdogCv_.wait_for(lock, kSweepInterval,
                                 [this]() { return watchdogStop_; });
            if (watchdogStop_)
                return;
        }
        const std::uint64_t soft = watchdogBudget();
        effectiveBudgetMs_.store(soft);
        if (soft == 0)
            continue;   // adaptive with no history yet
        const std::uint64_t cancel = opts_.cancelStalledMs != 0
                                         ? opts_.cancelStalledMs
                                         : soft * 64;
        const WatchdogReport report =
            registry_.watchdogSweep(soft, soft * 8, cancel);
        for (const StalledFlight &flight : report.stalled) {
            warn("watchdog: cell '%s' stalled (%llu ms in flight, "
                 "budget %llu ms); failing its waiters",
                 flight.cacheKey.c_str(),
                 static_cast<unsigned long long>(flight.ageMs),
                 static_cast<unsigned long long>(soft));
        }
        for (const StalledFlight &flight : report.hardStalled) {
            warn("watchdog: cell '%s' stuck for %llu ms (hard budget "
                 "%llu ms); provisionally quarantining",
                 flight.cacheKey.c_str(),
                 static_cast<unsigned long long>(flight.ageMs),
                 static_cast<unsigned long long>(soft * 8));
            driver_.quarantineCell(
                flight.cacheKey,
                "watchdog: stuck in flight for " +
                    std::to_string(flight.ageMs) + " ms (hard budget " +
                    std::to_string(soft * 8) + " ms)");
        }
        for (const StalledFlight &flight : report.cancelled) {
            warn("watchdog: cancelling stalled flight '%s' (%llu ms "
                 "in flight, cancel budget %llu ms); reclaiming its "
                 "worker",
                 flight.cacheKey.c_str(),
                 static_cast<unsigned long long>(flight.ageMs),
                 static_cast<unsigned long long>(cancel));
        }
    }
}

} // namespace ddsc::serve
