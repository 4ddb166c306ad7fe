#include "server.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include "support/logging.hh"
#include "support/shutdown.hh"

namespace ddsc::serve
{

Server::Server(const ServerOptions &opts)
    : opts_(opts),
      driver_(0, opts.testScale, opts.jobs),
      registry_(driver_),
      admission_(opts.admission)
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
    listener_ = net::TcpListener::bindLocal(opts_.port, opts_.backlog);
    if (::pipe2(stopPipe_, O_NONBLOCK | O_CLOEXEC) != 0) {
        // Without the self-pipe, stop() would fall back to a flag the
        // blocked poll() never notices — a server that cannot be told
        // to drain.  pipe2 only fails when the process is out of fds,
        // which is not a state to limp along in.
        ddsc_fatal("ddsc-served: pipe2 failed: %s",
                   std::strerror(errno));
    }
}

Server::~Server()
{
    // run() joins every session before returning; a server destroyed
    // without run() has none.
    for (std::unique_ptr<Slot> &slot : sessions_) {
        if (slot->thread.joinable())
            slot->thread.join();
    }
    for (const int fd : stopPipe_) {
        if (fd >= 0)
            ::close(fd);
    }
}

void
Server::run()
{
    watchdog_ = std::thread([this]() { watchdogLoop(); });

    while (!draining_.load()) {
        reapSessions();

        pollfd fds[3];
        nfds_t nfds = 0;
        const std::size_t listenerSlot = nfds;
        fds[nfds++] = {listener_.fd(), POLLIN, 0};
        if (stopPipe_[0] >= 0)
            fds[nfds++] = {stopPipe_[0], POLLIN, 0};
        const int shutdownFd = support::shutdownFd();
        if (shutdownFd >= 0)
            fds[nfds++] = {shutdownFd, POLLIN, 0};

        const int ready = ::poll(fds, nfds, -1);
        if (ready < 0) {
            if (errno == EINTR)
                continue;       // signal; loop re-checks the pipes
            break;
        }

        bool stopRequested = false;
        for (nfds_t i = 0; i < nfds; ++i) {
            if (i != listenerSlot && (fds[i].revents & POLLIN))
                stopRequested = true;
        }
        if (stopRequested || support::shutdownRequested())
            break;

        if (!(fds[listenerSlot].revents & POLLIN))
            continue;
        net::Fd conn = listener_.accept();
        if (!conn.valid())
            continue;

        reapSessions();
        if (liveSessions() >= opts_.maxSessions) {
            // Shed: answer *something* so the client knows to back
            // off, instead of letting it stall in a queue.  The hint
            // prices the retry the same way a request-level shed
            // would (admission's latency EWMA and queue depth).
            net::ErrorMsg err;
            err.code = net::ErrCode::Overloaded;
            err.message =
                "server at capacity (" +
                std::to_string(opts_.maxSessions) +
                " sessions); retry shortly";
            err.retryAfterMs = admission_.retryHintMs();
            std::string payload;
            err.encode(payload);
            net::writeFrame(conn.get(), net::MsgType::Error, payload);
            continue;           // conn closes on scope exit
        }

        auto slot = std::make_unique<Slot>();
        slot->session = std::make_unique<Session>(
            *this, std::move(conn), nextSessionId_++);
        Slot *raw = slot.get();
        activeSessions_.fetch_add(1);
        slot->thread = std::thread([this, raw]() {
            raw->session->run();
            activeSessions_.fetch_sub(1);
            raw->done.store(true);
        });
        sessions_.push_back(std::move(slot));
    }

    // Drain: no new connections, let in-flight requests reply, then
    // make the store durable and tidy.
    draining_.store(true);
    listener_.close();
    for (std::unique_ptr<Slot> &slot : sessions_) {
        if (!slot->done.load())
            slot->session->shutdownRead();
    }
    for (std::unique_ptr<Slot> &slot : sessions_) {
        if (slot->thread.joinable())
            slot->thread.join();
    }
    sessions_.clear();
    // The watchdog outlives the session join on purpose: a session
    // waiting on a stalled cell is failed by a sweep, which is what
    // lets the join above complete.  Only then is it stopped.
    {
        std::lock_guard<std::mutex> lock(watchdogMutex_);
        watchdogStop_ = true;
    }
    watchdogCv_.notify_all();
    if (watchdog_.joinable())
        watchdog_.join();
    if (store_)
        store_->compact();
}

void
Server::stop()
{
    if (stopPipe_[1] >= 0) {
        const char byte = 's';
        [[maybe_unused]] const ssize_t n =
            ::write(stopPipe_[1], &byte, 1);
    } else {
        draining_.store(true);
    }
}

net::HealthInfo
Server::healthSnapshot() const
{
    using std::chrono::duration_cast;
    using std::chrono::milliseconds;
    net::HealthInfo health;
    health.uptimeMs = static_cast<std::uint64_t>(
        duration_cast<milliseconds>(std::chrono::steady_clock::now() -
                                    started_)
            .count());
    health.generation = opts_.generation;
    health.liveSessions = activeSessions_.load();
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
    info.activeSessions = activeSessions_.load();
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

void
Server::reapSessions()
{
    for (std::size_t i = 0; i < sessions_.size();) {
        if (sessions_[i]->done.load()) {
            if (sessions_[i]->thread.joinable())
                sessions_[i]->thread.join();
            sessions_.erase(sessions_.begin() +
                            static_cast<std::ptrdiff_t>(i));
        } else {
            ++i;
        }
    }
}

std::size_t
Server::liveSessions() const
{
    std::size_t live = 0;
    for (const std::unique_ptr<Slot> &slot : sessions_) {
        if (!slot->done.load())
            ++live;
    }
    return live;
}

} // namespace ddsc::serve
