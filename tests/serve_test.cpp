/**
 * @file
 * The serving layer end to end: a real Server on an ephemeral
 * localhost port, driven through the real Client.
 *
 * The two load-bearing guarantees:
 *
 *  - Oracle byte-identity: for any query, the bytes the client
 *    renders equal the bytes a fresh local ddsc-matrix-style run
 *    renders.  The server adds transport and caching, never content.
 *  - Single-flight: K concurrent identical requests cost exactly one
 *    simulation per unique cell, measured at the driver (the layer
 *    below the registry being tested), not at the registry itself.
 *
 * Plus the robustness edges: overload shedding, deadline expiry,
 * version mismatch, torn frames in both directions, mid-response
 * disconnect, and drain.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "naive_oracle.hh"
#include "net/client.hh"
#include "serve/server.hh"
#include "sim/matrix_query.hh"
#include "support/fault.hh"

namespace ddsc
{
namespace
{

/** A running server on an ephemeral port, drained on destruction. */
class ServerFixture
{
  public:
    explicit ServerFixture(serve::ServerOptions opts = {})
    {
        opts.port = 0;              // ephemeral
        opts.testScale = true;      // small workloads
        if (opts.jobs == 0)
            opts.jobs = 2;
        server_ = std::make_unique<serve::Server>(opts);
        EXPECT_TRUE(server_->valid());
        thread_ = std::thread([this]() { server_->run(); });
    }

    ~ServerFixture()
    {
        server_->stop();
        thread_.join();
    }

    serve::Server &server() { return *server_; }
    std::uint16_t port() const { return server_->port(); }

  private:
    std::unique_ptr<serve::Server> server_;
    std::thread thread_;
};

MatrixQuery
smallQuery()
{
    MatrixQuery query;
    query.set = "pc";
    query.configs = "AD";
    query.widths = {4};
    query.metric = "ipc";
    return query;
}

TEST(Serve, OracleByteIdentity)
{
    ServerFixture fx;
    const MatrixQuery query = smallQuery();

    // Ground truth: the same query against a fresh local driver at
    // the same scale, rendered by the same code path ddsc-matrix uses.
    ExperimentDriver local(0, /*test_scale=*/true, /*jobs=*/1);
    const MatrixResult fresh = runMatrixQuery(local, query);

    net::Client client(fx.port());
    const MatrixResult served = client.matrix(query);

    EXPECT_EQ(served.render(true), fresh.render(true));
    EXPECT_EQ(served.render(false), fresh.render(false));

    // Second ask: answered from the resident cache, same bytes.
    const MatrixResult again = client.matrix(query);
    EXPECT_EQ(again.render(true), fresh.render(true));
    EXPECT_EQ(again.summary.simulated, 0u);

    // Same identity for the speedup metric (reduces over the cached
    // config-A cells; nothing new simulates).
    MatrixQuery speedup = query;
    speedup.metric = "speedup";
    const MatrixResult freshSpeedup = runMatrixQuery(local, speedup);
    const MatrixResult servedSpeedup = client.matrix(speedup);
    EXPECT_EQ(servedSpeedup.render(true), freshSpeedup.render(true));
    EXPECT_EQ(servedSpeedup.render(false), freshSpeedup.render(false));
    EXPECT_EQ(servedSpeedup.summary.simulated, 0u);
}

// "Legacy bytes" are the naive reference engine's; the name is kept
// so the test's ID stays stable.
TEST(Serve, BatchedServeMatchesLegacyBytesAndSingleFlights)
{
    // The serving path groups same-fingerprint cells of a sweep into
    // one front-end pass.  Pin that two ways at once.  First, the
    // served bytes must equal the same query aggregated from naive
    // engine cells — an oracle that shares no timing code with the
    // production placement engine, carried end to end through the
    // transport.  Second, concurrent identical sweeps must still cost
    // exactly one simulation per unique cell: CellRegistry's
    // single-flight dedup has to hold across the batch boundary,
    // where a cell is no longer an isolated task but a member of a
    // grouped pass.
    ServerFixture fx;
    ASSERT_TRUE(fx.server().driver().batched());
    MatrixQuery query;
    query.set = "pc";
    query.configs = "AD";       // two front-end fingerprint groups
    query.widths = {4, 8};      // two cells per group per workload
    query.metric = "ipc";
    const std::size_t unique = query.cells().size();

    ExperimentDriver traces(0, /*test_scale=*/true, /*jobs=*/1);
    std::map<std::string, SchedStats> naive;
    const auto key = [](const WorkloadSpec &s, char c, unsigned w) {
        return s.name + "/" + c + "/" + std::to_string(w);
    };
    for (const ExperimentCell &cell : query.cells())
        naive[key(*cell.spec, cell.config, cell.width)] =
            test::naiveCell(traces.trace(*cell.spec),
                            MachineConfig::paper(cell.config,
                                                 cell.width));
    const MatrixResult fresh = aggregateMatrixResult(
        query,
        [&](const WorkloadSpec &s, char c,
            unsigned w) -> const SchedStats & {
            return naive.at(key(s, c, w));
        });

    constexpr int kClients = 3;
    std::vector<std::string> rendered(kClients);
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (int i = 0; i < kClients; ++i) {
        threads.emplace_back([&, i]() {
            try {
                net::Client client(fx.port());
                rendered[i] = client.matrix(query).render(true);
            } catch (const std::exception &) {
                failures.fetch_add(1);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(failures.load(), 0);
    for (int i = 0; i < kClients; ++i)
        EXPECT_EQ(rendered[i], fresh.render(true)) << "client " << i;
    EXPECT_EQ(fx.server().driver().simulatedCells(), unique);
}

TEST(Serve, HandshakeReportsServerVersions)
{
    ServerFixture fx;
    net::Client client(fx.port());
    const net::Hello ours = net::Hello::current();
    EXPECT_TRUE(ours.compatible(client.serverVersions()));
    client.ping();
}

TEST(Serve, ConcurrentIdenticalRequestsSingleFlight)
{
    ServerFixture fx;
    const MatrixQuery query = smallQuery();
    const std::size_t unique = query.cells().size();

    constexpr int kClients = 4;
    std::vector<std::string> rendered(kClients);
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (int i = 0; i < kClients; ++i) {
        threads.emplace_back([&, i]() {
            try {
                net::Client client(fx.port());
                rendered[i] = client.matrix(query).render(true);
            } catch (const std::exception &) {
                failures.fetch_add(1);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(failures.load(), 0);
    for (int i = 1; i < kClients; ++i)
        EXPECT_EQ(rendered[i], rendered[0]) << "client " << i;

    // The ground truth for "exactly one simulation per unique cell"
    // lives below the registry: the driver counts every cell it
    // actually ran.
    EXPECT_EQ(fx.server().driver().simulatedCells(), unique);
}

TEST(Serve, OverloadShedsWithTypedError)
{
    serve::ServerOptions opts;
    opts.maxSessions = 1;
    ServerFixture fx(opts);

    // Occupy the only slot (handshake completes => session is live).
    net::Client holder(fx.port());
    holder.ping();

    // The next connection must be shed with Overloaded, not stalled.
    bool overloaded = false;
    try {
        net::Client excess(fx.port());
    } catch (const net::ServerError &e) {
        overloaded = e.code == net::ErrCode::Overloaded;
    }
    EXPECT_TRUE(overloaded);
}

TEST(Serve, DeadlineBoundsTheWaitNotTheSimulation)
{
    ServerFixture fx;
    MatrixQuery slow = smallQuery();
    slow.set = "pc";
    slow.configs = "A";

    // Hold one of the query's cells in flight for 400 ms.
    support::faultArm("cell-stall:li/A/4");

    std::thread owner([&]() {
        net::Client client(fx.port());
        const MatrixResult result = client.matrix(slow);
        EXPECT_FALSE(result.interrupted);
    });
    // Give the owner time to claim the stalled cell, then ask for the
    // same cells with a deadline far shorter than the stall.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    MatrixQuery hurried = slow;
    hurried.deadlineMs = 50;
    bool expired = false;
    try {
        net::Client client(fx.port());
        client.matrix(hurried);
    } catch (const net::ServerError &e) {
        expired = e.code == net::ErrCode::Deadline;
    }
    owner.join();
    support::faultArm("");
    EXPECT_TRUE(expired);

    // The cells kept computing: the same query with no deadline is
    // now answered from cache, instantly.
    net::Client client(fx.port());
    const MatrixResult cached = client.matrix(slow);
    EXPECT_EQ(cached.summary.simulated, 0u);
}

TEST(Serve, OwnDeadlineCancelsClaimedFlightTypedNotQuarantined)
{
    // The owner's own deadline fires its request token, the stalled
    // simulation unwinds cooperatively, and the reply is the typed
    // Cancelled — NOT Deadline (that is the waiter's word) and NOT a
    // quarantine: the cell re-runs cleanly for the next request and
    // renders byte-identical to a fresh local run.
    ServerFixture fx;
    MatrixQuery slow = smallQuery();
    slow.configs = "A";

    support::faultArm("cell-stall:li/A/4");     // 400 ms stall
    MatrixQuery hurried = slow;
    hurried.deadlineMs = 100;                   // expires mid-stall
    bool cancelled = false;
    try {
        net::Client client(fx.port());
        client.matrix(hurried);
    } catch (const net::ServerError &e) {
        cancelled = e.code == net::ErrCode::Cancelled;
        EXPECT_NE(std::string(e.what()).find("cancelled"),
                  std::string::npos);
    }
    support::faultArm("");
    EXPECT_TRUE(cancelled);

    // Nothing was quarantined by the cancellation...
    EXPECT_EQ(fx.server().healthSnapshot().quarantinedCells, 0u);

    // ...and the cell re-runs cleanly: same bytes as a fresh local
    // ddsc-matrix-style run, with the cell actually simulated (the
    // cancelled attempt's partial state was discarded, not cached).
    ExperimentDriver local(0, /*test_scale=*/true, /*jobs=*/1);
    const MatrixResult fresh = runMatrixQuery(local, slow);
    net::Client client(fx.port());
    const MatrixResult rerun = client.matrix(slow);
    EXPECT_EQ(rerun.render(true), fresh.render(true));
    EXPECT_GT(rerun.summary.simulated, 0u);
}

TEST(Serve, BrownoutServesCachedWhileFreshSimulationSheds)
{
    // Saturate admission (one slot, no queue).  A request answerable
    // entirely from durable cells still gets its bytes — brownout —
    // while a request needing fresh simulation is shed with a typed
    // Overloaded carrying a positive retry-after hint.
    serve::ServerOptions opts;
    opts.admission.maxActive = 1;
    opts.admission.queueDepth = 0;
    opts.admission.brownout = true;
    ServerFixture fx(opts);

    // Warm the cache so smallQuery()'s cells are durable.
    ExperimentDriver local(0, /*test_scale=*/true, /*jobs=*/1);
    const std::string oracle =
        runMatrixQuery(local, smallQuery()).render(true);
    net::Client warm(fx.port());
    EXPECT_EQ(warm.matrix(smallQuery()).render(true), oracle);

    // Occupy the only admission slot with a stalled fresh simulation.
    support::faultArm("cell-stall:li/E/4");     // 400 ms stall
    MatrixQuery occupier = smallQuery();
    occupier.configs = "E";
    std::thread holder([&]() {
        net::Client client(fx.port());
        const MatrixResult result = client.matrix(occupier);
        EXPECT_FALSE(result.interrupted);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(120));

    // Cached request: served through brownout, same bytes as ever.
    {
        net::Client client(fx.port());
        const MatrixResult served = client.matrix(smallQuery());
        EXPECT_EQ(served.render(true), oracle);
        EXPECT_EQ(served.summary.simulated, 0u);
    }
    EXPECT_GE(fx.server().admission().brownoutServed(), 1u);

    // Fresh-simulation request: shed, typed, with a retry hint.
    MatrixQuery fresh = smallQuery();
    fresh.configs = "B";
    bool shed = false;
    std::uint64_t hint = 0;
    try {
        net::Client client(fx.port());
        client.matrix(fresh);
    } catch (const net::ServerError &e) {
        shed = e.code == net::ErrCode::Overloaded;
        hint = e.retryAfterMs;
    }
    EXPECT_TRUE(shed);
    EXPECT_GT(hint, 0u);
    EXPECT_GE(fx.server().admission().shedTotal(), 1u);

    holder.join();
    support::faultArm("");
}

TEST(Serve, VersionMismatchIsATypedError)
{
    ServerFixture fx;
    net::Fd conn = net::connectLocal(fx.port());
    ASSERT_TRUE(conn.valid());

    net::Hello wrong = net::Hello::current();
    wrong.traceFormat += 1;
    std::string payload;
    wrong.encode(payload);
    ASSERT_TRUE(net::writeFrame(conn.get(), net::MsgType::Hello,
                                payload));

    net::Frame reply;
    ASSERT_EQ(net::readFrame(conn.get(), reply, 5000),
              net::ReadStatus::Ok);
    ASSERT_EQ(reply.type, net::MsgType::Error);
    net::ErrorMsg err;
    support::wire::Reader reader(reply.payload);
    ASSERT_TRUE(err.decode(reader));
    EXPECT_EQ(err.code, net::ErrCode::VersionMismatch);
}

TEST(Serve, GarbageBytesDropTheSessionNotTheServer)
{
    ServerFixture fx;
    net::Fd conn = net::connectLocal(fx.port());
    ASSERT_TRUE(conn.valid());
    ASSERT_TRUE(net::sendAll(conn.get(),
                             "this is not a DDSN frame at all"));
    // The server drops us...
    net::Frame reply;
    EXPECT_NE(net::readFrame(conn.get(), reply, 5000),
              net::ReadStatus::Ok);
    // ...and keeps serving everyone else.
    net::Client client(fx.port());
    client.ping();
}

TEST(Serve, TornRequestFrameDropsSessionServerSurvives)
{
    ServerFixture fx;
    net::Client client(fx.port());

    // Next writeFrame in this process is the client's request: it
    // sends half and fails, and the server sees a torn frame.
    support::faultArm("net-torn-frame:1");
    EXPECT_THROW(client.matrix(smallQuery()), net::TransportError);
    support::faultArm("");

    net::Client fresh(fx.port());
    fresh.ping();
}

TEST(Serve, TornReplyFrameSurfacesAsTransportError)
{
    ServerFixture fx;
    net::Client client(fx.port());
    // Resolve the cells once so the faulted request is answered
    // without simulating (keeps hit ordering deterministic).
    client.matrix(smallQuery());

    // Hit 1 = the client's request write; hit 2 = the server's reply
    // write, which is the one that tears.
    support::faultArm("net-torn-frame:2");
    EXPECT_THROW(client.matrix(smallQuery()), net::TransportError);
    support::faultArm("");
}

TEST(Serve, MidResponseDisconnectSurfacesAsTransportError)
{
    ServerFixture fx;
    net::Client client(fx.port());

    support::faultArm("net-disconnect:1");
    EXPECT_THROW(client.matrix(smallQuery()), net::TransportError);
    support::faultArm("");

    net::Client fresh(fx.port());
    fresh.ping();
}

TEST(Serve, BadRequestIsTypedAndSessionSurvives)
{
    ServerFixture fx;
    net::Client client(fx.port());
    MatrixQuery bogus = smallQuery();
    bogus.metric = "frobnication";
    bool bad = false;
    try {
        client.matrix(bogus);
    } catch (const net::ServerError &e) {
        bad = e.code == net::ErrCode::BadRequest;
    }
    EXPECT_TRUE(bad);
    client.ping();      // same session still usable
}

TEST(Serve, OverloadShedFrameBytesArePinned)
{
    serve::ServerOptions opts;
    opts.maxSessions = 1;
    ServerFixture fx(opts);

    // Occupy the only slot so the next connect is shed at accept.
    net::Client holder(fx.port());
    holder.ping();

    // The shed reply, byte for byte: DDSN magic, type Error (9),
    // length, CRC-32, then payload { code Overloaded (2), message,
    // retryAfterMs }.  This pins the v5 wire ABI — old clients decide
    // "back off and retry" from exactly these bytes (v4 decoders stop
    // before the trailing hint and still parse), so changing any of
    // them is a protocol revision, not a refactor.  The hint is 50 ms
    // by construction: a fresh server's admission EWMA is empty and
    // reports its deterministic default.
    static const unsigned char kShedFrame[] = {
        0x44, 0x44, 0x53, 0x4e,             // magic "DDSN"
        0x09,                               // MsgType::Error
        0x3b, 0x00, 0x00, 0x00,             // payload length 59
        0x8e, 0x67, 0xb3, 0x8d,             // CRC-32 of the payload
        0x02,                               // ErrCode::Overloaded
        0x2e, 0x00, 0x00, 0x00,             // message length 46
        's', 'e', 'r', 'v', 'e', 'r', ' ', 'a', 't', ' ',
        'c', 'a', 'p', 'a', 'c', 'i', 't', 'y', ' ', '(',
        '1', ' ', 's', 'e', 's', 's', 'i', 'o', 'n', 's',
        ')', ';', ' ', 'r', 'e', 't', 'r', 'y', ' ',
        's', 'h', 'o', 'r', 't', 'l', 'y',
        0x32, 0x00, 0x00, 0x00,             // retryAfterMs = 50 ...
        0x00, 0x00, 0x00, 0x00,             // ... (u64 LE)
    };

    net::Fd conn = net::connectLocal(fx.port());
    ASSERT_TRUE(conn.valid());
    unsigned char got[sizeof kShedFrame];
    ASSERT_EQ(net::recvExact(conn.get(), got, sizeof got, 5000),
              sizeof got);
    EXPECT_EQ(std::memcmp(got, kShedFrame, sizeof kShedFrame), 0);

    // After the shed frame the server hangs up: clean EOF, no tail.
    unsigned char extra = 0;
    EXPECT_EQ(net::recvExact(conn.get(), &extra, 1, 2000), 0u);
}

TEST(Serve, RetryRidesOutOverloadUntilASlotFrees)
{
    serve::ServerOptions opts;
    opts.maxSessions = 1;
    ServerFixture fx(opts);

    ExperimentDriver local(0, /*test_scale=*/true, /*jobs=*/1);
    const std::string oracle =
        runMatrixQuery(local, smallQuery()).render(true);

    auto holder = std::make_unique<net::Client>(fx.port());
    holder->ping();
    std::thread freeSlot([&holder]() {
        std::this_thread::sleep_for(std::chrono::milliseconds(400));
        holder.reset();     // hang up; the server reaps the slot
    });

    // Every attempt while the slot is held is shed with Overloaded
    // (retryable); once the holder hangs up, an attempt lands and the
    // answer is the ordinary byte-identical one.
    net::RetryPolicy policy;
    policy.retries = 20;
    policy.budgetMs = 30000;
    const std::uint16_t port = fx.port();
    net::Client retrying([port]() { return port; }, -1, policy);
    EXPECT_EQ(retrying.matrix(smallQuery()).render(true), oracle);
    EXPECT_GE(retrying.retriesUsed(), 1u);
    freeSlot.join();
}

TEST(Serve, TimedOutReplyPoisonsTheConnection)
{
    ServerFixture fx;

    // One cell sleeps ~400 ms, so the reply outlives a 100 ms client
    // read timeout and arrives on a socket the client abandoned.
    support::faultArm("cell-stall:li/A/4");
    net::Client client(fx.port(), /*timeout_ms=*/100);
    EXPECT_THROW(client.matrix(smallQuery()), net::TransportError);
    support::faultArm("");

    // The timeout must have poisoned the connection: the stale
    // MatrixReply lands on the old socket once the stall ends, and a
    // ping over that socket would read it as a desynchronized,
    // wrong-type frame.  Poisoned, the client reconnects instead.
    // Under sanitizer builds the server can be slow enough that the
    // 100 ms timeout keeps tripping — retrying a timeout is fine, but
    // no attempt may ever read the stale frame.
    auto neverDesynced = [](const net::TransportError &e) {
        EXPECT_EQ(std::string(e.what()).find("unexpected reply"),
                  std::string::npos)
            << e.what();
    };
    // Each timed-out attempt also abandons a session whose flight is
    // still computing, so a reconnect can find the server at its
    // session cap and be shed with a typed Overloaded — the server's
    // documented answer, not a desync.  Retryable codes wait out the
    // server's hint (at least the usual 100 ms); any other typed
    // error fails the test.
    auto waitOut = [](const net::ServerError &e) {
        std::this_thread::sleep_for(std::chrono::milliseconds(
            std::max<std::uint64_t>(100, e.retryAfterMs)));
    };
    bool ponged = false;
    for (int i = 0; i < 100 && !ponged; ++i) {
        try {
            client.ping();
            ponged = true;
        } catch (const net::TransportError &e) {
            neverDesynced(e);
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
        } catch (const net::ServerError &e) {
            ASSERT_TRUE(net::errCodeRetryable(e.code)) << e.what();
            waitOut(e);
        }
    }
    EXPECT_TRUE(ponged);

    // ...and the answer it then gets is the ordinary, complete one
    // (the server finished computing; only the wait was abandoned).
    for (int i = 0; i < 100; ++i) {
        try {
            const MatrixResult result = client.matrix(smallQuery());
            EXPECT_EQ(result.summary.cells, 4u);
            EXPECT_TRUE(result.quarantined.empty());
            return;
        } catch (const net::TransportError &e) {
            neverDesynced(e);
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
        } catch (const net::ServerError &e) {
            ASSERT_TRUE(net::errCodeRetryable(e.code)) << e.what();
            waitOut(e);
        }
    }
    FAIL() << "matrix never completed inside the 100 ms timeout";
}

TEST(Serve, DrainRefusesNewConnections)
{
    auto fx = std::make_unique<ServerFixture>();
    const std::uint16_t port = fx->port();
    net::Client client(port);
    client.ping();
    fx.reset();         // stop() + join: full drain

    EXPECT_THROW(net::Client{port}, net::TransportError);
}

} // anonymous namespace
} // namespace ddsc
