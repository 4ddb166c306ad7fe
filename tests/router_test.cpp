/**
 * @file
 * The fleet router in-process: a real Router fronting real Servers
 * ("shards") on ephemeral ports, driven through the real net::Client.
 *
 * The load-bearing guarantees:
 *
 *  - Routed byte-identity: for any query, the bytes a client renders
 *    from the router equal the bytes a fresh local
 *    ddsc-matrix-style run renders.  The fan-out/merge adds
 *    distribution, never content.
 *  - Broken-shard degradation: a shard whose flap breaker tripped
 *    fails its cells *typed* — n/a aggregates plus per-cell failures,
 *    quarantine semantics — while the other shards' cells keep
 *    serving bytes identical to local.
 *  - Restart riding: a shard whose port file appears late (the window
 *    a supervised restart opens) is reached through the retry policy
 *    without the client seeing anything but the answer.
 *  - Health aggregation: one ShardHealth per shard with the
 *    per-shard state/generation view, scalars summed across the
 *    reachable fleet.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hh"
#include "serve/router.hh"
#include "serve/server.hh"
#include "sim/matrix_query.hh"
#include "support/portfile.hh"

namespace ddsc
{
namespace
{

/** A throwaway directory for the port files a router reads. */
class TempDir
{
  public:
    TempDir()
    {
        char tmpl[] = "/tmp/ddsc-router-test-XXXXXX";
        const char *dir = ::mkdtemp(tmpl);
        EXPECT_NE(dir, nullptr);
        path_ = dir;
    }

    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }

    std::string file(const std::string &name) const
    {
        return path_ + "/" + name;
    }

  private:
    std::string path_;
};

/** K real shard servers plus a router over them, all in-process. */
class FleetFixture
{
  public:
    explicit FleetFixture(std::size_t shard_count,
                          net::RetryPolicy retry = {.retries = 10,
                                                    .budgetMs = 20000})
    {
        for (std::size_t i = 0; i < shard_count; ++i) {
            serve::ServerOptions opts;
            opts.port = 0;
            opts.testScale = true;
            opts.jobs = 2;
            shards_.push_back(
                std::make_unique<serve::Server>(opts));
            EXPECT_TRUE(shards_.back()->valid());
            shardThreads_.emplace_back(
                [srv = shards_.back().get()]() { srv->run(); });
            const std::string port_file =
                dir_.file("shard-" + std::to_string(i) + ".port");
            support::writeOneLineAtomic(port_file,
                                        shards_.back()->port());
            fleet_.add(port_file, "");
        }

        serve::RouterOptions opts;
        opts.port = 0;
        opts.retry = retry;
        router_ = std::make_unique<serve::Router>(opts, fleet_);
        EXPECT_TRUE(router_->valid());
        routerThread_ =
            std::thread([this]() { router_->run(); });
    }

    ~FleetFixture()
    {
        router_->stop();
        routerThread_.join();
        for (auto &shard : shards_)
            shard->stop();
        for (std::thread &t : shardThreads_)
            t.join();
    }

    serve::Router &router() { return *router_; }
    serve::FleetState &fleet() { return fleet_; }
    serve::Server &shard(std::size_t i) { return *shards_[i]; }
    std::uint16_t port() const { return router_->port(); }
    const TempDir &dir() const { return dir_; }

  private:
    TempDir dir_;
    serve::FleetState fleet_;
    std::vector<std::unique_ptr<serve::Server>> shards_;
    std::vector<std::thread> shardThreads_;
    std::unique_ptr<serve::Router> router_;
    std::thread routerThread_;
};

/** A router alone over one slot whose port file never appears: enough
 *  for the paths that answer before any fan-out (accept, handshake). */
class LoneRouter
{
  public:
    explicit LoneRouter(unsigned max_sessions = 16)
    {
        fleet_.add(dir_.file("shard-0.port"), "");
        serve::RouterOptions opts;
        opts.port = 0;
        opts.maxSessions = max_sessions;
        router_ = std::make_unique<serve::Router>(opts, fleet_);
        EXPECT_TRUE(router_->valid());
        thread_ = std::thread([this]() { router_->run(); });
    }

    ~LoneRouter()
    {
        router_->stop();
        thread_.join();
    }

    std::uint16_t port() const { return router_->port(); }

  private:
    TempDir dir_;
    serve::FleetState fleet_;
    std::unique_ptr<serve::Router> router_;
    std::thread thread_;
};

/** Read one frame from @p fd and decode it as an ErrorMsg. */
net::ErrorMsg
readError(int fd)
{
    net::Frame frame;
    net::ErrorMsg err;
    EXPECT_EQ(net::readFrame(fd, frame, 5000), net::ReadStatus::Ok);
    EXPECT_EQ(frame.type, net::MsgType::Error);
    support::wire::Reader reader(frame.payload);
    EXPECT_TRUE(err.decode(reader));
    return err;
}

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

TEST(Router, PartitionIsDeterministicAndInRange)
{
    for (std::size_t k : {1u, 2u, 3u, 7u}) {
        for (char config : {'A', 'B', 'C', 'D', 'E'}) {
            for (unsigned width : {1u, 4u, 8u, 2048u}) {
                const unsigned s =
                    serve::shardForCell(config, width, k);
                EXPECT_LT(s, k);
                EXPECT_EQ(s, serve::shardForCell(config, width, k));
            }
        }
    }
    // The placement must discriminate: with a handful of shards the
    // paper matrix's columns cannot all land on shard 0.
    std::set<unsigned> used;
    for (char config : {'A', 'B', 'C', 'D', 'E'})
        for (unsigned width : {1u, 4u, 8u, 16u, 2048u})
            used.insert(serve::shardForCell(config, width, 4));
    EXPECT_GT(used.size(), 1u);

    // The placement itself is persistent state: each shard's store
    // holds exactly its own columns, so a changed hash, seed or
    // fingerprint would silently re-partition every fleet's stores.
    // One digit per column, A..G, each at widths 4 8 16 32 2k.
    const std::pair<std::size_t, std::string> pinned[] = {
        {2, "01011 10100 10100 01011 10100 10100 01011"},
        {3, "22102 11002 11110 00111 10001 21011 02100"},
        {4, "21211 30300 30300 21211 12122 12122 03033"},
    };
    for (const auto &[k, table] : pinned) {
        std::size_t at = 0;
        for (char config : {'A', 'B', 'C', 'D', 'E', 'F', 'G'}) {
            for (unsigned width : {4u, 8u, 16u, 32u, 2048u}) {
                if (table[at] == ' ')
                    ++at;
                EXPECT_EQ(serve::shardForCell(config, width, k),
                          static_cast<unsigned>(table[at++] - '0'))
                    << config << "/" << width << " at K=" << k;
            }
        }
    }
}

TEST(Router, RoutedByteIdentity)
{
    FleetFixture fx(3);
    const MatrixQuery query = smallQuery();

    ExperimentDriver local(0, /*test_scale=*/true, /*jobs=*/1);
    const MatrixResult fresh = runMatrixQuery(local, query);

    net::Client client(fx.port());
    const MatrixResult routed = client.matrix(query);
    EXPECT_EQ(routed.render(true), fresh.render(true));
    EXPECT_EQ(routed.render(false), fresh.render(false));
    EXPECT_TRUE(routed.quarantined.empty());

    // Speedup reduces config-A cells against the others; the 'A'
    // column typically lives on a different shard, so this crosses
    // shard boundaries inside one aggregate.
    MatrixQuery speedup = query;
    speedup.metric = "speedup";
    const MatrixResult freshSpeedup = runMatrixQuery(local, speedup);
    const MatrixResult routedSpeedup = client.matrix(speedup);
    EXPECT_EQ(routedSpeedup.render(true), freshSpeedup.render(true));
    EXPECT_EQ(routedSpeedup.render(false),
              freshSpeedup.render(false));

    // Warm ask: every cell now sits in some shard's resident cache.
    const MatrixResult again = client.matrix(query);
    EXPECT_EQ(again.render(true), fresh.render(true));
    EXPECT_EQ(again.summary.simulated, 0u);
}

/** Routed and fresh local renders of @p query, both forms, agree;
 *  returns the local result. */
MatrixResult
expectRoutedMatchesLocal(net::Client &client, ExperimentDriver &local,
                         const MatrixQuery &query)
{
    const MatrixResult fresh = runMatrixQuery(local, query);
    const MatrixResult routed = client.matrix(query);
    EXPECT_EQ(routed.render(true), fresh.render(true))
        << query.configs << " " << query.metric;
    EXPECT_EQ(routed.render(false), fresh.render(false))
        << query.configs << " " << query.metric;
    EXPECT_TRUE(routed.quarantined.empty());
    return fresh;
}

TEST(Router, RoutedCollapsedAndModuleConfigsMatchLocal)
{
    FleetFixture fx(3);
    ExperimentDriver local(0, /*test_scale=*/true, /*jobs=*/2);
    net::Client client(fx.port());

    // The collapsed metric is the one the summary's collapsed count
    // exists for; C/D/E are the configs that collapse, so the
    // values are not all zero.
    MatrixQuery collapsed;
    collapsed.configs = "CDE";
    collapsed.widths = {4, 16};
    collapsed.metric = "collapsed";
    const MatrixResult fresh =
        expectRoutedMatchesLocal(client, local, collapsed);
    bool collapses = false;
    for (const double v : fresh.values)
        collapses = collapses || v > 0.0;
    EXPECT_TRUE(collapses);

    // The speculation-module configs F/G at a width outside the
    // paper's, under every metric (speedup pulls in A as well).
    MatrixQuery modules;
    modules.configs = "FG";
    modules.widths = {6};
    for (const std::string &metric : MatrixQuery::knownMetrics()) {
        modules.metric = metric;
        expectRoutedMatchesLocal(client, local, modules);
    }
}

TEST(Router, SummaryMergeMatchesFullRecords)
{
    // The in-process oracle for the CellsReply summary: every set x
    // metric over A-G, merged once from the full records and once
    // from their encode->decode summaries, must render the same bytes.
    // The metrics are the ones validate() accepts, so a new metric
    // that reads a field the summary lacks fails here.
    ExperimentDriver driver(0, /*test_scale=*/true, /*jobs=*/2);
    MatrixQuery grid;
    grid.configs = MachineConfig::knownConfigs();
    const std::vector<ExperimentCell> cells = grid.cells();
    driver.prefetch(cells);

    auto key = [](const WorkloadSpec &spec, char config,
                  unsigned width) {
        return spec.name + "/" + config + "/" + std::to_string(width);
    };
    std::map<std::string, SchedStats> summaries;
    bool lossy = false;
    for (const ExperimentCell &cell : cells) {
        const SchedStats &full =
            driver.stats(*cell.spec, cell.config, cell.width);
        std::string bytes;
        encodeCellSummary(bytes, full);
        ASSERT_EQ(bytes.size(), kCellSummaryBytes);
        support::wire::Reader in(bytes);
        SchedStats summary;
        ASSERT_TRUE(decodeCellSummary(in, summary));
        EXPECT_EQ(in.remaining(), 0u);
        lossy = lossy || digestSchedStats(summary) != digestSchedStats(full);
        summaries.emplace(key(*cell.spec, cell.config, cell.width),
                          std::move(summary));
    }
    // The summaries really are a subset, so the merge below reads
    // nothing but the four fields.
    EXPECT_TRUE(lossy);

    const CellStatsFn fromFull =
        [&driver](const WorkloadSpec &spec, char config,
                  unsigned width) -> const SchedStats & {
        return driver.stats(spec, config, width);
    };
    const CellStatsFn fromSummary =
        [&](const WorkloadSpec &spec, char config,
            unsigned width) -> const SchedStats & {
        return summaries.at(key(spec, config, width));
    };
    for (const std::string &set : MatrixQuery::knownSets()) {
        for (const std::string &metric : MatrixQuery::knownMetrics()) {
            MatrixQuery query = grid;
            query.set = set;
            query.metric = metric;
            ASSERT_TRUE(query.validate());
            const MatrixResult want =
                aggregateMatrixResult(query, fromFull);
            const MatrixResult got =
                aggregateMatrixResult(query, fromSummary);
            EXPECT_EQ(got.render(true), want.render(true))
                << set << " " << metric;
            EXPECT_EQ(got.render(false), want.render(false))
                << set << " " << metric;
            EXPECT_EQ(got.summary.cellSeconds, want.summary.cellSeconds)
                << set << " " << metric;
        }
    }
}

TEST(Router, BrokenShardFailsTypedWhileOthersServe)
{
    FleetFixture fx(2);
    const MatrixQuery query = smallQuery();

    // Break the shard that owns the 'D' column; 'A' stays healthy
    // (or vice versa — whichever way the hash splits them).
    const unsigned brokenShard = serve::shardForCell('D', 4, 2);
    const unsigned healthyShard = serve::shardForCell('A', 4, 2);
    fx.fleet().shards[brokenShard]->broken.store(true);

    ExperimentDriver local(0, /*test_scale=*/true, /*jobs=*/1);
    const MatrixResult fresh = runMatrixQuery(local, query);

    net::Client client(fx.port());
    const MatrixResult routed = client.matrix(query);

    if (brokenShard == healthyShard) {
        // Hash put both columns on one shard: everything degrades,
        // nothing crashes.
        EXPECT_FALSE(routed.quarantined.empty());
        return;
    }

    // The broken column is n/a with per-cell typed failures naming
    // the shard; the healthy column's bytes still match local.
    EXPECT_FALSE(routed.quarantined.empty());
    for (const auto &entry : routed.quarantined) {
        EXPECT_NE(entry.key.find("/D/"), std::string::npos);
        EXPECT_NE(entry.message.find("shard"), std::string::npos);
    }
    EXPECT_NE(routed.render(true).find("n/a"), std::string::npos);
    ASSERT_EQ(routed.values.size(), fresh.values.size());
    for (std::size_t c = 0; c < query.configs.size(); ++c) {
        for (std::size_t w = 0; w < query.widths.size(); ++w) {
            const std::size_t i = c * query.widths.size() + w;
            if (query.configs[c] == 'A') {
                EXPECT_TRUE(routed.valid[i]);
                EXPECT_EQ(routed.values[i], fresh.values[i]);
            } else {
                EXPECT_FALSE(routed.valid[i]);
            }
        }
    }
}

TEST(Router, RidesAShardWhosePortFileAppearsLate)
{
    // Shard 1's port file vanishes (as it would between generations
    // of a supervised shard) and reappears 300 ms later.  The fan-out
    // must ride that window through its retry policy.
    FleetFixture fx(2, {.retries = 20, .budgetMs = 20000});
    const MatrixQuery query = smallQuery();

    const std::string port_file = fx.fleet().shards[1]->portFile;
    const std::uint16_t real_port = support::readPortFile(port_file);
    ASSERT_NE(real_port, 0);
    std::remove(port_file.c_str());

    std::thread restorer([&]() {
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        support::writeOneLineAtomic(port_file, real_port);
    });

    ExperimentDriver local(0, /*test_scale=*/true, /*jobs=*/1);
    const MatrixResult fresh = runMatrixQuery(local, query);

    net::Client client(fx.port());
    const MatrixResult routed = client.matrix(query);
    restorer.join();

    EXPECT_EQ(routed.render(true), fresh.render(true));
    EXPECT_TRUE(routed.quarantined.empty());
}

TEST(Router, SurvivesShardGenerationChurn)
{
    // Three "generations" of shard 1: each round the shard dies (its
    // port file vanishes with it), a replacement comes up on a fresh
    // ephemeral port a beat later, and a query issued inside the
    // window still merges byte-identical to local.  This is the
    // in-process half of tools/fleet_chaos.sh.
    FleetFixture fx(2, {.retries = 20, .budgetMs = 20000});
    const MatrixQuery query = smallQuery();

    ExperimentDriver local(0, /*test_scale=*/true, /*jobs=*/1);
    const MatrixResult fresh = runMatrixQuery(local, query);

    net::Client client(fx.port());
    const std::string port_file = fx.fleet().shards[1]->portFile;

    std::unique_ptr<serve::Server> replacement;
    std::thread replacementThread;
    for (int generation = 0; generation < 3; ++generation) {
        // The shard "dies": its port file disappears; requests in
        // flight from here on must wait out the restart.
        std::remove(port_file.c_str());
        fx.fleet().shards[1]->generation.fetch_add(1);

        std::thread restorer([&]() {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(150));
            serve::ServerOptions opts;
            opts.port = 0;
            opts.testScale = true;
            opts.jobs = 2;
            auto next = std::make_unique<serve::Server>(opts);
            ASSERT_TRUE(next->valid());
            std::thread run_thread(
                [srv = next.get()]() { srv->run(); });
            if (replacement) {
                replacement->stop();
                replacementThread.join();
            }
            replacement = std::move(next);
            replacementThread = std::move(run_thread);
            support::writeOneLineAtomic(port_file,
                                        replacement->port());
        });

        const MatrixResult routed = client.matrix(query);
        restorer.join();
        EXPECT_EQ(routed.render(true), fresh.render(true))
            << "generation " << generation;
        EXPECT_TRUE(routed.quarantined.empty());
    }

    if (replacement) {
        replacement->stop();
        replacementThread.join();
    }
}

TEST(Router, HealthAggregatesPerShard)
{
    FleetFixture fx(3);

    net::Client client(fx.port());
    net::HealthInfo hi = client.health();
    ASSERT_EQ(hi.shards.size(), 3u);
    for (std::size_t i = 0; i < hi.shards.size(); ++i) {
        EXPECT_EQ(hi.shards[i].index, i);
        EXPECT_EQ(hi.shards[i].state, 0) << "shard " << i;
        EXPECT_NE(hi.shards[i].port, 0u);
    }

    // A broken slot reports broken without being probed; the others
    // stay serving.
    fx.fleet().shards[2]->broken.store(true);
    fx.fleet().shards[2]->restarts.store(7);
    hi = client.health();
    ASSERT_EQ(hi.shards.size(), 3u);
    EXPECT_EQ(hi.shards[2].state, 2);
    EXPECT_EQ(hi.shards[2].restarts, 7u);
    EXPECT_EQ(hi.shards[0].state, 0);
    EXPECT_EQ(hi.shards[1].state, 0);

    // A slot whose port file is gone (shard down, supervisor between
    // generations) reports restarting.
    std::remove(fx.fleet().shards[1]->portFile.c_str());
    hi = client.health();
    EXPECT_EQ(hi.shards[1].state, 1);
}

TEST(Router, InfoAggregatesAcrossShards)
{
    FleetFixture fx(2);
    net::Client client(fx.port());

    const MatrixQuery query = smallQuery();
    (void)client.matrix(query);

    const net::ServerInfo si = client.info();
    // Every unique cell simulated exactly once, somewhere.
    const std::uint64_t direct0 =
        fx.shard(0).infoSnapshot().simulated;
    const std::uint64_t direct1 =
        fx.shard(1).infoSnapshot().simulated;
    EXPECT_EQ(si.simulated, direct0 + direct1);
    EXPECT_GT(si.cachedCells, 0u);
    EXPECT_EQ(si.requestsServed, 1u);
}

TEST(Router, AcceptShedFrameIsPinned)
{
    LoneRouter router(/*max_sessions=*/1);

    // Occupy the only slot so the next connect is shed at accept.
    net::Client holder(router.port());
    holder.ping();

    // The router's shed keeps its own message and carries no retry
    // hint (it has no admission EWMA to price one from).
    net::Fd conn = net::connectLocal(router.port());
    ASSERT_TRUE(conn.valid());
    const net::ErrorMsg err = readError(conn.get());
    EXPECT_EQ(err.code, net::ErrCode::Overloaded);
    EXPECT_EQ(err.message,
              "router at capacity (1 sessions); retry shortly");
    EXPECT_EQ(err.retryAfterMs, 0u);

    // Then it hangs up: clean EOF, no tail.
    unsigned char extra = 0;
    EXPECT_EQ(net::recvExact(conn.get(), &extra, 1, 2000), 0u);
}

TEST(Router, VersionMismatchIsATypedError)
{
    LoneRouter router;
    net::Fd conn = net::connectLocal(router.port());
    ASSERT_TRUE(conn.valid());

    net::Hello wrong = net::Hello::current();
    wrong.traceFormat += 1;
    std::string payload;
    wrong.encode(payload);
    ASSERT_TRUE(net::writeFrame(conn.get(), net::MsgType::Hello,
                                payload));

    // The code is the contract; the message wording is not pinned.
    EXPECT_EQ(readError(conn.get()).code,
              net::ErrCode::VersionMismatch);
    unsigned char extra = 0;
    EXPECT_EQ(net::recvExact(conn.get(), &extra, 1, 2000), 0u);
}

} // anonymous namespace
} // namespace ddsc
