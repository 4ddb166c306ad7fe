#include "workloads.hh"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <latch>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "core/config.hh"
#include "core/frontend.hh"
#include "core/scheduler.hh"
#include "layers.hh"
#include "net/client.hh"
#include "net/protocol.hh"
#include "net/socket.hh"
#include "proc.hh"
#include "sim/batched.hh"
#include "sim/experiment.hh"
#include "sim/matrix_query.hh"
#include "support/portfile.hh"
#include "workloads/workloads.hh"

namespace perfbench
{

using namespace ddsc;

namespace
{

/** Client reply timeout: a hung server fails the run, never hangs it. */
constexpr int kClientTimeoutMs = 60000;

/** Nominal seconds of one sweep_paper sweep; sets the sweep count. */
constexpr double kSweepSeconds = 2.0;

/** Fixed request counts of the traced flows (counts must repeat). */
constexpr unsigned kTracedCachedPerConn = 150;
constexpr unsigned kTracedExplorePerConn = 10;

/** serve_explore's design-space widths: 5-128 minus the paper's, so
 *  847 (letter, width) pairs -- several times what a run consumes. */
std::vector<unsigned>
exploreWidths()
{
    std::vector<unsigned> out;
    for (unsigned w = 5; w <= 128; ++w) {
        if (w != 8 && w != 16 && w != 32)
            out.push_back(w);
    }
    return out;
}

struct Pair
{
    char config;
    unsigned width;
};

/** Every (letter, explore width) pair, in seeded order: no pair
 *  repeats within a run, so every request simulates fresh cells. */
std::vector<Pair>
explorePairs(std::uint64_t seed)
{
    std::vector<Pair> out;
    for (const char c : MachineConfig::knownConfigs())
        for (const unsigned w : exploreWidths())
            out.push_back({c, w});
    Rng rng(seed ^ 0x5eedf00dull);
    rng.shuffle(out);
    return out;
}

MatrixQuery
exploreQuery(const Pair &p)
{
    MatrixQuery q;
    q.set = "all";
    q.configs = std::string(1, p.config);
    q.widths = {p.width};
    q.metric = "ipc";
    return q;
}

/** Materializes every trace in serve_explore's set-up: a width no
 *  measured pair uses, so it can never be a store hit later. */
MatrixQuery
materializeQuery()
{
    return exploreQuery({'A', 3});
}

std::vector<ExperimentCell>
paperCells()
{
    return ExperimentDriver::cellsFor(ExperimentDriver::everything(),
                                      "ABCDE", MachineConfig::paperWidths());
}

std::map<std::string, std::uint64_t>
loadDigests(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read digest table " + path);
    std::map<std::string, std::uint64_t> out;
    std::string key, hex;
    while (in >> key >> hex) {
        if (key[0] == '#') {
            std::getline(in, key);
            continue;
        }
        out[key] = std::stoull(hex, nullptr, 16);
    }
    return out;
}

/** Build every workload trace of @p d, one at a time: two concurrent
 *  VM runs would make the process's peak RSS depend on how they
 *  overlap. */
void
materializeTraces(ExperimentDriver &d)
{
    for (const WorkloadSpec *spec : ExperimentDriver::everything())
        d.trace(*spec);
}

/** One successful request of a windowed closed loop. */
struct Completion
{
    double time;                ///< when the reply arrived
    double latency;             ///< seconds
    std::uint64_t instructions; ///< of the cells it resolved
};

/** Per-connection record of a closed loop. */
struct ConnLog
{
    std::vector<double> latency;    ///< seconds, successful requests
    std::uint64_t done = 0;
    std::uint64_t failed = 0;
    std::vector<Completion> completions;
    double start = 0.0, end = 0.0;
    std::vector<std::string> notes;

    void
    fail(const std::string &why)
    {
        ++failed;
        if (notes.size() < 8)
            notes.push_back(why);
    }
};

/** Merged closed-loop outcome. */
struct LoopResult
{
    std::vector<double> latency;
    std::uint64_t done = 0;
    std::uint64_t failed = 0;
    std::uint64_t instructions = 0;
    std::vector<Completion> completions;
    double start = 0.0;
    double wall = 0.0;
};

/**
 * Run @p body(conn, log, ready) on kConnections threads.  Each body
 * connects, calls ready.arrive_and_wait() so every connection starts
 * together, then sends requests until its own stop condition.
 */
template <typename Body>
LoopResult
closedLoop(Body body, RunResult &r)
{
    std::vector<ConnLog> logs(kConnections);
    std::latch ready(kConnections);
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kConnections; ++c) {
        threads.emplace_back([&, c]() {
            bool arrived = false;
            try {
                body(c, logs[c], ready, arrived);
            } catch (const std::exception &e) {
                logs[c].fail(std::string("connection: ") + e.what());
            }
            if (!arrived)
                ready.count_down();
        });
    }
    for (std::thread &t : threads)
        t.join();
    LoopResult out;
    double start = 0.0, end = 0.0;
    for (const ConnLog &l : logs) {
        out.latency.insert(out.latency.end(), l.latency.begin(),
                           l.latency.end());
        out.done += l.done;
        out.failed += l.failed;
        out.completions.insert(out.completions.end(), l.completions.begin(),
                               l.completions.end());
        start = start == 0.0 ? l.start : std::min(start, l.start);
        end = std::max(end, l.end);
        for (const std::string &n : l.notes)
            r.notes.push_back(n);
    }
    out.start = start;
    out.wall = end - start;
    r.attempted += out.done + out.failed;
    r.failed += out.failed;
    return out;
}

/**
 * Fills the latency/throughput metrics every serving workload has.
 * With @p windowed (thousands of short requests) each metric is the
 * median over the phase's whole one-second windows of that window's
 * value, so a host hiccup moves one window, not the run's figure;
 * otherwise (a few hundred long requests) percentiles pool the phase
 * and rates are totals over its wall time.
 */
void
reportLoop(const LoopResult &loop, RunResult &r, bool windowed)
{
    double p50 = quantile(loop.latency, 0.5);
    double p90 = quantile(loop.latency, 0.9);
    double rps = static_cast<double>(loop.done) / loop.wall;
    double ips = static_cast<double>(loop.instructions) / loop.wall;
    const std::size_t windows = static_cast<std::size_t>(loop.wall);
    if (windowed && windows > 0) {
        std::vector<std::vector<double>> lat(windows);
        std::vector<double> instrs(windows, 0.0);
        for (const Completion &c : loop.completions) {
            const auto w = static_cast<std::size_t>(c.time - loop.start);
            if (w < windows) {
                lat[w].push_back(c.latency);
                instrs[w] += static_cast<double>(c.instructions);
            }
        }
        std::vector<double> n, w50, w90;
        for (const std::vector<double> &l : lat) {
            n.push_back(static_cast<double>(l.size()));
            w50.push_back(quantile(l, 0.5));
            w90.push_back(quantile(l, 0.9));
        }
        p50 = median(w50);
        p90 = median(w90);
        rps = median(n);
        ips = median(instrs);
    }
    r.set("latency_p50_ms", p50 * 1e3, "ms");
    r.set("latency_p90_ms", p90 * 1e3, "ms");
    r.set("requests_per_s", rps, "1/s");
    r.set("sim_minstr_per_s", ips / 1e6, "Minstr/s");
    r.notes.push_back("requests=" + std::to_string(loop.done) +
                      " phase_s=" + std::to_string(loop.wall));
}

/** States whether a workload's residual is inside the stated
 *  tolerance (README): |residual| <= 30 % where the layers model the
 *  whole request (sweep_paper, serve_explore); stated only otherwise. */
void
noteTolerance(const std::string &workload, double residual_pct, RunResult &r)
{
    char buf[160];
    if (workload == "sweep_paper" || workload == "serve_explore")
        std::snprintf(buf, sizeof buf,
                      "reconciliation: residual %.1f %% %s the 30 %% "
                      "tolerance",
                      residual_pct,
                      std::abs(residual_pct) <= 30.0 ? "within" : "OUTSIDE");
    else
        std::snprintf(buf, sizeof buf,
                      "reconciliation: residual %.1f %% (stated, not bounded)",
                      residual_pct);
    r.notes.push_back(buf);
}

// --------------------------------------------------------------------
// sweep_paper

void
checkDigest(const std::map<std::string, std::uint64_t> &table,
            const std::string &key, const SchedStats &s, RunResult &r)
{
    const auto it = table.find(key);
    if (it == table.end())
        r.fail("no digest for " + key);
    else if (it->second != digestSchedStats(s))
        r.fail("digest mismatch at " + key);
}

void
runSweep(const Options &opts, RunResult &r)
{
    const auto table = loadDigests(opts.dataDir + "/sweep_digests.txt");
    // ddsc-matrix's cell order; the sweep has no seeded input.
    const std::vector<ExperimentCell> cells = paperCells();
    // Identical work in every run of the same length: one sweep per
    // kSweepSeconds of --seconds (roughly a sweep's wall time with 2
    // jobs on a 4-CPU x86 host), so the process's allocation history,
    // and with it its peak RSS, repeats.
    const unsigned count = std::max(
        1u, static_cast<unsigned>(std::lround(opts.seconds / kSweepSeconds)));
    std::vector<double> setups, sweeps, cellMs;
    double measured = 0.0;
    std::uint64_t instrs = 0;
    while (sweeps.size() < count) {
        const double t0 = nowSec();
        auto d = std::make_unique<ExperimentDriver>(kSweepLimit, false, kJobs);
        materializeTraces(*d);
        setups.push_back(nowSec() - t0);

        const double t1 = nowSec();
        d->prefetch(cells);
        sweeps.push_back(nowSec() - t1);
        measured += sweeps.back();

        instrs = 0;
        for (const ExperimentCell &c : cells) {
            ++r.attempted;
            try {
                const SchedStats &s = d->stats(*c.spec, c.config, c.width);
                checkDigest(table, cellKey(c), s, r);
                instrs += s.instructions;
                cellMs.push_back(static_cast<double>(s.wallNanos) / 1e6);
            } catch (const std::exception &e) {
                r.fail(e.what());
            }
        }
        d.reset();
        // Give the freed traces back so every sweep starts from the
        // same heap instead of one fragmented by its predecessors.
        ::malloc_trim(0);
    }
    // Every sweep does identical work (digest-checked), so the median
    // sweep is the steadiest estimate of the phase's rate.
    const double sweep = median(sweeps);
    r.set("sim_minstr_per_s", static_cast<double>(instrs) / sweep / 1e6,
          "Minstr/s");
    r.set("requests_per_s", static_cast<double>(cells.size()) / sweep,
          "1/s");
    r.set("latency_p50_ms", quantile(cellMs, 0.5), "ms");
    r.set("latency_p90_ms", quantile(cellMs, 0.9), "ms");
    r.set("setup_s", median(setups), "s");
    r.set("peak_rss_mb", selfPeakRssMb(), "MB");
    r.notes.push_back("sweeps=" + std::to_string(sweeps.size()) +
                      " measured_s=" + std::to_string(measured) +
                      " median_sweep_s=" + std::to_string(sweep));
}

/** Untraced/traced pass pairs the sweep reconciliation takes the
 *  median of (a single pair moves by the host's noise). */
constexpr unsigned kSweepPasses = 3;

/** The traced sweep: the same matrix through the explicit layer calls
 *  on kJobs threads -- traceWorkload for every workload, then each
 *  front-end group's SpecFrontEnd::fill feeding feedBatched -- digest
 *  checked, and reconciled against untraced driver sweeps run in
 *  alternation with the traced ones. */
void
traceSweep(const Options &opts, RunResult &r, Tracer &tracer)
{
    const auto table = loadDigests(opts.dataDir + "/sweep_digests.txt");
    const auto specs = ExperimentDriver::everything();
    const auto onThreads = [&](auto &&work) {
        std::vector<std::thread> threads;
        for (unsigned t = 0; t < kJobs; ++t)
            threads.emplace_back(work);
        for (std::thread &t : threads)
            t.join();
    };

    // Set-up: the traces, as the driver's set-up builds them.
    std::vector<std::unique_ptr<VectorTraceSource>> traces(specs.size());
    std::atomic<std::size_t> next{0};
    {
        Tracer::Scope setup(&tracer, "setup");
        const std::int64_t parent = setup.id();
        onThreads([&]() {
            for (std::size_t i; (i = next++) < specs.size();) {
                Tracer::Scope s(&tracer, "vm.trace", parent);
                VectorTraceSource full = traceWorkload(*specs[i]);
                const auto &recs = full.records();
                const std::size_t n =
                    std::min<std::size_t>(recs.size(), kSweepLimit);
                traces[i] = std::make_unique<VectorTraceSource>(
                    std::vector<TraceRecord>(recs.begin(), recs.begin() + n));
            }
        });
    }

    // One unit per (workload, front-end fingerprint) group, the
    // driver's batching unit.
    std::map<std::string, std::vector<MachineConfig>> byFp;
    for (const char c : std::string("ABCDE"))
        for (const unsigned w : MachineConfig::paperWidths()) {
            const MachineConfig cfg = MachineConfig::paper(c, w);
            byFp[cfg.frontEndFingerprint()].push_back(cfg);
        }
    std::vector<std::pair<std::size_t, const std::vector<MachineConfig> *>>
        units;
    for (std::size_t i = 0; i < specs.size(); ++i)
        for (const auto &[fp, configs] : byFp)
            units.push_back({i, &configs});

    const auto layerSeconds = [&]() {
        const auto self = tracer.selfSeconds();
        double sum = 0.0;
        for (const char *n : {"core.frontend", "core.backend", "sim.group"}) {
            const auto it = self.find(n);
            sum += it == self.end() ? 0.0 : it->second;
        }
        return sum;
    };

    std::vector<double> untracedWalls, tracedWalls, layerSecs;
    std::mutex mutex;
    for (unsigned pass = 0; pass < kSweepPasses; ++pass) {
        ExperimentDriver d(kSweepLimit, false, kJobs);
        materializeTraces(d);
        const double t1 = nowSec();
        d.prefetch(paperCells());
        untracedWalls.push_back(nowSec() - t1);

        const double layersBefore = layerSeconds();
        next = 0;
        const double t2 = nowSec();
        {
            Tracer::Scope sweep(&tracer, "sweep");
            const std::int64_t parent = sweep.id();
            onThreads([&]() {
                for (std::size_t u; (u = next++) < units.size();) {
                    const WorkloadSpec &spec = *specs[units[u].first];
                    const std::vector<MachineConfig> &configs =
                        *units[u].second;
                    Tracer::Scope g(&tracer, "sim.group", parent);
                    SpecFrontEnd fe(configs.front());
                    bool collapsing = false;
                    for (const MachineConfig &c : configs)
                        collapsing = collapsing || c.collapsing;
                    fe.setCollapseColumns(collapsing);
                    std::vector<std::unique_ptr<LimitScheduler>> scheds;
                    for (const MachineConfig &c : configs) {
                        scheds.push_back(
                            std::make_unique<LimitScheduler>(c));
                        scheds.back()->beginBatched();
                    }
                    const auto cur = traces[units[u].first]->cursor();
                    FrontEndBatch batch;
                    for (;;) {
                        std::size_t n;
                        {
                            Tracer::Scope s(&tracer, "core.frontend");
                            n = fe.fill(*cur, batch, kBatchedChunk);
                        }
                        if (n == 0)
                            break;
                        for (auto &sched : scheds) {
                            Tracer::Scope s(&tracer, "core.backend");
                            sched->feedBatched(batch);
                        }
                    }
                    for (std::size_t k = 0; k < scheds.size(); ++k) {
                        SchedStats stats;
                        {
                            Tracer::Scope s(&tracer, "core.backend");
                            stats = scheds[k]->finishBatched();
                        }
                        const char letter = configs[k].name[0];
                        const unsigned width = configs[k].issueWidth;
                        const std::string key = spec.name + "/" + letter +
                                                "/" + std::to_string(width);
                        const std::uint64_t untraced =
                            digestSchedStats(d.stats(spec, letter, width));
                        std::lock_guard<std::mutex> lock(mutex);
                        ++r.attempted;
                        checkDigest(table, key, stats, r);
                        if (digestSchedStats(stats) != untraced)
                            r.fail("traced cell differs from untraced at " +
                                   key);
                    }
                }
            });
        }
        tracedWalls.push_back(nowSec() - t2);
        layerSecs.push_back(layerSeconds() - layersBefore);
    }

    const auto self = tracer.selfSeconds();
    const auto get = [&](const char *n) {
        const auto it = self.find(n);
        return it == self.end() ? 0.0 : it->second;
    };
    // kJobs threads x untraced wall is the capacity the end-to-end
    // figure used; the layers' self times must fill it.
    const double untracedWall = median(untracedWalls);
    const double layers = median(layerSecs);
    const double available = kJobs * untracedWall;
    const double residual = 100.0 * (available - layers) / available;
    r.set("recon.residual_pct", residual, "%");
    r.set("recon.residual_ms", (available - layers) / kJobs * 1e3, "ms");
    r.set("recon.tracing_overhead_pct",
          100.0 * (median(tracedWalls) - untracedWall) / untracedWall, "%");
    noteTolerance("sweep_paper", residual, r);
    const double fe = get("core.frontend"), be = get("core.backend"),
                 grp = get("sim.group"), vm = get("vm.trace");
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "self thread-seconds over %u passes: backend %.3f "
                  "frontend %.3f group %.3f sweep-idle %.3f (set-up vm "
                  "%.3f); median untraced sweep %.3f s x %u jobs, median "
                  "traced sweep %.3f s",
                  kSweepPasses, be, fe, grp, get("sweep"), vm, untracedWall,
                  kJobs, median(tracedWalls));
    r.notes.push_back(buf);
    if (!(be > fe && be > vm && be > grp))
        r.notes.push_back("NOTE: back-end is not the largest self time");
    r.count("serve.simulated", 0);
    r.count("serve.store_hits", 0);
    r.count("serve.coalesced", 0);
}

// --------------------------------------------------------------------
// serve_cached / fleet_cached

/** Local reference answers for the nine queries, computed by an
 *  in-process driver outside every timed phase. */
struct CachedRef
{
    std::vector<MatrixQuery> queries = paperQueries();
    std::vector<std::string> expected;
    std::vector<std::uint64_t> instructions;  ///< per query, all cells
    std::unique_ptr<ExperimentDriver> driver;

    CachedRef()
        : driver(std::make_unique<ExperimentDriver>(kCachedLimit, false,
                                                    kJobs))
    {
        driver->prefetch(paperCells());
        for (const MatrixQuery &q : queries) {
            expected.push_back(runMatrixQuery(*driver, q).render(false));
            std::uint64_t n = 0;
            for (const ExperimentCell &c : q.cells())
                n += driver->stats(*c.spec, c.config, c.width).instructions;
            instructions.push_back(n);
        }
    }
};

std::unique_ptr<ServedProcess>
startCached(const Options &opts, bool fleet, const std::string &dir,
            const CachedRef &ref, RunResult &r)
{
    removeTree(dir);
    makeDirs(dir);
    std::vector<std::string> args = {"--port", "0", "--port-file",
                                     dir + "/port"};
    if (fleet) {
        for (const char *a : {"--fleet", "2", "--jobs", "1", "--runtime-dir"})
            args.push_back(a);
        args.push_back(dir + "/rt");
    } else {
        args.insert(args.end(), {"--jobs", std::to_string(kJobs)});
    }
    auto p = std::make_unique<ServedProcess>(opts.served, args, kCachedLimit,
                                             dir + "/port",
                                             dir + "/served.log");
    net::Client c(p->port(), kClientTimeoutMs);
    for (std::size_t i = 0; i < ref.queries.size(); ++i) {
        ++r.attempted;
        if (c.matrix(ref.queries[i]).render(false) != ref.expected[i])
            r.fail("pre-warm reply differs from the local reference");
    }
    return p;
}

std::vector<pid_t>
workerPids(const ServedProcess &p, bool fleet, const std::string &dir)
{
    std::vector<pid_t> pids = {p.pid()};
    if (fleet) {
        for (const pid_t s : ServedProcess::shardPids(dir + "/rt"))
            pids.push_back(s);
    }
    return pids;
}

double
summedRss(const std::vector<pid_t> &pids)
{
    double mb = 0.0;
    for (const pid_t p : pids)
        mb += peakRssMb(p);
    return mb;
}

std::uint64_t
simulatedSoFar(std::uint16_t port)
{
    net::Client c(port, kClientTimeoutMs);
    return c.info().simulated;
}

void
runCached(const Options &opts, RunResult &r, bool fleet)
{
    const CachedRef ref;
    const std::string dir = opts.workDir + (fleet ? "/fleet" : "/cached");
    std::unique_ptr<ServedProcess> server;
    std::vector<double> setups;
    for (unsigned i = 0; i < kSetups; ++i) {
        if (server)
            server->stop(workerPids(*server, fleet, dir));
        server.reset();
        const double t0 = nowSec();
        server = startCached(opts, fleet, dir, ref, r);
        setups.push_back(nowSec() - t0);
    }
    const std::uint16_t port = server->port();
    const std::uint64_t simBefore = simulatedSoFar(port);

    const LoopResult loop = closedLoop(
        [&](unsigned conn, ConnLog &log, std::latch &ready, bool &arrived) {
            net::Client c(port, kClientTimeoutMs);
            Rng rng(opts.seed * 1000003ull + conn);
            std::vector<std::size_t> order;
            ready.arrive_and_wait();
            arrived = true;
            log.start = nowSec();
            const double end = log.start + opts.seconds;
            while (nowSec() < end) {
                if (order.empty()) {
                    for (std::size_t q = 0; q < ref.queries.size(); ++q)
                        order.push_back(q);
                    rng.shuffle(order);
                }
                const std::size_t q = order.back();
                order.pop_back();
                try {
                    const double t = nowSec();
                    const MatrixResult m = c.matrix(ref.queries[q]);
                    const double lat = nowSec() - t;
                    if (m.render(false) != ref.expected[q])
                        log.fail("reply differs from the local reference");
                    else if (m.summary.simulated != 0)
                        log.fail("cached request simulated cells");
                    else {
                        log.latency.push_back(lat);
                        ++log.done;
                        log.completions.push_back(
                            {nowSec(), lat, ref.instructions[q]});
                    }
                } catch (const std::exception &e) {
                    log.fail(e.what());
                }
                log.end = nowSec();
            }
        },
        r);

    const std::uint64_t simAfter = simulatedSoFar(port);
    if (simAfter != simBefore)
        r.fail("measured phase simulated " +
               std::to_string(simAfter - simBefore) + " cells");
    const auto pids = workerPids(*server, fleet, dir);
    r.set("peak_rss_mb", summedRss(pids), "MB");
    server->stop(pids);
    reportLoop(loop, r, true);
    r.set("setup_s", median(setups), "s");
}

/** A bare DDSN connection whose request phases are separate spans:
 *  encode+send, wait, decode. */
class RawClient
{
  public:
    RawClient(std::uint16_t port, Tracer &tracer) : tracer_(tracer)
    {
        Tracer::Scope s(&tracer_, "net.connect");
        fd_ = net::connectLocal(port);
        if (!fd_.valid())
            throw std::runtime_error("cannot connect");
        std::string payload;
        net::Hello::current().encode(payload);
        net::Frame f;
        if (!net::writeFrame(fd_.get(), net::MsgType::Hello, payload) ||
            net::readFrame(fd_.get(), f, kClientTimeoutMs) !=
                net::ReadStatus::Ok ||
            f.type != net::MsgType::HelloOk)
            throw std::runtime_error("handshake failed");
    }

    MatrixResult
    matrix(const MatrixQuery &q)
    {
        std::string payload;
        net::Frame f;
        MatrixResult m;
        {
            Tracer::Scope s(&tracer_, "net.send");
            q.encode(payload);
            if (!net::writeFrame(fd_.get(), net::MsgType::MatrixRequest,
                                 payload))
                throw std::runtime_error("send failed");
        }
        {
            Tracer::Scope s(&tracer_, "net.wait");
            if (net::readFrame(fd_.get(), f, kClientTimeoutMs) !=
                net::ReadStatus::Ok)
                throw std::runtime_error("no reply");
        }
        Tracer::Scope s(&tracer_, "net.decode");
        support::wire::Reader reader(f.payload);
        if (f.type == net::MsgType::Error) {
            net::ErrorMsg e;
            e.decode(reader);
            throw std::runtime_error(std::string("server error: ") +
                                     e.message);
        }
        if (f.type != net::MsgType::MatrixReply || !m.decode(reader))
            throw std::runtime_error("malformed reply");
        return m;
    }

  private:
    Tracer &tracer_;
    net::Fd fd_;
};

/** What a traced serving flow leaves for the reconciliation, which
 *  runs after the layer probes have measured the server-side costs. */
struct Flow
{
    /** fleet_cached only: the fleet, kept up until the router probe
     *  has sent its batches to the shards, and the pids to stop. */
    std::unique_ptr<ServedProcess> server;
    std::vector<pid_t> pids;
    std::vector<std::uint16_t> shardPorts;  ///< empty: in-process server
    double untracedMean = 0.0;  ///< mean untraced latency, s
    double tracedMean = 0.0;    ///< mean traced request span, s
    double clientSelf = 0.0;    ///< send + decode self time, s
    double simPerRequest = 0.0; ///< serve_explore: six cells, s
};

/** Mean per-request seconds of span @p name over @p n requests. */
double
perRequest(const std::map<std::string, double> &m, const char *name,
           std::uint64_t n)
{
    const auto it = m.find(name);
    return it == m.end() || n == 0 ? 0.0 : it->second / n;
}

void
fillFlow(Flow &flow, const Tracer &tracer, const LoopResult &untraced,
         const LoopResult &traced, RunResult &r)
{
    const std::uint64_t n = traced.done + traced.failed;
    const auto total = tracer.totalSeconds();
    const auto self = tracer.selfSeconds();
    flow.untracedMean = mean(untraced.latency);
    flow.tracedMean = perRequest(total, "request", n);
    flow.clientSelf =
        perRequest(self, "net.send", n) + perRequest(self, "net.decode", n);
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "client spans per request (us): send %.1f wait %.1f "
                  "decode %.1f render+compare %.1f",
                  perRequest(self, "net.send", n) * 1e6,
                  perRequest(self, "net.wait", n) * 1e6,
                  perRequest(self, "net.decode", n) * 1e6,
                  perRequest(self, "client.render_compare", n) * 1e6);
    r.notes.push_back(buf);
}

Flow
traceCached(const Options &opts, RunResult &r, Tracer &tracer, bool fleet)
{
    const CachedRef ref;
    const std::string dir = opts.workDir + (fleet ? "/fleet" : "/cached");
    Flow flow;
    flow.server = startCached(opts, fleet, dir, ref, r);
    const std::uint16_t port = flow.server->port();
    const std::uint64_t simBefore = simulatedSoFar(port);

    // The same fixed request sequence twice: untraced, then traced.
    const auto sequence = [&](unsigned conn) {
        Rng rng(opts.seed * 1000003ull + conn);
        std::vector<std::size_t> seq;
        while (seq.size() < kTracedCachedPerConn) {
            std::vector<std::size_t> block;
            for (std::size_t q = 0; q < ref.queries.size(); ++q)
                block.push_back(q);
            rng.shuffle(block);
            seq.insert(seq.end(), block.begin(), block.end());
        }
        seq.resize(kTracedCachedPerConn);
        return seq;
    };
    const LoopResult untraced = closedLoop(
        [&](unsigned conn, ConnLog &log, std::latch &ready, bool &arrived) {
            net::Client c(port, kClientTimeoutMs);
            ready.arrive_and_wait();
            arrived = true;
            log.start = nowSec();
            for (const std::size_t q : sequence(conn)) {
                const double t = nowSec();
                const MatrixResult m = c.matrix(ref.queries[q]);
                log.latency.push_back(nowSec() - t);
                if (m.render(false) != ref.expected[q])
                    log.fail("reply differs from the local reference");
                else
                    ++log.done;
            }
            log.end = nowSec();
        },
        r);

    std::uint64_t storeHits = 0, coalesced = 0;
    std::mutex mutex;
    const LoopResult traced = closedLoop(
        [&](unsigned conn, ConnLog &log, std::latch &ready, bool &arrived) {
            RawClient c(port, tracer);
            ready.arrive_and_wait();
            arrived = true;
            log.start = nowSec();
            for (const std::size_t q : sequence(conn)) {
                MatrixResult m;
                {
                    Tracer::Scope s(&tracer, "request");
                    m = c.matrix(ref.queries[q]);
                }
                Tracer::Scope s(&tracer, "client.render_compare");
                if (m.render(false) != ref.expected[q])
                    log.fail("reply differs from the local reference");
                else
                    ++log.done;
                std::lock_guard<std::mutex> lock(mutex);
                storeHits += m.summary.storeHits;
                coalesced += m.summary.coalesced;
            }
            log.end = nowSec();
        },
        r);
    r.count("serve.simulated", simulatedSoFar(port) - simBefore);
    r.count("serve.store_hits", storeHits);
    r.count("serve.coalesced", coalesced);

    if (fleet) {
        flow.pids = workerPids(*flow.server, fleet, dir);
        for (int s = 0; s < 2; ++s)
            flow.shardPorts.push_back(ddsc::support::readPortFile(
                dir + "/rt/shard-" + std::to_string(s) + ".port"));
    } else {
        flow.server.reset();
    }
    fillFlow(flow, tracer, untraced, traced, r);
    return flow;
}

// --------------------------------------------------------------------
// serve_explore

std::unique_ptr<ServedProcess>
startExplore(const Options &opts, const std::string &dir, RunResult &r)
{
    removeTree(dir);
    makeDirs(dir);
    const std::vector<std::string> args = {
        "--jobs", std::to_string(kJobs), "--port", "0", "--port-file",
        dir + "/port", "--cache-dir", dir + "/cache", "--trace-dir",
        dir + "/traces", "--trace-budget-mb",
        std::to_string(kExploreBudgetMb)};
    auto p = std::make_unique<ServedProcess>(opts.served, args, kExploreLimit,
                                             dir + "/port",
                                             dir + "/served.log");
    net::Client c(p->port(), kClientTimeoutMs);
    ++r.attempted;
    if (c.matrix(materializeQuery()).summary.simulated != 6)
        r.fail("materializing query did not simulate its 6 cells");
    return p;
}

/** Check @p sample replies against an in-process reference driver. */
void
checkExplore(const std::vector<Pair> &pairs,
             const std::vector<std::string> &replies,
             const std::vector<std::size_t> &sample, ExperimentDriver &ref,
             RunResult &r)
{
    std::vector<ExperimentCell> cells;
    for (const std::size_t i : sample) {
        const auto c = exploreQuery(pairs[i]).cells();
        cells.insert(cells.end(), c.begin(), c.end());
    }
    ref.prefetch(cells);
    for (const std::size_t i : sample) {
        const std::string want =
            runMatrixQuery(ref, exploreQuery(pairs[i])).render(false);
        if (want != replies[i])
            r.fail("explore reply for " + std::string(1, pairs[i].config) +
                   "/" + std::to_string(pairs[i].width) +
                   " differs from the in-process reference: got [" +
                   replies[i] + "] want [" + want + "]");
    }
}

std::uint64_t
exploreInstructions(ExperimentDriver &ref)
{
    std::uint64_t n = 0;
    for (const WorkloadSpec *spec : ExperimentDriver::everything())
        n += ref.trace(*spec).recordCount();
    return n;
}

void
runExplore(const Options &opts, RunResult &r)
{
    const std::vector<Pair> pairs = explorePairs(opts.seed);
    std::unique_ptr<ServedProcess> server;
    std::vector<double> setups;
    std::string dir;
    for (unsigned i = 0; i < kSetups; ++i) {
        if (server)
            server->stop();
        server.reset();
        removeTree(dir);
        dir = opts.workDir + "/explore-" + std::to_string(i);
        const double t0 = nowSec();
        server = startExplore(opts, dir, r);
        setups.push_back(nowSec() - t0);
    }
    const std::uint16_t port = server->port();
    const std::uint64_t simBefore = simulatedSoFar(port);

    std::atomic<std::size_t> next{0};
    std::vector<std::string> replies(pairs.size());
    std::vector<char> ok(pairs.size(), 0);
    LoopResult loop = closedLoop(
        [&](unsigned, ConnLog &log, std::latch &ready, bool &arrived) {
            net::Client c(port, kClientTimeoutMs);
            ready.arrive_and_wait();
            arrived = true;
            log.start = nowSec();
            const double end = log.start + opts.seconds;
            while (nowSec() < end) {
                // A system fast enough to use up every pair ends the
                // phase early instead of repeating one.
                const std::size_t i = next++;
                if (i >= pairs.size())
                    break;
                try {
                    const double t = nowSec();
                    const MatrixResult m = c.matrix(exploreQuery(pairs[i]));
                    const double lat = nowSec() - t;
                    if (m.summary.storeHits != 0 || m.summary.coalesced != 0)
                        log.fail("explore request " +
                                 std::string(1, pairs[i].config) + "/" +
                                 std::to_string(pairs[i].width) +
                                 ": store hits " +
                                 std::to_string(m.summary.storeHits) +
                                 ", coalesced " +
                                 std::to_string(m.summary.coalesced));
                    else {
                        replies[i] = m.render(false);
                        ok[i] = 1;
                        log.latency.push_back(lat);
                        ++log.done;
                    }
                } catch (const std::exception &e) {
                    log.fail("explore request " +
                             std::string(1, pairs[i].config) + "/" +
                             std::to_string(pairs[i].width) + ": " +
                             e.what());
                }
                log.end = nowSec();
            }
        },
        r);
    // Per-reply summaries are driver-wide deltas under concurrency, so
    // "every requested cell simulated" is checked on the totals.
    const std::uint64_t sent = std::min<std::size_t>(next, pairs.size());
    const std::uint64_t simulated = simulatedSoFar(port) - simBefore;
    if (simulated != 6 * sent)
        r.fail("server simulated " + std::to_string(simulated) +
               " cells for " + std::to_string(sent) + " requests");
    {
        net::Client c(port, kClientTimeoutMs);
        r.notes.push_back("trace evictions on the server: " +
                          std::to_string(c.health().traceEvictions));
    }
    r.set("peak_rss_mb", peakRssMb(server->pid()), "MB");
    server->stop();
    server.reset();

    ExperimentDriver ref(kExploreLimit, false, kJobs);
    loop.instructions = loop.done * exploreInstructions(ref);
    std::vector<std::size_t> done;
    for (std::size_t i = 0; i < pairs.size(); ++i)
        if (ok[i])
            done.push_back(i);
    Rng rng(opts.seed ^ 0xc0ffeeull);
    rng.shuffle(done);
    done.resize(std::min<std::size_t>(done.size(), 12));
    checkExplore(pairs, replies, done, ref, r);

    reportLoop(loop, r, false);
    r.set("setup_s", median(setups), "s");
}

Flow
traceExplore(const Options &opts, RunResult &r, Tracer &tracer)
{
    const std::vector<Pair> pairs = explorePairs(opts.seed);
    const std::string dir = opts.workDir + "/explore";
    Flow flow;
    flow.server = startExplore(opts, dir, r);
    const std::uint16_t port = flow.server->port();

    // Fixed request counts; pairs never repeat across the two phases.
    std::atomic<std::size_t> next{0};
    std::vector<std::string> replies(pairs.size());
    const auto body = [&](bool traced) {
        return [&, traced](unsigned, ConnLog &log, std::latch &ready,
                           bool &arrived) {
            std::unique_ptr<net::Client> plain;
            std::unique_ptr<RawClient> raw;
            if (traced)
                raw = std::make_unique<RawClient>(port, tracer);
            else
                plain = std::make_unique<net::Client>(port, kClientTimeoutMs);
            ready.arrive_and_wait();
            arrived = true;
            log.start = nowSec();
            for (unsigned k = 0; k < kTracedExplorePerConn; ++k) {
                const std::size_t i = next++;
                const MatrixQuery q = exploreQuery(pairs[i]);
                MatrixResult m;
                const double t = nowSec();
                if (traced) {
                    Tracer::Scope s(&tracer, "request");
                    m = raw->matrix(q);
                } else {
                    m = plain->matrix(q);
                }
                log.latency.push_back(nowSec() - t);
                Tracer::Scope s(traced ? &tracer : nullptr,
                                "client.render_compare");
                replies[i] = m.render(false);
                if (m.summary.storeHits != 0 || m.summary.coalesced != 0)
                    log.fail("explore request hit the store or coalesced");
                else
                    ++log.done;
            }
            log.end = nowSec();
        };
    };
    const LoopResult untraced = closedLoop(body(false), r);
    const std::size_t tracedFrom = next;
    const std::uint64_t simBefore = simulatedSoFar(port);
    const LoopResult traced = closedLoop(body(true), r);
    // Store hits and coalescing are checked zero per reply above.
    r.count("serve.simulated", simulatedSoFar(port) - simBefore);
    r.count("serve.store_hits", 0);
    r.count("serve.coalesced", 0);
    flow.server.reset();

    // The in-process reference, and the server-side cost model for the
    // untraced requests: each one's six cells as single-cell groups,
    // as the server runs them.
    ExperimentDriver ref(kExploreLimit, false, kJobs);
    std::vector<std::size_t> all;
    for (std::size_t i = 0; i < next; ++i)
        all.push_back(i);
    checkExplore(pairs, replies, all, ref, r);
    std::vector<double> simS;
    for (std::size_t i = 0; i < tracedFrom; ++i) {
        const MachineConfig cfg =
            MachineConfig::paper(pairs[i].config, pairs[i].width);
        double s = 0.0;
        for (const WorkloadSpec *spec : ExperimentDriver::everything()) {
            const SharedTrace &trace = ref.trace(*spec);
            const double t = nowSec();
            runBatchedGroup(trace, {cfg}, {spec->name});
            s += nowSec() - t;
        }
        simS.push_back(s);
    }
    flow.simPerRequest = mean(simS);
    fillFlow(flow, tracer, untraced, traced, r);
    return flow;
}

/** Reconcile a serving flow: the untraced mean latency against the
 *  client's own span self times plus the server-side layer costs the
 *  probes measured on the same public functions. */
void
reconcileFlow(const std::string &workload, const Flow &flow, RunResult &r)
{
    const auto m = [&](const char *name) { return r.metrics.at(name).value; };
    const double rtt = m("net.rtt_us") * 1e-6;
    const double encode = m("net.matrix_reply_encode_us") * 1e-6;
    double server = 0.0;
    if (workload == "serve_cached") {
        // Mean query covers (150 + 50 + 100) / 3 cells; the registry
        // and durability probes run over the 150-cell query.
        server = m("serve.admission_us") * 1e-6 +
                 (m("serve.registry_hit_us") + m("serve.durable_check_us")) *
                     1e-6 * 100.0 / 150.0 +
                 (m("sim.aggregate_us.all") + m("sim.aggregate_us.pc") +
                  m("sim.aggregate_us.npc")) / 3.0 * 1e-6 +
                 encode;
    } else if (workload == "fleet_cached") {
        server = m("router.shard_rtt_ms") * 1e-3 +
                 m("router.merge_us") * 1e-6 + encode;
    } else {
        server = flow.simPerRequest + 6.0 * m("sim.store_append_us") * 1e-6 +
                 encode;
    }
    const double layers = flow.clientSelf + rtt + server;
    noteTolerance(workload, 100.0 * (flow.untracedMean - layers) /
                                flow.untracedMean, r);
    r.set("recon.residual_pct",
          100.0 * (flow.untracedMean - layers) / flow.untracedMean, "%");
    r.set("recon.residual_ms", (flow.untracedMean - layers) * 1e3, "ms");
    r.set("recon.tracing_overhead_pct",
          100.0 * (flow.tracedMean - flow.untracedMean) / flow.untracedMean,
          "%");
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "per request (ms): untraced %.3f = client %.3f + "
                  "transport %.3f + server %.3f + residual %.3f",
                  flow.untracedMean * 1e3, flow.clientSelf * 1e3, rtt * 1e3,
                  server * 1e3, (flow.untracedMean - layers) * 1e3);
    r.notes.push_back(buf);
}

/** Compare this run's `#` counts with the last run of the same
 *  sources and workload; a difference is flagged and fails the run. */
void
checkCountDrift(const Options &opts, RunResult &r)
{
    const std::string path =
        opts.stateDir + "/counts-" + opts.workload + ".txt";
    std::map<std::string, std::uint64_t> prev;
    std::string digest;
    {
        std::ifstream in(path);
        if (in && std::getline(in, digest) && digest == opts.sourceDigest) {
            std::string name;
            std::uint64_t v = 0;
            while (in >> name >> v)
                prev[name] = v;
        }
    }
    for (const auto &[name, v] : r.counts) {
        const auto it = prev.find(name);
        if (it != prev.end() && it->second != v) {
            r.correct = false;
            r.notes.push_back("COUNT DRIFT: " + name + " was " +
                              std::to_string(it->second) + ", now " +
                              std::to_string(v));
        }
    }
    if (prev.empty()) {
        std::ofstream out(path);
        out << opts.sourceDigest << "\n";
        for (const auto &[name, v] : r.counts)
            out << name << " " << v << "\n";
    }
}

} // anonymous namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "sweep_paper", "serve_cached", "serve_explore", "fleet_cached"};
    return names;
}

RunResult
runWorkload(const Options &opts)
{
    RunResult r;
    makeDirs(opts.workDir);
    const std::string &w = opts.workload;
    if (!opts.trace) {
        if (w == "sweep_paper")
            runSweep(opts, r);
        else if (w == "serve_cached" || w == "fleet_cached")
            runCached(opts, r, w == "fleet_cached");
        else
            runExplore(opts, r);
        return r;
    }

    Tracer tracer;
    Flow flow;
    if (w == "sweep_paper")
        traceSweep(opts, r, tracer);
    else if (w == "serve_explore")
        flow = traceExplore(opts, r, tracer);
    else
        flow = traceCached(opts, r, tracer, w == "fleet_cached");
    {
        WarmServer warm;
        std::vector<std::uint16_t> ports = flow.shardPorts;
        if (ports.empty())
            ports = {warm.port(), warm.port()};
        probeLayers(opts, warm, ports, r);
    }
    if (flow.server)
        flow.server->stop(flow.pids);
    if (w != "sweep_paper")
        reconcileFlow(w, flow, r);
    r.set("recon.spans", static_cast<double>(tracer.size()), "count");
    const std::string spans = opts.stateDir + "/spans-" + w + "-seed" +
                              std::to_string(opts.seed) + ".json";
    if (!tracer.write(spans))
        r.notes.push_back("could not write " + spans);
    checkCountDrift(opts, r);
    return r;
}

int
emitSweepDigests()
{
    ExperimentDriver d(kSweepLimit, false, kJobs);
    d.setBatched(false);
    const std::vector<ExperimentCell> cells = paperCells();
    d.prefetch(cells);
    std::printf("# sweep_paper cell digests (digestSchedStats), "
                "DDSC_TRACE_LIMIT=%" PRIu64 ", per-cell event engine\n",
                kSweepLimit);
    for (const ExperimentCell &c : cells)
        std::printf("%s %016" PRIx64 "\n", cellKey(c).c_str(),
                    digestSchedStats(d.stats(*c.spec, c.config, c.width)));
    return 0;
}

} // namespace perfbench
