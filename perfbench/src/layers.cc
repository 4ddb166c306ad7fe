#include "layers.hh"

#include <cstdlib>
#include <filesystem>
#include <map>
#include <stdexcept>

#include "core/config.hh"
#include "core/frontend.hh"
#include "core/scheduler.hh"
#include "net/client.hh"
#include "proc.hh"
#include "serve/admission.hh"
#include "serve/registry.hh"
#include "serve/router.hh"
#include "sim/batched.hh"
#include "sim/result_store.hh"
#include "trace/mapped.hh"
#include "workloads/workloads.hh"

namespace perfbench
{

using namespace ddsc;

namespace
{

/** Records per trace for the trace and core probes. */
constexpr std::uint64_t kProbeLimit = 50000;

template <typename F>
double
timeIt(F &&f)
{
    const double t = nowSec();
    f();
    return nowSec() - t;
}

template <typename F>
double
medianTime(unsigned reps, F &&f)
{
    std::vector<double> v;
    for (unsigned i = 0; i < reps; ++i)
        v.push_back(timeIt(f));
    return median(v);
}

/** Keeps a computed value observable so the work is not elided. */
volatile std::uint64_t gSink = 0;

using Traces = std::vector<std::unique_ptr<VectorTraceSource>>;

/** vm + masm: assemble and run the six analogues at default scale;
 *  keep kProbeLimit-record prefixes for the later probes. */
void
probeVm(RunResult &out, Traces &probe)
{
    double asmS = 0.0, genS = 0.0;
    std::uint64_t instrs = 0;
    for (const WorkloadSpec &spec : allWorkloads()) {
        asmS += timeIt([&]() { gSink = buildWorkload(spec).text.size(); });
        VectorTraceSource full;
        genS += timeIt([&]() { full = traceWorkload(spec); });
        instrs += full.size();
        const auto &recs = full.records();
        const std::size_t n = std::min<std::size_t>(recs.size(), kProbeLimit);
        probe.push_back(std::make_unique<VectorTraceSource>(
            std::vector<TraceRecord>(recs.begin(), recs.begin() + n)));
    }
    out.set("masm.assemble_ms", asmS * 1e3, "ms");
    out.set("vm.trace_gen_s", genS, "s");
    out.set("vm.minstr_per_s", static_cast<double>(instrs) / genS / 1e6,
            "Minstr/s");
    out.count("vm.instructions", instrs);
}

/** Seconds to read every record of @p traces once. */
template <typename T>
double
readAll(const std::vector<T> &traces)
{
    return timeIt([&]() {
        std::uint64_t acc = 0;
        TraceRecord rec;
        for (const auto &t : traces) {
            const auto cur = t->cursor();
            while (cur->next(rec))
                acc += rec.pc;
        }
        gSink = acc;
    });
}

/** trace: vector cursor, v4 writer, mapped cursor warm and after
 *  evict(), and LRU evictions under a budget below the six traces. */
void
probeTrace(const Options &opts, RunResult &out, const Traces &probe)
{
    std::uint64_t recs = 0;
    for (const auto &t : probe)
        recs += t->recordCount();
    const double perRec = 1e9 / static_cast<double>(recs);

    std::vector<double> v;
    for (int i = 0; i < 5; ++i)
        v.push_back(readAll(probe));
    out.set("trace.vector_ns_per_rec", median(v) * perRec, "ns");

    const std::string dir = opts.workDir + "/probe-traces";
    makeDirs(dir);
    std::vector<std::string> paths;
    const double writeS = timeIt([&]() {
        for (std::size_t i = 0; i < probe.size(); ++i) {
            paths.push_back(dir + "/t" + std::to_string(i) + ".trc");
            TraceFileWriter w(paths.back());
            for (const TraceRecord &rec : probe[i]->records())
                w.emit(rec);
            w.close();
        }
    });
    out.set("trace.v4_write_s", writeS, "s");

    std::vector<std::unique_ptr<MappedTraceSource>> maps;
    for (const std::string &p : paths)
        maps.push_back(std::make_unique<MappedTraceSource>(p));
    readAll(maps);      // first pass validates the block CRCs
    v.clear();
    for (int i = 0; i < 5; ++i)
        v.push_back(readAll(maps));
    out.set("trace.mapped_ns_per_rec", median(v) * perRec, "ns");
    v.clear();
    for (int i = 0; i < 3; ++i) {
        for (const auto &m : maps)
            m->evict();
        v.push_back(readAll(maps));
    }
    out.set("trace.mapped_refault_ns_per_rec", median(v) * perRec, "ns");

    {
        TraceResidencyManager lru;
        lru.setBudgetBytes(maps.front()->mappedBytes() * 5 / 2);
        for (int round = 0; round < 2; ++round)
            for (const auto &m : maps)
                lru.touch(*m);
        out.count("trace.evictions", lru.counters().evictions);
        for (const auto &m : maps)
            lru.forget(*m);
    }
    maps.clear();
    removeTree(dir);
}

/** core front-end: SpecFrontEnd::fill with each letter's module stack. */
void
probeFrontEnd(RunResult &out, const Traces &probe)
{
    FrontEndTrainCounts sum;
    for (const char c : MachineConfig::knownConfigs()) {
        SpecFrontEnd fe(MachineConfig::paper(c, 16));
        FrontEndBatch batch;
        std::uint64_t recs = 0;
        double secs = 0.0;
        for (const auto &t : probe) {
            fe.reset();
            const auto cur = t->cursor();
            secs += timeIt([&]() {
                while (std::size_t n = fe.fill(*cur, batch, kBatchedChunk))
                    recs += n;
            });
            const FrontEndTrainCounts &tc = fe.trainCounts();
            sum.branch += tc.branch;
            sum.address += tc.address;
            sum.value += tc.value;
            sum.cti += tc.cti;
            sum.memdep += tc.memdep;
        }
        out.set(std::string("core.frontend_ns_per_rec.") + c,
                secs * 1e9 / static_cast<double>(recs), "ns");
    }
    out.count("core.frontend_trains.branch", sum.branch);
    out.count("core.frontend_trains.address", sum.address);
    out.count("core.frontend_trains.value", sum.value);
    out.count("core.frontend_trains.cti", sum.cti);
    out.count("core.frontend_trains.memdep", sum.memdep);
}

/** core back-end per letter and width, fed pre-filled chunks; and
 *  runBatchedGroup against the sum of its parts for the paper
 *  letters. */
void
probeBackEnd(RunResult &out, const Traces &probe)
{
    struct Cell
    {
        char letter;
        unsigned width;
        MachineConfig config;
        double secs = 0.0;
        std::uint64_t recs = 0;
    };
    std::vector<Cell> cells;
    std::map<std::string, std::vector<std::size_t>> groups;
    for (const char c : MachineConfig::knownConfigs()) {
        for (const unsigned w : MachineConfig::paperWidths()) {
            cells.push_back({c, w, MachineConfig::paper(c, w)});
            groups[cells.back().config.frontEndFingerprint()].push_back(
                cells.size() - 1);
        }
    }

    std::uint64_t cycles = 0;
    double partsS = 0.0, batchedS = 0.0;
    for (const auto &t : probe) {
        for (const auto &[fp, members] : groups) {
            SpecFrontEnd fe(cells[members.front()].config);
            bool collapsing = false;
            for (const std::size_t i : members)
                collapsing = collapsing || cells[i].config.collapsing;
            fe.setCollapseColumns(collapsing);
            std::vector<FrontEndBatch> chunks;
            const auto cur = t->cursor();
            double groupParts = timeIt([&]() {
                for (;;) {
                    FrontEndBatch b;
                    if (fe.fill(*cur, b, kBatchedChunk) == 0)
                        break;
                    chunks.push_back(std::move(b));
                }
            });
            bool paperGroup = true;
            std::vector<MachineConfig> configs;
            std::vector<std::string> keys;
            for (const std::size_t i : members) {
                Cell &cell = cells[i];
                paperGroup = paperGroup && cell.letter <= 'E';
                configs.push_back(cell.config);
                keys.push_back(std::string(1, cell.letter) + "/" +
                               std::to_string(cell.width));
                LimitScheduler sched(cell.config);
                SchedStats stats;
                const double s = timeIt([&]() {
                    sched.beginBatched();
                    for (const FrontEndBatch &b : chunks)
                        sched.feedBatched(b);
                    stats = sched.finishBatched();
                });
                cell.secs += s;
                cell.recs += t->recordCount();
                cycles += stats.cycles;
                groupParts += s;
            }
            if (paperGroup) {
                partsS += groupParts;
                batchedS += timeIt([&]() {
                    gSink = runBatchedGroup(*t, configs, keys).cells.size();
                });
            }
        }
    }
    for (const Cell &cell : cells) {
        out.set(std::string("core.backend_ns_per_rec.") + cell.letter + "." +
                    MachineConfig::widthLabel(cell.width),
                cell.secs * 1e9 / static_cast<double>(cell.recs), "ns");
    }
    out.count("core.backend_cycles", cycles);
    out.set("sim.batched_overhead_pct", 100.0 * (batchedS - partsS) / partsS,
            "%");
}

/** sim: pool occupancy of the warm-up, result store, aggregation,
 *  rendering. */
void
probeSim(const Options &opts, RunResult &out, WarmServer &warm)
{
    ExperimentDriver &d = warm.server().driver();
    out.set("sim.pool_busy_frac",
            d.cachedCellSeconds() / (kJobs * warm.warmSeconds()), "frac");

    const std::vector<ExperimentCell> cells = ExperimentDriver::cellsFor(
        ExperimentDriver::everything(), "ABCDE",
        MachineConfig::paperWidths());
    const std::string dir = opts.workDir + "/probe-store";
    removeTree(dir);
    double appendS = 0.0;
    std::string path;
    {
        ResultStore store(dir);
        path = store.path();
        for (const ExperimentCell &c : cells) {
            const SchedStats &s = d.stats(*c.spec, c.config, c.width);
            const std::string fp =
                MachineConfig::paper(c.config, c.width).fingerprint();
            const std::uint64_t digest = d.traceDigest(*c.spec);
            appendS += timeIt(
                [&]() { store.append(cellKey(c), fp, digest, s); });
        }
    }
    const double openS = medianTime(5, [&]() {
        ResultStore store(dir);
        gSink = store.size();
    });
    const auto bytes = std::filesystem::file_size(path);
    out.set("sim.store_append_us", appendS * 1e6 / cells.size(), "us");
    out.set("sim.store_open_ms", openS * 1e3, "ms");
    out.count("sim.store_bytes_per_cell", bytes / cells.size());
    removeTree(dir);

    // Resolution is the registry's (serve.registry_hit_us); this is
    // runMatrixQuery's aggregation over the resolved cells.
    const auto resolved = [](const std::vector<ExperimentCell> &) {};
    for (const char *set : {"all", "pc", "npc"}) {
        MatrixQuery q;
        q.set = set;
        const double s = medianTime(30, [&]() {
            gSink = runMatrixQuery(d, q, resolved).values.size();
        });
        out.set(std::string("sim.aggregate_us.") + set, s * 1e6, "us");
    }
    MatrixQuery all;
    const MatrixResult result = runMatrixQuery(d, all);
    out.set("sim.render_us",
            medianTime(200, [&]() { gSink = result.render(false).size(); }) *
                1e6,
            "us");
}

/** net: connect + Hello, ping, and the two reply codecs. */
void
probeNet(RunResult &out, WarmServer &warm)
{
    ExperimentDriver &d = warm.server().driver();
    out.set("net.connect_us", medianTime(20, [&]() {
                net::Client c(warm.port());
            }) * 1e6,
            "us");
    {
        net::Client c(warm.port());
        out.set("net.rtt_us", medianTime(200, [&]() { c.ping(); }) * 1e6,
                "us");
    }

    MatrixQuery all;
    const MatrixResult result = runMatrixQuery(d, all);
    std::string buf;
    const double enc = medianTime(200, [&]() {
        buf.clear();
        result.encode(buf);
    });
    const double dec = medianTime(200, [&]() {
        MatrixResult m;
        support::wire::Reader r(buf);
        gSink = m.decode(r);
    });
    out.set("net.matrix_reply_encode_us", enc * 1e6, "us");
    out.set("net.matrix_reply_decode_us", dec * 1e6, "us");
    out.count("net.matrix_reply_bytes", buf.size());

    net::CellsReplyMsg reply;
    const auto batches = routerBatches(all, 2);
    for (const net::CellRef &ref : batches.front()) {
        net::CellOutcome o;
        o.cell = ref;
        o.ok = 1;
        o.stats = d.stats(findWorkload(ref.workload), ref.config, ref.width);
        reply.cells.push_back(std::move(o));
    }
    const double cenc = medianTime(50, [&]() {
        buf.clear();
        reply.encode(buf);
    });
    const double cdec = medianTime(50, [&]() {
        net::CellsReplyMsg m;
        support::wire::Reader r(buf);
        gSink = m.decode(r);
    });
    out.set("net.cells_reply_encode_us", cenc * 1e6, "us");
    out.set("net.cells_reply_decode_us", cdec * 1e6, "us");
    out.count("net.cells_reply_bytes", buf.size());
}

/** serve: registry hits over cached cells, the session's brownout
 *  eligibility probe, admission pass-through. */
void
probeServe(RunResult &out, WarmServer &warm)
{
    ExperimentDriver &d = warm.server().driver();
    serve::CellRegistry reg(d);
    const MatrixQuery all;
    const std::vector<ExperimentCell> cells = all.cells();
    out.set("serve.registry_hit_us",
            medianTime(50, [&]() { gSink = reg.resolve(cells, 0).coalesced; }) *
                1e6,
            "us");
    out.set("serve.durable_check_us", medianTime(50, [&]() {
                bool durable = true;
                for (const ExperimentCell &c : cells)
                    durable = durable &&
                              d.cellDurable(*c.spec, c.config, c.width);
                gSink = durable;
            }) * 1e6,
            "us");

    serve::AdmissionController adm(serve::AdmissionOptions{});
    constexpr int kPairs = 1000;
    const double s = medianTime(20, [&]() {
        for (int i = 0; i < kPairs; ++i) {
            const serve::AdmissionDecision dec = adm.admit(1, 0, true);
            adm.release(1, dec, 0);
        }
    });
    out.set("serve.admission_us", s * 1e6 / kPairs, "us");
}

/** router: the per-shard batch sent straight to a shard, and the
 *  merge over the decoded stats, averaged over the nine queries. */
void
probeRouter(RunResult &out, const std::vector<std::uint16_t> &shard_ports)
{
    std::vector<std::unique_ptr<net::Client>> clients;
    for (const std::uint16_t p : shard_ports)
        clients.push_back(std::make_unique<net::Client>(p));
    std::vector<double> rtts, merges;
    for (const MatrixQuery &q : paperQueries()) {
        const auto batches = routerBatches(q, shard_ports.size());
        std::map<std::string, SchedStats> stats;
        double slowest = 0.0;
        for (std::size_t s = 0; s < batches.size(); ++s) {
            if (batches[s].empty())
                continue;
            net::CellsBatch batch;
            batch.cells = batches[s];
            net::CellsReplyMsg reply;
            slowest = std::max(slowest, medianTime(5, [&]() {
                reply = clients[s]->cells(batch);
            }));
            for (const net::CellOutcome &o : reply.cells) {
                if (!o.ok)
                    throw std::runtime_error("shard failed cell " +
                                             o.cell.workload);
                stats[o.cell.workload + "/" + o.cell.config + "/" +
                      std::to_string(o.cell.width)] = o.stats;
            }
        }
        rtts.push_back(slowest);
        const CellStatsFn lookup = [&](const WorkloadSpec &spec, char c,
                                       unsigned w) -> const SchedStats & {
            return stats.at(spec.name + "/" + c + "/" + std::to_string(w));
        };
        merges.push_back(medianTime(20, [&]() {
            gSink = aggregateMatrixResult(q, lookup).values.size();
        }));
    }
    out.set("router.shard_rtt_ms", mean(rtts) * 1e3, "ms");
    out.set("router.merge_us", mean(merges) * 1e6, "us");
}

} // anonymous namespace

std::vector<MatrixQuery>
paperQueries()
{
    std::vector<MatrixQuery> out;
    for (const char *set : {"all", "pc", "npc"}) {
        for (const char *metric : {"ipc", "speedup", "collapsed"}) {
            MatrixQuery q;
            q.set = set;
            q.metric = metric;
            out.push_back(q);
        }
    }
    return out;
}

std::string
cellKey(const ExperimentCell &cell)
{
    return cell.spec->name + "/" + cell.config + "/" +
           std::to_string(cell.width);
}

std::vector<std::vector<net::CellRef>>
routerBatches(const MatrixQuery &query, std::size_t shards)
{
    std::vector<std::vector<net::CellRef>> out(shards);
    for (const ExperimentCell &cell : query.cells()) {
        net::CellRef ref;
        ref.workload = cell.spec->name;
        ref.config = cell.config;
        ref.width = cell.width;
        out[serve::shardForCell(cell.config, cell.width, shards)].push_back(
            std::move(ref));
    }
    return out;
}

WarmServer::WarmServer()
{
    // The server's driver takes its trace limit from the environment,
    // exactly as a ddsc-served process would.
    ::setenv("DDSC_TRACE_LIMIT", std::to_string(kCachedLimit).c_str(), 1);
    serve::ServerOptions opts;
    opts.jobs = kJobs;
    server_ = std::make_unique<serve::Server>(opts);
    ::unsetenv("DDSC_TRACE_LIMIT");
    if (!server_->valid())
        throw std::runtime_error("in-process server did not bind");
    thread_ = std::thread([this]() { server_->run(); });
    try {
        net::Client c(server_->port());
        warmSeconds_ = timeIt([&]() {
            for (const MatrixQuery &q : paperQueries())
                gSink = c.matrix(q).values.size();
        });
    } catch (...) {
        // No destructor runs for a half-built object: join here.
        server_->stop();
        thread_.join();
        throw;
    }
}

WarmServer::~WarmServer()
{
    server_->stop();
    if (thread_.joinable())
        thread_.join();
}

void
probeLayers(const Options &opts, WarmServer &warm,
            const std::vector<std::uint16_t> &shard_ports, RunResult &out)
{
    Traces probe;
    probeVm(out, probe);
    probeTrace(opts, out, probe);
    probeFrontEnd(out, probe);
    probeBackEnd(out, probe);
    probeSim(opts, out, warm);
    probeNet(out, warm);
    probeServe(out, warm);
    probeRouter(out, shard_ports);
}

} // namespace perfbench
