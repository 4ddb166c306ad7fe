#include "matrix_query.hh"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdio>
#include <map>
#include <string_view>

#include "support/table.hh"

namespace ddsc
{

namespace
{

void
putF64(std::string &out, double v)
{
    support::wire::putU64(out, std::bit_cast<std::uint64_t>(v));
}

double
getF64(support::wire::Reader &in)
{
    return std::bit_cast<double>(in.u64());
}

/** Widths and quarantine lists ride length-prefixed; cap the counts
 *  so a corrupted prefix cannot become a giant allocation. */
constexpr std::uint32_t kMaxListLen = 4096;

bool
isOneOf(const std::vector<std::string> &names, const std::string &name)
{
    return std::find(names.begin(), names.end(), name) != names.end();
}

/** "a|b|c", as the validation messages spell a choice. */
std::string
joined(const std::vector<std::string> &names)
{
    std::string out;
    for (const std::string &name : names)
        out += (out.empty() ? "" : "|") + name;
    return out;
}

} // anonymous namespace

void
encodeCellFailure(std::string &out, const CellFailure &f)
{
    support::wire::putString(out, f.key);
    support::wire::putString(out, f.message);
    support::wire::putU32(out, f.attempts);
}

bool
decodeCellFailure(support::wire::Reader &in, CellFailure &f)
{
    f.key = in.str();
    f.message = in.str();
    f.attempts = in.u32();
    return in.ok();
}

const std::vector<std::string> &
MatrixQuery::knownSets()
{
    static const std::vector<std::string> sets = {"all", "pc", "npc"};
    return sets;
}

const std::vector<std::string> &
MatrixQuery::knownMetrics()
{
    static const std::vector<std::string> metrics = {"ipc", "speedup",
                                                     "collapsed"};
    return metrics;
}

bool
MatrixQuery::validate(std::string *why) const
{
    auto fail = [&](const std::string &reason) {
        if (why)
            *why = reason;
        return false;
    };
    if (!isOneOf(knownSets(), set))
        return fail("set must be " + joined(knownSets()) + ", not '" +
                    set + "'");
    const std::string &known = MachineConfig::knownConfigs();
    if (configs.empty() || configs.size() > known.size())
        return fail("configs must name 1-" +
                    std::to_string(known.size()) + " of " + known);
    for (const char c : configs) {
        if (!MachineConfig::isKnownConfig(c))
            return fail(std::string("unknown configuration '") + c +
                        "'");
    }
    if (widths.empty() || widths.size() > 16)
        return fail("widths must name 1-16 issue widths");
    for (const unsigned w : widths) {
        if (w == 0 || w > 1u << 20)
            return fail("width " + std::to_string(w) +
                        " out of range");
    }
    if (!isOneOf(knownMetrics(), metric))
        return fail("metric must be " + joined(knownMetrics()) +
                    ", not '" + metric + "'");
    return true;
}

std::vector<unsigned>
parseWidths(const std::string &list)
{
    std::vector<unsigned> widths;
    for (std::size_t pos = 0;;) {
        const std::size_t comma = std::min(list.find(',', pos), list.size());
        const char *first = list.data() + pos;
        const char *last = list.data() + comma;
        unsigned w = 0;
        if (std::string_view(first, last - first) == "2k")
            w = 2048;
        else if (std::from_chars(first, last, w).ptr != last)
            return {};
        if (w == 0)
            return {};      // empty, zero, or beyond unsigned
        widths.push_back(w);
        if (comma == list.size())
            return widths;
        pos = comma + 1;
    }
}

std::vector<const WorkloadSpec *>
MatrixQuery::workloads() const
{
    return set == "all" ? ExperimentDriver::everything()
                        : workloadSubset(set == "pc");
}

std::string
MatrixQuery::neededConfigs() const
{
    // Speedup is measured against the base machine at each width.
    std::string needed = configs;
    if (metric == "speedup" && needed.find('A') == std::string::npos)
        needed += 'A';
    return needed;
}

std::vector<ExperimentCell>
MatrixQuery::cells() const
{
    return ExperimentDriver::cellsFor(workloads(), neededConfigs(),
                                      widths);
}

void
MatrixQuery::encode(std::string &out) const
{
    using namespace support::wire;
    putString(out, set);
    putString(out, configs);
    putU32(out, static_cast<std::uint32_t>(widths.size()));
    for (const unsigned w : widths)
        putU32(out, w);
    putString(out, metric);
    putU64(out, deadlineMs);
}

bool
MatrixQuery::decode(support::wire::Reader &in)
{
    set = in.str();
    configs = in.str();
    const std::uint32_t n = in.u32();
    if (!in.ok() || n > kMaxListLen)
        return false;
    widths.clear();
    for (std::uint32_t i = 0; i < n; ++i)
        widths.push_back(in.u32());
    metric = in.str();
    deadlineMs = in.u64();
    return in.ok();
}

void
MatrixSummary::encode(std::string &out) const
{
    using namespace support::wire;
    putU64(out, cells);
    putU64(out, simulated);
    putU64(out, storeHits);
    putU64(out, coalesced);
    putF64(out, cellSeconds);
}

bool
MatrixSummary::decode(support::wire::Reader &in)
{
    cells = in.u64();
    simulated = in.u64();
    storeHits = in.u64();
    coalesced = in.u64();
    cellSeconds = getF64(in);
    return in.ok();
}

void
MatrixResult::encode(std::string &out) const
{
    using namespace support::wire;
    query.encode(out);
    putU32(out, static_cast<std::uint32_t>(values.size()));
    for (std::size_t i = 0; i < values.size(); ++i) {
        putU8(out, valid[i]);
        putF64(out, values[i]);
    }
    summary.encode(out);
    putU32(out, static_cast<std::uint32_t>(quarantined.size()));
    for (const CellFailure &f : quarantined)
        encodeCellFailure(out, f);
    putU8(out, interrupted ? 1 : 0);
}

bool
MatrixResult::decode(support::wire::Reader &in)
{
    if (!query.decode(in))
        return false;
    const std::uint32_t n = in.u32();
    if (!in.ok() || n > kMaxListLen)
        return false;
    values.clear();
    valid.clear();
    for (std::uint32_t i = 0; i < n; ++i) {
        valid.push_back(in.u8());
        values.push_back(getF64(in));
    }
    if (!summary.decode(in))
        return false;
    const std::uint32_t nq = in.u32();
    if (!in.ok() || nq > kMaxListLen)
        return false;
    quarantined.clear();
    for (std::uint32_t i = 0; i < nq; ++i) {
        CellFailure f;
        if (!decodeCellFailure(in, f))
            return false;
        quarantined.push_back(std::move(f));
    }
    interrupted = in.u8() != 0;
    if (!in.ok())
        return false;
    // The value grid must match the echoed query's shape, or render()
    // would index out of bounds on a crafted reply.
    return values.size() ==
           query.configs.size() * query.widths.size();
}

std::string
MatrixResult::render(bool csv) const
{
    const std::size_t ncols = query.widths.size();
    auto at = [&](std::size_t row, std::size_t col) {
        return row * ncols + col;
    };
    std::string out;
    char buf[64];
    if (csv) {
        out += "config";
        for (const unsigned w : query.widths) {
            out += ',';
            out += MachineConfig::widthLabel(w);
        }
        out += '\n';
        for (std::size_t r = 0; r < query.configs.size(); ++r) {
            out += query.configs[r];
            for (std::size_t c = 0; c < ncols; ++c) {
                if (valid[at(r, c)]) {
                    std::snprintf(buf, sizeof buf, ",%.4f",
                                  values[at(r, c)]);
                    out += buf;
                } else {
                    out += ",n/a";
                }
            }
            out += '\n';
        }
        return out;
    }
    TextTable table;
    std::vector<std::string> header = {"config"};
    for (const unsigned w : query.widths)
        header.push_back("w=" + MachineConfig::widthLabel(w));
    table.header(std::move(header));
    for (std::size_t r = 0; r < query.configs.size(); ++r) {
        std::vector<std::string> row = {std::string(1, query.configs[r])};
        for (std::size_t c = 0; c < ncols; ++c) {
            row.push_back(valid[at(r, c)]
                              ? TextTable::num(values[at(r, c)])
                              : std::string("n/a"));
        }
        table.row(std::move(row));
    }
    out = query.metric + " (" + query.set +
          ", harmonic mean over the set)\n" + table.render();
    return out;
}

std::string
quarantineSummary(const std::vector<CellFailure> &cells,
                  const std::string &tool)
{
    if (cells.empty())
        return {};
    std::string out = tool + ": " + std::to_string(cells.size()) +
                      " cell" + (cells.size() == 1 ? "" : "s") +
                      " quarantined:\n";
    for (const CellFailure &f : cells) {
        out += "  " + f.key + ": " + f.message + " (after " +
               std::to_string(f.attempts) + " attempts)\n";
    }
    return out;
}

MatrixResult
aggregateMatrixResult(const MatrixQuery &query, const CellStatsFn &stats)
{
    MatrixResult result;
    result.query = query;

    const std::vector<const WorkloadSpec *> set = query.workloads();
    for (const char config : query.configs) {
        for (const unsigned width : query.widths) {
            double v = 0.0;
            bool ok = true;
            try {
                if (query.metric == "ipc")
                    v = hmeanIpcOver(set, config, width, stats);
                else if (query.metric == "speedup")
                    v = hmeanSpeedupOver(set, config, width, stats);
                else
                    v = pctCollapsedOver(set, config, width, stats);
            } catch (const CellQuarantined &) {
                ok = false;
            }
            result.values.push_back(v);
            result.valid.push_back(ok ? 1 : 0);
        }
    }

    // Summed scheduler time, and the quarantine list restricted to
    // this query's own cells (a resident server may be carrying other
    // requests' quarantines too).  The map keeps the list sorted by
    // key — the same order ExperimentDriver::quarantineReport() uses —
    // so local and routed sweeps render identical stderr blocks.
    const std::vector<ExperimentCell> cells = query.cells();
    result.summary.cells = cells.size();
    std::map<std::string, CellFailure> quarantined;
    for (const ExperimentCell &cell : cells) {
        try {
            result.summary.cellSeconds +=
                static_cast<double>(
                    stats(*cell.spec, cell.config, cell.width)
                        .wallNanos) * 1e-9;
        } catch (const CellQuarantined &e) {
            quarantined.emplace(e.failure.key, e.failure);
        }
    }
    for (const auto &[key, failure] : quarantined)
        result.quarantined.push_back(failure);
    return result;
}

void
encodeCellSummary(std::string &out, const SchedStats &s)
{
    using namespace support::wire;
    putU64(out, s.instructions);
    putU64(out, s.cycles);
    putU64(out, s.collapse.collapsedInstructions());
    putU64(out, s.wallNanos);
}

bool
decodeCellSummary(support::wire::Reader &in, SchedStats &s)
{
    s = SchedStats{};
    s.instructions = in.u64();
    s.cycles = in.u64();
    s.collapse.setCollapsedInstructions(in.u64());
    s.wallNanos = in.u64();
    return in.ok();
}

MatrixResult
runMatrixQuery(
    ExperimentDriver &driver, const MatrixQuery &query,
    const std::function<void(const std::vector<ExperimentCell> &)>
        &prefetch)
{
    const std::vector<ExperimentCell> cells = query.cells();
    const std::size_t hits0 = driver.storeHits();
    const std::size_t sims0 = driver.simulatedCells();
    if (prefetch)
        prefetch(cells);
    else
        driver.prefetch(cells);

    // An interrupted (Ctrl-C) sweep leaves cells unresolved; going on
    // would re-simulate them serially through stats(), defeating the
    // point of stopping.  Report what the caller can act on instead.
    for (const ExperimentCell &cell : cells) {
        if (!driver.cellResolved(*cell.spec, cell.config, cell.width)) {
            MatrixResult result;
            result.query = query;
            result.summary.cells = cells.size();
            result.summary.storeHits = driver.storeHits() - hits0;
            result.summary.simulated =
                driver.simulatedCells() - sims0;
            result.interrupted = true;
            return result;
        }
    }

    MatrixResult result = aggregateMatrixResult(
        query, [&driver](const WorkloadSpec &spec, char config,
                         unsigned width) -> const SchedStats & {
            return driver.stats(spec, config, width);
        });
    result.summary.storeHits = driver.storeHits() - hits0;
    result.summary.simulated = driver.simulatedCells() - sims0;
    return result;
}

} // namespace ddsc
