#include "trace_store.hh"

#include <cstdio>
#include <filesystem>
#include <vector>

#include "support/logging.hh"

namespace ddsc
{

void
TraceStore::setSpillDir(const std::string &dir)
{
    if (!dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
        if (ec)
            ddsc_fatal("cannot create trace spill directory '%s': %s",
                       dir.c_str(), ec.message().c_str());
    }
    spillDir_ = dir;
}

void
TraceStore::setBudgetBytes(std::uint64_t bytes)
{
    residency_.setBudgetBytes(bytes);
}

TraceStore::Slot &
TraceStore::slot(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mapMutex_);
    return slots_[name];
}

const SharedTrace &
TraceStore::get(const WorkloadSpec &spec)
{
    Slot &s = slot(spec.name);
    std::call_once(s.build, [&]() { s.trace = materialize(spec, s); });
    return *s.trace;
}

std::uint64_t
TraceStore::digest(const WorkloadSpec &spec)
{
    Slot &s = slot(spec.name);
    std::call_once(s.build, [&]() { s.trace = materialize(spec, s); });
    std::call_once(s.digestOnce,
                   [&]() { s.digest = s.trace->digest(); });
    return s.digest;
}

void
TraceStore::adopt(const std::string &name,
                  std::unique_ptr<const SharedTrace> trace)
{
    Slot &s = slot(name);
    bool adopted = false;
    std::call_once(s.build, [&]() {
        s.trace = std::move(trace);
        adopted = true;
    });
    if (!adopted)
        ddsc_fatal("cannot adopt a trace for '%s': its trace is already "
                   "built", name.c_str());
}

std::unique_ptr<const SharedTrace>
TraceStore::materialize(const WorkloadSpec &spec, Slot &s)
{
    VectorTraceSource full =
        traceWorkload(spec, testScale_ ? spec.testScale : 0);
    if (traceLimit_ != 0 && full.size() > traceLimit_) {
        std::vector<TraceRecord> truncated(
            full.records().begin(),
            full.records().begin() +
                static_cast<std::ptrdiff_t>(traceLimit_));
        full = VectorTraceSource(std::move(truncated));
    }
    if (spillDir_.empty())
        return std::make_unique<VectorTraceSource>(std::move(full));

    // Spill: the vector lives only through this scope; afterwards the
    // workload is served from the mapped file and its pages answer to
    // the residency budget.  The digest doubles as the staleness
    // check and the memoized value (the writer stamps exactly this
    // digest into the v4 header, so mapped.digest() == digest here).
    const std::uint64_t digest = full.digest();
    const std::string path =
        spillDir_ + "/" + spec.name +
        (testScale_ ? "-t1" : "-t0") +
        "-l" + std::to_string(traceLimit_) + ".trc";
    std::uint64_t haveDigest = 0;
    std::uint64_t haveCount = 0;
    const bool reusable =
        MappedTraceSource::probe(path, &haveDigest, &haveCount) &&
        haveDigest == digest && haveCount == full.size();
    if (!reusable) {
        // Write to a temp name and rename into place, so a crash
        // mid-spill leaves no half-file under the served name and a
        // concurrent store on the same directory never maps a
        // partially written trace.
        const std::string tmp = path + ".tmp";
        {
            TraceFileWriter writer(tmp);
            for (const TraceRecord &rec : full.records())
                writer.emit(rec);
            writer.close();
        }
        if (std::rename(tmp.c_str(), path.c_str()) != 0)
            ddsc_fatal("cannot rename spilled trace '%s' into place",
                       tmp.c_str());
    }
    std::call_once(s.digestOnce, [&]() { s.digest = digest; });
    return std::make_unique<MappedTraceSource>(path);
}

} // namespace ddsc
