/**
 * @file
 * Shared pieces of the layered benchmark: run options, the metric
 * sheet every run prints, order statistics, and the span recorder the
 * traced runs use.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

/** Fixed load shape: the machine has 4 cores, the benchmark uses at
 *  most 2 simulation workers and 2 client connections. */
constexpr unsigned kJobs = 2;
constexpr unsigned kConnections = 2;

/** Setups per run; setup_s reports their median. */
constexpr unsigned kSetups = 3;

/** Trace truncation (DDSC_TRACE_LIMIT) per workload family. */
constexpr std::uint64_t kSweepLimit = 100000;
constexpr std::uint64_t kCachedLimit = 50000;
constexpr std::uint64_t kExploreLimit = 100000;
/** serve_explore's residency budget: below the six mapped traces
 *  (about 4.2 MB each at kExploreLimit records). */
constexpr std::uint64_t kExploreBudgetMb = 12;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string served;     ///< path of the ddsc-served binary
    std::string dataDir;    ///< perfbench/data
    std::string workDir;    ///< scratch space inside the checkout
    std::string stateDir;   ///< count-drift state (survives runs)
    std::string commit = "unknown";
    std::string sourceDigest = "unknown";
};

/** One metric value with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** What a run prints as its last line. */
struct RunResult
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, Metric> metrics;
    /** Deterministic work counts (the `#` metrics), checked for drift
     *  against earlier runs of the same sources. */
    std::map<std::string, std::uint64_t> counts;
    /** Free-form notes for stderr (mismatches, reconciliation). */
    std::vector<std::string> notes;

    void
    set(const std::string &name, double value, const std::string &unit)
    {
        metrics[name] = Metric{value, unit};
    }

    void
    count(const std::string &name, std::uint64_t value)
    {
        counts[name] = value;
        metrics[name] = Metric{static_cast<double>(value), "count"};
    }

    void
    fail(const std::string &why)
    {
        ++failed;
        if (notes.size() < 64)
            notes.push_back(why);
    }
};

inline double
nowSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Linear-interpolated quantile (q in [0, 1]) of @p v; 0 when empty. */
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

inline double
mean(const std::vector<double> &v)
{
    double s = 0.0;
    for (const double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/** splitmix64: the benchmark's only source of seeded randomness. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : s_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[next() % i]);
    }

  private:
    std::uint64_t s_;
};

/**
 * In-memory span recorder for traced runs: name, start, end, parent.
 * Spans nest per thread through a thread-local parent stack; a span
 * opened on a worker thread may name an explicit parent from another
 * thread (the sweep's root).  Written out once, at the end of the run.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double start = 0.0;
        double end = 0.0;
        std::int64_t parent = -1;
    };

    /** Open a span; returns its id.  @p parent < 0 = this thread's
     *  innermost open span (or none). */
    std::int64_t open(const std::string &name, std::int64_t parent = -1);
    void close(std::int64_t id);

    /** Per-name self time in seconds: each span's duration minus the
     *  union of its children's intervals, summed by name. */
    std::map<std::string, double> selfSeconds() const;

    /** Per-name total duration in seconds. */
    std::map<std::string, double> totalSeconds() const;

    std::size_t size() const;

    /** Write every span as one JSON document. */
    bool write(const std::string &path) const;

    /** RAII span. */
    class Scope
    {
      public:
        Scope(Tracer *t, const std::string &name, std::int64_t parent = -1)
            : t_(t), id_(t ? t->open(name, parent) : -1)
        {}
        ~Scope()
        {
            if (t_)
                t_->close(id_);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        std::int64_t id() const { return id_; }

      private:
        Tracer *t_;
        std::int64_t id_;
    };

  private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
