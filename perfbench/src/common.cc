#include "common.hh"

#include <cstdio>

namespace perfbench
{

namespace
{

thread_local std::vector<std::int64_t> openStack;

} // anonymous namespace

std::int64_t
Tracer::open(const std::string &name, std::int64_t parent)
{
    if (parent < 0 && !openStack.empty())
        parent = openStack.back();
    const double start = nowSec();
    std::int64_t id;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        id = static_cast<std::int64_t>(spans_.size());
        spans_.push_back(Span{name, start, 0.0, parent});
    }
    openStack.push_back(id);
    return id;
}

void
Tracer::close(std::int64_t id)
{
    const double end = nowSec();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[static_cast<std::size_t>(id)].end = end;
    }
    if (!openStack.empty() && openStack.back() == id)
        openStack.pop_back();
}

std::size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

std::map<std::string, double>
Tracer::selfSeconds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            kids[static_cast<std::size_t>(s.parent)].push_back(
                {s.start, s.end});
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        // Children may run on other threads and overlap each other;
        // subtract the union of their intervals clipped to the parent.
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        double curStart = 0.0, curEnd = -1.0;
        for (auto [a, b] : iv) {
            a = std::max(a, s.start);
            b = std::min(b, s.end);
            if (b <= a)
                continue;
            if (a > curEnd) {
                if (curEnd > curStart)
                    covered += curEnd - curStart;
                curStart = a;
                curEnd = b;
            } else {
                curEnd = std::max(curEnd, b);
            }
        }
        if (curEnd > curStart)
            covered += curEnd - curStart;
        out[s.name] += std::max(0.0, (s.end - s.start) - covered);
    }
    return out;
}

std::map<std::string, double>
Tracer::totalSeconds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::string, double> out;
    for (const Span &s : spans_)
        out[s.name] += s.end - s.start;
    return out;
}

bool
Tracer::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"spans\": [\n");
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "  {\"id\": %zu, \"name\": \"%s\", \"start_us\": "
                     "%.3f, \"end_us\": %.3f, \"parent\": %lld}%s\n",
                     i, s.name.c_str(), (s.start - t0) * 1e6,
                     (s.end - t0) * 1e6,
                     static_cast<long long>(s.parent),
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
