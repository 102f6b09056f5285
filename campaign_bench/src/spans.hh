/**
 * @file
 * In-memory span log for the traced benchmark run.
 *
 * A span is one timed call into a layer's public function (or one
 * engine phase reconstructed from ParallelRunner cell events): name,
 * start, end, parent span, cell id and how many units of work it
 * covered (cycles ticked, records encoded, ...). Spans stay in memory
 * and are written out once, at the end of the run. A layer's self time
 * is the sum of its spans' durations minus the part of each interval
 * its direct children cover.
 *
 * A disabled log records nothing: begin() returns -1 and end() is a
 * no-op, so untraced runs pay one branch per call site.
 */

#ifndef CAMPAIGN_BENCH_SPANS_HH
#define CAMPAIGN_BENCH_SPANS_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace cbench {

/** Seconds on the steady clock since the first call in the process. */
inline double
now()
{
    using clock = std::chrono::steady_clock;
    static const clock::time_point epoch = clock::now();
    return std::chrono::duration<double>(clock::now() - epoch).count();
}

/** Median of @p v (0 when empty). */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Span
{
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;    ///< index of the enclosing span, -1 = root
    long cell = -1;     ///< submission index of the cell, -1 = none
    uint64_t count = 1; ///< units of work covered
};

class SpanLog
{
  public:
    explicit SpanLog(bool on) : on_(on) {}

    /** Open a span now; @return its id (-1 when disabled). */
    int
    begin(const char *name, int parent = -1, long cell = -1)
    {
        if (!on_)
            return -1;
        double t = now();
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back(Span{name, t, t, parent, cell, 1});
        return static_cast<int>(spans_.size() - 1);
    }

    /** Close span @p id now, crediting it with @p count units. */
    void
    end(int id, uint64_t count = 1)
    {
        if (id < 0)
            return;
        double t = now();
        std::lock_guard<std::mutex> lock(mu_);
        spans_[static_cast<size_t>(id)].end = t;
        spans_[static_cast<size_t>(id)].count = count;
    }

    /** Record a span whose interval was measured elsewhere. */
    int
    add(const char *name, double start, double end, int parent,
        long cell, uint64_t count = 1)
    {
        if (!on_)
            return -1;
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back(Span{name, start, end, parent, cell, count});
        return static_cast<int>(spans_.size() - 1);
    }

    /** Total self time of every span named @p name, in seconds. */
    double
    selfSeconds(const std::string &name) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        std::vector<std::vector<std::pair<double, double>>> kids(
            spans_.size());
        for (const Span &s : spans_)
            if (s.parent >= 0)
                kids[static_cast<size_t>(s.parent)].push_back(
                    {s.start, s.end});
        double total = 0;
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            if (s.name != name)
                continue;
            total += (s.end - s.start) - covered(kids[i], s.start, s.end);
        }
        return total;
    }

    /** Work units credited to spans named @p name. */
    uint64_t
    count(const std::string &name) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        uint64_t n = 0;
        for (const Span &s : spans_)
            if (s.name == name)
                n += s.count;
        return n;
    }

    /** Self seconds per work unit of @p name (0 if none recorded). */
    double
    perUnit(const std::string &name) const
    {
        uint64_t n = count(name);
        return n ? selfSeconds(name) / static_cast<double>(n) : 0.0;
    }

    size_t size() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return spans_.size();
    }

    /** Write every span as one JSON document. @return false on I/O
     *  failure. */
    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::lock_guard<std::mutex> lock(mu_);
        std::fprintf(f, "{\"spans\": [\n");
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "  {\"id\": %zu, \"name\": \"%s\", \"start\": "
                         "%.9f, \"end\": %.9f, \"parent\": %d, \"cell\": "
                         "%ld, \"count\": %llu}%s\n",
                         i, s.name.c_str(), s.start, s.end, s.parent,
                         s.cell, static_cast<unsigned long long>(s.count),
                         i + 1 < spans_.size() ? "," : "");
        }
        std::fprintf(f, "]}\n");
        return std::fclose(f) == 0;
    }

  private:
    /** Length of the union of @p iv clipped to [lo, hi]. */
    static double
    covered(std::vector<std::pair<double, double>> iv, double lo,
            double hi)
    {
        std::sort(iv.begin(), iv.end());
        double total = 0, cur_lo = 0, cur_hi = 0;
        bool open = false;
        for (auto [a, b] : iv) {
            a = std::max(a, lo);
            b = std::min(b, hi);
            if (b <= a)
                continue;
            if (open && a <= cur_hi) {
                cur_hi = std::max(cur_hi, b);
                continue;
            }
            if (open)
                total += cur_hi - cur_lo;
            cur_lo = a;
            cur_hi = b;
            open = true;
        }
        if (open)
            total += cur_hi - cur_lo;
        return total;
    }

    bool on_;
    mutable std::mutex mu_; ///< guards spans_ (engine spans arrive
                            ///< from runner worker threads)
    std::vector<Span> spans_;
};

} // namespace cbench

#endif // CAMPAIGN_BENCH_SPANS_HH
