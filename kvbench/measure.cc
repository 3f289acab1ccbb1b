#include "measure.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace kvbench {

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

std::uint64_t
nsBetween(Clock::time_point a, Clock::time_point b)
{
    const auto d =
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
    return d > 0 ? static_cast<std::uint64_t>(d) : 0;
}

bool
percentileSupported(std::uint64_t n, double p)
{
    return static_cast<double>(n) * (1.0 - p) >= 10.0 - 1e-9;
}

Stat
percentile(std::vector<double> &v, double p)
{
    Stat s;
    s.samples = v.size();
    if (v.empty())
        return s;
    if (!percentileSupported(v.size(), p)) {
        s.supported = false;
        return s;
    }
    // Nearest rank: the smallest sample with at least p of the
    // samples at or below it.
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    const std::size_t idx = rank == 0 ? 0 : rank - 1;
    std::nth_element(v.begin(), v.begin() + static_cast<long>(idx),
                     v.end());
    s.value = v[idx];
    return s;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

namespace {

/** @p v split into @p windows equal slices of a @p seconds phase. */
std::vector<std::vector<double>>
slices(const std::vector<double> &v, const std::vector<double> &at,
       double seconds, unsigned windows)
{
    std::vector<std::vector<double>> out(windows);
    for (std::size_t i = 0; i < v.size(); ++i) {
        const auto k = static_cast<std::size_t>(
            std::max(0.0, at[i] / seconds * windows));
        out[std::min<std::size_t>(k, windows - 1)].push_back(v[i]);
    }
    return out;
}

} // namespace

Stat
windowedPercentile(const std::vector<double> &v,
                   const std::vector<double> &at, double seconds,
                   unsigned windows, double p)
{
    Stat s;
    s.samples = v.size();
    if (v.empty())
        return s;
    std::vector<double> q;
    for (std::vector<double> &slice : slices(v, at, seconds, windows)) {
        const Stat w = percentile(slice, p);
        if (!w.supported || w.samples == 0) {
            s.supported = false;
            return s;
        }
        q.push_back(w.value);
    }
    s.value = median(q);
    return s;
}

Stat
windowedRate(const std::vector<double> &v, const std::vector<double> &at,
             double seconds, unsigned windows, double limit)
{
    Stat s;
    std::vector<double> rates;
    for (const std::vector<double> &slice : slices(v, at, seconds, windows)) {
        const auto n = static_cast<std::uint64_t>(
            std::count_if(slice.begin(), slice.end(),
                          [limit](double x) { return x < limit; }));
        s.samples += n;
        rates.push_back(static_cast<double>(n) / (seconds / windows));
    }
    s.value = median(rates);
    return s;
}

Stat
mean(const std::vector<double> &v)
{
    Stat s;
    s.samples = v.size();
    if (!v.empty())
        s.value = std::accumulate(v.begin(), v.end(), 0.0) /
                  static_cast<double>(v.size());
    return s;
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

Stat
bucketPercentile(const std::vector<std::uint64_t> &edges,
                 const std::vector<std::uint64_t> &counts, double p)
{
    Stat s;
    for (const std::uint64_t c : counts)
        s.samples += c;
    if (s.samples == 0)
        return s;
    if (!percentileSupported(s.samples, p)) {
        s.supported = false;
        return s;
    }
    const double target = p * static_cast<double>(s.samples);
    double below = 0.0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        const double c = static_cast<double>(counts[i]);
        if (c == 0.0 || below + c < target) {
            below += c;
            continue;
        }
        const double lo = i == 0 ? 0.0 : static_cast<double>(edges[i - 1]);
        // The overflow bucket has no top edge: report its floor.
        if (i >= edges.size()) {
            s.value = lo;
            return s;
        }
        const double hi = static_cast<double>(edges[i]);
        s.value = lo + (hi - lo) * (target - below) / c;
        return s;
    }
    s.value = edges.empty() ? 0.0 : static_cast<double>(edges.back());
    return s;
}

double
Window::counter(const std::string &name) const
{
    const auto *a = after_.find(name);
    if (!a)
        return 0.0;
    const auto *b = before_.find(name);
    return static_cast<double>(a->value - (b ? b->value : 0));
}

Window::HistDelta
Window::hist(const std::string &name) const
{
    HistDelta d;
    const auto *a = after_.find(name);
    if (!a)
        return d;
    const auto *b = before_.find(name);
    d.edges = a->edges;
    d.counts = a->counts;
    d.count = a->histCount;
    d.sum = a->histSum;
    if (b) {
        for (std::size_t i = 0; i < d.counts.size(); ++i)
            d.counts[i] -= b->counts[i];
        d.count -= b->histCount;
        d.sum -= b->histSum;
    }
    return d;
}

Stat
Window::histMean(const std::string &name) const
{
    const HistDelta d = hist(name);
    Stat s;
    s.samples = d.count;
    s.value = ratio(d.sum, static_cast<double>(d.count));
    return s;
}

Stat
Window::histPercentile(const std::string &name, double p) const
{
    const HistDelta d = hist(name);
    return bucketPercentile(d.edges, d.counts, p);
}

void
Report::add(const std::string &name, const std::string &unit,
            double value, std::uint64_t samples)
{
    rows_.push_back({name, unit, std::isfinite(value) ? value : 0.0,
                     samples});
}

void
Report::add(const std::string &name, const std::string &unit,
            const Stat &s)
{
    if (!s.supported)
        refused_.push_back(name);
    add(name, unit, s.supported ? s.value : 0.0, s.samples);
}

void
Report::printTable() const
{
    for (const Row &r : rows_) {
        const bool refused =
            std::find(refused_.begin(), refused_.end(), r.name) !=
            refused_.end();
        std::printf("  %-30s %16.4f %-7s n=%llu%s\n", r.name.c_str(),
                    r.value, r.unit.c_str(),
                    static_cast<unsigned long long>(r.samples),
                    refused ? "  REFUSED: under 10 samples beyond it"
                            : "");
    }
}

std::string
Report::resultJson(bool correct, std::uint64_t attempted,
                   std::uint64_t failed) const
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char num[64];
    for (std::size_t i = 0; i < rows_.size(); ++i) {
        std::snprintf(num, sizeof num, "%.17g", rows_[i].value);
        out += (i ? ", \"" : "\"") + rows_[i].name +
               "\": {\"value\": " + num + ", \"unit\": \"" +
               rows_[i].unit + "\"}";
    }
    out += "}}";
    return out;
}

namespace {

int failures = 0;

void
expectNear(const char *what, double got, double want)
{
    if (std::fabs(got - want) > 1e-9 * std::max(1.0, std::fabs(want))) {
        std::printf("self-test FAIL %s: got %.12g, want %.12g\n", what,
                    got, want);
        ++failures;
    }
}

void
expectTrue(const char *what, bool ok)
{
    if (!ok) {
        std::printf("self-test FAIL %s\n", what);
        ++failures;
    }
}

} // namespace

int
selfTest()
{
    failures = 0;

    // Nearest rank over 1..1000: p50 is 500, p99 is 990.
    std::vector<double> v(1000);
    std::iota(v.begin(), v.end(), 1.0);
    std::reverse(v.begin(), v.end());
    expectNear("p50 of 1..1000", percentile(v, 0.50).value, 500.0);
    expectNear("p99 of 1..1000", percentile(v, 0.99).value, 990.0);
    expectTrue("p99 of 1000 supported", percentile(v, 0.99).supported);

    // 999 samples leave 9.99 beyond p99: refused.  20 leave 10 beyond
    // the median: reported.
    std::vector<double> short99(999, 1.0);
    expectTrue("p99 of 999 refused", !percentile(short99, 0.99).supported);
    std::vector<double> twenty(20, 3.0);
    expectTrue("p50 of 20 supported", percentile(twenty, 0.50).supported);
    std::vector<double> nineteen(19, 3.0);
    expectTrue("p50 of 19 refused",
               !percentile(nineteen, 0.50).supported);
    std::vector<double> none;
    expectTrue("empty percentile reads 0 over 0 samples",
               percentile(none, 0.5).value == 0.0 &&
                   percentile(none, 0.5).samples == 0 &&
                   percentile(none, 0.5).supported);

    // Three 1-second slices holding 1..1000, 1001..2000, 2001..3000:
    // slice medians 500, 1500, 2500, whose median is 1500.  A slice
    // too small for its quantile refuses the whole statistic.
    std::vector<double> series(3000), at(3000);
    for (std::size_t i = 0; i < series.size(); ++i) {
        series[i] = static_cast<double>(i + 1);
        at[i] = static_cast<double>(i) / 1000.0;
    }
    expectNear("windowed median of slice medians",
               windowedPercentile(series, at, 3.0, 3, 0.50).value, 1500.0);
    expectTrue("windowed p99 over 1000-sample slices supported",
               windowedPercentile(series, at, 3.0, 3, 0.99).supported);
    expectTrue("windowed p99 over 750-sample slices refused",
               !windowedPercentile(series, at, 3.0, 4, 0.99).supported);
    // Slices count 1000, 1000 and 400 samples under 2401 per second:
    // the median rate is 1000/s.
    expectNear("windowed rate",
               windowedRate(series, at, 3.0, 3, 2401.0).value, 1000.0);
    expectTrue("windowed rate counts the samples under the limit",
               windowedRate(series, at, 3.0, 3, 2401.0).samples == 2400);
    expectNear("median of an even count", median({4.0, 1.0, 3.0, 2.0}),
               2.5);

    expectNear("mean", mean({1.0, 2.0, 6.0}).value, 3.0);
    expectNear("ratio", ratio(3.0, 4.0), 0.75);
    expectNear("ratio over an idle layer", ratio(3.0, 0.0), 0.0);

    // Buckets (0,10], (10,20], (20,40], >40 holding 10/30/40/20.
    const std::vector<std::uint64_t> edges = {10, 20, 40};
    const std::vector<std::uint64_t> counts = {10, 30, 40, 20};
    expectNear("bucket p50 interpolates", bucketPercentile(edges, counts,
                                                           0.50).value,
               25.0);
    expectNear("bucket p10 at an edge",
               bucketPercentile(edges, counts, 0.10).value, 10.0);
    expectNear("bucket p90 in the overflow",
               bucketPercentile(edges, counts, 0.90).value, 40.0);
    expectTrue("bucket p99 of 100 refused",
               !bucketPercentile(edges, counts, 0.99).supported);

    // Window deltas subtract the earlier snapshot, and read an absent
    // metric as zero.
    envy::obs::MetricsRegistry reg;
    auto c = reg.counter("t.count", "ops", "");
    auto h = reg.histogram("t.us", "us", "", {10, 20, 40});
    c.add(5);
    h.record(5);
    h.record(100);
    const auto before = reg.snapshot();
    c.add(7);
    for (int i = 0; i < 20; ++i)
        h.record(15);
    const Window w(before, reg.snapshot());
    expectNear("window counter delta", w.counter("t.count"), 7.0);
    expectNear("window absent counter", w.counter("t.absent"), 0.0);
    expectTrue("window histogram count", w.histMean("t.us").samples == 20);
    expectNear("window histogram mean", w.histMean("t.us").value, 15.0);
    expectNear("window histogram p50",
               w.histPercentile("t.us", 0.50).value, 15.0);

    Report r;
    r.add("a", "ms", 1.5, 3);
    r.add("b", "us", Stat{7.0, 5, false});
    expectTrue("refused stat is listed",
               r.refused().size() == 1 && r.refused()[0] == "b");
    expectTrue("result line",
               r.resultJson(true, 10, 1) ==
                   "{\"correct\": true, \"attempted\": 10, \"failed\": 1, "
                   "\"metrics\": {\"a\": {\"value\": 1.5, \"unit\": "
                   "\"ms\"}, \"b\": {\"value\": 0, \"unit\": \"us\"}}}");

    std::printf("self-test: %s (%d failures)\n",
                failures ? "FAILED" : "ok", failures);
    return failures ? 1 : 0;
}

} // namespace kvbench
