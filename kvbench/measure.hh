/**
 * @file
 * Statistics and reporting for kvbench: percentiles that
 * refuse to extrapolate, histogram-delta percentiles over a
 * MetricsRegistry window, and the metric table + result line.
 */

#ifndef KVBENCH_MEASURE_HH
#define KVBENCH_MEASURE_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hh"

namespace kvbench {

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point a, Clock::time_point b);
std::uint64_t nsBetween(Clock::time_point a, Clock::time_point b);

/** A statistic together with the number of samples it rests on. */
struct Stat
{
    double value = 0.0;
    std::uint64_t samples = 0;
    /** False when the sample cannot support the statistic. */
    bool supported = true;
};

/**
 * True when @p n samples leave at least ten beyond the p-quantile,
 * the smallest tail a percentile is reported from.
 */
bool percentileSupported(std::uint64_t n, double p);

/** Nearest-rank p-quantile of @p v (sorted in place). */
Stat percentile(std::vector<double> &v, double p);

/**
 * Median, over @p windows equal slices of a @p seconds long phase, of
 * each slice's p-quantile; @p at gives each sample's time into the
 * phase.  Refused unless every slice supports the quantile.  One slice
 * hit by a host scheduling stall then moves the result less than it
 * moves a quantile over the whole phase.
 */
Stat windowedPercentile(const std::vector<double> &v,
                        const std::vector<double> &at, double seconds,
                        unsigned windows, double p);

/**
 * Median, over @p windows equal slices of a @p seconds long phase, of
 * each slice's count of samples below @p limit per second.
 */
Stat windowedRate(const std::vector<double> &v,
                  const std::vector<double> &at, double seconds,
                  unsigned windows, double limit);

/** Median of @p v; 0 when empty. */
double median(std::vector<double> v);

Stat mean(const std::vector<double> &v);

/** @p num / @p den, or 0 when @p den is 0 (an idle layer). */
double ratio(double num, double den);

/**
 * Registry deltas over one measure window: two snapshots of the same
 * registry.  Metrics absent from the store (persist.* on a volatile
 * store) read as zero.
 */
class Window
{
  public:
    Window(envy::obs::MetricsSnapshot before,
           envy::obs::MetricsSnapshot after)
        : before_(std::move(before)), after_(std::move(after))
    {}

    double counter(const std::string &name) const;

    /** Mean of the window's histogram samples. */
    Stat histMean(const std::string &name) const;
    /** p-quantile of the window's histogram samples, linear within a
     *  bucket; refused like percentile(). */
    Stat histPercentile(const std::string &name, double p) const;

  private:
    struct HistDelta
    {
        std::vector<std::uint64_t> edges;
        std::vector<std::uint64_t> counts;
        std::uint64_t count = 0;
        double sum = 0.0;
    };
    HistDelta hist(const std::string &name) const;

    envy::obs::MetricsSnapshot before_;
    envy::obs::MetricsSnapshot after_;
};

/** p-quantile of bucketed samples; bucket i holds (edges[i-1],
 *  edges[i]], the last bucket everything above the top edge. */
Stat bucketPercentile(const std::vector<std::uint64_t> &edges,
                      const std::vector<std::uint64_t> &counts, double p);

/** The metrics one run reports, in order. */
class Report
{
  public:
    void add(const std::string &name, const std::string &unit,
             double value, std::uint64_t samples);
    void add(const std::string &name, const std::string &unit,
             const Stat &s);

    /** Names of statistics their sample could not support. */
    const std::vector<std::string> &refused() const { return refused_; }

    /** One human-readable line per metric, with its sample count. */
    void printTable() const;

    /** The result line: correct, attempted, failed and metrics. */
    std::string resultJson(bool correct, std::uint64_t attempted,
                           std::uint64_t failed) const;

  private:
    struct Row
    {
        std::string name;
        std::string unit;
        double value;
        std::uint64_t samples;
    };
    std::vector<Row> rows_;
    std::vector<std::string> refused_;
};

/** Checks the derivations above against fixed inputs; 0 on success. */
int selfTest();

} // namespace kvbench

#endif // KVBENCH_MEASURE_HH
