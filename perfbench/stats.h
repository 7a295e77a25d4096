#ifndef DEXA_PERFBENCH_STATS_H_
#define DEXA_PERFBENCH_STATS_H_

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// A tail percentile is reported only when at least this many samples lie
/// strictly beyond it: p99 needs 1,000 samples, p90 needs 100.
inline constexpr size_t kMinTailSamples = 10;

/// Median of `samples` (the mean of the two middle values for an even
/// count); nullopt when there are no samples.
std::optional<double> Median(std::vector<double> samples);

/// A run's samples, in the order they were taken, are cut into this many
/// stretches of consecutive samples (about one second each in a 30 s
/// run)...
inline constexpr size_t kQuietStretches = 30;
/// ...of at least this many samples each (fewer stretches when the run has
/// fewer than kQuietStretches * kMinStretchSamples samples).
inline constexpr size_t kMinStretchSamples = 3;

/// Samples [begin, end) of a run and their median.
struct Stretch {
  size_t begin = 0;
  size_t end = 0;
  size_t count = 0;  // How many stretches the run was cut into.
  double median = 0.0;
};

/// The stretch of `samples` (in the order taken) with the lowest median.
/// The benchmark shares its host's cores, whose speed drifts for tens of
/// seconds at a time: that moves a whole-run median by up to half, while
/// the quietest stretch of a run reads the program's own speed. nullopt
/// when there are no samples.
std::optional<Stretch> QuietestStretch(const std::vector<double>& samples);

/// Nearest-rank `p`-quantile of `samples` (0 < p < 1): the value at rank
/// ceil(p * n) of the sorted samples. nullopt when fewer than
/// kMinTailSamples samples lie beyond that rank, so a p99 of 200 samples is
/// refused rather than reported as the second-largest sample.
std::optional<double> TailPercentile(std::vector<double> samples, double p);

/// How many samples lie beyond the nearest-rank `p`-quantile of `count`
/// samples.
size_t SamplesBeyond(size_t count, double p);

/// One line describing a timing by name: its statistic, unit and sample
/// count, e.g. "resume_ms = 51.2034 ms (p50, n=180)", or the reason it was
/// refused, e.g. "short_latency_p99_ms refused: p99 of n=640 leaves 6
/// samples beyond it (needs 10)". `p` = 0.5 selects the median.
std::string DescribeTiming(const std::string& name, const std::string& unit,
                           const std::vector<double>& samples, double p);

/// One line describing the quietest stretch of a timing, e.g.
/// "run_ms = 281.5 ms (p50 of stretch 4 of 6, n=6 of 36; whole run p50
/// 290.2)".
std::string DescribeStretch(const std::string& name, const std::string& unit,
                            const std::vector<double>& samples,
                            const Stretch& stretch);

}  // namespace perfbench

#endif  // DEXA_PERFBENCH_STATS_H_
