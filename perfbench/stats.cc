#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

std::optional<double> Median(std::vector<double> samples) {
  if (samples.empty()) return std::nullopt;
  const size_t n = samples.size();
  std::sort(samples.begin(), samples.end());
  if (n % 2 == 1) return samples[n / 2];
  return (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

std::optional<Stretch> QuietestStretch(const std::vector<double>& samples) {
  const size_t n = samples.size();
  if (n == 0) return std::nullopt;
  const size_t count =
      std::clamp<size_t>(n / kMinStretchSamples, 1, kQuietStretches);
  std::optional<Stretch> quietest;
  for (size_t s = 0; s < count; ++s) {
    Stretch stretch;
    stretch.begin = s * n / count;
    stretch.end = (s + 1) * n / count;
    stretch.count = count;
    stretch.median = *Median(std::vector<double>(
        samples.begin() + stretch.begin, samples.begin() + stretch.end));
    if (!quietest.has_value() || stretch.median < quietest->median) {
      quietest = stretch;
    }
  }
  return quietest;
}

size_t SamplesBeyond(size_t count, double p) {
  if (count == 0) return 0;
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(count) - 1e-9));
  return count - std::clamp<size_t>(rank, 1, count);
}

std::optional<double> TailPercentile(std::vector<double> samples, double p) {
  if (!(p > 0.0 && p < 1.0)) return std::nullopt;
  const size_t beyond = SamplesBeyond(samples.size(), p);
  if (beyond < kMinTailSamples) return std::nullopt;
  const size_t index = samples.size() - beyond - 1;
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}

std::string DescribeTiming(const std::string& name, const std::string& unit,
                           const std::vector<double>& samples, double p) {
  const int percent = static_cast<int>(std::lround(p * 100.0));
  char line[256];
  std::optional<double> value =
      p == 0.5 ? Median(samples) : TailPercentile(samples, p);
  if (value.has_value()) {
    std::snprintf(line, sizeof(line), "%s = %.6g %s (p%d, n=%zu)",
                  name.c_str(), *value, unit.c_str(), percent,
                  samples.size());
  } else if (p == 0.5) {
    std::snprintf(line, sizeof(line), "%s refused: no samples", name.c_str());
  } else {
    std::snprintf(line, sizeof(line),
                  "%s refused: p%d of n=%zu leaves %zu samples beyond it "
                  "(needs %zu)",
                  name.c_str(), percent, samples.size(),
                  SamplesBeyond(samples.size(), p), kMinTailSamples);
  }
  return line;
}

std::string DescribeStretch(const std::string& name, const std::string& unit,
                            const std::vector<double>& samples,
                            const Stretch& stretch) {
  char line[256];
  std::snprintf(line, sizeof(line),
                "%s = %.6g %s (p50 of stretch %zu of %zu, n=%zu of %zu; "
                "whole run p50 %.6g)",
                name.c_str(), stretch.median, unit.c_str(),
                stretch.begin * stretch.count / samples.size() + 1,
                stretch.count, stretch.end - stretch.begin, samples.size(),
                Median(samples).value_or(0.0));
  return line;
}

}  // namespace perfbench
