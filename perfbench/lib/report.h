#ifndef PERFBENCH_LIB_REPORT_H_
#define PERFBENCH_LIB_REPORT_H_

// Latency summaries, metric naming and the result line of one run.

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile `p` (0 < p <= 100) of ascending `sorted`;
/// requires a non-empty input.
double PercentileOfSorted(const std::vector<double>& sorted, double p);

/// Samples ranked strictly above the nearest-rank `p`-th percentile of `n`.
size_t SamplesBeyond(size_t n, double p);

/// The highest of 99.9, 99, 95, 90, 75 and 50 that has at least ten samples
/// beyond it among `n`, or nullopt when not even the median has.
std::optional<double> HighestSupportedPercentile(size_t n);

/// Median and tail of one latency sample.
struct LatencySummary {
  size_t samples = 0;
  double p50 = 0.0;
  /// The percentile reported as the tail: 99 when at least ten samples lie
  /// beyond p99, else HighestSupportedPercentile (0 when there is none).
  double tail_percentile = 0.0;
  double tail = 0.0;
};

/// Summarizes `samples` (reordered in place). The tail is the p99 when the
/// sample supports it, else the highest supported percentile.
LatencySummary Summarize(std::vector<double>* samples);

/// Latency histogram in fixed memory: logarithmic buckets 1 % wide from
/// 0.05 us to about 20 s (slower samples land in the last bucket), so
/// recording costs no allocation per sample and the run's memory does not
/// grow with its throughput.
class LatencyHistogram {
 public:
  void Add(double us);
  void Merge(const LatencyHistogram& other);
  uint64_t count() const { return count_; }
  /// Nearest-rank percentile `p`, as the geometric middle of the bucket
  /// holding it (within 0.5 % of the sample); requires count() > 0.
  double Percentile(double p) const;
  /// Median and tail under the rule of Summarize.
  LatencySummary Summary() const;

 private:
  std::vector<uint64_t> counts_;  // sized on first use
  uint64_t count_ = 0;
};

/// Metric-name grammar of the benchmark: 1..64 characters from
/// [A-Za-z0-9_.-], starting with a letter or a digit.
bool ValidMetricName(std::string_view name);

/// Peak resident set of this process in MiB.
double PeakRssMb();

/// The metrics and checks of one run, printed as a table followed by the
/// one-line JSON result.
class Report {
 public:
  /// A metric of the result line. Aborts on a name outside the grammar or
  /// one set twice.
  void Set(const std::string& name, double value, const std::string& unit);
  /// A metric printed in the table only.
  void Info(const std::string& name, double value, const std::string& unit);
  /// Set when `result_line`, else Info.
  void Put(bool result_line, const std::string& name, double value,
           const std::string& unit) {
    if (result_line) {
      Set(name, value, unit);
    } else {
      Info(name, value, unit);
    }
  }
  /// Records a failed output check; the run then reports correct = false.
  void Fail(const std::string& what);
  /// Records one output check.
  void Check(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }
  void AddAttempted(uint64_t n) { attempted_ += n; }
  void AddFailed(uint64_t n) { failed_ += n; }

  bool correct() const { return failures_.empty(); }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

  /// Table on `out`, then the JSON result as the last line.
  void Print(std::FILE* out) const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  void Add(std::vector<Metric>* list, const std::string& name, double value,
           const std::string& unit);

  std::vector<Metric> metrics_;
  std::vector<Metric> info_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_LIB_REPORT_H_
