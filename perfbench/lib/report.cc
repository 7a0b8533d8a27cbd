#include "lib/report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>

namespace perfbench {

namespace {

constexpr double kTailLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
constexpr size_t kMinBeyond = 10;
constexpr double kHistogramMinUs = 0.05;
constexpr double kHistogramGrowth = 1.01;
constexpr size_t kHistogramBuckets = 2000;  // 0.05 us * 1.01^2000 ~ 22 s

size_t NearestRank(size_t n, double p) {
  // The epsilon keeps a rank that is an exact integer (p99.9 of 10000)
  // from rounding up on binary floating-point error.
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(rank), 1, n);
}

}  // namespace

double PercentileOfSorted(const std::vector<double>& sorted, double p) {
  return sorted[NearestRank(sorted.size(), p) - 1];
}

size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - NearestRank(n, p);
}

std::optional<double> HighestSupportedPercentile(size_t n) {
  for (const double p : kTailLadder) {
    if (SamplesBeyond(n, p) >= kMinBeyond) return p;
  }
  return std::nullopt;
}

namespace {

// The tail percentile the rule reports for `n` samples: p99 when it has
// ten samples beyond it, else the highest supported one (nullopt: none).
std::optional<double> TailPercentile(size_t n) {
  if (SamplesBeyond(n, 99.0) >= kMinBeyond) return 99.0;
  return HighestSupportedPercentile(n);
}

}  // namespace

void LatencyHistogram::Add(double us) {
  if (counts_.empty()) counts_.assign(kHistogramBuckets, 0);
  size_t bucket = 0;
  if (us > kHistogramMinUs) {
    bucket = 1 + static_cast<size_t>(std::log(us / kHistogramMinUs) /
                                     std::log(kHistogramGrowth));
  }
  ++counts_[std::min(bucket, kHistogramBuckets - 1)];
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  if (other.count_ == 0) return;
  if (counts_.empty()) counts_.assign(kHistogramBuckets, 0);
  for (size_t i = 0; i < kHistogramBuckets; ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
}

double LatencyHistogram::Percentile(double p) const {
  const size_t rank = NearestRank(count_, p);
  uint64_t seen = 0;
  size_t bucket = 0;
  for (; bucket < kHistogramBuckets; ++bucket) {
    seen += counts_[bucket];
    if (seen >= rank) break;
  }
  if (bucket == 0) return kHistogramMinUs;
  // Bucket b >= 1 holds (min * g^(b-1), min * g^b].
  return kHistogramMinUs *
         std::pow(kHistogramGrowth, static_cast<double>(bucket) - 0.5);
}

LatencySummary LatencyHistogram::Summary() const {
  LatencySummary summary;
  summary.samples = count_;
  if (count_ == 0) return summary;
  summary.p50 = Percentile(50.0);
  if (const std::optional<double> tail = TailPercentile(count_)) {
    summary.tail_percentile = *tail;
    summary.tail = Percentile(*tail);
  }
  return summary;
}

LatencySummary Summarize(std::vector<double>* samples) {
  LatencySummary summary;
  summary.samples = samples->size();
  if (samples->empty()) return summary;
  std::sort(samples->begin(), samples->end());
  summary.p50 = PercentileOfSorted(*samples, 50.0);
  if (const std::optional<double> tail = TailPercentile(samples->size())) {
    summary.tail_percentile = *tail;
    summary.tail = PercentileOfSorted(*samples, *tail);
  }
  return summary;
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Report::Add(std::vector<Metric>* list, const std::string& name,
                 double value, const std::string& unit) {
  if (!ValidMetricName(name)) {
    std::fprintf(stderr, "perfbench: invalid metric name '%s'\n",
                 name.c_str());
    std::abort();
  }
  for (const std::vector<Metric>* l : {&metrics_, &info_}) {
    for (const Metric& m : *l) {
      if (m.name == name) {
        std::fprintf(stderr, "perfbench: metric '%s' set twice\n",
                     name.c_str());
        std::abort();
      }
    }
  }
  if (!std::isfinite(value)) Fail("metric " + name + " is not finite");
  list->push_back(Metric{name, value, unit});
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  Add(&metrics_, name, value, unit);
}

void Report::Info(const std::string& name, double value,
                  const std::string& unit) {
  Add(&info_, name, value, unit);
}

void Report::Fail(const std::string& what) { failures_.push_back(what); }

void Report::Print(std::FILE* out) const {
  for (const std::vector<Metric>* list : {&metrics_, &info_}) {
    for (const Metric& m : *list) {
      std::fprintf(out, "%-36s %18.6f %s%s\n", m.name.c_str(), m.value,
                   m.unit.c_str(), list == &info_ ? "  (table only)" : "");
    }
  }
  for (const std::string& f : failures_) {
    std::fprintf(out, "CHECK FAILED: %s\n", f.c_str());
  }
  std::fprintf(out,
               "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
               "\"metrics\": {",
               correct() ? "true" : "false",
               static_cast<unsigned long long>(attempted_),
               static_cast<unsigned long long>(failed_));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::fprintf(out, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                 i == 0 ? "" : ", ", m.name.c_str(),
                 std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::fprintf(out, "}}\n");
  std::fflush(out);
}

}  // namespace perfbench
