// Self-tests of the benchmark's own helpers: the percentile rule, the
// metric-name grammar, span bookkeeping, and that the timing decorators
// pass every call through unchanged. perfbench/run.py runs this before
// every benchmark run; a failure stops the run.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "lib/decorators.h"
#include "lib/report.h"
#include "lib/trace.h"
#include "sim/scenario.h"
#include "storage/disk_view.h"
#include "svc/buffer_service.h"
#include "workload/query_generator.h"
#include "workloads/common.h"

namespace {

using namespace perfbench;

int g_checks = 0;
int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  ++g_checks;
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
  }
}

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

void PercentileRule() {
  Expect(SamplesBeyond(1000, 99.0) == 10, "1000 samples: 10 beyond p99");
  Expect(HighestSupportedPercentile(1000) == 99.0, "1000 samples support p99");
  Expect(HighestSupportedPercentile(10000) == 99.9,
         "10000 samples support p99.9");
  Expect(HighestSupportedPercentile(999) == 95.0,
         "999 samples fall back to p95");
  Expect(HighestSupportedPercentile(20) == 50.0, "20 samples support p50");
  Expect(!HighestSupportedPercentile(19).has_value(),
         "19 samples support no tail");

  std::vector<double> thousand = OneTo(1000);
  const LatencySummary a = Summarize(&thousand);
  Expect(a.samples == 1000 && a.p50 == 500.0, "median of 1..1000 is 500");
  Expect(a.tail_percentile == 99.0 && a.tail == 990.0,
         "p99 of 1..1000 is 990");
  // p99.9 is supported too, but the tail reported is the p99.
  std::vector<double> big = OneTo(20000);
  const LatencySummary b = Summarize(&big);
  Expect(b.tail_percentile == 99.0 && b.tail == 19800.0,
         "p99 is the tail whenever it is supported");
  std::vector<double> five_hundred = OneTo(500);
  const LatencySummary c = Summarize(&five_hundred);
  Expect(c.tail_percentile == 95.0 && c.tail == 475.0,
         "500 samples report p95 as the tail");
  std::vector<double> empty;
  Expect(Summarize(&empty).samples == 0, "empty sample summarizes to 0");

  // The histogram applies the same rule, within its 1 % bucket width.
  LatencyHistogram histogram;
  for (double v : OneTo(1000)) histogram.Add(v);
  const LatencySummary h = histogram.Summary();
  Expect(h.samples == 1000 && h.tail_percentile == 99.0,
         "histogram of 1000 samples reports p99");
  Expect(std::fabs(h.p50 - 500.0) <= 5.0 && std::fabs(h.tail - 990.0) <= 9.9,
         "histogram percentiles lie within 1 % of the samples");
  LatencyHistogram small;
  for (double v : OneTo(500)) small.Add(v);
  Expect(small.Summary().tail_percentile == 95.0,
         "histogram of 500 samples falls back to p95");
  LatencyHistogram merged;
  merged.Merge(small);
  merged.Merge(histogram);
  Expect(merged.count() == 1500, "histograms merge their counts");
}

void MetricNames() {
  for (const char* good : {"setup_s", "core.policy.on_load_ns", "a-b_c.9",
                           "9lives", "queries_per_s"}) {
    Expect(ValidMetricName(good), std::string("valid name ") + good);
  }
  for (const char* bad : {"", ".x", "_x", "a b", "a/b", "a%", "caf\xc3\xa9"}) {
    Expect(!ValidMetricName(bad), std::string("invalid name '") + bad + "'");
  }
  Expect(ValidMetricName(std::string(64, 'a')), "64 characters are allowed");
  Expect(!ValidMetricName(std::string(65, 'a')), "65 characters are not");
  Report report;
  LayerMetrics layers;
  layers.EmitTo(&report);  // aborts on a name outside the grammar
  Expect(report.correct(), "every per-layer metric has a finite default");
}

void SpanBookkeeping() {
  Tracer tracer(/*sample_every=*/2);
  Tracer::Activate(&tracer);
  for (int i = 0; i < 4; ++i) {
    ScopedSpan root(Span::kQuery);
    {
      ScopedSpan fetch(Span::kFetch);
      Tracer::Count(Counter::kPagesFetched, 3);
      ScopedSpan read(Span::kDevRead);
    }
    ScopedSpan hook(Span::kPolicySetEvictable);
  }
  Tracer::Activate(nullptr);
  { ScopedSpan detached(Span::kQuery); }  // no recorder: not counted
  const TraceTotals totals = tracer.Totals();
  const SpanTotals& query = totals.Get(Span::kQuery, Span::kQuery);
  Expect(query.count == 4, "four roots recorded");
  Expect(totals.Get(Span::kQuery, Span::kDevRead).count == 4,
         "nested spans group under their root kind");
  Expect(totals.CounterOf(Span::kQuery, Counter::kPagesFetched) == 12,
         "counters accumulate under the root kind");
  Expect(totals.SelfSumUnder(Span::kQuery) == query.total_ns,
         "self times partition the root's duration");
  const SpanTotals& fetch = totals.Get(Span::kQuery, Span::kFetch);
  Expect(fetch.self_ns + totals.Get(Span::kQuery, Span::kDevRead).total_ns ==
             fetch.total_ns,
         "a span's self time excludes its children");
  const std::vector<SpanRecord> records = tracer.Records();
  Expect(records.size() == 2 * 4, "1-in-2 sampling keeps two roots' spans");
  size_t roots = 0;
  for (const SpanRecord& r : records) {
    if (r.parent == 0) {
      ++roots;
      Expect(r.id == r.root, "a root is its own root");
    }
    Expect(r.end_ns >= r.start_ns, "spans end after they start");
  }
  Expect(roots == 2, "two sampled roots");
}

void DecoratorPassThrough() {
  sdb::sim::ScenarioOptions options;
  options.build = sdb::sim::BuildMode::kBulkLoad;
  options.scale = 0.02;
  options.seed = 5;
  const sdb::sim::Scenario scenario = sdb::sim::BuildScenario(options);
  sdb::workload::QuerySpec spec;
  spec.family = sdb::workload::QueryFamily::kIntensified;
  spec.ex = 100;
  spec.count = 300;
  spec.seed = 9;
  const sdb::workload::QuerySet queries =
      sdb::workload::MakeQuerySet(spec, scenario.dataset, scenario.places);
  const size_t frames = scenario.BufferFrames(0.1);

  const PassCounts plain =
      ReplayOnce(*scenario.disk, scenario.tree_meta, frames, queries, false);
  Tracer tracer;
  Tracer::Activate(&tracer);
  const PassCounts timed =
      ReplayOnce(*scenario.disk, scenario.tree_meta, frames, queries, true);
  Tracer::Activate(nullptr);
  Expect(plain.evictions > 0, "the pass-through replay evicts");
  Expect(plain.SameDecisions(timed),
         "decorated replay makes the same buffer decisions");
  const TraceTotals totals = tracer.Totals();
  Expect(totals.CounterOf(Span::kQuery, Counter::kPagesFetched) ==
             timed.requests,
         "every buffer request passed through the timed source");
  Expect(totals.Get(Span::kQuery, Span::kDevRead).count == timed.disk_reads,
         "every device read passed through the timed device");
  Expect(totals.Get(Span::kQuery, Span::kPolicyChooseVictim).count >=
             timed.evictions,
         "every eviction passed through the timed policy");

  sdb::storage::ReadOnlyDiskView view(*scenario.disk);
  TimedDevice device(&view);
  std::vector<std::byte> direct(view.page_size());
  std::vector<std::byte> through(view.page_size());
  Expect(scenario.disk->Read(scenario.tree_meta, direct).ok() &&
             device.Read(scenario.tree_meta, through).ok() &&
             direct == through,
         "timed device returns the same bytes");
  Expect(device.stats().reads == 1 && device.page_count() == view.page_count(),
         "timed device forwards stats and page count");
  Expect(device.PageChecksum(scenario.tree_meta) ==
             view.PageChecksum(scenario.tree_meta),
         "timed device forwards checksums");

  sdb::svc::BufferServiceConfig config;
  config.total_frames = 64;
  sdb::svc::BufferService service(*scenario.disk, config);
  TimedPageSource source(&service);
  Expect(source.PrefersBatchedReads() == service.PrefersBatchedReads() &&
             source.BatchPinBudget() == service.BatchPinBudget(),
         "timed source forwards the batching contract");
}

}  // namespace

int main() {
  PercentileRule();
  MetricNames();
  SpanBookkeeping();
  DecoratorPassThrough();
  std::printf("perfbench selftest: %d checks, %d failed\n", g_checks,
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
