#include "workloads/common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "core/policy_factory.h"
#include "lib/decorators.h"
#include "storage/disk_view.h"
#include "workload/session_generator.h"

namespace perfbench {

namespace {

struct LayerName {
  const char* name;
  const char* unit;
};

// Every per-layer metric of the benchmark, in report order. The comment on
// each group names the end-to-end metric it should move.
constexpr LayerName kLayerNames[] = {
    // core.policy -> queries_per_s, query_p50_us on evict_replay.
    {"core.policy.on_load_ns", "ns"},
    {"core.policy.choose_victim_ns", "ns"},
    {"core.policy.on_access_ns", "ns"},
    {"core.policy.on_evict_ns", "ns"},
    {"core.policy.set_evictable_ns", "ns"},
    {"core.policy.share", "ratio"},
    // core buffer -> queries_per_s on evict_replay.
    {"core.fetch_self_ns_per_page", "ns"},
    {"core.hit_rate", "ratio"},
    {"core.evictions_per_query", "count"},
    // storage -> query_p50_us on evict_replay.
    {"storage.reads_per_query", "count"},
    {"storage.read_ns", "ns"},
    // rtree -> queries_per_s on serve_hot; writer ops on mixed_commit.
    {"rtree.query_self_ns", "ns"},
    {"rtree.pages_per_query", "count"},
    {"rtree.write_self_ns_per_op", "ns"},
    // svc -> queries_per_s, query_p99_us on serve_hot and mixed_commit.
    {"svc.fetch_ns_per_page", "ns"},
    {"svc.latch_wait_ratio", "ratio"},
    {"svc.optimistic_hit_ratio", "ratio"},
    {"svc.optimistic_retries_per_kfetch", "count"},
    {"svc.version_conflicts_per_kfetch", "count"},
    {"svc.pages_per_batch_submit", "count"},
    // svc write path -> commit latency, reader query_p99_us on mixed_commit.
    {"svc.commit_latch_ns", "ns"},
    {"svc.pages_flushed", "count"},
    {"svc.sync_writeback_fallbacks", "count"},
    {"wal.forced_steals", "count"},
    // wal -> commit latency and writer throughput on mixed_commit.
    {"wal.log_writes_per_commit", "count"},
    {"wal.log_bytes_per_commit", "B"},
    {"wal.log_write_ns", "ns"},
    {"wal.syncs_per_commit", "count"},
    {"wal.sync_ns", "ns"},
    {"wal.commits_per_sync", "count"},
    // recovery -> writer.recovery_s on mixed_commit.
    {"wal.recover_scanned_records", "count"},
    {"wal.recover_replayed_pages", "count"},
    {"wal.recover_log_read_ns", "ns"},
    // The writer's end-to-end figures on mixed_commit.
    {"writer.ops_per_s", "1/s"},
    {"writer.commit_p50_us", "us"},
    {"writer.commit_p99_us", "us"},
    {"writer.recovery_s", "s"},
    // Cost and coverage of the tracing itself.
    {"trace.overhead_pct", "%"},
    {"trace.root_coverage", "ratio"},
};

double PerCall(const SpanTotals& t) {
  return t.count == 0 ? 0.0
                      : static_cast<double>(t.total_ns) /
                            static_cast<double>(t.count);
}

}  // namespace

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

PrivateStack::PrivateStack(const sdb::storage::DiskManager& disk,
                           sdb::storage::PageId tree_meta, size_t frames,
                           bool timed)
    : view_(disk), timed_device_(&view_) {
  std::unique_ptr<sdb::core::ReplacementPolicy> policy =
      sdb::core::CreatePolicy("ASB");
  if (timed) policy = std::make_unique<TimedPolicy>(std::move(policy));
  buffer_ = std::make_unique<sdb::core::BufferManager>(
      timed ? static_cast<sdb::storage::PageDevice*>(&timed_device_) : &view_,
      frames, std::move(policy));
  timed_source_ = std::make_unique<TimedPageSource>(buffer_.get());
  sdb::core::PageSource* source =
      timed ? static_cast<sdb::core::PageSource*>(timed_source_.get())
            : buffer_.get();
  tree_ = std::make_unique<sdb::rtree::RTree>(
      sdb::rtree::RTree::Open(&disk, source, tree_meta));
}

sdb::sim::Scenario BuildDatabase(double scale) {
  sdb::sim::ScenarioOptions options;
  options.kind = sdb::sim::DatabaseKind::kUsLike;
  options.build = sdb::sim::BuildMode::kInsert;
  options.scale = scale;
  return sdb::sim::BuildScenario(options);
}

std::vector<sdb::workload::QuerySet> MakeClientSessions(
    const sdb::workload::PlacesTable& places, uint64_t seed, size_t client) {
  std::vector<sdb::workload::QuerySet> sessions;
  for (size_t i = 0; i < kSessionsPerClient; ++i) {
    sdb::workload::SessionParams params;
    params.steps = kSessionSteps;
    params.seed = (seed * 64 + client) * kSessionsPerClient + i + 1;
    sessions.push_back(sdb::workload::MakeSessionQuerySet(params, places));
  }
  return sessions;
}

LayerMetrics::LayerMetrics() {
  for (const LayerName& n : kLayerNames) {
    entries_.push_back(Entry{n.name, n.unit, 0.0});
  }
}

void LayerMetrics::Set(const std::string& name, double value) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      return;
    }
  }
  std::fprintf(stderr, "perfbench: unknown layer metric '%s'\n",
               name.c_str());
  std::abort();
}

void LayerMetrics::EmitTo(Report* report) const {
  for (const Entry& e : entries_) report->Set(e.name, e.value, e.unit);
}

PassCounts ReplayOnce(const sdb::storage::DiskManager& disk,
                      sdb::storage::PageId tree_meta, size_t frames,
                      const sdb::workload::QuerySet& queries, bool timed) {
  PrivateStack stack(disk, tree_meta, frames, timed);
  PassCounts counts;
  counts.per_query.reserve(queries.queries.size());
  uint64_t query_id = 0;
  for (const sdb::geom::Rect& window : queries.queries) {
    const sdb::core::AccessContext ctx{++query_id};
    uint32_t results = 0;
    {
      ScopedSpan span(Span::kQuery);
      stack.tree().WindowQueryVisit(
          window, ctx, [&results](const sdb::rtree::Entry&) { ++results; });
    }
    counts.per_query.push_back(results);
    counts.result_objects += results;
  }
  counts.queries = queries.queries.size();
  counts.disk_reads = stack.io().reads;
  counts.requests = stack.buffer().stats().requests;
  counts.hits = stack.buffer().stats().hits;
  counts.evictions = stack.buffer().stats().evictions;
  counts.io_errors = stack.tree().io_errors();
  return counts;
}

PassCounts ReplaySessions(const sdb::storage::DiskManager& disk,
                          sdb::storage::PageId tree_meta, size_t frames,
                          const std::vector<sdb::workload::QuerySet>& sessions,
                          bool timed) {
  PassCounts sum;
  for (const sdb::workload::QuerySet& session : sessions) {
    const PassCounts pass = ReplayOnce(disk, tree_meta, frames, session, timed);
    sum.queries += pass.queries;
    sum.result_objects += pass.result_objects;
    sum.disk_reads += pass.disk_reads;
    sum.requests += pass.requests;
    sum.hits += pass.hits;
    sum.evictions += pass.evictions;
    sum.io_errors += pass.io_errors;
    sum.per_query.insert(sum.per_query.end(), pass.per_query.begin(),
                         pass.per_query.end());
  }
  return sum;
}

double ReadsPerQuery(const std::vector<PassCounts>& passes) {
  double reads = 0.0;
  double queries = 0.0;
  for (const PassCounts& pass : passes) {
    reads += static_cast<double>(pass.disk_reads);
    queries += static_cast<double>(pass.queries);
  }
  return Ratio(reads, queries);
}

ClientResult RunClient(const sdb::rtree::RTree& tree,
                       const sdb::workload::QuerySet& queries,
                       const std::vector<uint32_t>& expected,
                       std::chrono::steady_clock::time_point origin,
                       std::chrono::steady_clock::time_point deadline,
                       uint64_t id_base, size_t max_queries) {
  ClientResult result;
  const std::vector<sdb::geom::Rect>& windows = queries.queries;
  const uint64_t io_errors_before = tree.io_errors();
  size_t next = 0;
  for (;;) {
    const sdb::core::AccessContext ctx{id_base + result.queries + 1};
    uint32_t objects = 0;
    const auto start = std::chrono::steady_clock::now();
    {
      ScopedSpan span(Span::kQuery);
      tree.WindowQueryVisit(windows[next], ctx,
                            [&objects](const sdb::rtree::Entry&) {
                              ++objects;
                            });
    }
    const auto end = std::chrono::steady_clock::now();
    const size_t window = static_cast<size_t>(
        std::chrono::duration<double>(end - origin).count() / kWindowSeconds);
    if (window >= result.windows.size()) result.windows.resize(window + 1);
    result.windows[window].Add(
        std::chrono::duration<double, std::micro>(end - start).count());
    if (objects != expected[next]) ++result.wrong_results;
    ++result.queries;
    next = next + 1 == windows.size() ? 0 : next + 1;
    if (result.queries == max_queries || end >= deadline) break;
  }
  result.io_errors = tree.io_errors() - io_errors_before;
  return result;
}

ClientResult MergeClients(std::vector<ClientResult>* clients) {
  ClientResult merged;
  for (ClientResult& c : *clients) {
    if (c.windows.size() > merged.windows.size()) {
      merged.windows.resize(c.windows.size());
    }
    for (size_t w = 0; w < c.windows.size(); ++w) {
      merged.windows[w].Merge(c.windows[w]);
    }
    merged.queries += c.queries;
    merged.wrong_results += c.wrong_results;
    merged.io_errors += c.io_errors;
  }
  return merged;
}

void QueryEndToEnd(const ClientResult& merged, double elapsed_s,
                   bool result_line, Report* report) {
  const size_t full = std::max<size_t>(
      1, static_cast<size_t>(elapsed_s / kWindowSeconds));
  std::vector<LatencyHistogram> windows(full);
  LatencyHistogram all;
  for (size_t w = 0; w < merged.windows.size(); ++w) {
    windows[std::min(w, full - 1)].Merge(merged.windows[w]);
    all.Merge(merged.windows[w]);
  }
  std::vector<double> rates;
  std::vector<double> p50s;
  std::vector<double> p99s;
  for (size_t w = 0; w < full; ++w) {
    const double length =
        w + 1 < full ? kWindowSeconds
                     : elapsed_s - kWindowSeconds * static_cast<double>(w);
    rates.push_back(static_cast<double>(windows[w].count()) / length);
    const LatencySummary summary = windows[w].Summary();
    report->Check(summary.tail_percentile == 99.0,
                  "a window has too few queries for a p99 with ten samples "
                  "beyond it");
    p50s.push_back(summary.p50);
    p99s.push_back(summary.tail);
  }
  const LatencySummary overall = all.Summary();
  report->Put(result_line, "queries_per_s", Summarize(&rates).p50, "1/s");
  report->Put(result_line, "query_p50_us", Summarize(&p50s).p50, "us");
  report->Put(result_line, "query_p99_us", Summarize(&p99s).p50, "us");
  report->Info("query_samples", static_cast<double>(overall.samples),
               "count");
  report->Info("query_windows", static_cast<double>(full), "count");
  report->Info("queries_per_s_whole_phase",
               Ratio(static_cast<double>(merged.queries), elapsed_s), "1/s");
  report->Info("query_p99_us_whole_phase", overall.tail, "us");
  report->Info("queries_per_s_min_window",
               *std::min_element(rates.begin(), rates.end()), "1/s");
  report->Info("queries_per_s_max_window",
               *std::max_element(rates.begin(), rates.end()), "1/s");
}

void QueryLayerMetrics(const TraceTotals& totals, bool service,
                       LayerMetrics* layers, Report* report) {
  const SpanTotals& query = totals.Get(Span::kQuery, Span::kQuery);
  report->Check(query.count > 0, "traced phase recorded no query");
  if (query.count == 0) return;
  const double queries = static_cast<double>(query.count);
  const double pages = static_cast<double>(
      totals.CounterOf(Span::kQuery, Counter::kPagesFetched));
  layers->Set("rtree.query_self_ns",
              static_cast<double>(query.self_ns) / queries);
  layers->Set("rtree.pages_per_query", pages / queries);
  layers->Set("trace.root_coverage",
              Ratio(static_cast<double>(
                        totals.root_covered_ns[static_cast<size_t>(
                            Span::kQuery)]),
                    static_cast<double>(query.total_ns)));
  const SpanTotals& fetch = totals.Get(Span::kQuery, Span::kFetch);
  const SpanTotals& batch = totals.Get(Span::kQuery, Span::kFetchBatch);
  if (service) {
    layers->Set("svc.fetch_ns_per_page",
                Ratio(static_cast<double>(fetch.total_ns + batch.total_ns),
                      pages));
  }
  const double self_sum =
      static_cast<double>(totals.SelfSumUnder(Span::kQuery));
  const double root_sum = static_cast<double>(query.total_ns);
  report->Check(std::fabs(self_sum - root_sum) <= kSelfTimeTolerance * root_sum,
                "span self times do not add up to query time");
  report->Info("trace.self_sum_error",
               Ratio(std::fabs(self_sum - root_sum), root_sum), "ratio");
}

void CoreLayerMetrics(const TraceTotals& totals, double empty_span_ns,
                      LayerMetrics* layers) {
  const auto under_query = [&](Span span) {
    return totals.Get(Span::kQuery, span);
  };
  // Per call, less the clock read every span includes.
  const auto net = [empty_span_ns](const SpanTotals& t) {
    return std::max(0.0, PerCall(t) - empty_span_ns);
  };
  const SpanTotals load = under_query(Span::kPolicyOnLoad);
  const SpanTotals victim = under_query(Span::kPolicyChooseVictim);
  const SpanTotals access = under_query(Span::kPolicyOnAccess);
  const SpanTotals evict = under_query(Span::kPolicyOnEvict);
  const SpanTotals evictable = under_query(Span::kPolicySetEvictable);
  layers->Set("core.policy.on_load_ns", net(load));
  layers->Set("core.policy.choose_victim_ns", net(victim));
  layers->Set("core.policy.on_access_ns", net(access));
  layers->Set("core.policy.on_evict_ns", net(evict));
  layers->Set("core.policy.set_evictable_ns", net(evictable));
  double policy_ns = 0.0;
  for (const SpanTotals* hook : {&load, &victim, &access, &evict, &evictable}) {
    policy_ns += net(*hook) * static_cast<double>(hook->count);
  }
  layers->Set("core.policy.share",
              Ratio(policy_ns,
                    static_cast<double>(under_query(Span::kQuery).total_ns)));
  const SpanTotals fetch = under_query(Span::kFetch);
  const SpanTotals batch = under_query(Span::kFetchBatch);
  layers->Set("core.fetch_self_ns_per_page",
              Ratio(static_cast<double>(fetch.self_ns + batch.self_ns),
                    static_cast<double>(totals.CounterOf(
                        Span::kQuery, Counter::kPagesFetched))));
  layers->Set("storage.read_ns", net(under_query(Span::kDevRead)));
}

void ServiceLayerMetrics(const sdb::svc::ShardStats& before,
                         const sdb::svc::ShardStats& after, double queries,
                         LayerMetrics* layers) {
  const auto delta = [](uint64_t a, uint64_t b) {
    return static_cast<double>(a - b);
  };
  const double requests = delta(after.buffer.requests, before.buffer.requests);
  layers->Set("core.hit_rate",
              Ratio(delta(after.buffer.hits, before.buffer.hits), requests));
  layers->Set("core.evictions_per_query",
              Ratio(delta(after.buffer.evictions, before.buffer.evictions),
                    queries));
  layers->Set("storage.reads_per_query",
              Ratio(delta(after.io.reads, before.io.reads), queries));
  layers->Set("svc.latch_wait_ratio",
              Ratio(delta(after.latch_waits, before.latch_waits),
                    delta(after.latch_acquires, before.latch_acquires)));
  layers->Set("svc.optimistic_hit_ratio",
              Ratio(delta(after.optimistic_hits, before.optimistic_hits),
                    requests));
  layers->Set(
      "svc.optimistic_retries_per_kfetch",
      Ratio(1000.0 * delta(after.optimistic_retries, before.optimistic_retries),
            requests));
  layers->Set(
      "svc.version_conflicts_per_kfetch",
      Ratio(1000.0 * delta(after.version_conflicts, before.version_conflicts),
            requests));
  layers->Set("svc.pages_per_batch_submit",
              Ratio(delta(after.async_reads, before.async_reads),
                    delta(after.batch_submits, before.batch_submits)));
}

void TraceOverhead(const ClientResult& untraced, double untraced_s,
                   const ClientResult& traced, double traced_s,
                   LayerMetrics* layers) {
  const double untraced_qps =
      static_cast<double>(untraced.queries) / untraced_s;
  const double traced_qps = static_cast<double>(traced.queries) / traced_s;
  layers->Set("trace.overhead_pct",
              100.0 * (untraced_qps - traced_qps) / untraced_qps);
}

void WriteSpans(const Tracer& tracer, const RunOptions& options,
                Report* report) {
  if (options.span_out.empty()) return;
  report->Check(tracer.WriteJsonLines(options.span_out),
                "could not write spans to " + options.span_out);
}

}  // namespace perfbench
