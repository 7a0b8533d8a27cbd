// evict_replay: one closed-loop client replays paper-style window queries
// (uniform W-100, then intensified W-100) through RTree -> a private
// BufferManager with ASB -> ReadOnlyDiskView, the path of sim::RunQuerySet.
// The buffer (1024 frames) holds about a third of the insert-built tree,
// so almost every query loads and evicts: the policy hooks and the device
// do most of the work, while service latching and the WAL are absent.

#include <chrono>
#include <cstdio>

#include "workload/query_generator.h"
#include "workloads/common.h"

namespace perfbench {

namespace {

constexpr double kScale = 0.5;  // 100k objects, ~3.3k tree pages
constexpr size_t kFrames = 1024;
constexpr size_t kQueriesPerFamily = 2000;
constexpr int kExtent = 100;

struct Inputs {
  sdb::sim::Scenario scenario;
  sdb::workload::QuerySet queries;
};

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  in.scenario = BuildDatabase(kScale);
  std::vector<sdb::workload::QuerySet> sets;
  for (const sdb::workload::QueryFamily family :
       {sdb::workload::QueryFamily::kUniform,
        sdb::workload::QueryFamily::kIntensified}) {
    sdb::workload::QuerySpec spec;
    spec.family = family;
    spec.ex = kExtent;
    spec.count = kQueriesPerFamily;
    spec.seed = seed * 2 + (family == sdb::workload::QueryFamily::kUniform);
    sets.push_back(sdb::workload::MakeQuerySet(spec, in.scenario.dataset,
                                               in.scenario.places));
  }
  in.queries = sdb::workload::ConcatQuerySets(sets);
  return in;
}

struct Phase {
  ClientResult client;
  double elapsed_s = 0.0;
  sdb::core::BufferStats buffer;
  uint64_t disk_reads = 0;
};

// One closed-loop phase through a fresh stack; the cold start is part of
// the phase, as it is for every query set the paper replays.
Phase Measure(const Inputs& in, const PassCounts& reference, bool timed,
              double seconds, uint64_t id_base) {
  PrivateStack stack(*in.scenario.disk, in.scenario.tree_meta, kFrames,
                     timed);
  Phase phase;
  const auto start = std::chrono::steady_clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(seconds));
  phase.client = RunClient(stack.tree(), in.queries, reference.per_query,
                           start, deadline, id_base);
  phase.elapsed_s = SecondsSince(start);
  phase.buffer = stack.buffer().stats();
  phase.disk_reads = stack.io().reads;
  return phase;
}

}  // namespace

int RunEvictReplay(const RunOptions& options) {
  Report report;
  Inputs in;
  const double setup_s = TimedSetup<Inputs>(
      [&options] { return MakeInputs(options.seed); }, &in);
  const sdb::storage::DiskManager& disk = *in.scenario.disk;
  const double tree_pages = in.scenario.tree_stats.total_pages();
  report.Info("tree_pages", tree_pages, "count");
  report.Info("buffer_frames", kFrames, "count");

  // Decorators must change no decision: a cold pass with and without them
  // gives identical result counts, disk reads, hits and evictions.
  const PassCounts plain = ReplayOnce(disk, in.scenario.tree_meta, kFrames,
                                      in.queries, /*timed=*/false);
  PassCounts traced;
  {
    Tracer check_tracer;
    Tracer::Activate(&check_tracer);
    traced = ReplayOnce(disk, in.scenario.tree_meta, kFrames, in.queries,
                        /*timed=*/true);
    Tracer::Activate(nullptr);
  }
  report.Check(plain.SameDecisions(traced),
               "traced replay made different buffer decisions");
  report.Check(plain.io_errors == 0 && traced.io_errors == 0,
               "replay absorbed I/O errors");
  report.AddAttempted(plain.queries + traced.queries);
  report.AddFailed(plain.io_errors + traced.io_errors);
  const double reads_per_query = static_cast<double>(plain.disk_reads) /
                                 static_cast<double>(plain.queries);

  const auto account = [&report](const Phase& phase) {
    report.AddAttempted(phase.client.queries);
    report.AddFailed(phase.client.wrong_results + phase.client.io_errors);
    report.Check(phase.client.wrong_results == 0,
                 "queries returned wrong result counts");
    report.Check(phase.client.io_errors == 0, "queries absorbed I/O errors");
  };

  if (!options.trace) {
    Phase phase = Measure(in, plain, false, options.seconds, 0);
    account(phase);
    report.Set("setup_s", setup_s, "s");
    QueryEndToEnd(phase.client, phase.elapsed_s, true, &report);
    report.Set("disk_reads_per_query", reads_per_query, "count");
    report.Set("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    Phase untraced = Measure(in, plain, false, options.seconds / 2, 0);
    account(untraced);
    Tracer tracer;
    Tracer::Activate(&tracer);
    Phase phase = Measure(in, plain, true, options.seconds / 2, 1ull << 40);
    Tracer::Activate(nullptr);
    account(phase);
    const double queries = static_cast<double>(phase.client.queries);
    const TraceTotals totals = tracer.Totals();
    LayerMetrics layers;
    QueryLayerMetrics(totals, /*service=*/false, &layers, &report);
    const double empty_span_ns = Tracer::EmptySpanNs();
    report.Info("trace.empty_span_ns", empty_span_ns, "ns");
    CoreLayerMetrics(totals, empty_span_ns, &layers);
    layers.Set("core.hit_rate", phase.buffer.HitRate());
    layers.Set("core.evictions_per_query",
               static_cast<double>(phase.buffer.evictions) / queries);
    layers.Set("storage.reads_per_query",
               static_cast<double>(phase.disk_reads) / queries);
    TraceOverhead(untraced.client, untraced.elapsed_s, phase.client,
                  phase.elapsed_s, &layers);
    layers.EmitTo(&report);
    QueryEndToEnd(untraced.client, untraced.elapsed_s, false, &report);
    WriteSpans(tracer, options, &report);
  }
  report.Print(stdout);
  return 0;
}

}  // namespace perfbench
