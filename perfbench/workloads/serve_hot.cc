// serve_hot: three closed-loop client threads, each replaying its own
// browsing sessions through its own RTree::Open view of one read-only,
// sharded svc::BufferService (ASB, default optimistic latching and async
// reads). The buffer (4096 frames) holds the whole tree, so after the
// warm-up pass nearly every fetch is a hit: service lookup and latching
// plus R-tree traversal dominate, while victim selection and device reads
// barely run. This is the control on which a gain for evict_replay must
// show no change.

#include <chrono>
#include <cstdio>
#include <thread>

#include "svc/buffer_service.h"
#include "workloads/common.h"

namespace perfbench {

namespace {

constexpr double kScale = 0.5;  // ~3.3k tree pages: fits the buffer
constexpr size_t kFrames = 4096;
constexpr size_t kShards = 4;
// One core fewer than the 4-core machine the benchmark was tuned on: with a
// client on every core, any time the host takes a core away stalls a client
// mid-query, which halved throughput and multiplied the p99 in some runs.
constexpr size_t kClients = 3;

struct Inputs {
  sdb::sim::Scenario scenario;
  // Per client: its sessions, and the same queries back to back.
  std::vector<std::vector<sdb::workload::QuerySet>> sessions;
  std::vector<sdb::workload::QuerySet> queries;
};

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  in.scenario = BuildDatabase(kScale);
  for (size_t c = 0; c < kClients; ++c) {
    in.sessions.push_back(MakeClientSessions(in.scenario.places, seed, c));
    in.queries.push_back(sdb::workload::ConcatQuerySets(in.sessions.back()));
  }
  return in;
}

struct Phase {
  ClientResult merged;
  double elapsed_s = 0.0;
  sdb::svc::ShardStats before;
  sdb::svc::ShardStats after;
};

// Runs every client on its own thread until `deadline` (or for one pass
// over its sessions when `one_pass`).
Phase RunClients(const Inputs& in, sdb::svc::BufferService& service,
                 const std::vector<sdb::rtree::RTree>& trees,
                 const std::vector<PassCounts>& reference,
                 std::chrono::steady_clock::time_point deadline,
                 uint64_t phase_id, bool one_pass) {
  Phase phase;
  phase.before = service.AggregateStats();
  std::vector<ClientResult> results(kClients);
  const auto start = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        results[c] = RunClient(
            trees[c], in.queries[c], reference[c].per_query, start, deadline,
            (phase_id << 48) | (static_cast<uint64_t>(c) << 40),
            one_pass ? in.queries[c].queries.size() : 0);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  phase.elapsed_s = SecondsSince(start);
  phase.after = service.AggregateStats();
  phase.merged = MergeClients(&results);
  return phase;
}

}  // namespace

int RunServeHot(const RunOptions& options) {
  Report report;
  Inputs in;
  const double setup_s = TimedSetup<Inputs>(
      [&options] { return MakeInputs(options.seed); }, &in);
  const sdb::storage::DiskManager& disk = *in.scenario.disk;
  const sdb::storage::PageId meta = in.scenario.tree_meta;
  report.Info("tree_pages", in.scenario.tree_stats.total_pages(), "count");
  report.Info("buffer_frames", kFrames, "count");

  // Reference: each client's sessions once through a private
  // single-threaded BufferManager of the same size. The service clients
  // must return the same result count for every query. On a traced run the
  // reference replay is also where the policy hooks are timed:
  // BufferService builds its shard policies internally, out of reach of a
  // decorator.
  std::vector<PassCounts> reference;
  Tracer reference_tracer;
  if (options.trace) Tracer::Activate(&reference_tracer);
  for (const std::vector<sdb::workload::QuerySet>& sessions : in.sessions) {
    reference.push_back(ReplaySessions(disk, meta, kFrames, sessions,
                                       /*timed=*/options.trace));
    report.Check(reference.back().io_errors == 0,
                 "reference replay absorbed I/O errors");
  }
  Tracer::Activate(nullptr);

  sdb::svc::BufferServiceConfig config;
  config.total_frames = kFrames;
  config.shard_count = kShards;
  config.policy_spec = "ASB";
  sdb::svc::BufferService service(disk, config);
  std::vector<sdb::rtree::RTree> trees;
  std::vector<std::unique_ptr<TimedPageSource>> timed_sources;
  for (size_t c = 0; c < kClients; ++c) {
    trees.push_back(sdb::rtree::RTree::Open(&disk, &service, meta));
    timed_sources.push_back(std::make_unique<TimedPageSource>(&service));
  }

  const auto account = [&report](const Phase& phase) {
    report.AddAttempted(phase.merged.queries);
    report.AddFailed(phase.merged.wrong_results + phase.merged.io_errors);
    report.Check(phase.merged.wrong_results == 0,
                 "service queries returned wrong result counts");
    report.Check(phase.merged.io_errors == 0,
                 "service queries absorbed I/O errors");
  };
  const auto deadline_in = [](double seconds) {
    return std::chrono::steady_clock::now() +
           std::chrono::duration_cast<std::chrono::steady_clock::duration>(
               std::chrono::duration<double>(seconds));
  };

  // Warm-up: one pass of every client's sessions from the cold buffer;
  // afterwards the tree is resident.
  const Phase warm = RunClients(in, service, trees, reference,
                                std::chrono::steady_clock::time_point::max(),
                                0, /*one_pass=*/true);
  account(warm);

  if (!options.trace) {
    Phase phase = RunClients(in, service, trees, reference,
                             deadline_in(options.seconds), 1, false);
    account(phase);
    report.Set("setup_s", setup_s, "s");
    QueryEndToEnd(phase.merged, phase.elapsed_s, true, &report);
    // The paper's metric, exact: the sessions' cold replays through a
    // private ASB buffer of the service's size (the service's own cold
    // start depends on how the clients interleave).
    report.Set("disk_reads_per_query", ReadsPerQuery(reference), "count");
    report.Set("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    Phase untraced = RunClients(in, service, trees, reference,
                                deadline_in(options.seconds / 2), 1, false);
    account(untraced);
    for (size_t c = 0; c < kClients; ++c) {
      trees[c].set_buffer(timed_sources[c].get());
    }
    Tracer tracer;
    Tracer::Activate(&tracer);
    Phase phase = RunClients(in, service, trees, reference,
                             deadline_in(options.seconds / 2), 2, false);
    Tracer::Activate(nullptr);
    account(phase);

    LayerMetrics layers;
    QueryLayerMetrics(tracer.Totals(), /*service=*/true, &layers, &report);
    const double empty_span_ns = Tracer::EmptySpanNs();
    report.Info("trace.empty_span_ns", empty_span_ns, "ns");
    CoreLayerMetrics(reference_tracer.Totals(), empty_span_ns, &layers);
    ServiceLayerMetrics(phase.before, phase.after,
                        static_cast<double>(phase.merged.queries), &layers);
    TraceOverhead(untraced.merged, untraced.elapsed_s, phase.merged,
                  phase.elapsed_s, &layers);
    layers.EmitTo(&report);
    QueryEndToEnd(untraced.merged, untraced.elapsed_s, false, &report);
    WriteSpans(tracer, options, &report);
  }
  report.Print(stdout);
  return 0;
}

}  // namespace perfbench
