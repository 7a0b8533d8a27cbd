#include "lib/trace.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

namespace {

std::atomic<Tracer*> g_active{nullptr};
std::atomic<uint64_t> g_next_tracer_id{1};

constexpr size_t kMaxDepth = 16;

}  // namespace

struct Tracer::ThreadState {
  struct Open {
    Span span = Span::kQuery;
    int64_t start_ns = 0;
    uint64_t child_ns = 0;
    uint64_t id = 0;  // nonzero only inside a sampled root
  };

  uint32_t index = 0;
  std::array<Open, kMaxDepth> stack{};
  size_t depth = 0;
  Span root_kind = Span::kQuery;
  bool sampled = false;
  uint64_t root_id = 0;
  uint64_t roots_seen = 0;
  uint64_t next_id = 0;
  TraceTotals totals;
  std::vector<SpanRecord> records;
};

namespace {

// The calling thread's state and the id of the recorder that owns it. Ids
// are never recycled, so a state of a destroyed recorder is never reused.
thread_local Tracer::ThreadState* t_state = nullptr;
thread_local uint64_t t_tracer_id = 0;

}  // namespace

const char* SpanName(Span span) {
  switch (span) {
    case Span::kQuery: return "query";
    case Span::kWriteOp: return "write_op";
    case Span::kCommit: return "commit";
    case Span::kCheckpoint: return "checkpoint";
    case Span::kRecover: return "recover";
    case Span::kFetch: return "source.fetch";
    case Span::kFetchBatch: return "source.fetch_batch";
    case Span::kNew: return "source.new";
    case Span::kDevRead: return "device.read";
    case Span::kDevWrite: return "device.write";
    case Span::kDevSync: return "device.sync";
    case Span::kPolicyOnLoad: return "policy.on_load";
    case Span::kPolicyOnAccess: return "policy.on_access";
    case Span::kPolicySetEvictable: return "policy.set_evictable";
    case Span::kPolicyChooseVictim: return "policy.choose_victim";
    case Span::kPolicyOnEvict: return "policy.on_evict";
    case Span::kCount: break;
  }
  return "unknown";
}

SpanTotals TraceTotals::Sum(Span span) const {
  SpanTotals sum;
  for (const auto& row : by_root) {
    const SpanTotals& t = row[static_cast<size_t>(span)];
    sum.count += t.count;
    sum.total_ns += t.total_ns;
    sum.self_ns += t.self_ns;
  }
  return sum;
}

uint64_t TraceTotals::SelfSumUnder(Span root) const {
  uint64_t sum = 0;
  for (const SpanTotals& t : by_root[static_cast<size_t>(root)]) {
    sum += t.self_ns;
  }
  return sum;
}

Tracer::Tracer(uint32_t sample_every, size_t max_records_per_thread)
    : id_(g_next_tracer_id.fetch_add(1)),
      sample_every_(sample_every == 0 ? 1 : sample_every),
      max_records_(max_records_per_thread) {}

Tracer::~Tracer() {
  Tracer* self = this;
  g_active.compare_exchange_strong(self, nullptr);
}

void Tracer::Activate(Tracer* tracer) { g_active.store(tracer); }

Tracer* Tracer::active() { return g_active.load(std::memory_order_relaxed); }

Tracer::ThreadState* Tracer::StateForThisThread() {
  auto state = std::make_unique<ThreadState>();
  std::lock_guard<std::mutex> lock(mu_);
  state->index = static_cast<uint32_t>(threads_.size());
  state->next_id = (static_cast<uint64_t>(state->index) << 40) + 1;
  threads_.push_back(std::move(state));
  return threads_.back().get();
}

void Tracer::Begin(Span span) {
  Tracer* tracer = active();
  if (tracer == nullptr) return;
  ThreadState* state = t_state;
  if (state == nullptr || t_tracer_id != tracer->id_) {
    state = tracer->StateForThisThread();
    t_state = state;
    t_tracer_id = tracer->id_;
  }
  if (state->depth == kMaxDepth) {
    std::fprintf(stderr, "perfbench: span nesting deeper than %zu\n",
                 kMaxDepth);
    std::abort();
  }
  if (state->depth == 0) {
    state->root_kind = span;
    state->sampled = state->roots_seen++ % tracer->sample_every_ == 0 &&
                     state->records.size() < tracer->max_records_;
    state->root_id = state->sampled ? state->next_id : 0;
  }
  ThreadState::Open& open = state->stack[state->depth++];
  open.span = span;
  open.child_ns = 0;
  open.id = state->sampled ? state->next_id++ : 0;
  open.start_ns = NowNs();
}

void Tracer::End() {
  const int64_t end_ns = NowNs();
  ThreadState* state = t_state;
  if (state == nullptr || state->depth == 0) return;
  const ThreadState::Open open = state->stack[--state->depth];
  const uint64_t duration = static_cast<uint64_t>(end_ns - open.start_ns);
  SpanTotals& totals =
      state->totals.by_root[static_cast<size_t>(state->root_kind)]
                           [static_cast<size_t>(open.span)];
  ++totals.count;
  totals.total_ns += duration;
  totals.self_ns += duration - open.child_ns;
  uint64_t parent_id = 0;
  if (state->depth > 0) {
    ThreadState::Open& parent = state->stack[state->depth - 1];
    parent.child_ns += duration;
    parent_id = parent.id;
    if (state->depth == 1) {
      state->totals
          .root_covered_ns[static_cast<size_t>(state->root_kind)] += duration;
    }
  }
  if (state->sampled) {
    state->records.push_back(SpanRecord{open.id, parent_id, state->root_id,
                                        state->index, open.span,
                                        open.start_ns, end_ns});
  }
}

void Tracer::Count(Counter counter, uint64_t n) {
  // The id check keeps a state left behind by a destroyed recorder unused.
  const Tracer* tracer = active();
  ThreadState* state = t_state;
  if (tracer == nullptr || state == nullptr || t_tracer_id != tracer->id_ ||
      state->depth == 0) {
    return;
  }
  state->totals.counters[static_cast<size_t>(state->root_kind)]
                        [static_cast<size_t>(counter)] += n;
}

double Tracer::EmptySpanNs() {
  Tracer probe(/*sample_every=*/1u << 31, /*max_records_per_thread=*/0);
  Tracer* const previous = active();
  Activate(&probe);
  for (int i = 0; i < 200000; ++i) {
    ScopedSpan root(Span::kQuery);
    ScopedSpan empty(Span::kFetch);
  }
  Activate(previous);
  const TraceTotals totals = probe.Totals();
  const SpanTotals& empty = totals.Get(Span::kQuery, Span::kFetch);
  return static_cast<double>(empty.total_ns) /
         static_cast<double>(empty.count);
}

TraceTotals Tracer::Totals() const {
  TraceTotals sum;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& state : threads_) {
    for (size_t r = 0; r < kSpanKinds; ++r) {
      for (size_t s = 0; s < kSpanKinds; ++s) {
        const SpanTotals& t = state->totals.by_root[r][s];
        sum.by_root[r][s].count += t.count;
        sum.by_root[r][s].total_ns += t.total_ns;
        sum.by_root[r][s].self_ns += t.self_ns;
      }
      for (size_t c = 0; c < kCounterKinds; ++c) {
        sum.counters[r][c] += state->totals.counters[r][c];
      }
      sum.root_covered_ns[r] += state->totals.root_covered_ns[r];
    }
  }
  return sum;
}

std::vector<SpanRecord> Tracer::Records() const {
  std::vector<SpanRecord> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& state : threads_) {
    out.insert(out.end(), state->records.begin(), state->records.end());
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (const SpanRecord& r : Records()) {
    std::fprintf(file,
                 "{\"id\":%llu,\"parent\":%llu,\"root\":%llu,\"thread\":%u,"
                 "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent),
                 static_cast<unsigned long long>(r.root), r.thread,
                 SpanName(r.span), static_cast<long long>(r.start_ns),
                 static_cast<long long>(r.end_ns));
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench
