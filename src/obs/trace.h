#ifndef SPATIALBUFFER_OBS_TRACE_H_
#define SPATIALBUFFER_OBS_TRACE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/events.h"
#include "obs/metrics.h"

namespace sdb::obs {

/// What a span measures. The values nest: a kQuery span is the root of one
/// trace and kShardFetch spans are its children (one per service fetch or
/// per-shard batch group). kSession spans are one-per-session roots
/// of their own trace (trace id = the session's query-id stride base), so a
/// session's sampled queries nest inside it by time containment on the
/// session's track.
enum class SpanKind : int8_t {
  kSession = 0,
  kQuery = 1,
  kShardFetch = 2,
  // 3 and 4 are retired: the kinds below keep their numbers so traces
  // written earlier decode unchanged.
  /// One WAL commit group (payload = image count, flag = forced steal).
  kWalAppend = 5,
  /// Checkpoint: commit + force dirty pages + checkpoint record.
  kCheckpoint = 6,
  /// Redo recovery pass (payload = replayed pages, flag = torn tail).
  kRecovery = 7,
  /// One background flusher round over a shard (payload = pages flushed,
  /// flag = harvest hit the per-round batch cap).
  kFlush = 8,
};

/// Field packing of a kSpan event (see EventKind::kSpan):
///   query = trace id, frame = parent span id << 16 | span id,
///   a = track << 32 | kind payload, b = begin ns, c = duration ns.
inline uint16_t SpanIdOf(const Event& event) {
  return static_cast<uint16_t>(event.frame & 0xffffu);
}
inline uint16_t SpanParentOf(const Event& event) {
  return static_cast<uint16_t>(event.frame >> 16);
}
inline uint32_t SpanTrackOf(const Event& event) {
  return static_cast<uint32_t>(event.a >> 32);
}
inline uint64_t SpanPayloadOf(const Event& event) {
  return event.a & 0xffffffffull;
}
inline SpanKind SpanKindOf(const Event& event) {
  return static_cast<SpanKind>(event.delta);
}

/// Construction knobs of a Tracer.
struct TracerOptions {
  /// Sample one query trace in every `sample_every` (a trace id is sampled
  /// iff id % sample_every == 0, so the choice is deterministic per query
  /// id, not per run). 0 disables query sampling entirely; 1 samples every
  /// query.
  uint64_t sample_every = 1;
  /// Span-ring capacity (EventRing semantics: keep the newest, count the
  /// rest in dropped()).
  size_t event_capacity = size_t{1} << 16;
};

/// Thread-safe sink of kSpan events. One tracer serves every session worker
/// of an executor run: emission takes a mutex, which is acceptable because
/// only sampled queries (1-in-N) ever reach it — detached call sites (a
/// null SpanContext) cost one pointer compare and never touch the tracer.
/// Timestamps are steady-clock nanoseconds since the tracer's construction.
class Tracer {
 public:
  explicit Tracer(const TracerOptions& options = {});

  bool ShouldSample(uint64_t trace_id) const {
    return sample_every_ != 0 && trace_id % sample_every_ == 0;
  }
  uint64_t sample_every() const { return sample_every_; }

  /// Nanoseconds since the tracer's epoch.
  uint64_t NowNs() const;

  void Emit(const Event& event);

  /// Retained span events, oldest first.
  std::vector<Event> Spans() const;
  uint64_t total() const;
  uint64_t dropped() const;

  /// Renders the retained spans as a Chrome trace_event JSON timeline
  /// (chrome://tracing, ui.perfetto.dev): one track per span track
  /// (= session), spans nested by time containment. Returns false on I/O
  /// failure.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  const uint64_t sample_every_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  EventRing ring_;
};

/// Tracing context of one sampled trace (a query, or the enclosing
/// session). Owned by the worker thread executing that trace and threaded
/// through every layer via core::AccessContext::span, so span emission
/// needs no allocation and no thread-local state: a null pointer marks the
/// (overwhelmingly common) detached request.
struct SpanContext {
  Tracer* tracer = nullptr;
  uint64_t trace_id = 0;
  /// Renderer track (the session's logical index).
  uint32_t track = 0;
  /// Innermost open span (0 = root level); maintained by ScopedSpan.
  uint16_t parent = 0;
  /// Next span id to mint; ids are a small per-trace sequence, so parent
  /// links survive the 16-bit packing. Wraps after 65535 spans per trace.
  uint16_t next_id = 1;

  uint16_t NewSpanId() { return next_id++; }
};

/// RAII span: mints an id, re-parents the context for spans opened inside
/// its scope, and emits one kSpan event on destruction. A null context (or
/// SDB_OBS=OFF) makes construction and destruction a single compare.
class ScopedSpan {
 public:
  ScopedSpan(SpanContext* span, SpanKind kind) {
    if constexpr (kEnabled) {
      if (span != nullptr && span->tracer != nullptr) Begin(span, kind);
    }
  }
  ~ScopedSpan() {
    if constexpr (kEnabled) {
      if (span_ != nullptr) End();
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_page(uint64_t page) {
    if (span_ != nullptr) page_ = page;
  }
  void set_payload(uint64_t payload) {
    if (span_ != nullptr) payload_ = payload;
  }
  void set_flag(bool flag) {
    if (span_ != nullptr) flag_ = flag;
  }
  bool armed() const { return span_ != nullptr; }

 private:
  void Begin(SpanContext* span, SpanKind kind);
  void End();

  SpanContext* span_ = nullptr;
  SpanKind kind_ = SpanKind::kQuery;
  uint16_t id_ = 0;
  uint16_t saved_parent_ = 0;
  uint64_t begin_ns_ = 0;
  uint64_t page_ = 0;
  uint64_t payload_ = 0;
  bool flag_ = false;
};

}  // namespace sdb::obs

#endif  // SPATIALBUFFER_OBS_TRACE_H_
