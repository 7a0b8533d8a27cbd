#ifndef SPATIALBUFFER_OBS_TRACE_H_
#define SPATIALBUFFER_OBS_TRACE_H_

#include <cstdint>
#include <span>
#include <string>

#include "obs/events.h"
#include "obs/metrics.h"

namespace sdb::obs {

/// What a span measures. The values nest: a kQuery span is the root of one
/// trace and kShardFetch spans are its children (one per service fetch or
/// per-shard batch group). kSession spans are one-per-session roots
/// of their own trace (trace id = the session's query-id stride base), so a
/// session's sampled queries nest inside it by time containment on the
/// session's track. Values 3-8 are retired kinds that no site emitted.
enum class SpanKind : int8_t {
  kSession = 0,
  kQuery = 1,
  kShardFetch = 2,
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

/// Tracing context of one sampled trace (a query, or the enclosing
/// session). Owned by the worker thread executing that trace and threaded
/// through every layer via core::AccessContext::span, so span emission
/// needs no allocation, no lock and no thread-local state: spans land in
/// `sink`, a ring owned by the same thread. A null pointer marks the
/// (overwhelmingly common) detached request.
struct SpanContext {
  EventRing* sink = nullptr;
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
/// its scope, and pushes one kSpan event into the context's sink on
/// destruction (children therefore precede their parent in the ring).
/// Timestamps are steady-clock nanoseconds. A null context or sink (or
/// SDB_OBS=OFF) makes construction and destruction a single compare.
class ScopedSpan {
 public:
  ScopedSpan(SpanContext* span, SpanKind kind) {
    if constexpr (kEnabled) {
      if (span != nullptr && span->sink != nullptr) Begin(span, kind);
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

/// Renders kSpan events as a Chrome trace_event JSON timeline
/// (chrome://tracing, ui.perfetto.dev): one track per span track
/// (= session), spans nested by time containment, timestamps rebased to
/// the earliest span so spans gathered from several rings share one
/// timeline. Other event kinds are skipped. Returns false on I/O failure.
bool WriteChromeTrace(const std::string& path, std::span<const Event> spans);

}  // namespace sdb::obs

#endif  // SPATIALBUFFER_OBS_TRACE_H_
