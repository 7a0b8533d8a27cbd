#include "obs/trace.h"

#include <algorithm>

#include "obs/export.h"

namespace sdb::obs {

Tracer::Tracer(const TracerOptions& options)
    : sample_every_(options.sample_every),
      epoch_(std::chrono::steady_clock::now()),
      ring_(options.event_capacity) {}

uint64_t Tracer::NowNs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void Tracer::Emit(const Event& event) {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.Push(event);
}

std::vector<Event> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.Snapshot();
}

uint64_t Tracer::total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.total();
}

uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.dropped();
}

namespace {

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kSession:
      return "session";
    case SpanKind::kQuery:
      return "query";
    case SpanKind::kShardFetch:
      return "shard_fetch";
    case SpanKind::kWalAppend:
      return "wal_append";
    case SpanKind::kCheckpoint:
      return "checkpoint";
    case SpanKind::kRecovery:
      return "recovery";
    case SpanKind::kFlush:
      return "flush";
  }
  return "span";
}

}  // namespace

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::vector<Event> spans = Spans();
  // Oldest-first by begin time keeps the renderer's nesting stable even
  // though spans are ring-ordered by *end* time.
  std::stable_sort(spans.begin(), spans.end(),
                   [](const Event& l, const Event& r) { return l.b < r.b; });
  ChromeTraceWriter writer;
  std::vector<uint32_t> tracks;
  for (const Event& span : spans) {
    if (span.kind != EventKind::kSpan) continue;
    const uint32_t track = SpanTrackOf(span);
    if (std::find(tracks.begin(), tracks.end(), track) == tracks.end()) {
      tracks.push_back(track);
      writer.SetThreadName(track, "session " + std::to_string(track));
    }
    std::string name = SpanName(SpanKindOf(span));
    name += " #";
    name += std::to_string(span.query);
    name += ".";
    name += std::to_string(SpanIdOf(span));
    writer.AddCompleteEventNs(name, track, span.b, span.c, "trace");
  }
  return writer.Write(path);
}

void ScopedSpan::Begin(SpanContext* span, SpanKind kind) {
  span_ = span;
  kind_ = kind;
  id_ = span->NewSpanId();
  saved_parent_ = span->parent;
  span->parent = id_;
  begin_ns_ = span->tracer->NowNs();
}

void ScopedSpan::End() {
  const uint64_t end_ns = span_->tracer->NowNs();
  Event event;
  event.kind = EventKind::kSpan;
  event.delta = static_cast<int8_t>(kind_);
  event.flag = flag_;
  event.frame = (static_cast<uint32_t>(saved_parent_) << 16) |
                static_cast<uint32_t>(id_);
  event.query = span_->trace_id;
  event.page = page_;
  event.a = (static_cast<uint64_t>(span_->track) << 32) |
            (payload_ & 0xffffffffull);
  event.b = begin_ns_;
  event.c = end_ns - begin_ns_;
  span_->parent = saved_parent_;
  span_->tracer->Emit(event);
  span_ = nullptr;
}

}  // namespace sdb::obs
