#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "obs/export.h"

namespace sdb::obs {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kSession:
      return "session";
    case SpanKind::kQuery:
      return "query";
    case SpanKind::kShardFetch:
      return "shard_fetch";
  }
  return "span";
}

}  // namespace

bool WriteChromeTrace(const std::string& path, std::span<const Event> spans) {
  std::vector<Event> sorted;
  for (const Event& span : spans) {
    if (span.kind == EventKind::kSpan) sorted.push_back(span);
  }
  // Oldest-first by begin time keeps the renderer's nesting stable even
  // though each ring holds its spans in *end* order.
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Event& l, const Event& r) { return l.b < r.b; });
  const uint64_t origin = sorted.empty() ? 0 : sorted.front().b;
  ChromeTraceWriter writer;
  std::vector<uint32_t> tracks;
  for (const Event& span : sorted) {
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
    writer.AddCompleteEventNs(name, track, span.b - origin, span.c, "trace");
  }
  return writer.Write(path);
}

void ScopedSpan::Begin(SpanContext* span, SpanKind kind) {
  span_ = span;
  kind_ = kind;
  id_ = span->NewSpanId();
  saved_parent_ = span->parent;
  span->parent = id_;
  begin_ns_ = NowNs();
}

void ScopedSpan::End() {
  const uint64_t end_ns = NowNs();
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
  span_->sink->Push(event);
  span_ = nullptr;
}

}  // namespace sdb::obs
