#ifndef PERFBENCH_LIB_DECORATORS_H_
#define PERFBENCH_LIB_DECORATORS_H_

// Timing decorators around the three layer interfaces the benchmark sees
// from outside: core::PageSource, storage::PageDevice and
// core::ReplacementPolicy. Each forwards every call unchanged to the object
// it wraps and opens one span (trace.h) around it, so attaching them must
// change no decision of the layers below; the evict_replay workload checks
// exactly that on every run.

#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "core/buffer_manager.h"
#include "core/replacement_policy.h"
#include "lib/trace.h"
#include "storage/disk_manager.h"

namespace perfbench {

/// Times Fetch / FetchBatch / New of a BufferManager or BufferService and
/// counts the pages requested. Handle releases go straight from the handle
/// to the wrapped buffer, so unpin work is not inside these spans.
class TimedPageSource final : public sdb::core::PageSource {
 public:
  explicit TimedPageSource(sdb::core::PageSource* inner) : inner_(inner) {}

  sdb::core::StatusOr<sdb::core::PageHandle> Fetch(
      sdb::storage::PageId page, const sdb::core::AccessContext& ctx) override {
    ScopedSpan span(Span::kFetch);
    Tracer::Count(Counter::kPagesFetched, 1);
    return inner_->Fetch(page, ctx);
  }
  void FetchBatch(
      std::span<const sdb::storage::PageId> pages,
      const sdb::core::AccessContext& ctx,
      std::vector<sdb::core::StatusOr<sdb::core::PageHandle>>* out) override {
    ScopedSpan span(Span::kFetchBatch);
    Tracer::Count(Counter::kPagesFetched, pages.size());
    inner_->FetchBatch(pages, ctx, out);
  }
  bool PrefersBatchedReads() const override {
    return inner_->PrefersBatchedReads();
  }
  size_t BatchPinBudget() const override { return inner_->BatchPinBudget(); }
  sdb::core::StatusOr<sdb::core::PageHandle> New(
      const sdb::core::AccessContext& ctx) override {
    ScopedSpan span(Span::kNew);
    return inner_->New(ctx);
  }
  std::span<const std::byte> Peek(sdb::storage::PageId page) const override {
    return inner_->Peek(page);
  }

 private:
  sdb::core::PageSource* inner_;
};

/// Times Read / Write / Sync of a page device.
class TimedDevice final : public sdb::storage::PageDevice {
 public:
  explicit TimedDevice(sdb::storage::PageDevice* inner) : inner_(inner) {}

  size_t page_size() const override { return inner_->page_size(); }
  sdb::core::StatusOr<sdb::storage::PageId> Allocate() override {
    return inner_->Allocate();
  }
  sdb::core::Status Read(sdb::storage::PageId id,
                         std::span<std::byte> out) override {
    ScopedSpan span(Span::kDevRead);
    return inner_->Read(id, out);
  }
  sdb::core::Status Write(sdb::storage::PageId id,
                          std::span<const std::byte> in) override {
    ScopedSpan span(Span::kDevWrite);
    return inner_->Write(id, in);
  }
  bool SupportsConcurrentWrites() const override {
    return inner_->SupportsConcurrentWrites();
  }
  sdb::core::Status WriteConcurrent(sdb::storage::PageId id,
                                    std::span<const std::byte> in) override {
    ScopedSpan span(Span::kDevWrite);
    return inner_->WriteConcurrent(id, in);
  }
  sdb::core::Status Sync() override {
    ScopedSpan span(Span::kDevSync);
    return inner_->Sync();
  }
  size_t page_count() const override { return inner_->page_count(); }
  std::optional<uint32_t> PageChecksum(
      sdb::storage::PageId id) const override {
    return inner_->PageChecksum(id);
  }
  const sdb::storage::IoStats& stats() const override {
    return inner_->stats();
  }
  void ResetStats() override { inner_->ResetStats(); }

 private:
  sdb::storage::PageDevice* inner_;
};

/// Times each replacement-policy hook separately: the cost of a policy may
/// sit in its load bookkeeping rather than in victim selection.
class TimedPolicy final : public sdb::core::ReplacementPolicy {
 public:
  explicit TimedPolicy(std::unique_ptr<sdb::core::ReplacementPolicy> inner)
      : inner_(std::move(inner)) {}

  std::string_view name() const override { return inner_->name(); }
  void Bind(const sdb::core::FrameMetaSource* meta,
            size_t frame_count) override {
    inner_->Bind(meta, frame_count);
  }
  void SetCollector(sdb::obs::Collector* collector) override {
    inner_->SetCollector(collector);
  }
  void OnPageLoaded(sdb::core::FrameId frame, sdb::storage::PageId page,
                    const sdb::core::AccessContext& ctx) override {
    ScopedSpan span(Span::kPolicyOnLoad);
    inner_->OnPageLoaded(frame, page, ctx);
  }
  void OnPageAccessed(sdb::core::FrameId frame,
                      const sdb::core::AccessContext& ctx) override {
    ScopedSpan span(Span::kPolicyOnAccess);
    inner_->OnPageAccessed(frame, ctx);
  }
  void SetEvictable(sdb::core::FrameId frame, bool evictable) override {
    ScopedSpan span(Span::kPolicySetEvictable);
    inner_->SetEvictable(frame, evictable);
  }
  std::optional<sdb::core::FrameId> ChooseVictim(
      const sdb::core::AccessContext& ctx,
      sdb::storage::PageId incoming) override {
    ScopedSpan span(Span::kPolicyChooseVictim);
    return inner_->ChooseVictim(ctx, incoming);
  }
  void OnPageEvicted(sdb::core::FrameId frame,
                     sdb::storage::PageId page) override {
    ScopedSpan span(Span::kPolicyOnEvict);
    inner_->OnPageEvicted(frame, page);
  }

 private:
  std::unique_ptr<sdb::core::ReplacementPolicy> inner_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LIB_DECORATORS_H_
