#ifndef SPATIALBUFFER_TESTS_SVC_REFERENCE_H_
#define SPATIALBUFFER_TESTS_SVC_REFERENCE_H_

#include <memory>
#include <utility>
#include <vector>

#include "core/asb_shared.h"
#include "core/buffer_manager.h"
#include "core/policy_asb.h"
#include "core/policy_factory.h"
#include "storage/disk_manager.h"
#include "storage/disk_view.h"
#include "svc/buffer_service.h"

namespace sdb::test {

/// Serial reference model of a read-only svc::BufferService: one private
/// BufferManager per shard (no latch: nothing is served optimistically and
/// every policy event is applied inline) with the service's frame split and
/// policy, reading through its own view of the same disk; ASB shards share
/// one AsbSharedTuning exactly as the service's do. Fed the service's access
/// stream in the same order, it must report the service's
/// hit/miss/eviction/read counts exactly — the optimistic protocol's promise
/// that serial execution is bit-identical to a plain single-threaded buffer.
class PrivateShardReference {
 public:
  PrivateShardReference(const storage::DiskManager& disk,
                        const svc::BufferService& service)
      : service_(&service) {
    for (size_t s = 0; s < service.shard_count(); ++s) {
      std::unique_ptr<core::ReplacementPolicy> policy =
          core::CreatePolicy(service.policy_spec());
      if (service.shared_tuning() != nullptr) {
        if (auto* asb = dynamic_cast<core::AsbPolicy*>(policy.get())) {
          asb->set_shared_tuning(&tuning_);
        }
      }
      views_.push_back(std::make_unique<storage::ReadOnlyDiskView>(disk));
      buffers_.push_back(std::make_unique<core::BufferManager>(
          views_.back().get(), service.ShardFrames(s), std::move(policy)));
    }
  }

  /// Fetches `page` from the shard the service routes it to.
  core::PageHandle Fetch(storage::PageId page, const core::AccessContext& ctx) {
    return buffers_[service_->ShardOf(page)]->FetchOrDie(page, ctx);
  }

  /// Shard-summed counters, in the service's stats shape.
  svc::ShardStats Stats() const {
    svc::ShardStats total;
    for (size_t s = 0; s < buffers_.size(); ++s) {
      const core::BufferStats& one = buffers_[s]->stats();
      total.buffer.requests += one.requests;
      total.buffer.hits += one.hits;
      total.buffer.misses += one.misses;
      total.buffer.evictions += one.evictions;
      total.io.reads += views_[s]->stats().reads;
    }
    return total;
  }

 private:
  const svc::BufferService* service_;
  core::AsbSharedTuning tuning_;
  std::vector<std::unique_ptr<storage::ReadOnlyDiskView>> views_;
  std::vector<std::unique_ptr<core::BufferManager>> buffers_;
};

}  // namespace sdb::test

#endif  // SPATIALBUFFER_TESTS_SVC_REFERENCE_H_
