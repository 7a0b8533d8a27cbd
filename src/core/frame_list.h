#ifndef SPATIALBUFFER_CORE_FRAME_LIST_H_
#define SPATIALBUFFER_CORE_FRAME_LIST_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/macros.h"

namespace sdb::core {

/// Index of a buffer frame.
using FrameId = uint32_t;

inline constexpr FrameId kInvalidFrameId = 0xffffffffu;

/// Intrusive doubly-linked list over frame ids, with O(1) link-at-tail,
/// unlink and move-to-tail. Each frame is in the list at most once; the
/// links live in per-frame arrays, so the list allocates only at Reset.
/// Policies keep frames in recency order with it: linking or moving a frame
/// to the tail whenever it is referenced leaves the least recently used
/// frame at the head.
class FrameList {
 public:
  /// Empties the list and sizes it for frame ids below `frame_count`.
  void Reset(size_t frame_count) {
    nodes_.assign(frame_count, Node{});
    head_ = tail_ = kInvalidFrameId;
    size_ = 0;
  }

  size_t size() const { return size_; }
  bool contains(FrameId f) const { return nodes_[f].prev != kUnlinked; }

  /// First (oldest) entry, or kInvalidFrameId if empty.
  FrameId head() const { return head_; }
  /// Entry after `f`, or kInvalidFrameId at the tail.
  FrameId next(FrameId f) const { return nodes_[f].next; }

  void LinkTail(FrameId f) {
    SDB_DCHECK(!contains(f));
    nodes_[f] = Node{tail_, kInvalidFrameId};
    if (tail_ == kInvalidFrameId) {
      head_ = f;
    } else {
      nodes_[tail_].next = f;
    }
    tail_ = f;
    ++size_;
  }

  void Unlink(FrameId f) {
    SDB_DCHECK(contains(f));
    const Node node = nodes_[f];
    if (node.prev == kInvalidFrameId) {
      head_ = node.next;
    } else {
      nodes_[node.prev].next = node.next;
    }
    if (node.next == kInvalidFrameId) {
      tail_ = node.prev;
    } else {
      nodes_[node.next].prev = node.prev;
    }
    nodes_[f] = Node{};
    --size_;
  }

  void MoveToTail(FrameId f) {
    if (f == tail_) return;
    Unlink(f);
    LinkTail(f);
  }

 private:
  /// `prev` of a frame that is not in the list.
  static constexpr FrameId kUnlinked = kInvalidFrameId - 1;

  struct Node {
    FrameId prev = kUnlinked;
    FrameId next = kInvalidFrameId;
  };

  std::vector<Node> nodes_;
  FrameId head_ = kInvalidFrameId;
  FrameId tail_ = kInvalidFrameId;
  size_t size_ = 0;
};

}  // namespace sdb::core

#endif  // SPATIALBUFFER_CORE_FRAME_LIST_H_
