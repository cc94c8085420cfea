// Bounded multi-producer, single-consumer queue.
//
// The hand-off between many producer threads and one consumer thread (the
// serving front end's client threads and one worker shard). The bound is
// admission control: try_push refuses an item instead of blocking, so the
// producer can shed it. close() ends the stream; the consumer still drains
// everything queued before it, in FIFO order.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "support/error.hpp"

namespace exareq {

template <typename T>
class BoundedMpscQueue {
 public:
  explicit BoundedMpscQueue(std::size_t capacity) : capacity_(capacity) {
    require(capacity >= 1, "BoundedMpscQueue: capacity must be >= 1");
  }

  BoundedMpscQueue(const BoundedMpscQueue&) = delete;
  BoundedMpscQueue& operator=(const BoundedMpscQueue&) = delete;

  /// Enqueues `item` unless the queue is full or closed; false means the
  /// item was not taken (it is left unchanged).
  bool try_push(T& item) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    available_.notify_one();
    return true;
  }

  /// Blocks until an item is queued and removes it; returns nothing once
  /// the queue is closed and drained.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    available_.wait(lock, [this] { return !items_.empty() || closed_; });
    if (items_.empty()) return std::nullopt;
    std::optional<T> item(std::move(items_.front()));
    items_.pop_front();
    return item;
  }

  /// Refuses further pushes and wakes the consumer once the queue drains.
  void close() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    available_.notify_all();
  }

  /// Items currently queued.
  std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable available_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace exareq
