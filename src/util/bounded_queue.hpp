// Bounded multi-producer / multi-consumer FIFO queue.
//
// The service's submission queue: push() blocks while the queue is full
// (backpressure), try_push() never waits, pop() blocks while it is
// empty. Failure is non-destructive: a push that does not accept the
// item leaves the caller's value untouched (the move happens only on
// the commit path). close() never drops accepted work: pops drain what
// was accepted, then return nullopt.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "util/expects.hpp"

namespace veritas::util {

template <typename T>
class BoundedQueue {
 public:
  /// Requires capacity >= 1.
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {
    VERITAS_EXPECTS(capacity >= 1);
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  std::size_t capacity() const noexcept { return capacity_; }

  std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  /// Blocks while full. False (value untouched) once the queue is closed.
  bool push(T&& value) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      not_full_.wait(lock,
                     [this] { return closed_ || items_.size() < capacity_; });
      if (closed_) return false;
      items_.push_back(std::move(value));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Never waits. False (value untouched) when full or closed.
  bool try_push(T&& value) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(value));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks while empty; oldest first. nullopt once closed AND drained.
  std::optional<T> pop() {
    std::optional<T> value;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      not_empty_.wait(lock, [this] { return closed_ || !items_.empty(); });
      if (items_.empty()) return std::nullopt;
      value.emplace(std::move(items_.front()));
      items_.pop_front();
    }
    not_full_.notify_one();
    return value;
  }

  /// Closes the queue: pushes fail, pops drain then return nullopt.
  void close() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace veritas::util
