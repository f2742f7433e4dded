// Bounded multi-producer / multi-consumer queue with priority classes.
//
// The service's admission-controlled submission queue: one shared
// capacity across N strict priority classes (0 = most urgent), FIFO
// within a class. Besides blocking push()/pop() it carries the overload
// toolkit:
//
//  * timed admission — push_until() waits for space only up to a
//    deadline, so a submitter's queue wait is bounded by construction;
//  * displacement — push_displacing() never waits: when full it evicts
//    the oldest item of the lowest priority class strictly below the
//    arrival and hands the victim back to the caller (who fails its
//    future as "shed"), so urgent work is admitted in O(1) under
//    overload;
//  * predicate pop — pop_if() delivers the first item (scanning classes
//    urgent-first, FIFO within) an eligibility predicate accepts, which
//    is how per-shard lane quotas skip a saturated shard without
//    reordering anything else; notify_waiters() re-wakes poppers after
//    external eligibility changes (a lane finishing its job).
//
// Failure is non-destructive everywhere: any push that does not accept
// the item leaves the caller's value untouched (moves happen only on
// the commit path). close() never drops accepted work: accepted items
// are always drained (pop_if ignores eligibility once closed, so
// shutdown can never deadlock on a quota), then pops return nullopt.
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "util/expects.hpp"

namespace veritas::util {

/// Outcome of a push attempt. On anything but kAccepted the pushed
/// value is untouched and still owned by the caller.
enum class PushOutcome {
  kAccepted,
  kFull,      ///< no space (and, for push_displacing, no lower victim)
  kTimedOut,  ///< push_until deadline passed while still full
  kClosed,
};

template <typename T, std::size_t NumPriorities = 3>
class BoundedPriorityQueue {
  static_assert(NumPriorities >= 1);

 public:
  /// Requires capacity >= 1 (shared across all priority classes).
  explicit BoundedPriorityQueue(std::size_t capacity) : capacity_(capacity) {
    VERITAS_EXPECTS(capacity >= 1);
  }

  BoundedPriorityQueue(const BoundedPriorityQueue&) = delete;
  BoundedPriorityQueue& operator=(const BoundedPriorityQueue&) = delete;

  std::size_t capacity() const noexcept { return capacity_; }

  std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return size_locked();
  }

  /// Instantaneous per-class depths (index = priority).
  std::array<std::size_t, NumPriorities> depths() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::array<std::size_t, NumPriorities> out{};
    for (std::size_t p = 0; p < NumPriorities; ++p) out[p] = lanes_[p].size();
    return out;
  }

  bool closed() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  /// Blocks while full. Requires priority < NumPriorities.
  PushOutcome push(T&& value, std::size_t priority) {
    return push_until(std::move(value), priority,
                      std::chrono::steady_clock::time_point::max());
  }

  /// Non-blocking push; the value is untouched unless accepted.
  PushOutcome try_push(T&& value, std::size_t priority) {
    VERITAS_EXPECTS(priority < NumPriorities);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return PushOutcome::kClosed;
      if (size_locked() >= capacity_) return PushOutcome::kFull;
      lanes_[priority].push_back(std::move(value));
    }
    not_empty_.notify_one();
    return PushOutcome::kAccepted;
  }

  /// Waits for space until `deadline`; kTimedOut (value untouched) when
  /// the queue is still full then. time_point::max() waits forever.
  PushOutcome push_until(T&& value, std::size_t priority,
                         std::chrono::steady_clock::time_point deadline) {
    VERITAS_EXPECTS(priority < NumPriorities);
    {
      std::unique_lock<std::mutex> lock(mutex_);
      const auto have_room = [this] {
        return closed_ || size_locked() < capacity_;
      };
      if (deadline == std::chrono::steady_clock::time_point::max()) {
        not_full_.wait(lock, have_room);
      } else if (!not_full_.wait_until(lock, deadline, have_room)) {
        return PushOutcome::kTimedOut;
      }
      if (closed_) return PushOutcome::kClosed;
      lanes_[priority].push_back(std::move(value));
    }
    not_empty_.notify_one();
    return PushOutcome::kAccepted;
  }

  /// Admission for urgent work under overload: never waits. When full,
  /// evicts the *oldest* item of the lowest-priority non-empty class
  /// strictly below `priority` (it has waited longest and is the most
  /// likely to be deadline-dead anyway) and returns it through
  /// `displaced` so the caller can resolve its future as shed. kFull
  /// (value untouched, no eviction) when every queued item is at or
  /// above the arrival's priority.
  PushOutcome push_displacing(T&& value, std::size_t priority,
                              std::optional<T>& displaced) {
    VERITAS_EXPECTS(priority < NumPriorities);
    displaced.reset();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return PushOutcome::kClosed;
      if (size_locked() >= capacity_) {
        std::size_t victim = NumPriorities;
        for (std::size_t p = NumPriorities; p-- > priority + 1;) {
          if (!lanes_[p].empty()) {
            victim = p;
            break;
          }
        }
        if (victim == NumPriorities) return PushOutcome::kFull;
        displaced.emplace(std::move(lanes_[victim].front()));
        lanes_[victim].pop_front();
      }
      lanes_[priority].push_back(std::move(value));
    }
    not_empty_.notify_one();
    return PushOutcome::kAccepted;
  }

  /// Blocks while empty; highest priority first, FIFO within a class.
  /// nullopt once closed AND drained.
  std::optional<T> pop() {
    return pop_if([](const T&) { return true; });
  }

  /// Like pop(), but delivers the first item `eligible` accepts
  /// (classes scanned urgent-first, each front-to-back). Blocks while
  /// nothing is eligible — call notify_waiters() when external state
  /// makes queued items eligible again. Once the queue is closed the
  /// predicate is ignored (shutdown drains unconditionally), so a quota
  /// can never deadlock teardown.
  template <typename Eligible>
  std::optional<T> pop_if(const Eligible& eligible) {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      if (closed_) {
        // Drain mode: deliver strictly by priority, predicate ignored.
        for (std::size_t p = 0; p < NumPriorities; ++p) {
          if (!lanes_[p].empty()) return take_locked(p, 0);
        }
        return std::nullopt;
      }
      for (std::size_t p = 0; p < NumPriorities; ++p) {
        for (std::size_t i = 0; i < lanes_[p].size(); ++i) {
          if (eligible(lanes_[p][i])) return take_locked(p, i);
        }
      }
      not_empty_.wait(lock);
    }
  }

  /// Non-blocking pop_if; nullopt when nothing is currently eligible.
  template <typename Eligible>
  std::optional<T> try_pop_if(const Eligible& eligible) {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t p = 0; p < NumPriorities; ++p) {
      for (std::size_t i = 0; i < lanes_[p].size(); ++i) {
        if (closed_ || eligible(lanes_[p][i])) return take_locked(p, i);
      }
    }
    return std::nullopt;
  }

  /// Wakes every blocked pop_if so it re-evaluates its predicate (e.g.
  /// a lane finished and freed a shard-quota slot).
  void notify_waiters() { not_empty_.notify_all(); }

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
  std::size_t size_locked() const {
    std::size_t n = 0;
    for (const auto& lane : lanes_) n += lane.size();
    return n;
  }

  /// Removes and returns lanes_[p][i]; called under mutex_. It notifies
  /// not_full_ with the lock held; every caller drops its lock scope
  /// right after.
  std::optional<T> take_locked(std::size_t p, std::size_t i) {
    T value = std::move(lanes_[p][i]);
    lanes_[p].erase(lanes_[p].begin() + static_cast<std::ptrdiff_t>(i));
    not_full_.notify_one();
    return value;
  }

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::array<std::deque<T>, NumPriorities> lanes_;
  bool closed_ = false;
};

}  // namespace veritas::util
