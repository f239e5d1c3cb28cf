// Bounded single-producer/single-consumer ring queue. The ShardedProbe uses
// two per shard: one carries bursts of frames (and control items) from the
// feeder thread to the shard worker, the other returns drained bursts so
// the feeder can reuse their buffers. The fast path is lock-free — head
// and tail are monotonically increasing counters with acquire/release
// pairing, so a push and its matching pop synchronize without a mutex.
// Blocking push and pop give natural backpressure: when a consumer falls
// behind, its producer stalls instead of growing an unbounded backlog (a
// probe must bound memory, paper §2.1).
//
// The slow (blocking) path parks on a condition variable after a bounded
// spin. Wakeup correctness is the Dekker pattern: the waiter stores its
// waiting flag and THEN re-checks the ring; the notifier updates the ring
// and THEN reads the flag — with seq_cst fences between, at least one side
// must observe the other. The notifier additionally acquires the mutex
// (empty critical section) before notifying, so the notification cannot
// slip between the waiter's re-check and its wait. The mutex and fences
// stay off the uncontended fast path except for one fence per operation.
//
// T must be default-constructible and movable. Exactly one producer thread
// may call push/try_push and exactly one consumer thread pop/try_pop;
// close() may be called from any thread (typically the producer).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

namespace edgewatch::core {

template <typename T>
class SpscQueue {
 public:
  /// Capacity is rounded up to a power of two (minimum 2).
  explicit SpscQueue(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }
  [[nodiscard]] std::size_t size() const noexcept {
    return static_cast<std::size_t>(tail_.load(std::memory_order_acquire) -
                                    head_.load(std::memory_order_acquire));
  }
  [[nodiscard]] bool closed() const noexcept {
    return closed_.load(std::memory_order_acquire);
  }

  /// Non-blocking push; false when the ring is full or closed.
  bool try_push(T&& value) {
    if (!push_raw(value)) return false;
    wake(consumer_waiting_, not_empty_);
    return true;
  }

  /// Blocking push (backpressure). Returns false only if the queue was
  /// closed before the value could be enqueued.
  bool push(T&& value) {
    for (int spin = 0; spin < kSpinLimit; ++spin) {
      if (try_push(std::move(value))) return true;
      if (closed()) return false;
    }
    {
      std::unique_lock lock(mutex_);
      producer_waiting_.store(true, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      while (true) {
        if (push_raw(value)) break;
        if (closed()) {
          producer_waiting_.store(false, std::memory_order_relaxed);
          return false;
        }
        not_full_.wait(lock);
      }
      producer_waiting_.store(false, std::memory_order_relaxed);
    }
    // Wake AFTER releasing the mutex: wake() briefly re-acquires it.
    wake(consumer_waiting_, not_empty_);
    return true;
  }

  /// Non-blocking pop; nullopt when the ring is empty (closed or not).
  std::optional<T> try_pop() {
    auto value = pop_raw();
    if (value) wake(producer_waiting_, not_full_);
    return value;
  }

  /// Blocking pop. Returns nullopt only when the queue is closed AND fully
  /// drained — every pushed value is delivered before the nullopt.
  std::optional<T> pop() {
    for (int spin = 0; spin < kSpinLimit; ++spin) {
      if (auto v = try_pop()) return v;
      if (closed()) return try_pop();  // final drain race: re-check once
    }
    std::optional<T> value;
    {
      std::unique_lock lock(mutex_);
      consumer_waiting_.store(true, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      while (true) {
        value = pop_raw();
        if (value) break;
        if (closed()) {
          value = pop_raw();  // final drain race: re-check once
          break;
        }
        not_empty_.wait(lock);
      }
      consumer_waiting_.store(false, std::memory_order_relaxed);
    }
    // Wake AFTER releasing the mutex: wake() briefly re-acquires it.
    if (value) wake(producer_waiting_, not_full_);
    return value;
  }

  /// No further pushes succeed; blocked producers and consumers wake up.
  /// The consumer still drains whatever was already enqueued.
  void close() {
    {
      std::lock_guard lock(mutex_);
      closed_.store(true, std::memory_order_release);
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

 private:
  static constexpr int kSpinLimit = 256;

  /// Ring-only push: no wakeup, safe to call with mutex_ held. On failure
  /// `value` is left untouched.
  bool push_raw(T& value) {
    if (closed()) return false;
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_.load(std::memory_order_acquire) == slots_.size()) return false;
    slots_[tail & mask_] = std::move(value);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Ring-only pop: no wakeup, safe to call with mutex_ held.
  std::optional<T> pop_raw() {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_.load(std::memory_order_acquire)) return std::nullopt;
    std::optional<T> value{std::move(slots_[head & mask_])};
    head_.store(head + 1, std::memory_order_release);
    return value;
  }

  /// Called WITHOUT mutex_ held (it re-acquires it to order the notify).
  void wake(std::atomic<bool>& waiting, std::condition_variable& cv) {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (waiting.load(std::memory_order_relaxed)) {
      { std::lock_guard lock(mutex_); }  // order notify after the re-check
      cv.notify_one();
    }
  }

  std::vector<T> slots_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::uint64_t> head_{0};
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  std::atomic<bool> closed_{false};
  std::atomic<bool> producer_waiting_{false};
  std::atomic<bool> consumer_waiting_{false};
  std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
};

}  // namespace edgewatch::core
