// The discrete-event scheduler: a time-ordered run queue of suspended
// coroutines. Single-threaded and fully deterministic — ties in time are
// broken by insertion order, so a given seed always replays the same
// schedule.
#pragma once

#include <coroutine>
#include <cstdint>
#include <exception>
#include <vector>

#include "core/error.hpp"
#include "core/units.hpp"
#include "sim/event_queue.hpp"
#include "sim/task.hpp"

namespace rsd::sim {

class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Destroys the frames of roots that never finished (a deadlocked
  /// simulation), in spawn order. Finished roots were freed already.
  ~Scheduler() {
    while (roots_head_ != nullptr) {
      auto& p = static_cast<Task<>::promise_type&>(*roots_head_);
      unlink_root(p);
      std::coroutine_handle<Task<>::promise_type>::from_promise(p).destroy();
    }
  }

  [[nodiscard]] SimTime now() const { return now_; }

  /// Launch a root process at the current simulated time. The scheduler
  /// owns the task from here on and frees its frame when it finishes.
  void spawn(Task<> task) { spawn_at(std::move(task), now_); }

  /// Launch a root process at absolute time `t` (>= now). The partitioned
  /// engine delivers cross-partition messages this way: each message
  /// becomes a root task scheduled at its (future, lookahead-protected)
  /// timestamp.
  void spawn_at(Task<> task, SimTime t) {
    RSD_ASSERT(task.valid());
    schedule_at(task.handle_, t);
    auto& p = task.handle_.promise();
    p.sched = this;
    p.root_prev = roots_tail_;
    if (roots_tail_ != nullptr) {
      roots_tail_->root_next = &p;
    } else {
      roots_head_ = &p;
    }
    roots_tail_ = &p;
    ++live_roots_;
    task.handle_ = {};  // ownership moves to the live-root list
  }

  /// Enqueue a coroutine to resume after `delay` of simulated time.
  void schedule(std::coroutine_handle<> h, SimDuration delay) {
    schedule_at(h, now_ + delay);
  }

  /// Enqueue a coroutine to resume at absolute time `t` (>= now).
  void schedule_at(std::coroutine_handle<> h, SimTime t) {
    RSD_ASSERT(t >= now_);
    queue_.push(t, seq_++, h);
  }

  /// Run one event: advance the clock and resume one coroutine.
  /// Returns false when the event queue is empty.
  bool step() {
    if (queue_.empty()) return false;
    const auto& item = queue_.top();
    now_ = item.at;
    const std::coroutine_handle<> handle = item.payload;
    queue_.pop();
    ++executed_events_;
    handle.resume();
    return true;
  }

  /// Run until no events remain, then rethrow the first root-task failure.
  void run() {
    while (step()) {
    }
    finish_roots();
  }

  /// Run until the clock would pass `deadline`; events at exactly `deadline`
  /// are executed. Root failures are rethrown if all events drained.
  void run_until(SimTime deadline) {
    while (!queue_.empty() && queue_.top().at <= deadline) {
      step();
    }
    if (queue_.empty()) {
      finish_roots();
    } else {
      now_ = deadline;
    }
  }

  /// Run every event with timestamp strictly below `horizon` (the
  /// conservative-lookahead window of the partitioned engine). Unlike
  /// run_until, the clock is left at the last executed event — events at
  /// exactly `horizon` stay pending, and no completion check runs (the
  /// engine drains with run() after the last epoch). Returns the number
  /// of events executed.
  std::uint64_t run_before(SimTime horizon) {
    std::uint64_t n = 0;
    while (!queue_.empty() && queue_.top().at < horizon) {
      step();
      ++n;
    }
    return n;
  }

  /// Timestamp of the earliest pending event, or SimTime::max() when the
  /// queue is empty (the engine's "no work" sentinel).
  [[nodiscard]] SimTime next_event_time() const {
    return queue_.empty() ? SimTime::max() : queue_.top().at;
  }

  /// Number of spawned root processes that have not yet completed.
  /// Non-zero after run() indicates a deadlock in the simulated program.
  [[nodiscard]] std::size_t unfinished_count() const { return live_roots_; }

  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }

  /// Events resumed by this scheduler so far (perf_sim_core's numerator).
  [[nodiscard]] std::uint64_t executed_events() const { return executed_events_; }

 private:
  friend struct detail::PromiseBase::FinalAwaiter;

  /// Called from a finishing root's final suspend, just before its frame
  /// is destroyed: unlink it and keep its exception for finish_roots().
  void retire_root(detail::PromiseBase& p) noexcept {
    unlink_root(p);
    if (p.exception) pending_exceptions_.push_back(std::move(p.exception));
  }

  void unlink_root(detail::PromiseBase& p) noexcept {
    (p.root_prev != nullptr ? p.root_prev->root_next : roots_head_) = p.root_next;
    (p.root_next != nullptr ? p.root_next->root_prev : roots_tail_) = p.root_prev;
    --live_roots_;
  }

  /// Rethrow the first root failure, in completion order.
  void finish_roots() {
    if (!pending_exceptions_.empty()) {
      std::rethrow_exception(pending_exceptions_.front());
    }
  }

  TimedQueue<std::coroutine_handle<>> queue_;
  detail::PromiseBase* roots_head_ = nullptr;  ///< Live roots, in spawn order.
  detail::PromiseBase* roots_tail_ = nullptr;
  std::size_t live_roots_ = 0;
  std::vector<std::exception_ptr> pending_exceptions_;
  SimTime now_ = SimTime::zero();
  std::uint64_t seq_ = 0;
  std::uint64_t executed_events_ = 0;
};

/// Awaitable that suspends the current process for `d` of simulated time.
/// `co_await delay(10_us);`
struct Delay {
  SimDuration d;

  [[nodiscard]] bool await_ready() const noexcept { return false; }
  template <typename P>
  void await_suspend(std::coroutine_handle<P> h) const {
    h.promise().sched->schedule(h, d.ns() > 0 ? d : SimDuration::zero());
  }
  void await_resume() const noexcept {}
};

[[nodiscard]] inline Delay delay(SimDuration d) { return Delay{d}; }

/// Awaitable that yields the scheduler without advancing time (runs after
/// other events already queued for the current instant).
[[nodiscard]] inline Delay yield() { return Delay{SimDuration::zero()}; }

/// Awaitable that produces the current scheduler pointer, letting library
/// code reach the clock without threading a Scheduler& everywhere.
struct CurrentScheduler {
  Scheduler* sched = nullptr;

  [[nodiscard]] bool await_ready() const noexcept { return false; }
  template <typename P>
  bool await_suspend(std::coroutine_handle<P> h) noexcept {
    sched = h.promise().sched;
    return false;  // resume immediately, no reschedule
  }
  [[nodiscard]] Scheduler* await_resume() const noexcept { return sched; }
};

[[nodiscard]] inline CurrentScheduler current_scheduler() { return {}; }

}  // namespace rsd::sim
