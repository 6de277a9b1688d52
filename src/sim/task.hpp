// Coroutine task type for simulated processes.
//
// A `Task<T>` is a lazily-started coroutine that runs on a `sim::Scheduler`.
// Simulated processes are ordinary C++ functions returning Task<> that
// `co_await` awaitables (delays, events, resources) to advance simulated
// time. Tasks compose: `co_await child_task()` runs the child to completion
// (in simulated time) and resumes the parent, propagating exceptions.
// A root task (one passed to `Scheduler::spawn`) is freed the moment it
// finishes; only a child's frame lives on, owned by its parent's `Task`.
#pragma once

#include <coroutine>
#include <exception>
#include <type_traits>
#include <utility>

#include "sim/arena.hpp"

namespace rsd::sim {

class Scheduler;

namespace detail {

/// State shared by all task promises: which scheduler the coroutine runs on,
/// who to resume when it finishes, and any escaped exception.
///
/// Frames are recycled through the thread-local FrameArena (inherited
/// operator new/delete below), so steady-state task churn — one task per
/// simulated op — performs no general heap allocation. See arena.hpp for
/// the lifetime rules this relies on.
///
/// A task is either a child (awaited by a parent, which owns the frame
/// through its `Task` object) or a root (handed to `Scheduler::spawn`,
/// which owns the frame from then on). A root has no continuation, so
/// nothing can read its frame after it finishes: FinalAwaiter hands any
/// escaped exception to the scheduler and frees the frame on the spot,
/// back into the arena it came from, where LIFO reuse keeps it cache-hot.
/// The scheduler links only live roots (`root_prev`/`root_next`), so it
/// can count and tear down deadlocked ones.
struct PromiseBase {
  Scheduler* sched = nullptr;
  std::coroutine_handle<> continuation;
  std::exception_ptr exception;
  PromiseBase* root_prev = nullptr;
  PromiseBase* root_next = nullptr;

  static void* operator new(std::size_t size) { return FrameArena::local().allocate(size); }
  static void operator delete(void* p) noexcept { FrameArena::local().deallocate(p); }
  static void operator delete(void* p, std::size_t) noexcept {
    FrameArena::local().deallocate(p);
  }

  struct FinalAwaiter {
    [[nodiscard]] bool await_ready() const noexcept { return false; }
    template <typename P>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<P> h) noexcept {
      auto& p = h.promise();
      if (p.continuation) return p.continuation;
      p.sched->retire_root(p);  // a root: unlink it, keep its exception
      h.destroy();
      return std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };

  [[nodiscard]] std::suspend_always initial_suspend() const noexcept { return {}; }
  [[nodiscard]] FinalAwaiter final_suspend() const noexcept { return {}; }
  void unhandled_exception() noexcept { exception = std::current_exception(); }
};

/// Awaiter used by `co_await some_task()`: starts the child on the parent's
/// scheduler via symmetric transfer and resumes the parent on completion.
/// (Namespace-scope because local classes cannot have member templates.)
template <typename ChildPromise, typename Result>
struct TaskAwaiter {
  std::coroutine_handle<ChildPromise> child;

  [[nodiscard]] bool await_ready() const noexcept { return !child || child.done(); }
  template <typename P>
  std::coroutine_handle<> await_suspend(std::coroutine_handle<P> parent) noexcept {
    child.promise().sched = parent.promise().sched;
    child.promise().continuation = parent;
    return child;  // symmetric transfer: start the child now
  }
  Result await_resume() {
    auto& p = child.promise();
    if (p.exception) std::rethrow_exception(p.exception);
    if constexpr (!std::is_void_v<Result>) {
      return std::move(p.value);
    }
  }
};

}  // namespace detail

/// A coroutine computing a value of type T in simulated time.
template <typename T = void>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase {
    T value{};

    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    template <typename U>
    void return_value(U&& v) {
      value = std::forward<U>(v);
    }
  };

  Task() = default;
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool valid() const { return static_cast<bool>(handle_); }
  [[nodiscard]] bool done() const { return handle_ && handle_.done(); }

  /// Awaiting a task starts it on the awaiting coroutine's scheduler and
  /// resumes the parent (with the result) when the child completes.
  auto operator co_await() && noexcept {
    return detail::TaskAwaiter<promise_type, T>{handle_};
  }

 private:
  friend class Scheduler;

  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}

  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

/// Void specialisation.
template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : detail::PromiseBase {
    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_void() const noexcept {}
  };

  Task() = default;
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool valid() const { return static_cast<bool>(handle_); }
  [[nodiscard]] bool done() const { return handle_ && handle_.done(); }

  auto operator co_await() && noexcept {
    return detail::TaskAwaiter<promise_type, void>{handle_};
  }

 private:
  friend class Scheduler;

  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}

  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

}  // namespace rsd::sim
