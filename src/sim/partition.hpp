// One shard of a partitioned simulation (`sim::Partition`) and the
// cross-partition message it exchanges (`sim::CrossCall` / `RemoteMsg`).
//
// A Partition is a complete single-threaded simulation — its own
// Scheduler (event queue, clock, sequence counter) plus its own
// FrameArena — that owns one slice of the simulated machine (one device
// or chassis; host lanes are pinned to their context's partition).
// Partitions never share mutable state: the ONLY way simulated code in
// partition A affects partition B is `send()`, which enqueues a
// timestamped message the engine (conservative.hpp) delivers into B's
// event queue under the conservative-lookahead protocol.
//
// Determinism contract: a message is keyed `(at, src, seq)` where `seq`
// is the source partition's send counter. Source-side processing is
// sequential, so the key is a pure function of the simulation — never of
// thread interleaving — and the engine's sorted merge gives every
// destination queue one total, thread-count-independent order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <vector>

#include "core/error.hpp"
#include "core/units.hpp"
#include "sim/arena.hpp"
#include "sim/scheduler.hpp"
#include "sim/task.hpp"

namespace rsd::sim {

using PartitionId = std::uint32_t;

/// Type-erased callable carried by a cross-partition message and invoked
/// inside the destination partition at the message timestamp (the
/// destination's scheduler clock reads exactly `at` during the call).
/// Storage is inline and the payload must be trivially copyable, so
/// posting a message never touches the heap.
class CrossCall {
 public:
  static constexpr std::size_t kInlineBytes = 64;

  CrossCall() = default;

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, CrossCall> &&
             std::is_trivially_copyable_v<std::decay_t<F>> &&
             sizeof(std::decay_t<F>) <= kInlineBytes)
  CrossCall(F&& fn) {  // NOLINT(google-explicit-constructor) — message literal
    using Fn = std::decay_t<F>;
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(fn));
    invoke_ = [](void* p) { (*std::launder(reinterpret_cast<Fn*>(p)))(); };
  }

  void operator()() {
    RSD_ASSERT(invoke_ != nullptr);
    invoke_(buf_);
  }

  [[nodiscard]] explicit operator bool() const { return invoke_ != nullptr; }

 private:
  alignas(std::max_align_t) unsigned char buf_[kInlineBytes]{};
  void (*invoke_)(void*) = nullptr;
};

/// A message in flight between partitions. `seq` restarts per source;
/// the engine merges inbound messages by `(at, src, seq)`.
struct RemoteMsg {
  SimTime at;
  PartitionId dst = 0;
  std::uint64_t seq = 0;
  CrossCall call;
};

class ParallelEngine;

class Partition {
 public:
  Partition(const Partition&) = delete;
  Partition& operator=(const Partition&) = delete;

  [[nodiscard]] PartitionId id() const { return id_; }
  [[nodiscard]] Scheduler& scheduler() { return sched_; }
  [[nodiscard]] const Scheduler& scheduler() const { return sched_; }
  [[nodiscard]] FrameArena& arena() { return arena_; }
  [[nodiscard]] ParallelEngine& engine() { return engine_; }

  /// Post `call` to run inside partition `dst` after `delay` of simulated
  /// time. `delay` must be at least the engine's lookahead — the slack
  /// window / link latency that makes conservative parallel execution
  /// sound. Same-partition sends are allowed with any delay (they are
  /// ordinary local events). Must be called from code executing inside
  /// this partition (its own epoch slice).
  void send(PartitionId dst, SimDuration delay, CrossCall call);

  /// Messages posted by this partition so far (diagnostics).
  [[nodiscard]] std::uint64_t sent_messages() const { return send_seq_; }

  /// Setup entry point: create and launch a root task inside this
  /// partition. `factory()` is invoked — and the coroutine frame therefore
  /// allocated — under this partition's ArenaScope, which the arena's
  /// same-partition free rule requires when spawning from outside an epoch
  /// slice (tests, topology builders). Inside a slice the scope is already
  /// bound and `scheduler().spawn()` may be used directly.
  template <typename Factory>
  void spawn(Factory&& factory) {
    ArenaScope scope{arena_};
    sched_.spawn(std::forward<Factory>(factory)());
  }

  /// Setup entry point for plain callables: run `call` inside this
  /// partition after `delay`. Same arena discipline as `spawn`.
  void post(SimDuration delay, CrossCall call) {
    ArenaScope scope{arena_};
    sched_.spawn_at(deliver(std::move(call)), sched_.now() + delay);
  }

 private:
  friend class ParallelEngine;

  Partition(ParallelEngine& engine, PartitionId id) : engine_(engine), id_(id) {}

  static Task<> deliver(CrossCall call) {
    call();
    co_return;
  }

  ParallelEngine& engine_;
  PartitionId id_;
  // arena_ precedes sched_: scheduler teardown releases coroutine frames
  // into the arena, so the arena must outlive it (reverse destruction).
  FrameArena arena_;
  Scheduler sched_;
  /// Double-buffered outboxes: the engine fills one per epoch and routes
  /// the other to destination inboxes between epochs, then flips parity.
  std::vector<RemoteMsg> outbox_[2];
  std::vector<RemoteMsg>* out_cur_ = nullptr;  ///< Set only while a slice runs.
  std::uint64_t send_seq_ = 0;
};

}  // namespace rsd::sim
