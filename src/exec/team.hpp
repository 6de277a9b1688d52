// Persistent worker team for epoch-style fan-out (`rsd::exec::Team`).
//
// `Pool` is built for coarse batches: each `run_batch` allocates a batch
// object, takes a mutex, and wakes sleeping workers through a condition
// variable — microseconds of overhead that vanish across an experiment but
// dominate when the caller synchronizes thousands of times per second.
// The partitioned discrete-event engine (sim/conservative.hpp) does
// exactly that: one barrier per conservative epoch, often with only a few
// microseconds of simulated work between barriers.
//
// `Team` keeps a fixed set of worker threads and reuses them for every
// `run()` call:
//
//   * `run(n, fn)` publishes the job, bumps the epoch counter, and runs a
//     block of items itself (like Pool, the caller is a full participant,
//     so `Team{1}` owns no threads and degrades to a serial loop);
//   * items are split into fixed contiguous blocks: participant k of T
//     (the caller is participant 0) runs [n*k/T, n*(k+1)/T). No per-item
//     atomic, no per-epoch allocation, no mutex, no condition variable —
//     and an item lands on the same thread every epoch, so a partition's
//     state stays in one core's caches;
//   * waiting threads spin for a bounded time (kSpin in team.cpp, well
//     above the engine's serial pass between epochs) and only then park
//     on a C++20 atomic wait (a futex on Linux), on both the epoch edge
//     (workers) and the retire edge (caller). A team wider than the
//     machine's hardware threads parks at once instead: there, a spinning
//     thread would only delay a participant that still has work;
//   * `run()` returns only after every worker has retired from the epoch,
//     so the job, and anything it wrote, is safely reusable the moment
//     `run()` returns (release/acquire through the retirement counter);
//   * the caller's writes before `run()` are visible to workers through
//     the epoch counter (release/acquire), making back-to-back epochs a
//     valid synchronization chain for data handed between partitions.
//
// `fn` must not throw: Team has no exception channel (the engine captures
// failures inside simulated tasks instead). Determinism note: Team decides
// only WHICH thread runs an item, never the item set or any ordering a
// caller could observe — callers must keep items independent within one
// epoch, which the conservative engine guarantees by construction.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

namespace rsd::exec {

/// Worker count for one partitioned simulation: the `RSD_SIM_THREADS`
/// environment variable when set to a positive integer, else 1 (a
/// sequential engine). Deliberately NOT hardware concurrency: parallel
/// intra-simulation execution is opt-in, while `RSD_THREADS` (cross-run
/// fan-out, see pool.hpp) defaults wide. An explicit `--sim-threads` /
/// `ParallelEngine::Options::threads` takes precedence over the env var.
[[nodiscard]] int default_sim_thread_count();

class Team {
 public:
  /// Total execution width including the calling thread; `threads - 1`
  /// workers are spawned immediately.
  explicit Team(int threads = default_sim_thread_count());
  ~Team();
  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  [[nodiscard]] int size() const { return size_; }

  /// Run `fn(i)` for i in [0, n) across the team; returns when every item
  /// has executed and every worker has retired from the epoch. `fn` must
  /// not throw and items must be mutually independent.
  void run(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Seeded jitter for determinism stress tests: each epoch rotates the
  /// block -> participant mapping by a pseudo-random offset, and every
  /// participant busy-waits a pseudo-random beat before each item, so the
  /// item -> thread assignment and the interleaving change from epoch to
  /// epoch. 0 disables (default).
  void set_claim_jitter(std::uint64_t seed) {
    jitter_seed_.store(seed, std::memory_order_relaxed);
  }

 private:
  void worker_loop(std::uint32_t worker_index);

  /// Execute participant `k`'s block of the published epoch.
  void run_block(std::size_t k, std::uint64_t jitter_stream);

  int size_ = 1;
  bool spin_ = false;  ///< Spin before parking: the team fits the machine.
  std::vector<std::thread> workers_;

  // Epoch protocol. `epoch_` is the publish/subscribe point: the caller
  // writes job_/items_/rotate_ then release-increments it; workers acquire
  // it before touching anything else. `retired_` is the reverse edge.
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<bool> stop_{false};
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t items_ = 0;
  std::size_t rotate_ = 0;  ///< Block offset of this epoch (jitter only).
  std::atomic<int> retired_{0};
  std::atomic<std::uint64_t> jitter_seed_{0};
};

}  // namespace rsd::exec
