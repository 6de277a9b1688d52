#include "exec/team.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>

namespace rsd::exec {

namespace {

/// How long a waiting participant spins before parking on the futex. It
/// is well above the conservative engine's serial pass between two
/// epochs (O(partitions) array reads and the horizon sweep, ~8 us on a
/// 512-partition row), so workers of back-to-back epochs never sleep,
/// while an idle team stops burning CPU almost at once. A team wider
/// than the machine never spins: a spinning thread would hold the core a
/// participant with work is waiting for.
constexpr std::chrono::microseconds kSpin{64};

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// Wait until `a` differs from `old` and return the new value: spin for
/// up to kSpin (if `spin`), then block in atomic wait.
template <typename T>
T await_change(const std::atomic<T>& a, T old, bool spin) {
  const auto start = std::chrono::steady_clock::now();
  do {
    const T v = a.load(std::memory_order_acquire);
    if (v != old) return v;
    cpu_relax();
  } while (spin && std::chrono::steady_clock::now() - start < kSpin);
  for (;;) {
    a.wait(old, std::memory_order_acquire);
    const T v = a.load(std::memory_order_acquire);
    if (v != old) return v;  // else a spurious wake
  }
}

/// splitmix64 step — cheap, stateless-per-call jitter stream.
[[nodiscard]] std::uint64_t mix64(std::uint64_t& s) {
  s += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

int default_sim_thread_count() {
  if (const char* env = std::getenv("RSD_SIM_THREADS")) {
    const int v = std::atoi(env);
    if (v >= 1) return v;
  }
  return 1;
}

Team::Team(int threads)
    : size_(std::max(1, threads)),
      spin_(static_cast<unsigned>(size_) <= std::thread::hardware_concurrency()) {
  workers_.reserve(static_cast<std::size_t>(size_ - 1));
  for (int i = 0; i < size_ - 1; ++i) {
    workers_.emplace_back([this, i] { worker_loop(static_cast<std::uint32_t>(i) + 1); });
  }
}

Team::~Team() {
  if (!workers_.empty()) {
    stop_.store(true, std::memory_order_release);
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();
    for (auto& w : workers_) w.join();
  }
}

void Team::run_block(std::size_t k, std::uint64_t jitter_stream) {
  const auto t = static_cast<std::size_t>(size_);
  const std::size_t block = (k + rotate_) % t;
  const std::size_t end = items_ * (block + 1) / t;
  for (std::size_t i = items_ * block / t; i < end; ++i) {
    if (jitter_stream != 0) {
      // Busy-wait a pseudo-random beat so the interleaving of items across
      // participants varies run to run — the determinism stress tests
      // assert simulation output is identical anyway.
      const std::uint64_t spins = mix64(jitter_stream) & 0x3ff;
      for (std::uint64_t s = 0; s < spins; ++s) cpu_relax();
    }
    (*job_)(i);
  }
}

void Team::run(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (workers_.empty()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Only the caller writes epoch_, so the next value is known before the
  // release below publishes it along with the job.
  const std::uint64_t e = epoch_.load(std::memory_order_relaxed) + 1;
  std::uint64_t seed = jitter_seed_.load(std::memory_order_relaxed);
  if (seed != 0) seed ^= e * 0xd1b54a32d192ed03ULL;
  job_ = &fn;
  items_ = n;
  rotate_ = seed != 0 ? static_cast<std::size_t>(mix64(seed) % static_cast<std::uint64_t>(size_))
                      : 0;
  retired_.store(0, std::memory_order_relaxed);
  epoch_.store(e, std::memory_order_release);
  epoch_.notify_all();

  run_block(0, seed);

  // Wait for every worker to retire: afterwards no thread can touch job_
  // or the caller's data until the next epoch is published.
  const int n_workers = static_cast<int>(workers_.size());
  for (int r = retired_.load(std::memory_order_acquire); r != n_workers;) {
    r = await_change(retired_, r, spin_);
  }
}

void Team::worker_loop(std::uint32_t worker_index) {
  std::uint64_t seen = 0;
  for (;;) {
    seen = await_change(epoch_, seen, spin_);
    if (stop_.load(std::memory_order_acquire)) return;
    std::uint64_t seed = jitter_seed_.load(std::memory_order_relaxed);
    run_block(worker_index,
              seed != 0 ? mix64(seed) ^ (seen * 0x9e6c63d0676a9a99ULL) ^ worker_index : 0);
    retired_.fetch_add(1, std::memory_order_release);
    retired_.notify_all();
  }
}

}  // namespace rsd::exec
