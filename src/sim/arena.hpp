// Per-thread size-bucketed free-list arena for the simulator hot path.
//
// Every simulated op used to pay several general-purpose heap allocations:
// the coroutine frames of the `gpu::Context` API calls and the per-op
// `run_op` task, plus the op's completion `sim::Event`. The arena recycles
// those blocks: the first time a size class is seen a block is carved from
// a bump-allocated chunk, and every later alloc/free of that class is a
// two-instruction free-list pop/push. In steady state (a proxy loop past
// its first few iterations) the simulator performs ZERO general heap
// allocations per op — asserted by the `perf_sim_core` experiment.
//
// Lifetime rules (see DESIGN.md "Simulator core performance"):
//
//  * `local()` resolves through a rebindable thread-local pointer. By
//    default it names the calling thread's own arena, and a block MUST be
//    deallocated on the thread that allocated it. This holds by
//    construction in rsd: a simulation (Scheduler + Device + coroutine
//    frames + events) is created, run, and destroyed inside one
//    `exec::Pool` job on one thread; Tasks and Events never migrate
//    between OS threads.
//  * The partitioned engine (sim/conservative.hpp) relaxes "one thread"
//    to "one partition": each `sim::Partition` owns a FrameArena, and an
//    `ArenaScope` rebinds `local()` to it while that partition's events
//    are processed (or its objects destroyed). A partition is touched by
//    exactly one worker at a time — the epoch barrier orders handoffs —
//    so every alloc/free of a partition's frames still goes through one
//    arena with no concurrent access, whichever OS thread runs it.
//  * Chunks are only returned to the OS at thread exit (or, for a
//    partition's arena, at engine teardown), so memory is bounded by the
//    peak of live frames, not by the total number of ops simulated. That
//    holds because every frame is freed when its task finishes: a child's
//    by its parent's `Task`, a root's by its own final suspend
//    (sim/task.hpp). A freed block goes to the head of its free list, so
//    the next frame of that size reuses the one just released.
//  * Under AddressSanitizer a freed block's payload is poisoned until it
//    is handed out again, so ASan reports a stale pointer into a finished
//    frame even though the memory stays inside the arena.
//  * Oversize blocks (> kMaxBucketed after rounding) fall through to
//    ::operator new/delete; they occur only for giant coroutine frames,
//    never in the per-op path.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define RSD_ARENA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RSD_ARENA_ASAN 1
#endif
#endif
#if defined(RSD_ARENA_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace rsd::sim {

class FrameArena {
 public:
  /// Free-list granularity; every block size is rounded up to this.
  static constexpr std::size_t kGranularity = 64;
  /// Largest bucketed block (bytes, including the header).
  static constexpr std::size_t kMaxBucketed = 4096;
  /// Bump-chunk size carved from the general heap.
  static constexpr std::size_t kChunkBytes = 256 * 1024;

  struct Stats {
    std::uint64_t reused = 0;    ///< Served from a free list.
    std::uint64_t carved = 0;    ///< Bump-allocated (first use of the slot).
    std::uint64_t oversize = 0;  ///< Fell through to ::operator new.
    std::uint64_t chunks = 0;    ///< 256 KiB chunks requested from the heap.
  };

  /// The arena `operator new`/`delete` on task frames resolve to: the
  /// calling thread's own arena unless an ArenaScope has rebound it.
  [[nodiscard]] static FrameArena& local() { return *current(); }

  /// A standalone arena (one per `sim::Partition`). Blocks allocated from
  /// it must be freed while it is bound (same-partition rule above).
  FrameArena() { free_.fill(nullptr); }

  ~FrameArena() {
    // Frees whole chunks only: any block still live here would belong to a
    // coroutine outliving its arena, which the lifetime rules forbid.
    for (Chunk* c = chunks_; c != nullptr;) {
      Chunk* next = c->next;
      ::operator delete(c);
      c = next;
    }
  }

  FrameArena(const FrameArena&) = delete;
  FrameArena& operator=(const FrameArena&) = delete;

  [[nodiscard]] void* allocate(std::size_t bytes) {
    const std::size_t total = round_up(bytes + sizeof(Header));
    if (total > kMaxBucketed) {
      ++stats_.oversize;
      auto* h = static_cast<Header*>(::operator new(total));
      h->bucket_size = 0;  // 0 marks a pass-through block
      return h + 1;
    }
    const std::size_t bucket = total / kGranularity - 1;
    if (FreeNode* node = free_[bucket]; node != nullptr) {
      ++stats_.reused;
      free_[bucket] = node->next;
      auto* h = reinterpret_cast<Header*>(node);
      h->bucket_size = total;
      poison(h, false);
      return h + 1;
    }
    ++stats_.carved;
    if (chunk_left_ < total) refill();
    auto* h = reinterpret_cast<Header*>(cursor_);
    cursor_ += total;
    chunk_left_ -= total;
    h->bucket_size = total;
    return h + 1;
  }

  void deallocate(void* p) noexcept {
    if (p == nullptr) return;
    Header* h = static_cast<Header*>(p) - 1;
    if (h->bucket_size == 0) {
      ::operator delete(h);
      return;
    }
    const std::size_t bucket = h->bucket_size / kGranularity - 1;
    poison(h, true);
    auto* node = reinterpret_cast<FreeNode*>(h);
    node->next = free_[bucket];
    free_[bucket] = node;
  }

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  /// 16 bytes so payloads keep the default-new 16-byte alignment.
  struct alignas(16) Header {
    std::size_t bucket_size;  ///< Rounded block size; 0 = pass-through.
    std::size_t reserved;
  };
  struct FreeNode {
    FreeNode* next;
  };
  struct Chunk {
    Chunk* next;
  };
  static_assert(sizeof(Header) == 16);

  friend class ArenaScope;

  /// The thread's binding slot: the thread's own arena until a scope
  /// rebinds it. The owned arena is lazily constructed on first use so
  /// threads that only ever run scoped (partition) work pay nothing.
  [[nodiscard]] static FrameArena*& current() {
    thread_local FrameArena own;
    thread_local FrameArena* bound = &own;
    return bound;
  }

  /// (Un)poison a bucketed block's payload; the header stays readable
  /// because the free list threads through it.
  static void poison([[maybe_unused]] Header* h, [[maybe_unused]] bool freed) noexcept {
#if defined(RSD_ARENA_ASAN)
    if (freed) {
      ASAN_POISON_MEMORY_REGION(h + 1, h->bucket_size - sizeof(Header));
    } else {
      ASAN_UNPOISON_MEMORY_REGION(h + 1, h->bucket_size - sizeof(Header));
    }
#endif
  }

  [[nodiscard]] static constexpr std::size_t round_up(std::size_t n) {
    return (n + kGranularity - 1) / kGranularity * kGranularity;
  }

  void refill() {
    ++stats_.chunks;
    auto* raw = static_cast<std::byte*>(::operator new(kChunkBytes));
    auto* chunk = reinterpret_cast<Chunk*>(raw);
    chunk->next = chunks_;
    chunks_ = chunk;
    // The chunk header occupies one granule; the rest is bump space.
    cursor_ = raw + kGranularity;
    chunk_left_ = kChunkBytes - kGranularity;
  }

  std::array<FreeNode*, kMaxBucketed / kGranularity> free_{};
  std::byte* cursor_ = nullptr;
  std::size_t chunk_left_ = 0;
  Chunk* chunks_ = nullptr;
  Stats stats_;
};

/// Rebinds `FrameArena::local()` on the calling thread for the scope's
/// lifetime. The partitioned engine wraps every touch of a partition
/// (event processing, message delivery, teardown) in a scope over that
/// partition's arena, making frame recycling partition-affine instead of
/// thread-affine. Scopes nest; each restores the previous binding.
class [[nodiscard]] ArenaScope {
 public:
  explicit ArenaScope(FrameArena& arena) : prev_(FrameArena::current()) {
    FrameArena::current() = &arena;
  }
  ~ArenaScope() { FrameArena::current() = prev_; }
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  FrameArena* prev_;
};

/// Minimal allocator adapter over the thread-local FrameArena, for
/// `std::allocate_shared` of per-op simulation objects (completion
/// events). Same lifetime rules as the arena itself.
template <typename T>
struct ArenaAllocator {
  using value_type = T;

  ArenaAllocator() noexcept = default;
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>&) noexcept {}  // NOLINT(google-explicit-*)

  [[nodiscard]] T* allocate(std::size_t n) {
    static_assert(alignof(T) <= 16, "FrameArena guarantees 16-byte alignment");
    return static_cast<T*>(FrameArena::local().allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t) noexcept { FrameArena::local().deallocate(p); }

  friend bool operator==(const ArenaAllocator&, const ArenaAllocator&) noexcept { return true; }
};

}  // namespace rsd::sim
