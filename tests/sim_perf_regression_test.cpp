// Regression tests for the allocation-free simulator core:
//
//  * Root reclamation: a root task's frame goes back to the arena the
//    moment the task finishes, so 200k short-lived roots carve no more
//    frames than the few that are ever live at once, and every later
//    spawn reuses one (one arena operation per spawn: O(total spawns)
//    work). Deadlocked roots are still counted and are destroyed at
//    scheduler teardown; failures still reach run().
//  * Frame arena: steady-state coroutine churn performs ZERO general-heap
//    allocations per op (this binary links the counting operator
//    new/delete from rsd_alloc_counter).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/alloc_counter.hpp"
#include "sim/arena.hpp"
#include "sim/conservative.hpp"
#include "sim/scheduler.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace {

using namespace rsd;
using namespace rsd::literals;

sim::Task<> short_lived(int hops) {
  for (int i = 0; i < hops; ++i) co_await sim::delay(1_us);
}

/// A generator that spawns `total` short-lived roots, a few at a time, so
/// the live population stays small while the spawn count grows huge —
/// the shape of a proxy sweep's op stream.
sim::Task<> generator(sim::Scheduler& sched, int total) {
  for (int i = 0; i < total; ++i) {
    sched.spawn(short_lived(2));
    co_await sim::delay(1_us);
  }
}

sim::Task<> wait_on(std::shared_ptr<sim::Event> ev) { co_await ev->wait(); }

sim::Task<> churn_then_release(sim::Scheduler& sched, int total,
                               std::shared_ptr<sim::Event> ev) {
  for (int i = 0; i < total; ++i) {
    sched.spawn(short_lived(2));
    co_await sim::delay(1_us);
  }
  ev->trigger();
}

/// Run `total` short-lived roots through a scheduler bound to a private
/// arena and return that arena's counters.
sim::FrameArena::Stats churn_stats(int total) {
  sim::FrameArena arena;
  sim::ArenaScope scope{arena};
  {
    sim::Scheduler sched;
    sched.spawn(generator(sched, total));
    sched.run();
    EXPECT_EQ(sched.unfinished_count(), 0u);
  }
  return arena.stats();
}

TEST(RootReclamation, TwoHundredThousandShortLivedRootsStayBounded) {
  constexpr int kRoots = 200'000;
  const sim::FrameArena::Stats small = churn_stats(2'000);
  const sim::FrameArena::Stats big = churn_stats(kRoots);

  // At most a handful of roots are live at once, and a finished root's
  // frame is reused by the next spawn: the carved count is that handful,
  // the same at 2k and at 200k spawns.
  EXPECT_LE(big.carved, 8u);
  EXPECT_EQ(big.carved, small.carved);
  EXPECT_EQ(big.chunks, 1u);
  EXPECT_EQ(big.oversize, 0u);
  // Every other frame (200k short-lived roots + the generator) was reused.
  EXPECT_EQ(big.carved + big.reused, static_cast<std::uint64_t>(kRoots) + 1);
}

TEST(RootReclamation, LargeLivePopulationDoesNotSlowChurn) {
  // A long-lived fleet of waiters must not make each later spawn or
  // completion pay for it: exactly one arena operation per frame, and the
  // churn reuses a handful of frames however large the fleet is.
  constexpr int kLive = 6'000;
  constexpr int kChurn = 50'000;
  sim::FrameArena arena;
  sim::ArenaScope scope{arena};
  {
    sim::Scheduler sched;
    auto done = sim::make_event(sched);  // one arena block (Event + count)
    for (int i = 0; i < kLive; ++i) sched.spawn(wait_on(done));
    sched.spawn(churn_then_release(sched, kChurn, done));
    sched.run_until(SimTime::zero() + 10_us);
    // The fleet, the churn generator and the couple of churn roots in flight.
    EXPECT_GE(sched.unfinished_count(), static_cast<std::size_t>(kLive) + 1);
    EXPECT_LE(sched.unfinished_count(), static_cast<std::size_t>(kLive) + 4);
    sched.run();
    EXPECT_EQ(sched.unfinished_count(), 0u);
  }
  const auto& st = arena.stats();
  EXPECT_EQ(st.oversize, 0u);
  EXPECT_EQ(st.carved + st.reused, static_cast<std::uint64_t>(kLive + kChurn) + 2);
  EXPECT_LE(st.carved, static_cast<std::uint64_t>(kLive) + 8);
  EXPECT_GE(st.reused, static_cast<std::uint64_t>(kChurn) - 8);
}

/// Sets `*flag` when the frame holding it is destroyed.
struct DestroyProbe {
  bool* flag;
  ~DestroyProbe() { *flag = true; }
};

TEST(RootReclamation, DeadlockedRootCountedAndDestroyedAtTeardown) {
  bool finished_freed = false;
  bool stuck_freed = false;
  {
    sim::Scheduler sched;
    auto never = sim::make_event(sched);
    sched.spawn([](bool* f) -> sim::Task<> {
      DestroyProbe probe{f};
      co_await sim::delay(1_us);
    }(&finished_freed));
    sched.spawn([](bool* f, std::shared_ptr<sim::Event> ev) -> sim::Task<> {
      DestroyProbe probe{f};
      co_await ev->wait();
    }(&stuck_freed, never));
    sched.run();

    EXPECT_EQ(sched.unfinished_count(), 1u);
    EXPECT_TRUE(finished_freed) << "a finished root's frame outlived it";
    EXPECT_FALSE(stuck_freed) << "a suspended root was destroyed early";
  }
  EXPECT_TRUE(stuck_freed) << "teardown leaked the deadlocked root";
}

TEST(RootReclamation, FailingRootRethrownByRunAfterItsFrameIsGone) {
  sim::Scheduler sched;
  bool freed = false;
  for (int i = 0; i < 100; ++i) sched.spawn(short_lived(1));
  sched.spawn([](bool* f) -> sim::Task<> {
    DestroyProbe probe{f};
    co_await sim::delay(5_us);
    throw std::runtime_error{"root failure"};
  }(&freed));
  for (int i = 0; i < 100; ++i) sched.spawn(short_lived(10));
  try {
    sched.run();
    FAIL() << "run() swallowed the root failure";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "root failure");
  }
  EXPECT_TRUE(freed);
  EXPECT_EQ(sched.unfinished_count(), 0u);
  EXPECT_THROW(sched.run(), std::runtime_error);  // the failure is sticky
}

TEST(RootReclamation, ParallelEngineRethrowsInPartitionIndexOrder) {
  // Partition 3 fails first in simulated time, partition 1 later; the
  // engine reports partition 1's failure — index order, whatever the
  // completion order or thread count.
  for (const int threads : {1, 2, 4}) {
    sim::ParallelEngine eng{4, {.threads = threads, .lookahead = 1_us}};
    const auto fail_at = [](SimDuration at, const char* what) {
      return [at, what] {
        return [](SimDuration d, const char* w) -> sim::Task<> {
          co_await sim::delay(d);
          throw std::runtime_error{w};
        }(at, what);
      };
    };
    eng.partition(3).spawn(fail_at(2_us, "partition 3"));
    eng.partition(1).spawn(fail_at(9_us, "partition 1"));
    try {
      eng.run();
      FAIL() << "ParallelEngine::run() swallowed the failures";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string{e.what()}, "partition 1") << threads << " threads";
    }
    EXPECT_EQ(eng.unfinished_count(), 0u);
  }
}

/// Steady-state op churn allocates nothing from the general heap: frames
/// come from the FrameArena free lists, events from allocate_shared over
/// the arena, and the scheduler queue reuses its vector.
TEST(FrameArena, SteadyStateChurnIsAllocationFree) {
  sim::Scheduler sched;

  auto op = [](sim::Scheduler& s) -> sim::Task<> {
    auto done = sim::make_event(s);
    s.spawn([](std::shared_ptr<sim::Event> ev) -> sim::Task<> {
      co_await sim::delay(1_us);
      ev->trigger();
    }(done));
    co_await done->wait();
  };

  // Warm-up: populate free lists and grow the event queue past its
  // high-water mark.
  sched.spawn([](sim::Scheduler& s, auto& body) -> sim::Task<> {
    for (int i = 0; i < 10'000; ++i) co_await body(s);
  }(sched, op));
  sched.run();

  const std::int64_t before = alloc::allocation_count();
  sched.spawn([](sim::Scheduler& s, auto& body) -> sim::Task<> {
    for (int i = 0; i < 10'000; ++i) co_await body(s);
  }(sched, op));
  sched.run();
  const std::int64_t during = alloc::allocation_count() - before;

  EXPECT_EQ(during, 0) << "steady-state simulation touched the general heap";
  EXPECT_EQ(sched.unfinished_count(), 0u);
}

TEST(FrameArena, RecyclesFramesAndReportsStats) {
  auto& arena = sim::FrameArena::local();
  const auto before = arena.stats();

  void* a = arena.allocate(100);
  arena.deallocate(a);
  void* b = arena.allocate(100);  // same bucket: must reuse a's block
  EXPECT_EQ(a, b);
  arena.deallocate(b);

  const auto after = arena.stats();
  EXPECT_GE(after.reused, before.reused + 1);

  // Oversize blocks pass through to the heap and still round-trip.
  void* big = arena.allocate(1 << 20);
  ASSERT_NE(big, nullptr);
  arena.deallocate(big);
  EXPECT_EQ(arena.stats().oversize, before.oversize + 1);
}

TEST(AllocCounter, CountsHeapTraffic) {
  const std::int64_t before = alloc::allocation_count();
  auto* p = new std::uint64_t{42};
  EXPECT_GT(alloc::allocation_count(), before);
  const std::int64_t frees = alloc::deallocation_count();
  delete p;
  EXPECT_GT(alloc::deallocation_count(), frees);
}

}  // namespace
