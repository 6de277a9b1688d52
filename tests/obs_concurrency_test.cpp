// Concurrency tests for the obs layer (run under TSan via the `exec`
// ctest label): many threads emitting into per-thread rings while the main
// thread snapshots, and concurrent registry updates totalling correctly.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/log.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace {

using namespace rsd::obs;

TEST(ObsConcurrency, ConcurrentWritersAreAllAccounted) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  constexpr std::size_t kCapacity = 1024;  // Forces overwrites: drops must count.

  auto& tracer = Tracer::instance();
  tracer.enable(kCapacity);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        Tracer::instance().instant_sim(t, 0, i, "test", "e");
      }
    });
  }
  // Snapshot while writers are live: must be safe, no torn events.
  for (int i = 0; i < 20; ++i) {
    const auto live = tracer.snapshot();
    for (const Event& e : live.events) EXPECT_EQ(e.name, "e");
  }
  for (auto& th : threads) th.join();

  const auto snap = tracer.snapshot();
  tracer.disable();
  // Every emitted event was either captured or counted as dropped.
  EXPECT_EQ(snap.events.size() + snap.dropped,
            static_cast<std::size_t>(kThreads) * kPerThread);
  EXPECT_LE(snap.events.size(), static_cast<std::size_t>(kThreads) * kCapacity);
}

TEST(ObsConcurrency, SpansFromManyThreadsStayPaired) {
  auto& tracer = Tracer::instance();
  tracer.enable(1u << 12);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 100; ++i) {
        Span span{"test", "work"};
        Tracer::instance().counter("test", "i", static_cast<double>(i));
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto snap = tracer.snapshot();
  tracer.disable();

  std::size_t begins = 0;
  std::size_t ends = 0;
  for (const Event& e : snap.events) {
    if (e.phase == Phase::kBegin) ++begins;
    if (e.phase == Phase::kEnd) ++ends;
  }
  EXPECT_EQ(begins, 400u);
  EXPECT_EQ(ends, 400u);
}

TEST(ObsConcurrency, RegistryTotalsUnderConcurrentUpdates) {
  Registry reg;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      auto& runs = reg.counter("runs");
      auto& lat = reg.histogram("lat");
      HistogramData local;
      for (int i = 0; i < kPerThread; ++i) {
        runs.add(1);
        local.observe(i % 64);
      }
      lat.merge(local);
    });
  }
  for (auto& th : threads) th.join();

  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.find("runs")->count, kThreads * kPerThread);
  EXPECT_EQ(snap.find("lat")->count, kThreads * kPerThread);
  EXPECT_EQ(snap.find("lat")->min, 0);
  EXPECT_EQ(snap.find("lat")->max, 63);
}

TEST(ObsConcurrency, LoggerLevelRacesAreBenign) {
  // set_level from one thread while others query/write: the level is
  // atomic and stderr writes are serialized (TSan validates).
  auto& tracer = Tracer::instance();
  tracer.enable(1u << 10);
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 200; ++i) {
        rsd::Logger::instance().set_level(i % 2 == 0 ? rsd::LogLevel::kWarn
                                                     : rsd::LogLevel::kError);
        (void)rsd::Logger::instance().enabled(rsd::LogLevel::kError);
      }
    });
  }
  threads.emplace_back([] {
    for (int i = 0; i < 50; ++i) {
      rsd::Logger::instance().write(rsd::LogLevel::kDebug, "suppressed");  // Below level.
    }
  });
  for (auto& th : threads) th.join();
  tracer.disable();
}

}  // namespace
