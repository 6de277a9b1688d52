#include "exec/team.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

namespace rsd::exec {
namespace {

TEST(Team, DefaultSimThreadCountIsSequential) {
  ::unsetenv("RSD_SIM_THREADS");
  EXPECT_EQ(default_sim_thread_count(), 1);
}

TEST(Team, DefaultSimThreadCountReadsEnv) {
  ::setenv("RSD_SIM_THREADS", "6", 1);
  EXPECT_EQ(default_sim_thread_count(), 6);
  ::setenv("RSD_SIM_THREADS", "0", 1);
  EXPECT_EQ(default_sim_thread_count(), 1);
  ::setenv("RSD_SIM_THREADS", "nonsense", 1);
  EXPECT_EQ(default_sim_thread_count(), 1);
  ::unsetenv("RSD_SIM_THREADS");
}

TEST(Team, SingleThreadRunsSerially) {
  Team team{1};
  EXPECT_EQ(team.size(), 1);
  std::vector<int> hits(64, 0);
  team.run(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(Team, EveryItemRunsExactlyOnce) {
  Team team{4};
  EXPECT_EQ(team.size(), 4);
  std::vector<std::atomic<int>> hits(1000);
  team.run(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Team, BackToBackEpochsReuseWorkers) {
  // Thousands of tiny epochs: the shape the conservative engine produces.
  // Under TSan this also exercises the epoch/retire release-acquire chain.
  Team team{4};
  std::vector<std::int64_t> data(128, 0);
  for (int epoch = 0; epoch < 2000; ++epoch) {
    team.run(data.size(), [&](std::size_t i) { ++data[i]; });
  }
  for (std::int64_t v : data) EXPECT_EQ(v, 2000);
}

TEST(Team, CallerSeesWorkerWritesAfterRun) {
  // run() returning must order every worker's plain writes before the
  // caller's reads (the engine reads partition state between epochs).
  Team team{3};
  std::vector<std::int64_t> out(256, 0);
  team.run(out.size(), [&](std::size_t i) { out[i] = static_cast<std::int64_t>(i * i); });
  std::int64_t sum = std::accumulate(out.begin(), out.end(), std::int64_t{0});
  std::int64_t expect = 0;
  for (std::size_t i = 0; i < out.size(); ++i) expect += static_cast<std::int64_t>(i * i);
  EXPECT_EQ(sum, expect);
}

TEST(Team, ItemsExceedingWidthAllExecute) {
  Team team{8};
  std::atomic<int> count{0};
  team.run(3, [&](std::size_t) { count.fetch_add(1); });  // fewer items than threads
  EXPECT_EQ(count.load(), 3);
  count.store(0);
  team.run(0, [&](std::size_t) { count.fetch_add(1); });  // empty epoch
  EXPECT_EQ(count.load(), 0);
}

TEST(Team, ClaimJitterDoesNotChangeCoverage) {
  Team team{4};
  team.set_claim_jitter(0xfeedULL);
  std::vector<std::atomic<int>> hits(512);
  for (int epoch = 0; epoch < 50; ++epoch) {
    team.run(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  }
  for (const auto& h : hits) EXPECT_EQ(h.load(), 50);
}


/// Which thread ran each item of one epoch.
std::vector<std::thread::id> run_and_record(Team& team, std::size_t n) {
  std::vector<std::thread::id> who(n);
  std::vector<std::atomic<int>> hits(n);
  team.run(n, [&](std::size_t i) {
    who[i] = std::this_thread::get_id();
    hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << "item " << i;
  return who;
}

TEST(Team, FixedBlocksCoverUnevenTinyAndEmptyEpochs) {
  // n < threads, n not divisible by threads, and n = 0: every item runs
  // exactly once, and each participant's items form one contiguous block
  // [n*k/T, n*(k+1)/T) with the caller running block 0.
  Team team{4};
  for (const std::size_t n : {0, 1, 3, 5, 6, 7, 13, 1001}) {
    const auto who = run_and_record(team, n);
    for (std::size_t k = 0; k < 4; ++k) {
      const std::size_t begin = n * k / 4;
      const std::size_t end = n * (k + 1) / 4;
      for (std::size_t i = begin; i < end; ++i) {
        EXPECT_EQ(who[i], who[begin]) << "n=" << n << " block " << k << " split";
        if (k == 0) {
          EXPECT_EQ(who[i], std::this_thread::get_id()) << "n=" << n;
        }
      }
    }
    std::set<std::thread::id> threads(who.begin(), who.end());
    EXPECT_EQ(threads.size(), std::min<std::size_t>(n, 4)) << "n=" << n;
  }
}

TEST(Team, EachItemRunsExactlyOncePerEpochAcrossBackToBackEpochs) {
  // 2000 back-to-back epochs over an uneven item count; coverage is checked
  // after every epoch, and an item stays on one thread throughout.
  Team team{4};
  constexpr std::size_t kItems = 37;
  const auto first = run_and_record(team, kItems);
  std::vector<std::int64_t> count(kItems, 1);
  std::vector<std::thread::id> who(kItems);
  for (int epoch = 1; epoch < 2000; ++epoch) {
    team.run(kItems, [&](std::size_t i) {
      ++count[i];
      who[i] = std::this_thread::get_id();
    });
    for (std::size_t i = 0; i < kItems; ++i) {
      ASSERT_EQ(count[i], epoch + 1) << "item " << i << " epoch " << epoch;
      ASSERT_EQ(who[i], first[i]) << "item " << i << " moved in epoch " << epoch;
    }
  }
}

TEST(Team, ClaimJitterMovesItemsBetweenThreadsButKeepsCoverage) {
  Team team{4};
  team.set_claim_jitter(0x5eedULL);
  constexpr std::size_t kItems = 10;
  std::set<std::thread::id> ran_item0;
  bool mapping_changed = false;
  auto prev = run_and_record(team, kItems);
  for (int epoch = 0; epoch < 64; ++epoch) {
    const auto who = run_and_record(team, kItems);
    ran_item0.insert(who[0]);
    if (who != prev) mapping_changed = true;
    prev = who;
  }
  EXPECT_TRUE(mapping_changed);
  EXPECT_GE(ran_item0.size(), 2u) << "jitter never rotated the blocks";
}

}  // namespace
}  // namespace rsd::exec
