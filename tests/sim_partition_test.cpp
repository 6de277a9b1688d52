#include "sim/conservative.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/rng.hpp"
#include "sim/partition.hpp"
#include "sim/task.hpp"

namespace rsd::sim {
namespace {

using namespace rsd::literals;

// Per-partition event log: (simulated ns, tag). Partitions only ever touch
// their own log, so logging is race-free inside parallel epochs and the
// full set of logs is a deterministic fingerprint of the simulation.
struct Log {
  std::vector<std::pair<std::int64_t, int>> entries;
};

TEST(CrossCall, InvokesInlinePayload) {
  int hits = 0;
  int* p = &hits;
  CrossCall call{[p] { ++*p; }};
  EXPECT_TRUE(static_cast<bool>(call));
  call();
  call();
  EXPECT_EQ(hits, 2);
  EXPECT_FALSE(static_cast<bool>(CrossCall{}));
}

TEST(ParallelEngine, EmptyRunTerminates) {
  ParallelEngine eng{4};
  eng.run();
  EXPECT_EQ(eng.epochs(), 0u);
  EXPECT_EQ(eng.executed_events(), 0u);
  EXPECT_EQ(eng.unfinished_count(), 0u);
}

TEST(ParallelEngine, LocalWorkRunsWithoutMessages) {
  ParallelEngine eng{2, {.threads = 2, .lookahead = 1_us}};
  std::int64_t done_at = -1;
  eng.partition(0).spawn([&] {
    return [](std::int64_t& out) -> Task<> {
      co_await delay(5_us);
      co_await delay(5_us);
      auto* s = co_await current_scheduler();
      out = s->now().ns();
    }(done_at);
  });
  eng.run();
  EXPECT_EQ(done_at, 10'000);
  EXPECT_EQ(eng.executed_events(), 3u);
  EXPECT_EQ(eng.unfinished_count(), 0u);
  EXPECT_GE(eng.epochs(), 1u);
}

TEST(ParallelEngine, CrossPartitionPingPong) {
  ParallelEngine eng{2, {.threads = 2, .lookahead = 1_us}};
  Log logs[2];
  Partition* p0 = &eng.partition(0);
  Partition* p1 = &eng.partition(1);
  Log* l0 = &logs[0];
  Log* l1 = &logs[1];

  // Self-referencing hop chain via an explicit payload struct: each hop
  // logs in the partition it lands in, then sends the next hop onward.
  struct Hop {
    Partition* here;
    Partition* peer;
    Log* here_log;
    Log* peer_log;
    int remaining;

    void operator()() const {
      here_log->entries.emplace_back(here->scheduler().now().ns(), remaining);
      if (remaining > 0) {
        here->send(peer->id(), SimDuration{2'000},
                   Hop{peer, here, peer_log, here_log, remaining - 1});
      }
    }
  };

  p0->post(SimDuration{0}, Hop{p0, p1, l0, l1, 6});
  eng.run();

  EXPECT_EQ(eng.unfinished_count(), 0u);
  EXPECT_EQ(eng.messages_delivered(), 6u);
  // Hops land at 0, 2us, 4us, ... alternating partitions.
  ASSERT_EQ(logs[0].entries.size(), 4u);
  ASSERT_EQ(logs[1].entries.size(), 3u);
  EXPECT_EQ(logs[0].entries[0], (std::pair<std::int64_t, int>{0, 6}));
  EXPECT_EQ(logs[1].entries[0], (std::pair<std::int64_t, int>{2'000, 5}));
  EXPECT_EQ(logs[0].entries[3], (std::pair<std::int64_t, int>{12'000, 0}));
}

TEST(ParallelEngine, SamePartitionSendSkipsLookaheadFloor) {
  ParallelEngine eng{2, {.threads = 2, .lookahead = 10_us}};
  Log log;
  Partition* p0 = &eng.partition(0);
  Log* lp = &log;
  // delay far below lookahead: legal because it never crosses partitions.
  p0->post(SimDuration{0}, CrossCall{[p0, lp] {
             p0->send(p0->id(), SimDuration{5}, CrossCall{[p0, lp] {
                        lp->entries.emplace_back(p0->scheduler().now().ns(), 1);
                      }});
           }});
  eng.run();
  ASSERT_EQ(log.entries.size(), 1u);
  EXPECT_EQ(log.entries[0].first, 5);
  EXPECT_EQ(eng.messages_delivered(), 0u);  // local fast path, no RemoteMsg
}

TEST(ParallelEngineDeathTest, RemoteSendOutsideAnEpochSliceIsRejected) {
  // After run() returns, no slice is open: a remote send from setup code
  // must be rejected, not parked in a stale outbox and delivered next
  // epoch without any horizon check.
  const auto send_after_run = [] {
    ParallelEngine eng{2, {.threads = 1, .lookahead = 1_us}};
    Partition* p0 = &eng.partition(0);
    Partition* p1 = &eng.partition(1);
    p0->post(SimDuration{0}, CrossCall{[p0, p1] {
               p0->send(p1->id(), SimDuration{2'000}, CrossCall{[] {}});
             }});
    eng.run();
    p0->send(p1->id(), SimDuration{2'000}, CrossCall{[] {}});
  };
  EXPECT_DEATH(send_after_run(), "out_cur_ != nullptr");
  // Setup code before the first run() is rejected the same way.
  const auto send_before_run = [] {
    ParallelEngine eng{2, {.threads = 1, .lookahead = 1_us}};
    eng.partition(0).send(1, SimDuration{2'000}, CrossCall{[] {}});
  };
  EXPECT_DEATH(send_before_run(), "out_cur_ != nullptr");
}

TEST(ParallelEngine, SimultaneousArrivalsMergeBySourceThenSeq) {
  // Partitions 1..4 each send two messages to partition 0, all arriving at
  // the same instant. The deterministic merge key (at, src, seq) fixes the
  // delivery order regardless of which worker ran which sender.
  for (const int threads : {1, 2, 4}) {
    ParallelEngine eng{5, {.threads = threads, .lookahead = 1_us}};
    Log log;
    Partition* dst = &eng.partition(0);
    Log* lp = &log;
    for (PartitionId src = 1; src <= 4; ++src) {
      Partition* sp = &eng.partition(src);
      const int tag_base = static_cast<int>(src) * 10;
      sp->post(SimDuration{0}, CrossCall{[sp, dst, lp, tag_base] {
                 // Arrival time 2us for every message from every source.
                 sp->send(dst->id(), SimDuration{2'000}, CrossCall{[dst, lp, tag_base] {
                            lp->entries.emplace_back(dst->scheduler().now().ns(), tag_base);
                          }});
                 sp->send(dst->id(), SimDuration{2'000}, CrossCall{[dst, lp, tag_base] {
                            lp->entries.emplace_back(dst->scheduler().now().ns(), tag_base + 1);
                          }});
               }});
    }
    eng.run();
    ASSERT_EQ(log.entries.size(), 8u) << "threads=" << threads;
    std::vector<int> tags;
    for (const auto& [at, tag] : log.entries) {
      EXPECT_EQ(at, 2'000);
      tags.push_back(tag);
    }
    EXPECT_EQ(tags, (std::vector<int>{10, 11, 20, 21, 30, 31, 40, 41}))
        << "threads=" << threads;
  }
}

TEST(ParallelEngine, StallAccountingIsDeterministic) {
  // Partition 0 ticks every 1us for 32us; partition 1 holds a single far
  // event. Partition 1 retires nothing for many epochs while its queue is
  // non-empty — exactly the lookahead-stall definition.
  std::vector<std::uint64_t> stalls;
  for (const int threads : {1, 2}) {
    ParallelEngine eng{2, {.threads = threads, .lookahead = 1_us}};
    eng.partition(0).spawn([] {
      return []() -> Task<> {
        for (int i = 0; i < 32; ++i) co_await delay(1_us);
      }();
    });
    eng.partition(1).spawn([] {
      return []() -> Task<> { co_await delay(100_us); }();
    });
    eng.run();
    EXPECT_EQ(eng.unfinished_count(), 0u);
    EXPECT_GT(eng.stalled_partition_epochs(), 0u);
    stalls.push_back(eng.stalled_partition_epochs());
  }
  EXPECT_EQ(stalls[0], stalls[1]);
}

TEST(ParallelEngine, TaskFailureRethrownAfterDrain) {
  ParallelEngine eng{3, {.threads = 2, .lookahead = 1_us}};
  eng.partition(2).spawn([] {
    return []() -> Task<> {
      co_await delay(3_us);
      throw std::runtime_error("partition failure");
    }();
  });
  EXPECT_THROW(eng.run(), std::runtime_error);
}

// -- Whole-simulation determinism fingerprints ----------------------------

/// Engine-side statistics of one run_ring execution, for the matrix-mode
/// comparisons below (the fingerprint alone proves timing equality).
struct RingStats {
  std::uint64_t epochs = 0;
  std::uint64_t stalled = 0;
  std::uint64_t horizon_gain_ns = 0;
};

/// Ring workload: `n` partitions, each running a local delay loop and
/// forwarding a token around the ring every 2us. Returns the concatenated
/// logs as the fingerprint. With `matrix` set, the ring's lookahead-edge
/// graph (successor edges at the true 2us forwarding delay) replaces the
/// 1us global window.
std::vector<std::pair<std::int64_t, int>> run_ring(int partitions, int threads,
                                                   std::uint64_t jitter_seed,
                                                   bool matrix = false,
                                                   RingStats* stats = nullptr) {
  ParallelEngine eng{partitions,
                     {.threads = threads, .lookahead = 1_us, .jitter_seed = jitter_seed}};
  if (matrix) {
    std::vector<LookaheadEdge> edges;
    for (int p = 0; p < partitions; ++p) {
      edges.push_back(LookaheadEdge{static_cast<PartitionId>(p),
                                    static_cast<PartitionId>((p + 1) % partitions),
                                    SimDuration{2'000}});
    }
    eng.set_lookahead_edges(edges);
  }
  std::vector<Log> logs(static_cast<std::size_t>(partitions));

  struct Token {
    ParallelEngine* eng;
    Log* logs;
    int partitions;
    int remaining;

    void operator()() const {
      Partition* here = nullptr;
      // Identify the running partition via the token's hop count.
      const int hop_total = partitions * 8;
      const int hop_index = hop_total - remaining;
      const PartitionId id = static_cast<PartitionId>(hop_index % partitions);
      here = &eng->partition(id);
      logs[id].entries.emplace_back(here->scheduler().now().ns(), remaining);
      if (remaining > 0) {
        const PartitionId next = static_cast<PartitionId>((id + 1) % partitions);
        here->send(next, SimDuration{2'000},
                   Token{eng, logs, partitions, remaining - 1});
      }
    }
  };

  for (PartitionId id = 0; id < static_cast<PartitionId>(partitions); ++id) {
    eng.partition(id).spawn([] {
      return []() -> Task<> {
        for (int i = 0; i < 16; ++i) co_await delay(1'500_ns);
      }();
    });
  }
  eng.partition(0).post(SimDuration{0},
                        Token{&eng, logs.data(), partitions, partitions * 8});
  eng.run();
  EXPECT_EQ(eng.unfinished_count(), 0u);
  if (stats != nullptr) {
    stats->epochs = eng.epochs();
    stats->stalled = eng.stalled_partition_epochs();
    stats->horizon_gain_ns = eng.horizon_gain_ns();
  }

  std::vector<std::pair<std::int64_t, int>> fingerprint;
  for (const Log& log : logs) {
    fingerprint.emplace_back(-1, static_cast<int>(log.entries.size()));
    fingerprint.insert(fingerprint.end(), log.entries.begin(), log.entries.end());
  }
  return fingerprint;
}

TEST(ParallelEngine, RingIsIdenticalAtAnyThreadCount) {
  const auto baseline = run_ring(8, 1, 0);
  EXPECT_FALSE(baseline.empty());
  for (const int threads : {2, 4, 8}) {
    EXPECT_EQ(run_ring(8, threads, 0), baseline) << "threads=" << threads;
  }
}

TEST(ParallelEngine, RingIsIdenticalUnderClaimJitter) {
  // Seeded wakeup jitter scrambles the partition -> worker assignment
  // between runs; the simulation fingerprint must not notice.
  const auto baseline = run_ring(8, 1, 0);
  for (const std::uint64_t seed : {0x1ULL, 0xdecafULL, 0x9e3779b97f4a7c15ULL}) {
    EXPECT_EQ(run_ring(8, 4, seed), baseline) << "seed=" << seed;
  }
}

TEST(ParallelEngine, LookaheadMatrixPreservesFingerprint) {
  // The matrix only widens epoch horizons; it must never change simulated
  // timing, at any thread count.
  const auto baseline = run_ring(8, 1, 0, /*matrix=*/false);
  for (const int threads : {1, 2, 8}) {
    EXPECT_EQ(run_ring(8, threads, 0, /*matrix=*/true), baseline)
        << "threads=" << threads;
  }
}

TEST(ParallelEngine, LookaheadMatrixReducesEpochsAndReportsGain) {
  RingStats global;
  RingStats matrix;
  const auto base = run_ring(8, 1, 0, /*matrix=*/false, &global);
  EXPECT_EQ(run_ring(8, 1, 0, /*matrix=*/true, &matrix), base);
  // Distance-aware horizons only let partitions run further per epoch, so
  // the barrier count drops and the accumulated horizon gain (widening
  // over the uniform floor) is strictly positive. Stalled partition-epochs
  // are NOT compared: a partition that raced ahead under its wide private
  // horizon books a "stall" while it waits for upstream — a state the
  // global window never reaches because nobody gets ahead of t_min + L.
  // The token-ring bench (bench_perf_par_des) covers the stall drop on a
  // workload where the global window genuinely convoys.
  EXPECT_LE(matrix.epochs, global.epochs);
  EXPECT_EQ(global.horizon_gain_ns, 0u);  // global mode reports no gain
  EXPECT_GT(matrix.horizon_gain_ns, 0u);
}

TEST(ParallelEngine, MatrixMinSendDelayIsPerEdge) {
  ParallelEngine eng{3, {.threads = 1, .lookahead = 1_us}};
  eng.set_lookahead_edges({LookaheadEdge{0, 1, SimDuration{2'000}},
                           LookaheadEdge{1, 2, SimDuration{5'000}},
                           LookaheadEdge{0, 1, SimDuration{3'000}}});
  EXPECT_TRUE(eng.lookahead_matrix());
  // Duplicate declarations keep the minimum; undeclared pairs are
  // unreachable and reject sends outright.
  EXPECT_EQ(eng.min_send_delay(0, 1), SimDuration{2'000});
  EXPECT_EQ(eng.min_send_delay(1, 2), SimDuration{5'000});
  EXPECT_GT(eng.min_send_delay(2, 0), SimDuration{1'000'000'000});
}

// -- Sender-side routing under concurrency ---------------------------------

/// One cross-partition delivery: logs (arrival ns, tag) in the receiving
/// partition's own log.
struct Deliver {
  Partition* here;
  Log* log;
  int tag;

  void operator()() const { log->entries.emplace_back(here->scheduler().now().ns(), tag); }
};

/// All-to-all rounds: every round each partition sends three messages to
/// every other partition, so every destination's inbox chain is pushed by
/// every worker block in the same epoch (fan-in) while every sender links
/// onto every chain (fan-out). Two messages per pair tie on arrival time
/// across all sources; the third lands at a source-dependent offset.
/// Tags encode (src, round, seq), so the merge key orders each log by
/// (time, tag).
std::vector<std::pair<std::int64_t, int>> run_all_to_all(int threads, std::uint64_t jitter_seed) {
  constexpr int kParts = 16;
  constexpr int kRounds = 5;
  ParallelEngine eng{kParts, {.threads = threads, .lookahead = 1_us, .jitter_seed = jitter_seed}};
  std::vector<Log> logs(kParts);
  for (PartitionId src = 0; src < kParts; ++src) {
    eng.partition(src).spawn([&eng, &logs, src] {
      return [](ParallelEngine& e, Log* all, PartitionId me) -> Task<> {
        Partition& here = e.partition(me);
        for (int round = 0; round < kRounds; ++round) {
          co_await delay(5_us);
          for (PartitionId dst = 0; dst < kParts; ++dst) {
            if (dst == me) continue;
            Partition* to = &e.partition(dst);
            const int tag = static_cast<int>(me) * 1000 + round * 10;
            here.send(dst, 2_us, Deliver{to, &all[dst], tag});
            here.send(dst, 2_us, Deliver{to, &all[dst], tag + 1});
            here.send(dst, SimDuration{2'000 + 100 * (me % 3)}, Deliver{to, &all[dst], tag + 2});
          }
        }
      }(eng, logs.data(), src);
    });
  }
  eng.run();
  EXPECT_EQ(eng.unfinished_count(), 0u);
  EXPECT_EQ(eng.messages_delivered(), std::uint64_t{kParts} * (kParts - 1) * kRounds * 3);

  std::vector<std::pair<std::int64_t, int>> fingerprint;
  for (const Log& log : logs) {
    EXPECT_EQ(log.entries.size(), std::size_t{(kParts - 1) * kRounds * 3});
    EXPECT_TRUE(std::is_sorted(log.entries.begin(), log.entries.end()));
    fingerprint.emplace_back(-1, static_cast<int>(log.entries.size()));
    fingerprint.insert(fingerprint.end(), log.entries.begin(), log.entries.end());
  }
  return fingerprint;
}

TEST(ParallelEngine, AllToAllDeliveryIsIdenticalAtAnyThreadCount) {
  const auto baseline = run_all_to_all(1, 0);
  for (const int threads : {2, 4}) {
    EXPECT_EQ(run_all_to_all(threads, 0), baseline) << "threads=" << threads;
  }
  for (const std::uint64_t seed : {0x2ULL, 0xfeedULL}) {
    EXPECT_EQ(run_all_to_all(4, seed), baseline) << "seed=" << seed;
  }
}

// -- Horizon computation against a reference Dijkstra ----------------------

/// The per-epoch horizon search as a plain multi-source Dijkstra over
/// adjacency lists (the engine's earlier implementation): every active
/// node is a heap seed, and h_j is the least relaxation into j.
std::vector<SimTime> reference_horizons(const std::vector<SimTime>& avail,
                                        const std::vector<LookaheadEdge>& edges) {
  const std::size_t n = avail.size();
  std::vector<std::vector<std::pair<PartitionId, std::int64_t>>> out(n);
  for (const LookaheadEdge& e : edges) out[e.src].emplace_back(e.dst, e.lookahead.ns());
  std::vector<SimTime> dist = avail;
  std::vector<SimTime> arrive(n, SimTime::max());
  using Node = std::pair<SimTime, PartitionId>;
  std::vector<Node> heap;
  for (std::size_t i = 0; i < n; ++i) {
    if (avail[i] != SimTime::max()) heap.emplace_back(avail[i], static_cast<PartitionId>(i));
  }
  const auto later = [](const Node& a, const Node& b) { return a > b; };
  std::make_heap(heap.begin(), heap.end(), later);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const auto [at, part] = heap.back();
    heap.pop_back();
    if (at > dist[part]) continue;
    for (const auto& [dst, ns] : out[part]) {
      const SimTime cand = at + SimDuration{ns};
      arrive[dst] = std::min(arrive[dst], cand);
      if (cand < dist[dst]) {
        dist[dst] = cand;
        heap.emplace_back(cand, dst);
        std::push_heap(heap.begin(), heap.end(), later);
      }
    }
  }
  return arrive;
}

/// CSR form of an edge list, duplicates kept in input order.
detail::LookaheadCsr to_csr(std::size_t n, const std::vector<LookaheadEdge>& edges) {
  detail::LookaheadCsr csr;
  csr.offset.assign(n + 1, 0);
  for (const LookaheadEdge& e : edges) ++csr.offset[e.src + 1];
  for (std::size_t i = 0; i < n; ++i) csr.offset[i + 1] += csr.offset[i];
  csr.dst.resize(edges.size());
  csr.ns.resize(edges.size());
  std::vector<std::uint32_t> fill(csr.offset.begin(), csr.offset.end() - 1);
  for (const LookaheadEdge& e : edges) {
    const std::uint32_t k = fill[e.src]++;
    csr.dst[k] = e.dst;
    csr.ns[k] = e.lookahead.ns();
  }
  return csr;
}

TEST(EpochHorizons, MatchesReferenceDijkstraOnRandomGraphs) {
  Rng rng{0x40415a};
  detail::HorizonScratch scratch;
  int heap_cases = 0;
  int sweep_only_cases = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(40);
    // Seeds range from all-equal (spread 0: nothing improves, the sweep
    // alone settles every label) to far apart (labels improve, so the
    // heap path runs); some nodes are idle (SimTime::max).
    const std::uint64_t spread = std::uint64_t{1} << rng.uniform_index(12);
    const int idle_per_16 =
        rng.uniform_index(3) == 0 ? static_cast<int>(rng.uniform_index(17)) : 0;
    std::vector<SimTime> avail(n);
    for (SimTime& a : avail) {
      a = static_cast<int>(rng.uniform_index(16)) < idle_per_16
              ? SimTime::max()
              : SimTime{1'000 + static_cast<std::int64_t>(rng.uniform_index(spread))};
    }
    // Short lookaheads from a small set force distance ties; duplicate
    // edges (same pair, different bounds) and nodes without in-edges
    // occur at random.
    std::vector<LookaheadEdge> edges;
    const std::size_t m = n < 2 ? 0 : rng.uniform_index(3 * n + 1);
    for (std::size_t k = 0; k < m; ++k) {
      const auto src = static_cast<PartitionId>(rng.uniform_index(n));
      auto dst = static_cast<PartitionId>(rng.uniform_index(n - 1));
      if (dst >= src) ++dst;
      edges.push_back({src, dst, SimDuration{1 + static_cast<std::int64_t>(rng.uniform_index(8))}});
      if (rng.uniform_index(4) == 0) {
        edges.push_back({src, dst, SimDuration{1 + static_cast<std::int64_t>(rng.uniform_index(8))}});
      }
    }
    std::vector<SimTime> got(n);
    const std::size_t seeds = detail::epoch_horizons(avail, to_csr(n, edges), got, scratch);
    ASSERT_EQ(got, reference_horizons(avail, edges)) << "trial=" << trial << " n=" << n;
    (seeds > 0 ? heap_cases : sweep_only_cases) += 1;
  }
  EXPECT_GT(heap_cases, 200);
  EXPECT_GT(sweep_only_cases, 200);
}

TEST(EpochHorizons, IdleAndUnreachableNodesGetNoHorizon) {
  // 0 -> 1 -> 2 chain plus an isolated node 3. Only node 1 is active.
  const std::vector<LookaheadEdge> edges{{0, 1, SimDuration{5}}, {1, 2, SimDuration{7}}};
  const auto csr = to_csr(4, edges);
  detail::HorizonScratch scratch;
  std::vector<SimTime> got(4);
  const std::vector<SimTime> avail{SimTime::max(), SimTime{100}, SimTime::max(), SimTime{3}};
  EXPECT_EQ(detail::epoch_horizons(avail, csr, got, scratch), 1u);  // node 2 improves
  EXPECT_EQ(got, (std::vector<SimTime>{SimTime::max(), SimTime::max(), SimTime{107},
                                       SimTime::max()}));
  const std::vector<SimTime> idle(4, SimTime::max());
  EXPECT_EQ(detail::epoch_horizons(idle, csr, got, scratch), 0u);
  EXPECT_EQ(got, idle);
}

TEST(EpochHorizons, TransitiveChainsThroughIdleNodesAreFollowed) {
  // Node 0 is early; 1 and 2 are idle relays; node 3's direct in-edge is
  // from late node 4. The chain 0 -> 1 -> 2 -> 3 must bound h_3.
  const std::vector<LookaheadEdge> edges{
      {0, 1, SimDuration{10}}, {1, 2, SimDuration{10}}, {2, 3, SimDuration{10}},
      {4, 3, SimDuration{1}}};
  detail::HorizonScratch scratch;
  std::vector<SimTime> got(5);
  const std::vector<SimTime> avail{SimTime{0}, SimTime::max(), SimTime::max(), SimTime{500},
                                   SimTime{1'000}};
  detail::epoch_horizons(avail, to_csr(5, edges), got, scratch);
  EXPECT_EQ(got[1], SimTime{10});
  EXPECT_EQ(got[2], SimTime{20});
  EXPECT_EQ(got[3], SimTime{30});
  EXPECT_EQ(got[0], SimTime::max());
  EXPECT_EQ(got, reference_horizons(avail, edges));
}

}  // namespace
}  // namespace rsd::sim
