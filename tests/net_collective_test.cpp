// Allreduce schedules as data, and their execution over net::Network vs
// the closed-form alpha-beta models: on an uncontended fabric the ring and
// tree schedules must reproduce gpu::ring_allreduce_time /
// gpu::tree_allreduce_time to the nanosecond — the analytic forms stay in
// the tree as this cross-check.
#include "interconnect/collective.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "gpusim/collective.hpp"
#include "interconnect/fabric.hpp"
#include "wl/program.hpp"

namespace rsd::net {
namespace {

constexpr int kGpus = 8;
constexpr Bytes kPayload = 32 * kMiB;  // divisible by kGpus: no chunk rounding

FabricParams fabric_params(FabricKind kind) {
  FabricParams params;
  params.kind = kind;
  params.gpus = kGpus;
  return params;
}

gpu::GpuInterconnect analytic_link(const FabricParams& params) {
  return gpu::GpuInterconnect{"fabric-link", params.link_bandwidth_gib_s,
                              params.link_latency};
}

TEST(NetCollective, RingMatchesClosedFormOnFullMesh) {
  const FabricParams params = fabric_params(FabricKind::kFullMesh);
  const Topology topo = build_fabric(params);
  const AllreduceReport report = measure_allreduce(topo, Algorithm::kRing, kPayload, kGpus);

  EXPECT_EQ(report.duration, gpu::ring_allreduce_time(kPayload, kGpus, analytic_link(params)));
  // 2(n-1) phases, one chunk per rank per phase, all on dedicated links.
  EXPECT_EQ(report.transfers, static_cast<std::uint64_t>(2 * (kGpus - 1) * kGpus));
  EXPECT_EQ(report.contended_transfers, 0u);
  EXPECT_EQ(report.reconfigurations, 0u);
}

TEST(NetCollective, RingMatchesClosedFormOnRingFabric) {
  // The ring algorithm only talks to ring successors, so the ring fabric
  // is just as uncontended as the full mesh and lands on the same time.
  const FabricParams params = fabric_params(FabricKind::kRing);
  const Topology topo = build_fabric(params);
  const AllreduceReport report = measure_allreduce(topo, Algorithm::kRing, kPayload, kGpus);

  EXPECT_EQ(report.duration, gpu::ring_allreduce_time(kPayload, kGpus, analytic_link(params)));
  EXPECT_EQ(report.contended_transfers, 0u);
}

TEST(NetCollective, TreeMatchesClosedFormOnFullMesh) {
  const FabricParams params = fabric_params(FabricKind::kFullMesh);
  const Topology topo = build_fabric(params);
  const AllreduceReport report = measure_allreduce(topo, Algorithm::kTree, kPayload, kGpus);

  EXPECT_EQ(report.duration, gpu::tree_allreduce_time(kPayload, kGpus, analytic_link(params)));
  // Binomial reduce + broadcast: n-1 full-payload sends each way.
  EXPECT_EQ(report.transfers, static_cast<std::uint64_t>(2 * (kGpus - 1)));
  EXPECT_EQ(report.contended_transfers, 0u);
}

TEST(NetCollective, HierarchicalSingleChassisIsRingPlusFanOut) {
  // One chassis: stage 1 is the plain ring, the leader "ring" is a
  // singleton no-op, and stage 3 fans the payload from the leader to the
  // other n-1 ranks over dedicated mesh links in one concurrent round.
  const FabricParams params = fabric_params(FabricKind::kFullMesh);
  const Topology topo = build_fabric(params);
  const AllreduceReport report =
      measure_allreduce(topo, Algorithm::kHierarchical, kPayload, kGpus);

  const gpu::GpuInterconnect link = analytic_link(params);
  const SimDuration fan_out = gpu::detail::transfer(link, static_cast<double>(kPayload));
  EXPECT_EQ(report.duration, gpu::ring_allreduce_time(kPayload, kGpus, link) + fan_out);
  EXPECT_EQ(report.contended_transfers, 0u);

  // Uneven chassis, 12 GPUs at 8 per chassis: the 8- and 4-rank chassis
  // rings run concurrently but not in lockstep, so stage 1 lasts as long as
  // the slower ring alone; then the 2-leader ring and one fan-out round.
  FabricParams uneven = params;
  uneven.gpus = 12;
  const AllreduceReport r12 =
      measure_allreduce(build_fabric(uneven), Algorithm::kHierarchical, kPayload, 12);
  const auto ring = [&](int n) { return gpu::ring_allreduce_time(kPayload, n, link); };
  EXPECT_EQ(r12.duration, std::max(ring(8), ring(4)) + ring(2) + fan_out);
  EXPECT_EQ(r12.contended_transfers, 0u);
}

TEST(NetCollective, RingScheduleIsOneLaneOfNeighbourChunks) {
  const Topology topo = build_fabric(fabric_params(FabricKind::kFullMesh));
  for (const int n : {1, 2, 3, 8}) {
    const Schedule schedule = allreduce_schedule(Algorithm::kRing, topo, n, kPayload);
    ASSERT_EQ(schedule.size(), 1u);
    ASSERT_EQ(schedule[0].size(), 1u);
    const Lane& lane = schedule[0][0];
    EXPECT_EQ(lane.size(), static_cast<std::size_t>(2 * (n - 1))) << "n=" << n;
    for (const Phase& phase : lane) {
      ASSERT_EQ(phase.size(), static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) {
        const Transfer& t = phase[static_cast<std::size_t>(i)];
        EXPECT_EQ(t.src, i);
        EXPECT_EQ(t.dst, (i + 1) % n);
        EXPECT_EQ(t.bytes, kPayload / static_cast<Bytes>(n));
      }
    }
  }
}

TEST(NetCollective, TreeScheduleCoversNonPowerOfTwo) {
  // n = 5: ceil(log2 5) = 3 reduce rounds, then the mirrored broadcast.
  const Topology topo = build_fabric(fabric_params(FabricKind::kFullMesh));
  const Schedule schedule = allreduce_schedule(Algorithm::kTree, topo, 5, kPayload);
  ASSERT_EQ(schedule.size(), 1u);
  ASSERT_EQ(schedule[0].size(), 1u);
  std::vector<std::vector<std::pair<int, int>>> pairs;
  for (const Phase& phase : schedule[0][0]) {
    auto& round = pairs.emplace_back();
    for (const Transfer& t : phase) {
      EXPECT_EQ(t.bytes, kPayload);
      round.emplace_back(t.src, t.dst);
    }
  }
  const std::vector<std::vector<std::pair<int, int>>> expected{
      {{1, 0}, {3, 2}}, {{2, 0}}, {{4, 0}},  // reduce, strides 1, 2, 4
      {{0, 4}}, {{0, 2}}, {{0, 1}, {2, 3}},  // broadcast, strides 4, 2, 1
  };
  EXPECT_EQ(pairs, expected);
}

TEST(NetCollective, HierarchicalScheduleOnUnevenChassis) {
  // 12 GPUs at 8 per chassis: chassis {0..7} and {8..11}.
  FabricParams params = fabric_params(FabricKind::kFullMesh);
  params.gpus = 12;
  const Topology topo = build_fabric(params);
  const Schedule schedule = allreduce_schedule(Algorithm::kHierarchical, topo, 12, kPayload);
  ASSERT_EQ(schedule.size(), 3u);

  // Stage 1: one concurrent ring lane per chassis, 2(8-1) and 2(4-1) phases.
  ASSERT_EQ(schedule[0].size(), 2u);
  EXPECT_EQ(schedule[0][0].size(), 14u);
  EXPECT_EQ(schedule[0][1].size(), 6u);
  EXPECT_EQ(schedule[0][1][0].front().src, 8);
  EXPECT_EQ(schedule[0][1][0].front().bytes, kPayload / 4);

  // Stage 2: the two leaders' ring.
  ASSERT_EQ(schedule[1].size(), 1u);
  ASSERT_EQ(schedule[1][0].size(), 2u);
  for (const Phase& phase : schedule[1][0]) {
    ASSERT_EQ(phase.size(), 2u);
    EXPECT_EQ(phase[0].src, 0);
    EXPECT_EQ(phase[0].dst, 8);
    EXPECT_EQ(phase[1].src, 8);
    EXPECT_EQ(phase[1].dst, 0);
  }

  // Stage 3: one fan-out phase, group by group, member by member.
  ASSERT_EQ(schedule[2].size(), 1u);
  ASSERT_EQ(schedule[2][0].size(), 1u);
  const Phase& fan_out = schedule[2][0][0];
  ASSERT_EQ(fan_out.size(), 10u);
  for (std::size_t i = 0; i < fan_out.size(); ++i) {
    const int leader = i < 7 ? 0 : 8;
    const int member = i < 7 ? static_cast<int>(i) + 1 : static_cast<int>(i) + 2;
    EXPECT_EQ(fan_out[i].src, leader);
    EXPECT_EQ(fan_out[i].dst, member);
    EXPECT_EQ(fan_out[i].bytes, kPayload);
  }
}

TEST(NetCollective, SwitchedFabricsChargeTheExtraHop) {
  // Store-and-forward through the electrical switch serialises the payload
  // twice and pays the forwarding latency, so the single-hop closed form
  // is a strict lower bound there.
  const FabricParams params = fabric_params(FabricKind::kElectricalSwitch);
  const Topology topo = build_fabric(params);
  const AllreduceReport report = measure_allreduce(topo, Algorithm::kRing, kPayload, kGpus);
  EXPECT_GT(report.duration, gpu::ring_allreduce_time(kPayload, kGpus, analytic_link(params)));
}

TEST(NetCollective, OcsPaysOneReconfigurationPerIngressPort) {
  // The ring algorithm gives every GPU one fixed successor, so each
  // GPU-to-OCS ingress port is configured exactly once and then reused
  // for all 2(n-1) phases.
  const FabricParams params = fabric_params(FabricKind::kOpticalCircuit);
  const Topology ocs = build_fabric(params);
  const AllreduceReport o = measure_allreduce(ocs, Algorithm::kRing, kPayload, kGpus);
  EXPECT_EQ(o.reconfigurations, static_cast<std::uint64_t>(kGpus));

  const Topology eswitch = build_fabric(fabric_params(FabricKind::kElectricalSwitch));
  const AllreduceReport e = measure_allreduce(eswitch, Algorithm::kRing, kPayload, kGpus);
  EXPECT_EQ(e.reconfigurations, 0u);
  // Reconfiguration happens once up front; the per-phase cost is cheaper
  // than the electrical switch's forwarding, so the two fabrics must not
  // coincide.
  EXPECT_NE(o.duration, e.duration);
}

TEST(NetCollective, UsageSamplerAccountsEverySerializedNanosecond) {
  // The per-link usage buckets must tally exactly the busy time and
  // transfer count the network's cumulative counters report, and each
  // bucket is internally consistent (busy fits, queue depth sane).
  const FabricParams params = fabric_params(FabricKind::kFullMesh);
  const Topology topo = build_fabric(params);
  std::vector<LinkUsageSample> usage;
  const AllreduceReport report =
      measure_allreduce(topo, Algorithm::kRing, kPayload, kGpus, &usage);
  ASSERT_FALSE(usage.empty());

  std::int64_t busy = 0;
  std::uint64_t transfers = 0;
  for (std::size_t i = 0; i < usage.size(); ++i) {
    const LinkUsageSample& s = usage[i];
    EXPECT_GE(s.busy_ns, 0);
    EXPECT_GE(s.max_queue_depth, 0);
    busy += s.busy_ns;
    transfers += s.transfers;
    if (i > 0) {
      // Sorted by (link, bucket start), strictly: one sample per bucket.
      const LinkUsageSample& prev = usage[i - 1];
      EXPECT_TRUE(prev.link < s.link ||
                  (prev.link == s.link && prev.bucket_start_ns < s.bucket_start_ns));
    }
  }
  EXPECT_EQ(transfers, report.transfers);
  // Busy time books into the bucket where serialization began, so the
  // total equals the sum of serialization times: transfers * chunk time
  // on the uncontended mesh ring.
  EXPECT_GT(busy, 0);
}

TEST(NetCollective, SingleParticipantIsFree) {
  const Topology topo = build_fabric(fabric_params(FabricKind::kFullMesh));
  const AllreduceReport report = measure_allreduce(topo, Algorithm::kRing, kPayload, 1);
  EXPECT_EQ(report.duration, SimDuration::zero());
  EXPECT_EQ(report.transfers, 0u);
}

TEST(NetCollective, RejectsBadParticipantCounts) {
  const Topology topo = build_fabric(fabric_params(FabricKind::kFullMesh));
  EXPECT_THROW((void)measure_allreduce(topo, Algorithm::kRing, kPayload, 0), Error);
  EXPECT_THROW((void)measure_allreduce(topo, Algorithm::kRing, kPayload, kGpus + 1), Error);
}

TEST(NetCollective, ProgramValidateRejectsOversubscribedAllreduce) {
  wl::Program program;
  wl::Lane& lane = program.lanes.emplace_back();
  lane.allreduce(kPayload, 4, NameRef{"grad_exchange"});

  EXPECT_NO_THROW(program.validate());     // structural checks only
  EXPECT_NO_THROW(program.validate(4));    // exactly the machine's size
  EXPECT_THROW(program.validate(2), Error);  // 4 participants, 2 devices
}

}  // namespace
}  // namespace rsd::net
