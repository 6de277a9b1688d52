// PartitionedRow under each pluggable fabric: the digest must be
// byte-identical at any worker-thread count, the ring and full-mesh
// fabrics must coincide (one hop either way for ring-successor traffic),
// and a fabric whose device paths have zero latency must be rejected —
// it cannot bound cross-partition message arrival.
#include "gpusim/row.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/error.hpp"
#include "interconnect/fabric.hpp"

namespace rsd::gpu {
namespace {

using namespace rsd::literals;

RowTraining small_training() {
  RowTraining training;
  training.kernels = {RowKernel{NameRef{"fwd"}, 50_us}, RowKernel{NameRef{"bwd"}, 100_us}};
  training.submit_cost = 2_us;
  training.gradient_bytes = 32 * kMiB;
  training.steps = 2;
  return training;
}

struct RowRun {
  std::uint64_t digest;
  SimTime finish;
};

RowRun run_row(net::FabricKind kind, int gpus, int threads) {
  RowParams params;
  params.gpus = gpus;
  params.fabric_kind = kind;
  params.sim_threads = threads;
  PartitionedRow row{params};
  const SimTime finish = row.run_training(small_training());
  return RowRun{row.digest(), finish};
}

TEST(RowFabric, DigestIsThreadCountInvariantPerFabric) {
  for (const net::FabricKind kind : net::all_fabric_kinds()) {
    const RowRun base = run_row(kind, 16, 1);
    for (const int threads : {2, 8}) {
      const RowRun run = run_row(kind, 16, threads);
      EXPECT_EQ(run.digest, base.digest)
          << net::to_string(kind) << " at " << threads << " threads";
      EXPECT_EQ(run.finish, base.finish) << net::to_string(kind);
    }
  }
}

TEST(RowFabric, RingAndFullMeshCoincide) {
  // Ring traffic only crosses successor links; on both fabrics that is a
  // single dedicated hop with the same latency and bandwidth.
  const RowRun ring = run_row(net::FabricKind::kRing, 16, 2);
  const RowRun mesh = run_row(net::FabricKind::kFullMesh, 16, 2);
  EXPECT_EQ(ring.digest, mesh.digest);
  EXPECT_EQ(ring.finish, mesh.finish);
}

TEST(RowFabric, SwitchedFabricsDiverge) {
  const RowRun ring = run_row(net::FabricKind::kRing, 16, 2);
  const RowRun eswitch = run_row(net::FabricKind::kElectricalSwitch, 16, 2);
  const RowRun ocs = run_row(net::FabricKind::kOpticalCircuit, 16, 2);
  // The electrical switch adds a forwarding hop to every chunk; the OCS
  // drops the forwarding cost but pays one circuit reconfiguration per
  // rank up front.
  EXPECT_GT(eswitch.finish, ring.finish);
  EXPECT_NE(ocs.digest, eswitch.digest);
  EXPECT_NE(ocs.finish, eswitch.finish);
}

TEST(RowFabric, TopologyLookaheadMatchesShortestDevicePath) {
  RowParams params;
  params.gpus = 8;
  params.fabric_kind = net::FabricKind::kElectricalSwitch;
  PartitionedRow row{params};
  EXPECT_EQ(row.topology().min_device_path_latency(),
            params.fabric.latency + duration::microseconds(0.12) + params.fabric.latency);
}

TEST(RowFabric, ZeroLatencyFabricIsRejected) {
  RowParams params;
  params.gpus = 4;
  params.fabric.latency = SimDuration::zero();
  try {
    PartitionedRow row{params};
    FAIL() << "expected rsd::Error for a zero-latency device path";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
  }
}

TEST(RowFabric, MultiChassisDigestIsThreadCountInvariantAndSlowerThanFlat) {
  // With chassis NICs on, ring edges that cross a chassis boundary are
  // priced over the routed NIC + fibre path. The digest must stay
  // byte-identical at any worker-thread count, and the fibre serialisation
  // must strictly lengthen the step relative to the flat row.
  for (const net::FabricKind kind : net::all_fabric_kinds()) {
    RowParams params;
    params.gpus = 16;
    params.fabric_kind = kind;
    params.gpus_per_chassis = 4;
    params.chassis_nics = true;
    params.sim_threads = 1;
    PartitionedRow base_row{params};
    const SimTime base_finish = base_row.run_training(small_training());

    for (const int threads : {2, 8}) {
      RowParams p = params;
      p.sim_threads = threads;
      PartitionedRow row{p};
      const SimTime finish = row.run_training(small_training());
      EXPECT_EQ(row.digest(), base_row.digest())
          << net::to_string(kind) << " at " << threads << " threads";
      EXPECT_EQ(finish, base_finish) << net::to_string(kind);
    }

    const RowRun flat = run_row(kind, 16, 1);
    EXPECT_GT(base_finish, flat.finish) << net::to_string(kind);
    EXPECT_NE(base_row.digest(), flat.digest) << net::to_string(kind);
  }
}

TEST(RowFabric, SingleGpuRowStillRuns) {
  // One rank has no cross-partition traffic; the engine falls back to the
  // link latency as lookahead and the allreduce is a no-op.
  const RowRun run = run_row(net::FabricKind::kRing, 1, 1);
  EXPECT_GT(run.finish, SimTime::zero());
}

TEST(RowFabric, LookaheadMatrixMatchesGlobalLookaheadPerFabric) {
  // The per-pair lookahead matrix only widens epoch horizons; digests and
  // finish times must match the single global window on every fabric at
  // every thread count.
  for (const net::FabricKind kind : net::all_fabric_kinds()) {
    RowParams global_params;
    global_params.gpus = 16;
    global_params.fabric_kind = kind;
    global_params.sim_threads = 1;
    global_params.lookahead_matrix = false;
    PartitionedRow global_row{global_params};
    const SimTime global_finish = global_row.run_training(small_training());

    for (const int threads : {1, 2, 8}) {
      RowParams params;
      params.gpus = 16;
      params.fabric_kind = kind;
      params.sim_threads = threads;
      params.lookahead_matrix = true;
      PartitionedRow row{params};
      const SimTime finish = row.run_training(small_training());
      EXPECT_EQ(row.digest(), global_row.digest())
          << net::to_string(kind) << " at " << threads << " threads";
      EXPECT_EQ(finish, global_finish) << net::to_string(kind);
    }
  }
}

TEST(RowFabric, SharedTopologyMatchesOwned) {
  // A prebuilt fabric passed through RowParams::topology must behave
  // exactly like the row's privately built one — including when several
  // rows share it back to back (warm route tables and all).
  for (const net::FabricKind kind : net::all_fabric_kinds()) {
    const RowRun owned = run_row(kind, 16, 2);
    net::FabricParams fparams;
    fparams.kind = kind;
    fparams.gpus = 16;
    const net::Topology topo = net::build_fabric(fparams);
    for (int repeat = 0; repeat < 2; ++repeat) {
      RowParams params;
      params.gpus = 16;
      params.fabric_kind = kind;
      params.sim_threads = 2;
      params.topology = &topo;
      PartitionedRow row{params};
      const SimTime finish = row.run_training(small_training());
      EXPECT_EQ(row.digest(), owned.digest) << net::to_string(kind);
      EXPECT_EQ(finish, owned.finish) << net::to_string(kind);
    }
  }
}

/// Per-partition frame-arena carve counts after one training run.
std::vector<std::uint64_t> carved_per_partition(int steps, int threads) {
  RowParams params;
  params.gpus = 64;
  params.sim_threads = threads;
  PartitionedRow row{params};
  RowTraining training = small_training();
  training.steps = steps;
  (void)row.run_training(training);
  std::vector<std::uint64_t> carved;
  for (int i = 0; i < row.size(); ++i) {
    carved.push_back(
        row.engine().partition(static_cast<sim::PartitionId>(i)).arena().stats().carved);
  }
  return carved;
}

TEST(RowMemory, FramesAreRecycledAcrossRingPhasesAndSteps) {
  // Every ring phase spawns root tasks (the outbound DMA, the delivered
  // message, the inbound DMA) in each partition. Their frames go back to
  // the partition's arena when they finish, so a 4-step run carves exactly
  // the frames a 1-step run does: memory follows the live set, not the
  // number of phases.
  for (const int threads : {1, 4}) {
    const auto one = carved_per_partition(1, threads);
    const auto four = carved_per_partition(4, threads);
    EXPECT_EQ(one, four) << threads << " threads";
    for (const std::uint64_t c : four) EXPECT_LE(c, 64u);
  }
}

}  // namespace
}  // namespace rsd::gpu
