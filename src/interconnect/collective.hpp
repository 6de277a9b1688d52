// Collectives as data: one allreduce schedule per algorithm, one executor.
//
// `allreduce_schedule` decomposes an allreduce into point-to-point
// transfers once, as plain data; `run_schedule` executes any schedule,
// handing each phase to a caller-supplied launcher. Two executors share
// it: `run_allreduce` / `measure_allreduce` launch every transfer over
// `net::Network` links with FIFO contention (so fabric shape, shared-link
// queueing and OCS circuit reconfiguration all show up in the result),
// and `gpu::Chassis::ring_allreduce` launches them on the devices' copy
// engines. On an uncontended fabric the ring and tree schedules reproduce
// `ring_allreduce_time` / `tree_allreduce_time` (gpusim/collective.hpp)
// exactly — the closed forms stay as the oracle, asserted by
// tests/net_collective_test.cpp.
//
//   * ring:         2(n-1) bulk-synchronous neighbour phases moving
//                   bytes/n chunks (reduce-scatter + allgather);
//   * tree:         binomial reduce to rank 0 then binomial broadcast,
//                   full payload per transfer, 2*ceil(log2 n) rounds;
//   * hierarchical: ring allreduce inside each chassis, ring allreduce
//                   across chassis leaders, then leaders fan the result
//                   back out — the intra-chassis-then-inter-chassis
//                   pattern a row of CDI chassis wants.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/units.hpp"
#include "interconnect/fabric.hpp"
#include "interconnect/network.hpp"
#include "sim/scheduler.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace rsd::net {

/// One point-to-point transfer between device indices (ranks).
struct Transfer {
  int src = 0;
  int dst = 0;
  Bytes bytes = 0;
};

/// The transfers of a phase run concurrently and are joined.
using Phase = std::vector<Transfer>;
/// The phases of a lane run in order.
using Lane = std::vector<Phase>;
/// The lanes of a stage run concurrently.
using Stage = std::vector<Lane>;
/// The stages of a schedule run in order.
using Schedule = std::vector<Stage>;

/// The allreduce of `bytes_per_rank` across ranks [0, participants) as
/// data. Ring is one lane of 2(n-1) phases and tree one lane of
/// 2*ceil(log2 n) phases; hierarchical is three stages — one lane per
/// chassis group with >= 2 members (groups in first-appearance order of
/// the devices' chassis tags in `topology`), one lane for the leaders'
/// ring, one fan-out phase. No phase is empty, but a lane may have no
/// phases (a ring of one rank, a fan-out with nobody to reach). Throws
/// rsd::Error{kInvalidArgument} when participants < 1 or exceeds the
/// topology's device count.
[[nodiscard]] Schedule allreduce_schedule(Algorithm algorithm, const Topology& topology,
                                          int participants, Bytes bytes_per_rank);

/// Starts the transfers of one phase (`phase_index` counts within its
/// lane). `wg` already counts every transfer of the phase; each must call
/// `wg.done()` when it completes.
using PhaseLauncher =
    std::function<void(const Phase& phase, int phase_index, sim::WaitGroup& wg)>;

/// Execute `schedule`: single-lane stages run inline in the caller,
/// multi-lane stages spawn one coroutine per lane and join them. Takes
/// the schedule by value so spawned lanes never outlive what they read.
/// Every phase must hold at least one transfer.
sim::Task<> run_schedule(sim::Scheduler& sched, Schedule schedule, PhaseLauncher launch);

/// Run the `algorithm` allreduce over the first `participants` devices of
/// the network's topology, every transfer a `transfer_between_devices`.
/// Throws like `allreduce_schedule`.
sim::Task<> run_allreduce(Network& network, Algorithm algorithm, Bytes bytes_per_rank,
                          int participants);

/// One-shot measurement harness: build a private scheduler + network over
/// `topology`, run the collective to completion, report simulated
/// duration and the network's transfer statistics. Deterministic.
struct AllreduceReport {
  SimDuration duration;
  std::uint64_t transfers = 0;
  std::uint64_t contended_transfers = 0;
  std::uint64_t reconfigurations = 0;
  SimDuration link_busy_total;
  /// Transfers priced on the express path (uncontended single-hop,
  /// closed-form timing — see Network's header).
  std::uint64_t express_transfers = 0;
  /// Dense route-table hits during this measurement (topology-level
  /// counter, reported as a delta so shared topologies don't bleed
  /// across runs).
  std::uint64_t route_hits = 0;
};

/// When `usage` is non-null it receives the network's per-link usage
/// sampler buckets (see `Network::link_usage`) — the raw material for
/// contention heatmaps.
[[nodiscard]] AllreduceReport measure_allreduce(const Topology& topology,
                                                Algorithm algorithm, Bytes bytes_per_rank,
                                                int participants,
                                                std::vector<LinkUsageSample>* usage = nullptr);

}  // namespace rsd::net
