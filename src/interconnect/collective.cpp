#include "interconnect/collective.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "core/error.hpp"

namespace rsd::net {

namespace {

/// Ring allreduce over `members`: reduce-scatter then allgather, 2(k-1)
/// bulk-synchronous phases, every member shipping one bytes/k chunk to
/// its ring successor per phase.
Lane ring_lane(const std::vector<int>& members, Bytes bytes_per_rank) {
  const std::size_t k = members.size();
  if (k <= 1) return {};
  const Bytes chunk = bytes_per_rank / static_cast<Bytes>(k);
  Lane lane(2 * (k - 1));
  for (Phase& phase : lane) {
    phase.reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
      phase.push_back(Transfer{members[i], members[(i + 1) % k], chunk});
    }
  }
  return lane;
}

/// Binomial reduce towards rank 0 (in round r every surviving rank at an
/// odd multiple of 2^r ships the full payload to its partner 2^r below),
/// then the mirrored broadcast back down. Rounds are bulk-synchronous: a
/// reduction needs both of its operands.
Lane tree_lane(int n, Bytes bytes_per_rank) {
  int rounds = 0;
  while ((1 << rounds) < n) ++rounds;
  Lane lane;
  lane.reserve(static_cast<std::size_t>(2 * rounds));
  for (int r = 0; r < rounds; ++r) {
    const int stride = 1 << r;
    Phase& phase = lane.emplace_back();
    for (int i = stride; i < n; i += 2 * stride) {
      phase.push_back(Transfer{i, i - stride, bytes_per_rank});
    }
  }
  for (int r = rounds - 1; r >= 0; --r) {
    const int stride = 1 << r;
    Phase& phase = lane.emplace_back();
    for (int i = stride; i < n; i += 2 * stride) {
      phase.push_back(Transfer{i - stride, i, bytes_per_rank});
    }
  }
  return lane;
}

/// Ring inside every chassis group (all groups concurrent), ring across
/// the group leaders, then the leaders fan the reduced payload back out.
Schedule hierarchical_schedule(const Topology& topology, int n, Bytes bytes_per_rank) {
  std::vector<int> tags;
  std::vector<std::vector<int>> groups;
  for (int rank = 0; rank < n; ++rank) {
    const int tag = topology.node(topology.device(rank)).chassis;
    const auto it = std::find(tags.begin(), tags.end(), tag);
    if (it == tags.end()) {
      tags.push_back(tag);
      groups.push_back({rank});
    } else {
      groups[static_cast<std::size_t>(it - tags.begin())].push_back(rank);
    }
  }

  Stage intra;
  std::vector<int> leaders;
  Phase fan_out;
  for (const std::vector<int>& members : groups) {
    if (members.size() >= 2) intra.push_back(ring_lane(members, bytes_per_rank));
    leaders.push_back(members.front());
    for (std::size_t m = 1; m < members.size(); ++m) {
      fan_out.push_back(Transfer{members.front(), members[m], bytes_per_rank});
    }
  }
  Schedule schedule(3);
  schedule[0] = std::move(intra);
  schedule[1].push_back(ring_lane(leaders, bytes_per_rank));
  Lane& fan_out_lane = schedule[2].emplace_back();
  if (!fan_out.empty()) fan_out_lane.push_back(std::move(fan_out));
  return schedule;
}

Schedule single_lane(Lane lane) {
  Schedule schedule(1);
  schedule.front().push_back(std::move(lane));
  return schedule;
}

sim::Task<> run_lane(sim::Scheduler& sched, const Lane& lane, const PhaseLauncher& launch) {
  for (std::size_t p = 0; p < lane.size(); ++p) {
    const Phase& phase = lane[p];
    RSD_ASSERT(!phase.empty());  // an empty phase would never be joined
    sim::WaitGroup wg{sched};
    wg.add(static_cast<std::int64_t>(phase.size()));
    launch(phase, static_cast<int>(p), wg);
    co_await wg.wait();
  }
}

sim::Task<> run_joined_lane(sim::Scheduler& sched, const Lane& lane,
                            const PhaseLauncher& launch, sim::WaitGroup& joined) {
  co_await run_lane(sched, lane, launch);
  joined.done();
}

sim::Task<> counted_transfer(Network& network, Transfer transfer, sim::WaitGroup& wg) {
  co_await network.transfer_between_devices(transfer.src, transfer.dst, transfer.bytes);
  wg.done();
}

}  // namespace

Schedule allreduce_schedule(Algorithm algorithm, const Topology& topology, int participants,
                            Bytes bytes_per_rank) {
  if (participants < 1) {
    throw Error{ErrorCode::kInvalidArgument,
                "net::allreduce_schedule: participants must be >= 1"};
  }
  if (participants > topology.device_count()) {
    throw Error{ErrorCode::kInvalidArgument,
                "net::allreduce_schedule: " + std::to_string(participants) +
                    " participants exceed the topology's " +
                    std::to_string(topology.device_count()) + " devices"};
  }
  switch (algorithm) {
    case Algorithm::kRing: {
      std::vector<int> ranks(static_cast<std::size_t>(participants));
      for (int i = 0; i < participants; ++i) ranks[static_cast<std::size_t>(i)] = i;
      return single_lane(ring_lane(ranks, bytes_per_rank));
    }
    case Algorithm::kTree:
      return single_lane(tree_lane(participants, bytes_per_rank));
    case Algorithm::kHierarchical:
      return hierarchical_schedule(topology, participants, bytes_per_rank);
  }
  throw Error{ErrorCode::kInvalidArgument, "net::allreduce_schedule: unknown algorithm"};
}

sim::Task<> run_schedule(sim::Scheduler& sched, Schedule schedule, PhaseLauncher launch) {
  for (const Stage& stage : schedule) {
    if (stage.size() == 1) {
      co_await run_lane(sched, stage.front(), launch);
      continue;
    }
    if (stage.empty()) continue;
    sim::WaitGroup joined{sched};
    joined.add(static_cast<std::int64_t>(stage.size()));
    for (const Lane& lane : stage) sched.spawn(run_joined_lane(sched, lane, launch, joined));
    co_await joined.wait();
  }
}

sim::Task<> run_allreduce(Network& network, Algorithm algorithm, Bytes bytes_per_rank,
                          int participants) {
  return run_schedule(
      network.scheduler(),
      allreduce_schedule(algorithm, network.topology(), participants, bytes_per_rank),
      [&network](const Phase& phase, int /*phase_index*/, sim::WaitGroup& wg) {
        for (const Transfer& transfer : phase) {
          network.scheduler().spawn(counted_transfer(network, transfer, wg));
        }
      });
}

AllreduceReport measure_allreduce(const Topology& topology, Algorithm algorithm,
                                  Bytes bytes_per_rank, int participants,
                                  std::vector<LinkUsageSample>* usage) {
  sim::Scheduler sched;
  AllreduceReport report;
  const std::uint64_t hits_before = topology.route_table_hits();
  {
    Network network{sched, topology};
    sched.spawn(run_allreduce(network, algorithm, bytes_per_rank, participants));
    sched.run();
    RSD_ASSERT(sched.unfinished_count() == 0);
    report.transfers = network.transfers();
    report.contended_transfers = network.contended_transfers();
    report.reconfigurations = network.reconfigurations();
    report.link_busy_total = network.link_busy_total();
    report.express_transfers = network.express_transfers();
    report.route_hits = topology.route_table_hits() - hits_before;
    if (usage != nullptr) *usage = network.link_usage();
  }
  report.duration = sched.now() - SimTime::zero();
  return report;
}

}  // namespace rsd::net
