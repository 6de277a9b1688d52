// GPU-to-GPU collective cost models (Discussion section).
//
// The paper argues a CDI chassis can host many closely-coupled GPUs, so
// CPU-asynchronous operations like allreduce run faster than on GPUs
// scattered across traditional nodes. These are the standard alpha-beta
// models for ring and binary-tree allreduce over a given GPU interconnect.
//
// Since the link-graph machine model (interconnect/topology.hpp) landed,
// these closed forms are the documented *analytic cross-check* for the
// allreduce schedules in interconnect/collective.hpp: on an uncontended
// fabric the executed ring/tree schedules must reproduce
// ring_allreduce_time / tree_allreduce_time exactly
// (tests/net_collective_test.cpp pins the parity).
#pragma once

#include <algorithm>
#include <cmath>
#include <string>

#include "core/error.hpp"
#include "core/units.hpp"
#include "interconnect/link.hpp"

namespace rsd::gpu {

/// Point-to-point characteristics of the GPU<->GPU path.
struct GpuInterconnect {
  std::string name;
  double bandwidth_gib_s = 1.0;
  SimDuration latency = SimDuration::zero();
};

/// NVLink-class intra-chassis fabric.
[[nodiscard]] inline GpuInterconnect make_nvlink() {
  return GpuInterconnect{"nvlink-chassis", 200.0, duration::microseconds(2.0)};
}

/// PCIe peer-to-peer within one traditional node.
[[nodiscard]] inline GpuInterconnect make_pcie_p2p() {
  return GpuInterconnect{"pcie-p2p", 20.0, duration::microseconds(6.0)};
}

/// GPUs scattered across nodes: traffic crosses the PCIe stub, then NICs +
/// switches (+ fibre). Both terms come from the network parameters — the
/// stub hop from `pcie_stub_latency`, the NIC/switch/fibre path from
/// `slack()` — so a tuned CdiNetworkParams propagates instead of being
/// half-overridden by a hardcoded constant.
[[nodiscard]] inline GpuInterconnect make_scattered(
    const interconnect::CdiNetworkParams& net = {}) {
  return GpuInterconnect{"scattered-network", net.bandwidth_gib_s,
                         net.pcie_stub_latency + net.slack()};
}

namespace detail {
[[nodiscard]] inline SimDuration transfer(const GpuInterconnect& link, double bytes) {
  return link.latency +
         duration::seconds(bytes / (link.bandwidth_gib_s * static_cast<double>(kGiB)));
}
}  // namespace detail

/// Ring allreduce: 2(n-1) steps, each moving bytes/n per GPU.
/// Bandwidth-optimal; latency grows linearly with n.
[[nodiscard]] inline SimDuration ring_allreduce_time(Bytes bytes, int gpus,
                                                     const GpuInterconnect& link) {
  RSD_ASSERT(gpus >= 1);
  if (gpus == 1) return SimDuration::zero();
  const double chunk = static_cast<double>(bytes) / gpus;
  return std::int64_t{2} * std::int64_t{gpus - 1} * detail::transfer(link, chunk);
}

/// Binary-tree allreduce: 2*ceil(log2 n) steps of the full message.
/// Latency-optimal; bandwidth cost grows with log n.
[[nodiscard]] inline SimDuration tree_allreduce_time(Bytes bytes, int gpus,
                                                     const GpuInterconnect& link) {
  RSD_ASSERT(gpus >= 1);
  if (gpus == 1) return SimDuration::zero();
  const auto steps =
      static_cast<std::int64_t>(2 * std::ceil(std::log2(static_cast<double>(gpus))));
  return steps * detail::transfer(link, static_cast<double>(bytes));
}

/// What a tuned library (NCCL-style) would pick: the cheaper algorithm.
[[nodiscard]] inline SimDuration best_allreduce_time(Bytes bytes, int gpus,
                                                     const GpuInterconnect& link) {
  return std::min(ring_allreduce_time(bytes, gpus, link),
                  tree_allreduce_time(bytes, gpus, link));
}

}  // namespace rsd::gpu
