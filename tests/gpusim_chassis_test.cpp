#include "gpusim/chassis.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "gpusim/collective.hpp"
#include "sim/scheduler.hpp"
#include "trace/trace.hpp"

namespace rsd::gpu {
namespace {

using namespace rsd::literals;

TEST(Chassis, ConstructsRequestedDevices) {
  sim::Scheduler sched;
  Chassis chassis{sched, ChassisParams{.gpus = 4}};
  EXPECT_EQ(chassis.size(), 4);
  EXPECT_EQ(chassis.device(0).memory().capacity(), 40ULL * kGiB);
}

TEST(Chassis, SingleParticipantAllreduceIsFree) {
  sim::Scheduler sched;
  Chassis chassis{sched, ChassisParams{.gpus = 2}};
  sched.spawn([](Chassis& c) -> sim::Task<> {
    co_await c.ring_allreduce(kGiB, 1);
  }(chassis));
  sched.run();
  EXPECT_EQ(sched.now(), SimTime::zero());
}

TEST(Chassis, ExecutedAllreduceMatchesAnalyticModel) {
  sim::Scheduler sched;
  ChassisParams params;
  params.gpus = 8;
  Chassis chassis{sched, params};
  const Bytes bytes = 256 * kMiB;
  sched.spawn([](Chassis& c, Bytes b) -> sim::Task<> {
    co_await c.ring_allreduce(b, 8);
  }(chassis, bytes));
  sched.run();

  const SimDuration analytic = ring_allreduce_time(bytes, 8, params.fabric);
  const SimDuration executed = sched.now() - SimTime::zero();
  // The DES adds per-op engine setup; agreement within 15%.
  EXPECT_GT(executed, analytic);
  EXPECT_LT(executed.seconds(), analytic.seconds() * 1.15);
}

TEST(Chassis, PhasesAreBulkSynchronous) {
  // All devices' engines are occupied the same amount: each participant
  // sends and receives 2(k-1) chunks.
  sim::Scheduler sched;
  ChassisParams params;
  params.gpus = 4;
  Chassis chassis{sched, params};
  trace::TraceRecorder rec;
  chassis.set_record_sink(&rec);
  sched.spawn([](Chassis& c) -> sim::Task<> {
    co_await c.ring_allreduce(64 * kMiB, 4);
  }(chassis));
  sched.run();
  // 2(4-1) = 6 phases x 4 participants = 24 transfers x 2 records each.
  EXPECT_EQ(rec.trace().ops().size(), 48u);
  std::size_t sends = 0;
  std::size_t recvs = 0;
  for (const auto& op : rec.trace().ops()) {
    if (op.kind == OpKind::kMemcpyD2H) ++sends;
    if (op.kind == OpKind::kMemcpyH2D) ++recvs;
    EXPECT_EQ(op.bytes, 64 * kMiB / 4);
  }
  EXPECT_EQ(sends, 24u);
  EXPECT_EQ(recvs, 24u);

  // Phase i's records carry `allreduce_send_p<i>` / `allreduce_recv_p<i>`
  // (the names trace.json shows): 4 of each per phase, nothing else.
  std::map<std::string, int> names;
  for (const auto& op : rec.trace().ops()) {
    EXPECT_EQ(op.kind == OpKind::kMemcpyD2H, op.name.str().find("_send_") != std::string::npos)
        << op.name.str();
    ++names[op.name.str()];
  }
  std::map<std::string, int> expected;
  for (int p = 0; p < 6; ++p) {
    expected["allreduce_send_p" + std::to_string(p)] = 4;
    expected["allreduce_recv_p" + std::to_string(p)] = 4;
  }
  EXPECT_EQ(names, expected);
}

TEST(Chassis, ScatteredFabricIsSlower) {
  auto run = [](const GpuInterconnect& fabric) {
    sim::Scheduler sched;
    ChassisParams params;
    params.gpus = 8;
    params.fabric = fabric;
    Chassis chassis{sched, params};
    sched.spawn([](Chassis& c) -> sim::Task<> {
      co_await c.ring_allreduce(256 * kMiB, 8);
    }(chassis));
    sched.run();
    return sched.now() - SimTime::zero();
  };
  EXPECT_LT(run(make_nvlink()), run(make_scattered()));
}

TEST(Chassis, SubsetParticipation) {
  sim::Scheduler sched;
  Chassis chassis{sched, ChassisParams{.gpus = 8}};
  trace::TraceRecorder rec;
  chassis.set_record_sink(&rec);
  sched.spawn([](Chassis& c) -> sim::Task<> {
    co_await c.ring_allreduce(16 * kMiB, 3);  // only first 3 GPUs
  }(chassis));
  sched.run();
  // 2(3-1) = 4 phases x 3 transfers x 2 records = 24.
  EXPECT_EQ(rec.trace().ops().size(), 24u);
}

}  // namespace
}  // namespace rsd::gpu
