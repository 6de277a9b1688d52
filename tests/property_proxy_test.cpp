// Parameterized property suites for the slack proxy and device model:
// the invariants behind Figure 3, swept across the configuration grid.
#include <gtest/gtest.h>

#include "gpusim/device.hpp"
#include "interconnect/link.hpp"
#include "proxy/proxy.hpp"
#include "sim/scheduler.hpp"

namespace rsd::proxy {
namespace {

using namespace rsd::literals;

ProxyConfig quick(std::int64_t n, int threads, SimDuration slack) {
  ProxyConfig cfg;
  cfg.matrix_n = n;
  cfg.threads = threads;
  cfg.slack = slack;
  cfg.max_iterations = 20;
  return cfg;
}

// ---------------------------------------------------------------------
// Property: for every (size, threads) cell that fits, the Eq.1-normalized
// runtime at slack 0 is exactly 1 and runs are deterministic.
struct CellParam {
  std::int64_t n;
  int threads;
};

class ProxyCell : public testing::TestWithParam<CellParam> {};

TEST_P(ProxyCell, BaselineNormalizesToOneAndReplays) {
  const auto [n, threads] = GetParam();
  const ProxyRunner runner;
  const ProxyResult a = runner.run(quick(n, threads, SimDuration::zero()));
  const ProxyResult b = runner.run(quick(n, threads, SimDuration::zero()));
  ASSERT_TRUE(a.fits_memory);
  EXPECT_EQ(a.no_slack_time, a.loop_runtime);
  EXPECT_EQ(a.loop_runtime, b.loop_runtime);
  EXPECT_GE(a.iterations, 5);
}

INSTANTIATE_TEST_SUITE_P(Grid, ProxyCell,
                         testing::Values(CellParam{1 << 9, 1}, CellParam{1 << 9, 4},
                                         CellParam{1 << 11, 2}, CellParam{1 << 11, 8},
                                         CellParam{1 << 13, 1}, CellParam{1 << 13, 8},
                                         CellParam{1 << 15, 2}));

// ---------------------------------------------------------------------
// Property: single-threaded penalties are monotone non-decreasing in slack
// for every matrix size (the serial case has no contention-relief effects).
class SerialMonotonicity : public testing::TestWithParam<std::int64_t> {};

TEST_P(SerialMonotonicity, PenaltyNondecreasingInSlack) {
  const std::int64_t n = GetParam();
  const ProxyRunner runner;
  const ProxyResult base = runner.run(quick(n, 1, SimDuration::zero()));
  ASSERT_TRUE(base.fits_memory);
  double prev = 1.0;
  for (const SimDuration s : {1_us, 10_us, 100_us, 1_ms, 10_ms}) {
    const ProxyResult r = runner.run(quick(n, 1, s));
    const double norm = r.no_slack_time / base.no_slack_time;
    EXPECT_GE(norm, prev - 1e-9) << "slack " << s.us() << " us";
    prev = norm;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SerialMonotonicity,
                         testing::Values(1 << 9, 1 << 10, 1 << 11, 1 << 12, 1 << 13,
                                         1 << 15));

// ---------------------------------------------------------------------
// Property: at fixed slack, larger matrices never suffer a larger
// single-thread penalty than smaller ones.
class SizeOrdering : public testing::TestWithParam<std::int64_t> {};  // slack us

TEST_P(SizeOrdering, PenaltyNonincreasingInSize) {
  const SimDuration slack = duration::microseconds(static_cast<double>(GetParam()));
  const ProxyRunner runner;
  double prev = std::numeric_limits<double>::infinity();
  for (const std::int64_t n : {1 << 9, 1 << 11, 1 << 13, 1 << 15}) {
    const ProxyResult base = runner.run(quick(n, 1, SimDuration::zero()));
    const ProxyResult r = runner.run(quick(n, 1, slack));
    const double norm = r.no_slack_time / base.no_slack_time;
    EXPECT_LE(norm, prev + 1e-9) << "size " << n;
    prev = norm;
  }
}

INSTANTIATE_TEST_SUITE_P(Slacks, SizeOrdering, testing::Values(1, 10, 100, 1000, 10000));

// ---------------------------------------------------------------------
// Property: Equation 1 always removes exactly calls * slack, for any cell.
// gtest names each cell by dumping the struct's bytes, so every field is
// 64-bit: with no padding in the struct, no uninitialised byte reaches the
// test name and the name is the same on every run.
struct Eq1Param {
  std::int64_t n;
  std::int64_t threads;
  std::int64_t slack_us;
};

class EquationOneExactness : public testing::TestWithParam<Eq1Param> {};

TEST_P(EquationOneExactness, RemovedAmountExact) {
  const auto [n, threads, slack_us] = GetParam();
  const SimDuration slack = duration::microseconds(static_cast<double>(slack_us));
  const ProxyRunner runner;
  const ProxyResult r = runner.run(quick(n, static_cast<int>(threads), slack));
  ASSERT_TRUE(r.fits_memory);
  EXPECT_EQ(r.loop_runtime - r.no_slack_time, slack * r.cuda_calls_per_thread);
}

INSTANTIATE_TEST_SUITE_P(Grid, EquationOneExactness,
                         testing::Values(Eq1Param{1 << 9, 1, 10}, Eq1Param{1 << 9, 8, 100},
                                         Eq1Param{1 << 11, 4, 1000},
                                         Eq1Param{1 << 13, 2, 100}));

// ---------------------------------------------------------------------
// Property: the device wake-penalty function is monotone, zero below t0,
// and capped at wake_max for every parameterisation.
struct WakeParam {
  double alpha;
  std::int64_t t0_us;
  std::int64_t max_us;
};

class WakePenaltyShape : public testing::TestWithParam<WakeParam> {};

TEST_P(WakePenaltyShape, PiecewiseLinearSaturating) {
  const auto [alpha, t0_us, max_us] = GetParam();
  sim::Scheduler sched;
  gpu::DeviceParams params;
  params.wake_alpha = alpha;
  params.wake_t0 = duration::microseconds(static_cast<double>(t0_us));
  params.wake_max = duration::microseconds(static_cast<double>(max_us));
  gpu::Device dev{sched, params, interconnect::make_pcie_gen4_x16()};

  EXPECT_EQ(dev.wake_penalty(params.wake_t0), SimDuration::zero());
  EXPECT_EQ(dev.wake_penalty(duration::seconds(10.0)), params.wake_max);
  SimDuration prev = SimDuration::zero();
  for (std::int64_t us = 1; us <= 1'000'000; us *= 4) {
    const auto w = dev.wake_penalty(duration::microseconds(static_cast<double>(us)));
    EXPECT_GE(w, prev);
    EXPECT_LE(w, params.wake_max);
    prev = w;
  }
}

INSTANTIATE_TEST_SUITE_P(Params, WakePenaltyShape,
                         testing::Values(WakeParam{0.1, 1, 1500}, WakeParam{0.5, 10, 500},
                                         WakeParam{0.01, 0, 100},
                                         WakeParam{1.0, 100, 10000}));

}  // namespace
}  // namespace rsd::proxy
