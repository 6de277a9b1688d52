// Determinism regression for the harness port: the fig3_slack_sweep
// experiment running inside the registry/CLI machinery must produce a CSV
// byte-identical to the pre-harness standalone computation (same fixed
// seed and grid, any pool width). This is the guarantee that let the
// refactor keep every tracked bench_results/*.csv unchanged.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/csv.hpp"
#include "exec/pool.hpp"
#include "harness/context.hpp"
#include "harness/experiment.hpp"
#include "harness/registry.hpp"
#include "harness/runner.hpp"
#include "obs/metrics.hpp"
#include "proxy/proxy.hpp"
#include "sim/conservative.hpp"
#include "sim/task.hpp"

namespace {

using namespace rsd;
using namespace rsd::literals;
namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream in{path, std::ios::binary};
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// What bench_fig3_slack_sweep computed as a standalone main() before the
// harness existed: the default sweep, serialized row-per-point.
std::string standalone_fig3_csv() {
  const proxy::ProxyRunner runner;
  const proxy::SweepConfig cfg;
  exec::Pool pool{1};
  const auto points = proxy::run_slack_sweep(runner, cfg, pool);
  CsvWriter csv;
  csv.row("matrix_n", "threads", "slack_us", "normalized_runtime");
  for (const auto& p : points) {
    csv.row(p.matrix_n, p.threads, p.slack.us(), p.normalized_runtime);
  }
  return csv.str();
}

std::string run_fig3_csv(int threads) {
  const fs::path dir = fs::path{testing::TempDir()} / "rsd_fig3_golden";
  fs::remove_all(dir);

  harness::ExperimentContext::Options options;
  options.results_dir = dir;
  options.threads = threads;
  std::ostringstream sink;
  options.out = &sink;
  harness::ExperimentContext ctx{options};

  const harness::Experiment* fig3 = harness::Registry::global().find("fig3_slack_sweep");
  if (fig3 == nullptr) return {};
  fig3->run(ctx);
  return read_file(dir / "fig3_slack_sweep.csv");
}

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// Golden fingerprint of bench_results/fig3_slack_sweep.csv as produced by
// the seed implementation (std::priority_queue scheduler, std::string op
// names, std::map memory pool). The allocation-free core must reproduce it
// byte for byte at every pool width; any drift means the perf work changed
// observable schedule order and must be rejected, not re-goldened blindly.
constexpr std::uint64_t kFig3GoldenFnv1a = 0x266090334f7d1647ULL;
constexpr std::size_t kFig3GoldenBytes = 1964;

TEST(HarnessDeterminism, Fig3CsvMatchesGoldenHashAtAnyPoolWidth) {
  for (const int threads : {1, 3}) {
    const std::string bytes = run_fig3_csv(threads);
    ASSERT_FALSE(bytes.empty()) << "fig3_slack_sweep produced no CSV";
    EXPECT_EQ(bytes.size(), kFig3GoldenBytes) << "threads=" << threads;
    EXPECT_EQ(fnv1a64(bytes), kFig3GoldenFnv1a) << "threads=" << threads;
  }
}

// The trace-replay loop (capture -> CSV export -> import -> reconstruct ->
// replay) is pure DES end to end, so its CSV must also be pool-width
// invariant: any drift means an IR or import stage picked up schedule- or
// thread-order dependence.
TEST(HarnessDeterminism, TraceReplayCsvIsPoolWidthInvariant) {
  const harness::Experiment* replay = harness::Registry::global().find("extension_trace_replay");
  ASSERT_NE(replay, nullptr);

  std::string reference;
  for (const int threads : {1, 3}) {
    const fs::path dir =
        fs::path{testing::TempDir()} / ("rsd_trace_replay_w" + std::to_string(threads));
    fs::remove_all(dir);

    harness::ExperimentContext::Options options;
    options.results_dir = dir;
    options.threads = threads;
    std::ostringstream sink;
    options.out = &sink;
    harness::ExperimentContext ctx{options};
    replay->run(ctx);

    const std::string bytes = read_file(dir / "extension_trace_replay.csv");
    ASSERT_FALSE(bytes.empty()) << "threads=" << threads;
    if (reference.empty()) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference) << "threads=" << threads;
    }
  }
}

TEST(HarnessDeterminism, Fig3CsvMatchesStandaloneComputation) {
  const fs::path dir = fs::path{testing::TempDir()} / "rsd_fig3_determinism";
  fs::remove_all(dir);

  harness::ExperimentContext::Options options;
  options.results_dir = dir;
  options.threads = 2;  // byte-identity must hold at any pool width
  std::ostringstream sink;
  options.out = &sink;
  harness::ExperimentContext ctx{options};

  const harness::Experiment* fig3 = harness::Registry::global().find("fig3_slack_sweep");
  ASSERT_NE(fig3, nullptr);
  fig3->run(ctx);

  const fs::path csv_path = dir / "fig3_slack_sweep.csv";
  ASSERT_TRUE(fs::exists(csv_path));
  EXPECT_EQ(read_file(csv_path), standalone_fig3_csv());
}

// The manifest's gpusim.* metrics of a Pool fan-out experiment must not
// depend on which device of the fan-out finishes last: every value is a
// sum (counters, histogram merges), so two runs at the same width agree
// exactly. Each run gets its own results directory, so neither serves
// the sweep from the other's cache.
TEST(HarnessDeterminism, GpusimManifestMetricsRepeatUnderPoolFanOut) {
  const harness::Experiment* fig3 = harness::Registry::global().find("fig3_slack_sweep");
  ASSERT_NE(fig3, nullptr);
  std::vector<obs::MetricSample> runs[2];
  for (int run = 0; run < 2; ++run) {
    const fs::path dir =
        fs::path{testing::TempDir()} / ("rsd_gpusim_metrics_" + std::to_string(run));
    fs::remove_all(dir);
    harness::ExperimentContext::Options options;
    options.results_dir = dir;
    options.threads = 4;
    std::ostringstream sink;
    options.out = &sink;
    harness::ExperimentContext ctx{options};
    const harness::RunSummary summary = harness::run_experiments({fig3}, ctx);
    ASSERT_EQ(summary.outcomes.size(), 1u);
    ASSERT_TRUE(summary.outcomes[0].ok) << summary.outcomes[0].error;
    for (const obs::MetricSample& m : summary.outcomes[0].metrics.samples) {
      if (m.name.starts_with("gpusim.")) runs[run].push_back(m);
    }
  }
  ASSERT_EQ(runs[0].size(), runs[1].size());
  for (std::size_t k = 0; k < runs[0].size(); ++k) {
    const obs::MetricSample& a = runs[0][k];
    const obs::MetricSample& b = runs[1][k];
    ASSERT_EQ(a.name, b.name);
    EXPECT_EQ(a.kind, b.kind) << a.name;
    EXPECT_EQ(a.count, b.count) << a.name;
    EXPECT_EQ(a.value, b.value) << a.name;
    EXPECT_EQ(a.sum, b.sum) << a.name;
    EXPECT_EQ(a.min, b.min) << a.name;
    EXPECT_EQ(a.max, b.max) << a.name;
    EXPECT_EQ(a.buckets, b.buckets) << a.name;
  }
  // Utilization is the ratio of two sums: compute-busy time over device
  // lifetime, both summed over every device of the experiment.
  const obs::MetricsSnapshot snapshot{runs[0]};
  const obs::MetricSample* busy = snapshot.find("gpusim.compute_busy_ns");
  const obs::MetricSample* lifetime = snapshot.find("gpusim.device_ns");
  ASSERT_NE(busy, nullptr);
  ASSERT_NE(lifetime, nullptr);
  EXPECT_GT(busy->count, 0);
  EXPECT_LE(busy->count, lifetime->count);
}

// A manifest entry names only what its own experiment did: after one
// experiment builds and runs a two-thread sim::ParallelEngine, an
// experiment that touches neither the pool nor an engine records no
// exec.* or pardes.* metric, and neither entry carries a pool, team or
// engine width (the pool width is the manifest's top-level "threads").
TEST(HarnessDeterminism, LaterEntriesCarryNoEngineOrPoolState) {
  const harness::FunctionExperiment engine{
      "engine", "test", "runs a partitioned engine", [](harness::ExperimentContext&) {
        sim::ParallelEngine eng{2, {.threads = 2, .lookahead = 1_us}};
        eng.partition(0).spawn([] {
          return []() -> sim::Task<> { co_await sim::delay(5_us); }();
        });
        eng.run();
      }};
  const harness::FunctionExperiment idle{"idle", "test", "does nothing",
                                         [](harness::ExperimentContext&) {}};
  const fs::path dir = fs::path{testing::TempDir()} / "rsd_no_width_metrics";
  fs::remove_all(dir);
  harness::ExperimentContext::Options options;
  options.results_dir = dir;
  options.threads = 2;
  std::ostringstream sink;
  options.out = &sink;
  harness::ExperimentContext ctx{options};
  const harness::RunSummary summary = harness::run_experiments({&engine, &idle}, ctx);
  ASSERT_EQ(summary.outcomes.size(), 2u);
  ASSERT_TRUE(summary.outcomes[0].ok) << summary.outcomes[0].error;
  ASSERT_TRUE(summary.outcomes[1].ok) << summary.outcomes[1].error;

  const std::string engine_json = obs::metrics_json(summary.outcomes[0].metrics);
  const std::string idle_json = obs::metrics_json(summary.outcomes[1].metrics);
  EXPECT_NE(engine_json.find("\"pardes.runs\": 1"), std::string::npos) << engine_json;
  for (const std::string& json : {engine_json, idle_json}) {
    for (const char* width : {"exec.pool_size", "exec.team_size", "pardes.threads"}) {
      EXPECT_EQ(json.find(width), std::string::npos) << width << " in " << json;
    }
  }
  EXPECT_EQ(idle_json.find("\"exec."), std::string::npos) << idle_json;
  EXPECT_EQ(idle_json.find("\"pardes."), std::string::npos) << idle_json;
}

}  // namespace
