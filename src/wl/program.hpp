// Workload intermediate representation: an op-stream program.
//
// Every workload in this repo — the slack proxy, LAMMPS, CosmoFlow, and
// any application imported from an NSys-schema trace — reduces to the same
// vocabulary the paper's profiling method observes: host threads that burn
// CPU time, push kernels and copies at a device, and occasionally
// synchronise with the device or with each other. `wl::Program` captures
// exactly that vocabulary as data, so one engine (`wl::ReplayEngine`) can
// execute all of them through `gpu::Context` instead of each workload
// hand-rolling its own coroutine submission loop.
//
// A program is a set of *lanes*, one per simulated host submitter. Each
// lane carries the submitter's identity (context id = CUDA stream/thread,
// process id = OS process / MPI rank — distinct processes pay the device's
// context-switch cost), the device buffers it allocates up front, and a
// flat op list. `kLoopBegin`/`kLoopEnd` pairs give programs with identical
// iterations (the proxy's compute loop, multi-GPU CosmoFlow's steps) a
// compact encoding; workloads with per-step jitter unroll instead, since
// every op carries its own concrete duration.
#pragma once

#include <cstdint>
#include <vector>

#include "core/names.hpp"
#include "core/units.hpp"
#include "gpusim/context.hpp"

namespace rsd::wl {

enum class OpCode : std::uint8_t {
  kKernel,      ///< Asynchronous launch (cudaLaunchKernel).
  kKernelSync,  ///< Launch + wait for completion (the paper's pessimistic mode).
  kH2D,         ///< Blocking host-to-device copy.
  kD2H,         ///< Blocking device-to-host copy.
  kH2DAsync,    ///< cudaMemcpyAsync H2D (resumes after submission).
  kD2HAsync,    ///< cudaMemcpyAsync D2H.
  kSync,        ///< cudaDeviceSynchronize scoped to the lane's stream.
  kBarrier,     ///< Arrive at the program-wide barrier (MPI_Barrier).
  kCpu,         ///< Host-side phase: no API call, just simulated time.
  kAllReduce,   ///< Chassis ring allreduce (bytes per GPU, `count` ranks).
  kLoopBegin,   ///< Repeat the ops up to the matching kLoopEnd `count` times.
  kLoopEnd,
};

[[nodiscard]] const char* to_string(OpCode code);

struct Op {
  OpCode code = OpCode::kCpu;
  NameRef name{};           ///< Kernel/copy/collective name (trace identity).
  SimDuration dur{};        ///< Kernel service time or CPU-phase length.
  std::int32_t buffer = -1; ///< Lane buffer index for copies; -1 = raw bytes.
  Bytes bytes = 0;          ///< Copy payload when buffer < 0; allreduce bytes.
  std::int64_t count = 0;   ///< Loop trip count / allreduce participants.
  std::int32_t match = -1;  ///< Index of the matching kLoopBegin/kLoopEnd.
};

/// One host submitter: a CUDA-stream-ordered op sequence plus identity.
/// The emit helpers (`kernel()`, `h2d()`, `loop()`, ...) append ops; they
/// exist so workload builders read like the submission loops they replace.
struct Lane {
  int context_id = 0;   ///< Stream/thread id (tags records, as gpu::Context).
  int process_id = 0;   ///< OS process (MPI rank); drives context switches.
  int device = 0;       ///< Chassis device index; 0 on single-device nodes.
  std::vector<Bytes> buffers;  ///< dmalloc'd in order at lane start, dfree'd at end.
  std::vector<Op> ops;

  /// Register an up-front device allocation; returns its buffer index.
  std::int32_t add_buffer(Bytes bytes);

  void kernel(NameRef name, SimDuration duration);
  void kernel_sync(NameRef name, SimDuration duration);
  void h2d(std::int32_t buffer, NameRef name = gpu::kMemcpyH2DName);
  void d2h(std::int32_t buffer, NameRef name = gpu::kMemcpyD2HName);
  /// Copies of a raw byte count, with no backing allocation — the form a
  /// trace-derived program uses (an NSys trace records sizes, not buffers).
  void h2d_bytes(Bytes bytes, NameRef name = gpu::kMemcpyH2DName, bool async = false);
  void d2h_bytes(Bytes bytes, NameRef name = gpu::kMemcpyD2HName, bool async = false);
  void sync();
  void barrier();
  void cpu(SimDuration duration);
  /// One op runs the whole collective: the chassis ring allreduce of
  /// `bytes_per_gpu` across devices [0, participants), moving every
  /// participant's chunks, not just this lane's device. A data-parallel
  /// program should issue it from one lane (the others synchronise on a
  /// barrier); issuing it from every lane runs that many collectives.
  void allreduce(Bytes bytes_per_gpu, int participants, NameRef name);
  /// Open a repeat block executing `trips` times; close with end_loop().
  void loop(std::int64_t trips);
  void end_loop();

  [[nodiscard]] std::int64_t api_call_count() const;  ///< Calls slack lands on.

 private:
  std::vector<std::int32_t> open_loops_;  ///< Build-time kLoopBegin stack.
};

struct Program {
  std::vector<Lane> lanes;
  /// Proxy-style timing: lanes signal ready after allocation, wait for a
  /// common start gate, and the engine times gate-open -> all lanes done
  /// (the paper's "main compute loop" wall time, excluding setup).
  bool gate = false;

  [[nodiscard]] std::size_t total_ops() const;

  /// Structural checks: loops matched, buffer indices in range, allreduce
  /// participant counts sane. When `device_count` > 0, an allreduce whose
  /// participant count exceeds the machine's device count is rejected too
  /// (the replay wiring passes its topology's size). Throws
  /// rsd::Error{kInvalidArgument}.
  void validate(int device_count = 0) const;
};

}  // namespace rsd::wl
