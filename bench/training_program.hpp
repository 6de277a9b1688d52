// The data-parallel training step the fabric experiments replay
// (attribution_fabrics, multichassis_contention): `gpus` lanes, each
// looping a CPU phase, fwd/bwd kernels and a gradient allreduce.
//
// Every lane issues the allreduce, and one wl allreduce op runs the whole
// collective, so a step runs `gpus` concurrent collectives rather than
// one; the tracked CSVs of both experiments are built on this shape.
#pragma once

#include <utility>

#include "core/names.hpp"
#include "core/units.hpp"
#include "wl/program.hpp"

namespace rsd::bench {

inline wl::Program training_program(int gpus) {
  using namespace rsd::literals;
  wl::Program program;
  const NameRef fwd{"train_fwd"};
  const NameRef bwd{"train_bwd"};
  const NameRef grad{"grad_allreduce"};
  for (int i = 0; i < gpus; ++i) {
    wl::Lane lane;
    lane.context_id = i;
    lane.process_id = i;
    lane.device = i;
    lane.loop(4);
    lane.cpu(5_us);
    lane.kernel(fwd, 30_us);
    lane.kernel(bwd, 60_us);
    lane.allreduce(4 * kMiB, gpus, grad);
    lane.end_loop();
    lane.sync();
    program.lanes.push_back(std::move(lane));
  }
  return program;
}

}  // namespace rsd::bench
