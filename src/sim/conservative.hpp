// Conservative parallel discrete-event engine (`sim::ParallelEngine`).
//
// Shards one simulation across `Partition`s (per device/chassis; see
// partition.hpp) and advances them in *epochs* under conservative
// lookahead:
//
//   1. a_i     = earliest instant partition i can still act: the smaller
//                of its next local event and the earliest message already
//                routed to it. Both are plain per-partition arrays the
//                workers filled last epoch, so the serial pass between
//                epochs reads contiguous memory only;
//   2. horizon — per partition. With the default *global* lookahead L,
//                every horizon is min_i(a_i) + L. With a declared
//                *lookahead-edge matrix* (set_lookahead_edges: each edge
//                src -> dst carries the minimum delay of any send on it,
//                e.g. the fabric's routed path latency), partition j's
//                horizon is the earliest any message chain could still
//                reach it: min over paths i -> ... -> j in the edge graph
//                of a_i + (sum of edge lookaheads). One O(E) relaxation
//                sweep over the CSR edge arrays, seeded with a_i, settles
//                every label in the common case; only labels the sweep
//                improves go on a heap (Dijkstra over those alone), and a
//                last O(E) pass takes h_j over j's in-edges
//                (detail::epoch_horizons). Distance-aware horizons advance
//                much further than min+L when activity is spread out, so
//                stalls drop; a partition no chain can reach drains its
//                queue entirely;
//   3. all partitions, in parallel on an `exec::Team`, sort their inbox
//                chain by (at, src, seq) and deliver it, then run their
//                local queues up to (not including) their horizon. The
//                Team gives each worker the same fixed block of partitions
//                every epoch, so a partition's queue, arena and device
//                state stay in one core's caches;
//   4. route   — at the end of its slice each partition routes its own
//                sends: every message is linked (CAS) onto its
//                destination's inbox chain for the next epoch and lowers
//                that destination's earliest in-flight time. No serial
//                routing pass, and nothing is allocated on the way;
//   5. barrier; outbox and inbox parity flip; repeat until no work
//                remains.
//
// This is the global-epoch-barrier member of the conservative family
// (null-message-free CMB): slack windows and cross-chassis link/copy
// latencies give the lookahead, and every epoch retires at least the
// events in [min a_i, min a_i + L_min) — guaranteed progress, no deadlock
// protocol. The matrix is sound for the same reason the global bound is:
// messages deliver only at epoch starts, so anything partition i sends
// during this epoch leaves no earlier than a_i, and every edge hop adds
// at least its declared lookahead (send() asserts per-pair minimum
// delays; sends over undeclared pairs are rejected in matrix mode).
//
// Determinism at any thread count — the invariant every tracked CSV
// depends on — holds by construction:
//   * epoch boundaries are pure functions of simulation state (min over
//     partition-local quantities), never of thread timing;
//   * within an epoch partitions share nothing; the Team only decides
//     WHICH OS thread runs a partition's sequential slice;
//   * inbound messages merge in sorted `(at, src, seq)` order, with seq
//     assigned by the (sequential) sender — the order in which concurrent
//     senders' pushes land on a chain is irrelevant.
//
// Memory: each partition's coroutine frames recycle through its own
// FrameArena (ArenaScope around every slice), so the allocation-free hot
// path of the sequential core survives partitioning, and a partition may
// be processed by a different worker in another epoch (under claim
// jitter, or with another thread count) without violating the arena's
// affinity rules. Root tasks — one per delivered message, and each
// partition-local spawn — free their frames into that arena as soon as
// they finish, so a partition's memory is bounded by its peak of live
// frames, not by the messages it has received.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "core/units.hpp"
#include "exec/team.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sim/arena.hpp"
#include "sim/partition.hpp"
#include "sim/scheduler.hpp"

namespace rsd::sim {

/// One directed edge of the lookahead matrix: any message from partition
/// `src` to partition `dst` is guaranteed to carry at least `lookahead`
/// of delay (e.g. the routed path latency between the devices the two
/// partitions simulate).
struct LookaheadEdge {
  PartitionId src = 0;
  PartitionId dst = 0;
  SimDuration lookahead = SimDuration::zero();
};

namespace detail {

/// The lookahead-edge graph in compressed sparse row form: the out-edges
/// of node i are `dst[k]`, `ns[k]` for k in [offset[i], offset[i + 1]).
struct LookaheadCsr {
  std::vector<std::uint32_t> offset;  ///< nodes() + 1 entries.
  std::vector<PartitionId> dst;
  std::vector<std::int64_t> ns;

  [[nodiscard]] std::size_t nodes() const { return offset.empty() ? 0 : offset.size() - 1; }
};

/// Reusable working memory of epoch_horizons (no per-epoch allocation
/// once the vectors have grown).
struct HorizonScratch {
  struct Node {
    SimTime at;
    PartitionId part;
  };
  std::vector<SimTime> dist;
  std::vector<Node> heap;
};

/// Distance-aware horizons of one epoch. `avail[i]` is the earliest
/// instant node i can act (SimTime::max() when idle); `out[j]` becomes
/// min over in-edges (i, j) of dist_i + L_ij, where dist_i is the least
/// avail_k plus path length over every path k -> ... -> i (max() when no
/// active node reaches j). One relaxation sweep seeded with avail settles
/// every label in the common case; nodes whose label it improves seed a
/// heap, and Dijkstra over those alone finishes the search. Shortest
/// distances are unique, so the result does not depend on tie-breaks or
/// sweep order. Returns the number of labels the sweep improved (the
/// heap's seeds). `out` must not alias `avail`.
inline std::size_t epoch_horizons(std::span<const SimTime> avail, const LookaheadCsr& csr,
                                  std::span<SimTime> out, HorizonScratch& scratch) {
  const std::size_t n = csr.nodes();
  RSD_ASSERT(avail.size() == n && out.size() == n);
  auto& dist = scratch.dist;
  auto& heap = scratch.heap;
  dist.assign(avail.begin(), avail.end());
  heap.clear();
  const auto relax = [&](std::size_t i) {
    const SimTime from = dist[i];
    for (std::uint32_t k = csr.offset[i]; k < csr.offset[i + 1]; ++k) {
      const SimTime cand = from + duration::nanoseconds(csr.ns[k]);
      if (cand < dist[csr.dst[k]]) {
        dist[csr.dst[k]] = cand;
        heap.push_back({cand, csr.dst[k]});
      }
    }
  };
  const auto later = [](const HorizonScratch::Node& a, const HorizonScratch::Node& b) {
    return a.at > b.at;
  };
  for (std::size_t i = 0; i < n; ++i) {
    if (dist[i] != SimTime::max()) relax(i);
  }
  const std::size_t seeds = heap.size();
  std::make_heap(heap.begin(), heap.end(), later);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const HorizonScratch::Node top = heap.back();
    heap.pop_back();
    if (top.at == dist[top.part]) relax(top.part);
  }
  std::fill(out.begin(), out.end(), SimTime::max());
  for (std::size_t i = 0; i < n; ++i) {
    if (dist[i] == SimTime::max()) continue;
    for (std::uint32_t k = csr.offset[i]; k < csr.offset[i + 1]; ++k) {
      SimTime& h = out[csr.dst[k]];
      h = std::min(h, dist[i] + duration::nanoseconds(csr.ns[k]));
    }
  }
  return seeds;
}

/// The deterministic merge key of inbound messages.
[[nodiscard]] inline bool delivers_before(const RemoteMsg& a, const RemoteMsg& b) {
  if (a.at != b.at) return a.at < b.at;
  if (a.src != b.src) return a.src < b.src;
  return a.seq < b.seq;
}

/// Merge sort of an inbox chain by (at, src, seq), in place through the
/// intrusive `next` links: O(m log m), no allocation.
[[nodiscard]] inline RemoteMsg* sort_chain(RemoteMsg* head) {
  if (head == nullptr || head->next == nullptr) return head;
  RemoteMsg* slow = head;
  for (RemoteMsg* fast = head->next; fast != nullptr && fast->next != nullptr;
       fast = fast->next->next) {
    slow = slow->next;
  }
  RemoteMsg* back = sort_chain(slow->next);
  slow->next = nullptr;
  RemoteMsg* front = sort_chain(head);
  RemoteMsg* merged = nullptr;
  RemoteMsg** tail = &merged;
  while (front != nullptr && back != nullptr) {
    RemoteMsg*& first = delivers_before(*back, *front) ? back : front;
    *tail = first;
    tail = &first->next;
    first = first->next;
  }
  *tail = front != nullptr ? front : back;
  return merged;
}

}  // namespace detail

class ParallelEngine {
 public:
  struct Options {
    /// Execution width. <= 0 resolves to `exec::default_sim_thread_count()`
    /// (the RSD_SIM_THREADS env var, else 1). Output is identical at any
    /// value — threads are a throughput knob, never a semantic one.
    int threads = 0;
    /// Conservative lookahead: the guaranteed minimum delay of every
    /// cross-partition send. Natural values are the injected slack window
    /// or the cross-chassis link latency. Must be > 0.
    SimDuration lookahead = duration::microseconds(1.0);
    /// Non-zero seeds `exec::Team` claim jitter: a per-epoch rotation of
    /// the partition -> worker blocks (determinism stress tests).
    std::uint64_t jitter_seed = 0;
  };

  explicit ParallelEngine(int partitions) : ParallelEngine(partitions, Options{}) {}

  ParallelEngine(int partitions, Options options)
      : lookahead_(options.lookahead),
        threads_(options.threads > 0 ? options.threads : exec::default_sim_thread_count()),
        team_(threads_) {
    RSD_ASSERT(partitions >= 1);
    RSD_ASSERT(lookahead_.ns() > 0);
    if (options.jitter_seed != 0) team_.set_claim_jitter(options.jitter_seed);
    const auto n = static_cast<std::size_t>(partitions);
    parts_.reserve(n);
    for (int i = 0; i < partitions; ++i) {
      parts_.emplace_back(new Partition{*this, static_cast<PartitionId>(i)});
    }
    slots_.resize(n);
    timelines_.resize(n);
    next_.assign(n, SimTime::max());
    inflight_.assign(n, SimTime::max());
    avail_.assign(n, SimTime::max());
    horizon_.assign(n, SimTime::max());
    inbox_.assign(2 * n, nullptr);
  }

  /// Partition teardown frees coroutine frames into the owning arenas, so
  /// each destruction runs under that partition's ArenaScope.
  ~ParallelEngine() {
    for (auto& p : parts_) {
      ArenaScope scope{p->arena_};
      p.reset();
    }
  }

  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  [[nodiscard]] int size() const { return static_cast<int>(parts_.size()); }
  [[nodiscard]] int threads() const { return threads_; }
  [[nodiscard]] SimDuration lookahead() const { return lookahead_; }
  [[nodiscard]] Partition& partition(PartitionId id) {
    return *parts_.at(static_cast<std::size_t>(id));
  }

  /// Declare the lookahead-edge matrix and switch horizon computation to
  /// distance-aware mode. Every remote send must then travel a declared
  /// edge with at least that edge's lookahead of delay (asserted in
  /// send()); duplicate edges keep the smaller bound. Call before run().
  void set_lookahead_edges(const std::vector<LookaheadEdge>& edges) {
    RSD_ASSERT(!edges.empty());
    const std::size_t n = parts_.size();
    constexpr std::int64_t kNoEdge = std::numeric_limits<std::int64_t>::max();
    edge_min_ns_.assign(n * n, kNoEdge);
    std::int64_t min_edge = kNoEdge;
    for (const LookaheadEdge& e : edges) {
      RSD_ASSERT(static_cast<std::size_t>(e.src) < n);
      RSD_ASSERT(static_cast<std::size_t>(e.dst) < n);
      RSD_ASSERT(e.src != e.dst);
      RSD_ASSERT(e.lookahead.ns() > 0);
      std::int64_t& cell = edge_min_ns_[e.src * n + e.dst];
      cell = std::min(cell, e.lookahead.ns());
      min_edge = std::min(min_edge, e.lookahead.ns());
    }
    csr_ = {};
    csr_.offset.reserve(n + 1);
    csr_.offset.push_back(0);
    for (std::size_t src = 0; src < n; ++src) {
      for (std::size_t dst = 0; dst < n; ++dst) {
        const std::int64_t ns = edge_min_ns_[src * n + dst];
        if (ns != kNoEdge) {
          csr_.dst.push_back(static_cast<PartitionId>(dst));
          csr_.ns.push_back(ns);
        }
      }
      csr_.offset.push_back(static_cast<std::uint32_t>(csr_.dst.size()));
    }
    min_edge_ns_ = min_edge;
    matrix_mode_ = true;
  }

  /// True once set_lookahead_edges() switched horizons to matrix mode.
  [[nodiscard]] bool lookahead_matrix() const { return matrix_mode_; }

  /// The minimum legal delay of a send from `src` to `dst`: the global
  /// lookahead, or — in matrix mode — the declared edge bound (an
  /// undeclared pair is unbounded, i.e. the send is rejected).
  [[nodiscard]] SimDuration min_send_delay(PartitionId src, PartitionId dst) const {
    if (!matrix_mode_) return lookahead_;
    return duration::nanoseconds(
        edge_min_ns_[static_cast<std::size_t>(src) * parts_.size() + dst]);
  }

  /// Run epochs until no partition holds events and no message is in
  /// flight, then drain root-task completions (rethrowing the first
  /// failure by partition index — a deterministic choice). After run(),
  /// `unfinished_count() > 0` indicates a simulated deadlock.
  void run() {
    obs::Span span{"pardes", "run",
                   {obs::Arg::n("partitions", static_cast<double>(parts_.size())),
                    obs::Arg::n("threads", static_cast<double>(threads_))}};
    const std::uint64_t epochs_before = epochs_;
    const std::uint64_t gain_before = horizon_gain_ns_;
    refresh();
    for (;;) {
      // The serial pass between epochs: O(partitions) over contiguous
      // arrays. Senders already routed last epoch's messages (process()),
      // so inflight_ holds each destination's earliest arrival; reset it
      // for the sends of the coming epoch.
      SimTime t_min = SimTime::max();
      for (std::size_t i = 0; i < parts_.size(); ++i) {
        avail_[i] = std::min(next_[i], inflight_[i]);
        inflight_[i] = SimTime::max();
        t_min = std::min(t_min, avail_[i]);
      }
      if (t_min == SimTime::max()) break;
      compute_horizons(t_min);
      ++epochs_;
      fill_parity_ ^= 1;
      team_.run(parts_.size(), [this](std::size_t i) { process(i); });
    }
    for (auto& p : parts_) {
      ArenaScope scope{p->arena_};
      p->sched_.run();  // queue is empty: completion checks + rethrow only
    }
    flush_metrics(epochs_ - epochs_before, horizon_gain_ns_ - gain_before);
  }

  /// Prime the per-partition next-event times from the schedulers. run()
  /// calls this on entry (work spawned between runs is picked up); also
  /// useful to tests that inspect scheduling state before running.
  void refresh() {
    for (std::size_t i = 0; i < parts_.size(); ++i) {
      next_[i] = parts_[i]->sched_.next_event_time();
    }
  }

  // -- Aggregate statistics (all deterministic) ---------------------------
  [[nodiscard]] std::uint64_t epochs() const { return epochs_; }
  [[nodiscard]] std::uint64_t executed_events() const {
    std::uint64_t n = 0;
    for (const auto& p : parts_) n += p->sched_.executed_events();
    return n;
  }
  [[nodiscard]] std::uint64_t messages_delivered() const {
    std::uint64_t n = 0;
    for (const auto& s : slots_) n += s.delivered;
    return n;
  }
  /// Partition-epochs that retired zero events while holding pending work
  /// beyond the horizon — the lookahead-stall tally. The stall *fraction*
  /// is this over (epochs * partitions).
  [[nodiscard]] std::uint64_t stalled_partition_epochs() const {
    std::uint64_t n = 0;
    for (const auto& s : slots_) n += s.stalls;
    return n;
  }
  /// Cumulative extra horizon (ns, summed over partition-epochs) the
  /// lookahead matrix won over the global-lookahead bound `min a_i +
  /// min-edge`. Zero in global mode; non-negative by construction.
  [[nodiscard]] std::uint64_t horizon_gain_ns() const { return horizon_gain_ns_; }
  [[nodiscard]] std::size_t unfinished_count() const {
    std::size_t n = 0;
    for (const auto& p : parts_) n += p->sched_.unfinished_count();
    return n;
  }

 private:
  friend class Partition;

  /// Per-partition tallies, cache-line padded: only the worker running
  /// the partition writes them, and only the flush reads them.
  struct alignas(64) Slot {
    std::uint64_t delivered = 0;
    std::uint64_t stalls = 0;
  };

  /// Per-partition horizons. Global mode: everyone gets t_min +
  /// lookahead. Matrix mode: detail::epoch_horizons over the CSR edges,
  /// seeded with a_i. Runs serially between epochs.
  void compute_horizons(SimTime t_min) {
    if (!matrix_mode_) {
      std::fill(horizon_.begin(), horizon_.end(), t_min + lookahead_);
      return;
    }
    detail::epoch_horizons(avail_, csr_, horizon_, horizon_scratch_);
    const SimTime base = t_min + duration::nanoseconds(min_edge_ns_);
    for (const SimTime h : horizon_) {
      if (h != SimTime::max()) horizon_gain_ns_ += static_cast<std::uint64_t>((h - base).ns());
    }
  }

  void process(std::size_t i) {
    Partition& p = *parts_[i];
    ArenaScope scope{p.arena_};

    // The buffer this partition fills now was delivered last epoch and
    // routed the epoch before (the flip + barrier in between make the
    // clear safe: no chain points into it any more).
    const int fill = fill_parity_;
    auto& out = p.outbox_[fill];
    out.clear();
    p.out_cur_ = &out;

    // Senders linked this partition's inbound messages onto the other
    // parity's chain last epoch; nobody else touches it this epoch.
    // Merge-sort by (at, src, seq), deliver.
    RemoteMsg*& chain = inbox_[static_cast<std::size_t>(fill ^ 1) * parts_.size() + i];
    std::uint64_t delivered = 0;
    for (RemoteMsg* m = detail::sort_chain(chain); m != nullptr; m = m->next) {
      p.sched_.spawn_at(Partition::deliver(m->call), m->at);
      ++delivered;
    }
    chain = nullptr;
    slots_[i].delivered += delivered;

    const SimTime horizon = horizon_[i];
    const std::uint64_t executed = p.sched_.run_before(horizon);
    const SimTime next = p.sched_.next_event_time();
    const bool stalled = executed == 0 && next != SimTime::max();
    if (stalled) ++slots_[i].stalls;
    next_[i] = next;
    p.out_cur_ = nullptr;  // a send() outside the next slice is rejected

    // Sender-side routing: the outbox is final, and it stays untouched
    // until this parity fills again two epochs on, so the chains may
    // point into it. Other senders push onto the same chains and lower
    // the same minima concurrently; the destination reads them only
    // after the epoch barrier.
    for (RemoteMsg& m : out) {
      std::atomic_ref<RemoteMsg*> head{
          inbox_[static_cast<std::size_t>(fill) * parts_.size() + m.dst]};
      m.next = head.load();
      while (!head.compare_exchange_weak(m.next, &m)) {
      }
      std::atomic_ref<SimTime> earliest{inflight_[m.dst]};
      SimTime cur = earliest.load();
      while (m.at < cur && !earliest.compare_exchange_weak(cur, m.at)) {
      }
    }

    // Epoch timeline sample. Each partition's ring is touched only by the
    // worker that runs it this epoch, and epochs are barrier-separated,
    // so the ring needs no lock; which OS thread wrote a sample is
    // invisible in the data, keeping the flushed timeline byte-identical
    // at any thread count.
    if (obs::Tracer::enabled()) {
      EpochRing& ring = timelines_[i];
      if (ring.buf.size() < kEpochRingCapacity) ring.buf.resize(kEpochRingCapacity);
      if (ring.count == ring.buf.size()) {
        ++ring.dropped;
      } else {
        ++ring.count;
      }
      ring.buf[ring.next] = EpochSample{horizon.ns(), executed, delivered, stalled};
      ring.next = (ring.next + 1) % ring.buf.size();
    }
  }

  /// Quiesce-point flush into the global registry (obs design: no per-event
  /// atomics on the hot path) plus the per-partition epoch timelines.
  void flush_metrics(std::uint64_t run_epochs, std::uint64_t run_gain_ns) {
    auto& reg = obs::Registry::global();
    reg.counter("pardes.runs").add(1);
    reg.counter("pardes.epochs").add(static_cast<std::int64_t>(run_epochs));
    reg.counter("pardes.horizon_gain").add(static_cast<std::int64_t>(run_gain_ns));
    reg.counter("pardes.messages").add(static_cast<std::int64_t>(messages_delivered()));
    reg.counter("pardes.lookahead_stalls")
        .add(static_cast<std::int64_t>(stalled_partition_epochs()));
    auto& events_hist = reg.histogram("pardes.partition_events");
    obs::HistogramData local;
    for (const auto& p : parts_) {
      local.observe(static_cast<std::int64_t>(p->sched_.executed_events()));
    }
    events_hist.merge(local);

    // Drain the epoch rings into the engine's simulated timeline: one
    // counter track per partition (kTrackPardesBase + i), samples stamped
    // with the epoch horizon. The drain runs on the single flushing thread
    // in partition order, and horizons strictly increase across epochs, so
    // the emitted sequence is a pure function of the simulation — the
    // byte-identity anchor for trace.json under any --sim-threads.
    if (obs::Tracer::enabled()) {
      auto& tracer = obs::Tracer::instance();
      if (sim_id_ < 0) sim_id_ = tracer.acquire_sim_id();
      for (std::size_t i = 0; i < parts_.size(); ++i) {
        EpochRing& ring = timelines_[i];
        const std::int32_t track =
            obs::kTrackPardesBase + static_cast<std::int32_t>(i);
        const std::size_t cap = ring.buf.size();
        for (std::size_t k = 0; k < ring.count; ++k) {
          const EpochSample& s = ring.buf[(ring.next + cap - ring.count + k) % cap];
          tracer.counter_sim(sim_id_, track, s.horizon_ns, "pardes", "epoch.executed",
                             static_cast<double>(s.executed));
          tracer.counter_sim(sim_id_, track, s.horizon_ns, "pardes", "epoch.delivered",
                             static_cast<double>(s.delivered));
          tracer.counter_sim(sim_id_, track, s.horizon_ns, "pardes", "epoch.stall",
                             s.stalled ? 1.0 : 0.0);
        }
        if (ring.dropped > 0) {
          tracer.instant("pardes", "epoch_ring_dropped",
                         {obs::Arg::n("partition", static_cast<double>(i)),
                          obs::Arg::n("dropped", static_cast<double>(ring.dropped))});
        }
        ring.next = 0;
        ring.count = 0;
        ring.dropped = 0;
      }
    }
  }

  /// One epoch of one partition, as recorded for the tracer timeline.
  struct EpochSample {
    std::int64_t horizon_ns = 0;
    std::uint64_t executed = 0;
    std::uint64_t delivered = 0;
    bool stalled = false;
  };

  /// Fixed-capacity per-partition ring (oldest samples overwritten): a
  /// long fleet can never exhaust memory through its epoch timeline.
  struct EpochRing {
    std::vector<EpochSample> buf;  ///< Allocated on first traced epoch.
    std::size_t next = 0;
    std::size_t count = 0;
    std::uint64_t dropped = 0;
  };

  static constexpr std::size_t kEpochRingCapacity = 1u << 12;

  SimDuration lookahead_;
  int threads_;
  exec::Team team_;
  std::vector<std::unique_ptr<Partition>> parts_;
  std::vector<Slot> slots_;
  std::vector<EpochRing> timelines_;
  // Plain per-partition arrays the serial pass reads. next_[i] is written
  // by the worker running i; inflight_[j] is lowered by any sender to j
  // (atomic_ref CAS) and reset serially; avail_ and horizon_ are written
  // serially and horizon_[i] read by i's worker.
  std::vector<SimTime> next_;      ///< Next local event time.
  std::vector<SimTime> inflight_;  ///< Earliest message routed to i.
  std::vector<SimTime> avail_;     ///< a_i: earliest instant i can still act.
  std::vector<SimTime> horizon_;
  /// Inbox chain heads, [parity * partitions + dst]: senders push onto
  /// the fill parity's chains, destinations drain the other parity's.
  std::vector<RemoteMsg*> inbox_;
  int fill_parity_ = 0;
  std::uint64_t epochs_ = 0;
  std::int32_t sim_id_ = -1;  ///< Tracer timeline id, acquired at first flush.

  // Lookahead matrix (matrix_mode_): dense per-pair minimum send delays
  // (kNoEdge-filled; send() asserts against it), the same edges as CSR
  // arrays for the per-epoch horizon sweep, and that sweep's scratch.
  bool matrix_mode_ = false;
  std::int64_t min_edge_ns_ = 0;
  std::vector<std::int64_t> edge_min_ns_;
  detail::LookaheadCsr csr_;
  detail::HorizonScratch horizon_scratch_;
  std::uint64_t horizon_gain_ns_ = 0;
};

inline void Partition::send(PartitionId dst, SimDuration delay, CrossCall call) {
  RSD_ASSERT(static_cast<std::size_t>(dst) < static_cast<std::size_t>(engine_.size()));
  const SimTime at = sched_.now() + delay;
  if (dst == id_) {
    // Local fast path: an ordinary event, no lookahead constraint.
    sched_.spawn_at(deliver(std::move(call)), at);
    return;
  }
  // Global mode: every remote send obeys the one lookahead. Matrix mode:
  // it obeys the declared (src, dst) edge bound — and an undeclared pair
  // is unbounded, so the assert also rejects sends the matrix never
  // promised the horizon computation.
  RSD_ASSERT(delay >= engine_.min_send_delay(id_, dst));
  RSD_ASSERT(out_cur_ != nullptr);  // only legal inside an epoch slice
  out_cur_->push_back(RemoteMsg{at, id_, dst, send_seq_++, nullptr, std::move(call)});
}

}  // namespace rsd::sim
