#include "exec/pool.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace rsd::exec {

Pool::Pool(int threads) : size_(std::max(1, threads)) {
  // The caller participates in every batch it submits, so spawn size-1
  // workers; a pool of size 1 owns no threads at all.
  workers_.reserve(static_cast<std::size_t>(size_ - 1));
  for (int i = 0; i < size_ - 1; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Pool::~Pool() {
  {
    std::lock_guard<std::mutex> lk(queue_m_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

Pool& Pool::global() {
  static Pool pool;
  return pool;
}

void Pool::help(Batch& batch) {
  for (;;) {
    const std::size_t i = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= batch.count) return;
    if (obs::Tracer::enabled()) {
      auto& tracer = obs::Tracer::instance();
      const std::int64_t t0 = tracer.wall_now_ns();
      (*batch.run)(i);
      obs::Event e;
      e.phase = obs::Phase::kComplete;
      e.ts_ns = t0;
      e.dur_ns = tracer.wall_now_ns() - t0;
      e.category = "exec";
      e.name = "task";
      e.args.push_back(obs::Arg::n("index", static_cast<double>(i)));
      tracer.emit(std::move(e));
    } else {
      (*batch.run)(i);
    }
    if (batch.done.fetch_add(1, std::memory_order_acq_rel) + 1 == batch.count) {
      // Hold the mutex so the waiter cannot miss the notify between its
      // predicate check and its wait.
      std::lock_guard<std::mutex> lk(batch.m);
      batch.cv.notify_all();
    }
  }
}

void Pool::run_batch(std::size_t count, const std::function<void(std::size_t)>& run) {
  if (count == 0) return;
  {
    auto& reg = obs::Registry::global();
    reg.counter("exec.batches").add(1);
    reg.counter("exec.items").add(static_cast<std::int64_t>(count));
  }
  obs::Span span{"exec", "batch", {obs::Arg::n("items", static_cast<double>(count))}};
  auto batch = std::make_shared<Batch>();
  batch->run = &run;
  batch->count = count;
  {
    std::lock_guard<std::mutex> lk(queue_m_);
    queue_.push_back(batch);
  }
  queue_cv_.notify_all();

  // Work on our own batch: this is what makes nested fan-out deadlock-free
  // — the submitter finishes the batch alone if every worker is busy.
  help(*batch);

  {
    std::unique_lock<std::mutex> lk(batch->m);
    batch->cv.wait(lk, [&] { return batch->done.load(std::memory_order_acquire) == count; });
  }
  // Remove the drained batch if no worker got to it first.
  std::lock_guard<std::mutex> lk(queue_m_);
  std::erase(queue_, batch);
}

void Pool::worker_loop() {
  for (;;) {
    std::shared_ptr<Batch> batch;
    {
      std::unique_lock<std::mutex> lk(queue_m_);
      queue_cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
      if (stop_) return;
      batch = queue_.front();
      if (batch->next.load(std::memory_order_relaxed) >= batch->count) {
        // Fully claimed; drop it and look for live work.
        queue_.pop_front();
        continue;
      }
    }
    help(*batch);
  }
}

}  // namespace rsd::exec
