#include "edms/worker_pool.h"

#include <algorithm>
#include <utility>

namespace mirabel::edms {

WorkerPool::WorkerPool() : WorkerPool(Options()) {}

WorkerPool::WorkerPool(const Options& options) {
  size_t n = options.num_threads;
  if (n == 0) n = std::max<size_t>(1, std::thread::hardware_concurrency());
  queues_.resize(n);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back(&WorkerPool::WorkerLoop, this, i);
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

std::unique_ptr<WorkerPool::Strand> WorkerPool::CreateStrand() {
  size_t home = next_home_.fetch_add(1, std::memory_order_relaxed) %
                workers_.size();
  // Not make_unique: the constructor is private to keep homes pool-assigned.
  return std::unique_ptr<Strand>(new Strand(this, home));
}

std::future<void> WorkerPool::Strand::Post(std::function<void()> fn) {
  std::packaged_task<void()> task(std::move(fn));
  std::future<void> future = task.get_future();
  bool need_schedule = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
    if (!scheduled_) {
      scheduled_ = true;
      need_schedule = true;
    }
  }
  // The strand is invisible to workers between releasing mu_ and Enqueue()
  // (it sits in no run queue), so no worker can claim it twice.
  if (need_schedule) pool_->Enqueue(this);
  return future;
}

WorkerPool::Strand::~Strand() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return !scheduled_ && tasks_.empty(); });
}

void WorkerPool::Enqueue(Strand* strand) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queues_[strand->home_].push_back(strand);
  }
  // notify_all wakes every idle worker to race for the strand (the home
  // worker or a thief). notify_one would change which workers wake on every
  // post, a scheduling change that wants its own measurement.
  cv_.notify_all();
}

void WorkerPool::WorkerLoop(size_t index) {
  for (;;) {
    Strand* strand = nullptr;
    bool stolen = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this, index] {
        if (stop_ || !queues_[index].empty()) return true;
        for (const auto& queue : queues_) {
          if (!queue.empty()) return true;
        }
        return false;
      });
      if (!queues_[index].empty()) {
        strand = queues_[index].front();
        queues_[index].pop_front();
      } else {
        // Steal from the back of the longest sibling queue: the strand that
        // would otherwise wait the longest behind its home worker.
        size_t victim = index;
        size_t longest = 0;
        for (size_t i = 0; i < queues_.size(); ++i) {
          if (queues_[i].size() > longest) {
            longest = queues_[i].size();
            victim = i;
          }
        }
        if (longest > 0) {
          strand = queues_[victim].back();
          queues_[victim].pop_back();
          stolen = true;
        }
      }
      // A stopping pool still drains every queued strand before the workers
      // exit, so joined futures are always satisfied.
      if (strand == nullptr && stop_) return;
    }
    if (strand == nullptr) continue;
    if (stolen) steals_.fetch_add(1, std::memory_order_relaxed);
    RunStrand(strand);
  }
}

void WorkerPool::RunStrand(Strand* strand) {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::lock_guard<std::mutex> lock(strand->mu_);
      if (strand->tasks_.empty()) {
        strand->scheduled_ = false;
        // Notify under the lock and return without touching the strand
        // again: a destructor waiting on idle_cv_ may free it as soon as we
        // release mu_.
        strand->idle_cv_.notify_all();
        return;
      }
      task = std::move(strand->tasks_.front());
      strand->tasks_.pop_front();
    }
    task();
  }
}

}  // namespace mirabel::edms
