// Tests of the edms::WorkerPool strand scheduler: FIFO per strand, cross-
// strand concurrency, and the stealing contract — an idle worker rescues
// runnable strands stuck behind a busy home worker.
//
// The CI thread-sanitizer job runs this suite.
#include "edms/worker_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <vector>

namespace mirabel::edms {
namespace {

using namespace std::chrono_literals;

WorkerPool::Options PoolOptions(size_t threads) {
  WorkerPool::Options options;
  options.num_threads = threads;
  return options;
}

TEST(WorkerPoolTest, ResolvesThreadCount) {
  WorkerPool defaulted;
  EXPECT_GE(defaulted.num_threads(), 1u);
  WorkerPool two(PoolOptions(2));
  EXPECT_EQ(two.num_threads(), 2u);
}

TEST(WorkerPoolTest, StrandRunsTasksInFifoOrder) {
  WorkerPool pool(PoolOptions(4));
  auto strand = pool.CreateStrand();
  std::vector<int> order;  // touched only by strand tasks + the final join
  std::future<void> last;
  for (int i = 0; i < 100; ++i) {
    last = strand->Post([&order, i] { order.push_back(i); });
  }
  last.get();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(WorkerPoolTest, StrandsRunConcurrently) {
  // Two strands must be able to execute at the same time: each task waits
  // for the other side's arrival, which deadlocks unless both run.
  WorkerPool pool(PoolOptions(2));
  auto a = pool.CreateStrand();
  auto b = pool.CreateStrand();
  std::promise<void> a_arrived;
  std::promise<void> b_arrived;
  std::future<void> fa = a->Post([&] {
    a_arrived.set_value();
    b_arrived.get_future().wait();
  });
  std::future<void> fb = b->Post([&] {
    b_arrived.set_value();
    a_arrived.get_future().wait();
  });
  EXPECT_EQ(fa.wait_for(10s), std::future_status::ready);
  EXPECT_EQ(fb.wait_for(10s), std::future_status::ready);
}

TEST(WorkerPoolTest, OneStrandNeverOverlapsItself) {
  WorkerPool pool(PoolOptions(4));
  auto strand = pool.CreateStrand();
  std::atomic<int> active{0};
  std::atomic<int> max_active{0};
  std::atomic<int> runs{0};
  std::future<void> last;
  for (int i = 0; i < 500; ++i) {
    last = strand->Post([&] {
      int now_active = active.fetch_add(1) + 1;
      int seen = max_active.load();
      while (now_active > seen &&
             !max_active.compare_exchange_weak(seen, now_active)) {
      }
      ++runs;
      active.fetch_sub(1);
    });
  }
  last.get();
  EXPECT_EQ(runs.load(), 500);
  EXPECT_EQ(max_active.load(), 1);
}

TEST(WorkerPoolTest, StealingRescuesStrandBehindBusyHomeWorker) {
  // Homes are assigned round-robin, so with 2 workers the 1st and 3rd
  // strands share home worker 0. Blocking the first strand must not stall
  // the third: whichever worker is free steals it.
  WorkerPool pool(PoolOptions(2));
  auto blocked = pool.CreateStrand();   // home 0
  auto other = pool.CreateStrand();     // home 1
  auto stranded = pool.CreateStrand();  // home 0
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::future<void> blocker = blocked->Post([gate] { gate.wait(); });
  std::future<void> rescued = stranded->Post([] {});
  // The rescued task completes while the blocker still occupies a worker.
  EXPECT_EQ(rescued.wait_for(10s), std::future_status::ready);
  EXPECT_EQ(blocker.wait_for(0s), std::future_status::timeout);
  release.set_value();
  blocker.get();
  (void)other;
}

TEST(WorkerPoolTest, CountsSteals) {
  // Saturate one home worker with many single-task strands: with only two
  // workers and every strand homed round-robin, the sibling must steal some
  // of worker 0's backlog while worker 0 chews through a blocker.
  WorkerPool pool(PoolOptions(2));
  std::vector<std::unique_ptr<WorkerPool::Strand>> strands;
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  strands.push_back(pool.CreateStrand());  // home 0
  std::future<void> blocker = strands[0]->Post([gate] { gate.wait(); });
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 16; ++i) {
    strands.push_back(pool.CreateStrand());
    futures.push_back(strands.back()->Post([] {}));
  }
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(10s), std::future_status::ready);
  }
  release.set_value();
  blocker.get();
  // Half the strands were homed on the blocked worker; they finished, so
  // they were stolen.
  EXPECT_GE(pool.steals(), 1u);
}

TEST(WorkerPoolTest, FutureCarriesTaskException) {
  WorkerPool pool(PoolOptions(1));
  auto strand = pool.CreateStrand();
  std::future<void> f =
      strand->Post([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  // The strand stays usable after a throwing task.
  std::future<void> ok = strand->Post([] {});
  EXPECT_EQ(ok.wait_for(10s), std::future_status::ready);
}

TEST(WorkerPoolTest, ManyStrandsManyTasksAllRunSerialized) {
  WorkerPool pool(PoolOptions(4));
  constexpr size_t kStrands = 8;
  constexpr int kTasks = 200;
  std::vector<std::unique_ptr<WorkerPool::Strand>> strands;
  // Plain (non-atomic) per-strand counters: the strand serialization is the
  // only thing keeping these increments race-free, so TSan vets the
  // scheduler itself here.
  std::vector<int> counts(kStrands, 0);
  std::vector<std::future<void>> lasts(kStrands);
  for (size_t s = 0; s < kStrands; ++s) strands.push_back(pool.CreateStrand());
  for (int t = 0; t < kTasks; ++t) {
    for (size_t s = 0; s < kStrands; ++s) {
      lasts[s] = strands[s]->Post([&counts, s] { ++counts[s]; });
    }
  }
  for (auto& f : lasts) f.get();
  for (size_t s = 0; s < kStrands; ++s) EXPECT_EQ(counts[s], kTasks);
}

}  // namespace
}  // namespace mirabel::edms
