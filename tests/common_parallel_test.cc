// Tests of the deterministic parallel runtime (src/common/parallel):
// pool reuse across regions, the participation limit of a lowered thread
// count, exception propagation, nested-call safety, and the 1-thread ==
// serial contract.
#include "common/parallel.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace tamp {
namespace {

/// Restores the configured thread count on scope exit so tests compose.
class ScopedThreads {
 public:
  explicit ScopedThreads(int threads) { SetParallelThreadCount(threads); }
  ~ScopedThreads() { SetParallelThreadCount(0); }
};

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ScopedThreads threads(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  ParallelFor(kN, [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, ZeroAndOneElementBatches) {
  ScopedThreads threads(4);
  ParallelFor(0, [](size_t) { FAIL() << "fn called for n = 0"; });
  int calls = 0;
  ParallelFor(1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForTest, PoolIsReusedAcrossManyRegions) {
  ScopedThreads threads(4);
  // Many back-to-back regions through the same lazily-started pool; a
  // pool that leaked workers or deadlocked on reuse would hang or die.
  for (int round = 0; round < 200; ++round) {
    std::atomic<long> sum{0};
    ParallelFor(64, [&](size_t i) {
      sum.fetch_add(static_cast<long>(i), std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 64L * 63L / 2L);
  }
}

TEST(ParallelForTest, LoweredThreadCountLimitsParticipants) {
  // Grow the pool to 7 workers first; the pool never shrinks, so the
  // later 2-thread regions must keep the surplus workers out.
  SetParallelThreadCount(8);
  ParallelFor(64, [](size_t) {});
  ScopedThreads threads(2);
  for (int round = 0; round < 5; ++round) {
    std::mutex mu;
    std::set<decltype(std::this_thread::get_id())> ids;
    ParallelFor(64, [&](size_t) {
      // Long enough per index that every woken worker would claim some.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      std::lock_guard<std::mutex> lock(mu);
      ids.insert(std::this_thread::get_id());
    });
    EXPECT_LE(ids.size(), 2u) << "round " << round;
  }
}

TEST(ParallelForTest, ExceptionPropagatesToCaller) {
  ScopedThreads threads(4);
  EXPECT_THROW(
      ParallelFor(128,
                  [&](size_t i) {
                    if (i == 77) throw std::runtime_error("worker failure");
                  }),
      std::runtime_error);
  try {
    ParallelFor(128, [&](size_t i) {
      if (i == 5) throw std::runtime_error("first of many");
    });
    FAIL() << "expected the worker exception to be rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "first of many");
  }
}

TEST(ParallelForTest, PoolSurvivesAnExceptionRegion) {
  ScopedThreads threads(4);
  EXPECT_THROW(ParallelFor(32, [](size_t) { throw std::logic_error("boom"); }),
               std::logic_error);
  // The pool must remain usable after a failed region.
  std::atomic<int> count{0};
  ParallelFor(32, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 32);
}

TEST(ParallelForTest, NestedCallsRunSeriallyInline) {
  ScopedThreads threads(4);
  EXPECT_FALSE(InParallelRegion());
  std::atomic<int> inner_total{0};
  ParallelFor(8, [&](size_t) {
    EXPECT_TRUE(InParallelRegion());
    // A nested region must not dispatch to the (busy) pool: it runs
    // inline on this thread, so it cannot deadlock.
    int local = 0;
    ParallelFor(16, [&](size_t) {
      EXPECT_TRUE(InParallelRegion());
      ++local;  // Serial inline: plain int is safe.
    });
    EXPECT_EQ(local, 16);
    inner_total.fetch_add(local, std::memory_order_relaxed);
  });
  EXPECT_FALSE(InParallelRegion());
  EXPECT_EQ(inner_total.load(), 8 * 16);
}

TEST(ParallelForTest, OneThreadTakesTheSerialPath) {
  ScopedThreads threads(1);
  // Serial contract: runs on the calling thread, in index order, with no
  // pool involvement — observable as strictly increasing indices and no
  // InParallelRegion flag (the pool path would set it).
  std::vector<size_t> order;
  ParallelFor(64, [&](size_t i) {
    EXPECT_FALSE(InParallelRegion());
    order.push_back(i);
  });
  std::vector<size_t> expected(64);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);
}

TEST(ParallelThreadCountTest, OverrideWinsAndResetRestoresEnv) {
  SetParallelThreadCount(3);
  EXPECT_EQ(ParallelThreadCount(), 3);
  SetParallelThreadCount(0);
  EXPECT_GE(ParallelThreadCount(), 1);  // env / hardware fallback
}

/// Sets TAMP_THREADS for one scope and restores the previous value (or
/// its absence) on exit, so a failing assertion cannot leave a huge count
/// in the environment for later regions in this binary.
class ScopedTampThreadsEnv {
 public:
  explicit ScopedTampThreadsEnv(const std::string& value) {
    const char* saved = std::getenv("TAMP_THREADS");
    had_value_ = saved != nullptr;
    if (had_value_) saved_ = saved;
    setenv("TAMP_THREADS", value.c_str(), 1);
  }
  ~ScopedTampThreadsEnv() {
    if (had_value_) {
      setenv("TAMP_THREADS", saved_.c_str(), 1);
    } else {
      unsetenv("TAMP_THREADS");
    }
  }

 private:
  bool had_value_ = false;
  std::string saved_;
};

/// Valid values win; garbage and counts above kMaxParallelThreads fall
/// back to the hardware default. Checked through ParallelThreadCount()
/// only: no region is opened at a count above the host's cores.
TEST(ParallelThreadCountTest, ReadsTampThreadsEnv) {
  SetParallelThreadCount(0);
  int fallback = 0;
  {
    ScopedTampThreadsEnv env("");
    fallback = ParallelThreadCount();
  }
  EXPECT_GE(fallback, 1);
  EXPECT_LE(fallback, kMaxParallelThreads);
  {
    ScopedTampThreadsEnv env("7");
    EXPECT_EQ(ParallelThreadCount(), 7);
  }
  {
    ScopedTampThreadsEnv env("not-a-number");
    EXPECT_EQ(ParallelThreadCount(), fallback);
  }
  {
    ScopedTampThreadsEnv env(std::to_string(kMaxParallelThreads + 1));
    EXPECT_EQ(ParallelThreadCount(), fallback);
  }
  {
    ScopedTampThreadsEnv env(std::to_string(kMaxParallelThreads));
    EXPECT_EQ(ParallelThreadCount(), kMaxParallelThreads);
  }
}

TEST(ParallelMapTest, ResultsLandAtTheirIndex) {
  ScopedThreads threads(4);
  std::vector<int> out =
      ParallelMap<int>(257, [](size_t i) { return static_cast<int>(i * i); });
  ASSERT_EQ(out.size(), 257u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i * i));
  }
}

TEST(ParallelMapTest, ZeroOneAndFewerElementsThanThreads) {
  ScopedThreads threads(8);
  // n = 0: no fn call, empty result.
  std::vector<int> none = ParallelMap<int>(0, [](size_t) -> int {
    ADD_FAILURE() << "fn called for n = 0";
    return -1;
  });
  EXPECT_TRUE(none.empty());
  // n = 1 and n < thread count: every index lands at its slot exactly
  // once even when most workers have nothing to claim.
  std::vector<int> one = ParallelMap<int>(1, [](size_t i) {
    return static_cast<int>(i) + 41;
  });
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 41);
  std::vector<int> few = ParallelMap<int>(3, [](size_t i) {
    return static_cast<int>(i * 10);
  });
  EXPECT_EQ(few, (std::vector<int>{0, 10, 20}));
}

TEST(ParallelOrderedReduceTest, ZeroOneAndFewerElementsThanThreads) {
  ScopedThreads threads(8);
  auto add = [](double acc, double part) { return acc + part; };
  // n = 0: the init value comes back untouched, no map call.
  double none = ParallelOrderedReduce<double, double>(
      0, 7.5,
      [](size_t) -> double {
        ADD_FAILURE() << "map_fn called for n = 0";
        return 0.0;
      },
      add);
  EXPECT_EQ(none, 7.5);
  auto square = [](size_t i) { return static_cast<double>(i * i); };
  double one = ParallelOrderedReduce<double, double>(1, 0.5, square, add);
  EXPECT_EQ(one, 0.5);
  // n = 5 < 8 threads: same serial fold as the index-order loop.
  double few = ParallelOrderedReduce<double, double>(5, 0.0, square, add);
  EXPECT_EQ(few, 0.0 + 1.0 + 4.0 + 9.0 + 16.0);
}

TEST(ParallelOrderedReduceTest, BitIdenticalToSerialAtAnyThreadCount) {
  // A reduction whose value depends on accumulation order: summing
  // magnitudes of very different scale. The ordered reduce must give the
  // exact serial result for every thread count.
  auto map_fn = [](size_t i) {
    return (i % 3 == 0) ? 1e-9 * static_cast<double>(i)
                        : 1e6 / (static_cast<double>(i) + 1.0);
  };
  auto reduce_fn = [](double acc, double part) { return acc + part; };
  constexpr size_t kN = 2048;

  double serial = 0.0;
  for (size_t i = 0; i < kN; ++i) serial = reduce_fn(serial, map_fn(i));

  for (int threads : {1, 2, 4, 8}) {
    ScopedThreads scoped(threads);
    double parallel = ParallelOrderedReduce<double, double>(
        kN, 0.0, map_fn, reduce_fn);
    EXPECT_EQ(parallel, serial) << "threads = " << threads;
  }
}

}  // namespace
}  // namespace tamp
