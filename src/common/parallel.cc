#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include "common/check.h"

namespace tamp {
namespace {

/// Threads the caller asked for, before any override. Reads TAMP_THREADS
/// once per call so tests can flip the env var between regions.
int DetectThreadCount() {
  const char* env = std::getenv("TAMP_THREADS");
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    long v = std::strtol(env, &end, 10);
    if (end != nullptr && *end == '\0' && v >= 1 &&
        v <= kMaxParallelThreads) {
      return static_cast<int>(v);
    }
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1
                 : static_cast<int>(std::min<unsigned>(
                       hw, static_cast<unsigned>(kMaxParallelThreads)));
}

std::atomic<int> g_thread_override{0};

/// Set while the current thread executes a parallel region's body (both on
/// pool workers and on the calling thread); nested regions see it and run
/// serially inline instead of deadlocking on the busy pool.
thread_local bool tls_in_region = false;

/// One fan-out: a batch of n independent indices claimed atomically.
/// Completion is index-counted so late-waking workers that find no work
/// left never block the region from finishing.
struct Job {
  const std::function<void(size_t)>* fn = nullptr;
  size_t n = 0;
  std::atomic<size_t> next{0};        // Next unclaimed index.
  std::atomic<size_t> unfinished{0};  // Indices not yet accounted for.
  std::atomic<bool> has_error{false};
  std::exception_ptr error;  // First exception; guarded by error_mu.
  std::mutex error_mu;
};

/// Lazily-started fixed pool. Workers persist for the process lifetime
/// (reused across regions); the pool grows up to the configured count but
/// never shrinks, and at most min(count, n) - 1 workers join a region — the
/// caller always works too. A region opens that many join slots, so after
/// a lowered count the surplus spawned workers sit the region out.
class Pool {
 public:
  static Pool& Instance() {
    static Pool* pool = new Pool();  // Leaked: workers may outlive main.
    return *pool;
  }

  void Run(Job& job, int max_threads) {
    // One top-level region at a time: concurrent callers from independent
    // threads queue here instead of clobbering current_/epoch_.
    std::lock_guard<std::mutex> region(run_mu_);
    EnsureWorkers(max_threads - 1);
    {
      std::lock_guard<std::mutex> lock(mu_);
      current_ = &job;
      ++epoch_;
      open_slots_ = max_threads - 1;
    }
    cv_workers_.notify_all();
    Work(job);
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [&] {
      return job.unfinished.load(std::memory_order_acquire) == 0 &&
             participants_ == 0;
    });
    current_ = nullptr;
  }

  /// Claims and runs indices until the job is drained. Called from the
  /// region's caller thread and from pool workers.
  static void Work(Job& job) {
    tls_in_region = true;
    for (;;) {
      size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= job.n) break;
      if (!job.has_error.load(std::memory_order_acquire)) {
        try {
          (*job.fn)(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(job.error_mu);
          if (!job.has_error.load(std::memory_order_relaxed)) {
            job.error = std::current_exception();
            job.has_error.store(true, std::memory_order_release);
          }
        }
      }
      job.unfinished.fetch_sub(1, std::memory_order_acq_rel);
    }
    tls_in_region = false;
  }

  int spawned() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int>(workers_.size());
  }

 private:
  Pool() = default;

  void EnsureWorkers(int want) {
    std::lock_guard<std::mutex> lock(mu_);
    while (static_cast<int>(workers_.size()) < want) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  void WorkerLoop() {
    uint64_t seen_epoch = 0;
    for (;;) {
      Job* job = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_workers_.wait(lock, [&] {
          return current_ != nullptr && epoch_ != seen_epoch &&
                 open_slots_ > 0;
        });
        seen_epoch = epoch_;
        job = current_;
        --open_slots_;
        ++participants_;
      }
      Work(*job);
      {
        std::lock_guard<std::mutex> lock(mu_);
        --participants_;
      }
      cv_done_.notify_all();
    }
  }

  std::mutex run_mu_;  // Serializes top-level regions.
  mutable std::mutex mu_;
  std::condition_variable cv_workers_;
  std::condition_variable cv_done_;
  std::vector<std::thread> workers_;  // Detached-by-leak: never joined.
  Job* current_ = nullptr;
  uint64_t epoch_ = 0;
  int open_slots_ = 0;    // Workers that may still join current_.
  int participants_ = 0;  // Workers currently inside Work() for current_.
};

}  // namespace

int ParallelThreadCount() {
  int override_count = g_thread_override.load(std::memory_order_relaxed);
  if (override_count >= 1) return override_count;
  return DetectThreadCount();
}

void SetParallelThreadCount(int threads) {
  TAMP_CHECK(threads >= 0 && threads <= kMaxParallelThreads);
  g_thread_override.store(threads, std::memory_order_relaxed);
}

bool InParallelRegion() { return tls_in_region; }

void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  ParallelForIf(true, n, fn);
}

void ParallelForIf(bool fan_out, size_t n,
                   const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  // Without an override the thread count reads the environment and the
  // CPU count, which an inline call need not pay.
  const int threads = fan_out ? ParallelThreadCount() : 1;
  // Serial path: not worth a region, configured serial, trivial batch, or
  // nested inside a running region (the pool is busy; inline keeps
  // progress + determinism).
  if (threads <= 1 || n == 1 || tls_in_region) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  Job job;
  job.fn = &fn;
  job.n = n;
  job.unfinished.store(n, std::memory_order_relaxed);
  int participating = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(threads), n));
  Pool::Instance().Run(job, participating);
  if (job.has_error.load(std::memory_order_acquire)) {
    std::rethrow_exception(job.error);
  }
}

}  // namespace tamp
