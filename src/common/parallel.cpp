#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/sync.h"

namespace lcrs {

namespace {

std::atomic<int> g_threads{0};  // 0 = auto

// Read once: glibc answers hardware_concurrency() by reading sysfs, a few
// microseconds that every parallel_for would otherwise pay.
int hardware_threads() {
  static const int n = [] {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }();
  return n;
}

using Fn = std::function<void(std::int64_t, std::int64_t)>;

/// Persistent worker pool behind parallel_for. Workers are spawned
/// lazily on the first call that wants them and reused for every later
/// call, so a hot training loop pays thread-creation cost once, not per
/// GEMM. One Job is one parallel_for invocation: its chunks are claimed
/// lock-free through an atomic cursor by however many threads reach it
/// (the calling thread always participates, so a call can never wait on
/// a fully-busy pool), and completion is signalled through the Job's own
/// mutex + condvar.
///
/// Lock order: pool.mu and job.mu are never held together -- workers
/// take pool.mu only to pick up or retire a job, and job.mu only after
/// releasing pool.mu -- so the pool adds no edges to the lock-order
/// graph.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  void run(std::int64_t n, int workers, const Fn& fn) {
    auto job = std::make_shared<Job>(&fn, n, (n + workers - 1) / workers,
                                     workers);
    {
      MutexLock lock(mu_);
      if (stopping_) {  // static destruction already began: stay serial
        fn(0, n);
        return;
      }
      ensure_workers_locked(workers - 1);
      queue_.push_back(job);
    }
    work_cv_.notify_all();

    run_chunks(*job);  // the caller is always one of the workers

    std::exception_ptr error;
    {
      MutexLock lock(job->mu);
      while (job->completed < job->chunks) job->done_cv.wait(job->mu);
      error = job->error;
    }
    {
      // Normally a worker retires the drained job; sweep it here too in
      // case every helper was busy elsewhere and never picked it up.
      MutexLock lock(mu_);
      const auto it = std::find(queue_.begin(), queue_.end(), job);
      if (it != queue_.end()) queue_.erase(it);
    }
    if (error) std::rethrow_exception(error);
  }

 private:
  struct Job {
    Job(const Fn* fn_arg, std::int64_t n_arg, std::int64_t chunk_arg,
        std::int64_t chunks_arg)
        : fn(fn_arg), n(n_arg), chunk(chunk_arg), chunks(chunks_arg) {}

    // The work description is const: fully set before the job is
    // published to the queue, so workers read it without job.mu.
    const Fn* const fn;
    const std::int64_t n;
    const std::int64_t chunk;
    const std::int64_t chunks;
    std::atomic<std::int64_t> next{0};  // next chunk index to claim

    Mutex mu{"common.parallel.job"};
    CondVar done_cv;
    std::int64_t completed LCRS_GUARDED_BY(mu) = 0;
    std::exception_ptr error LCRS_GUARDED_BY(mu);
  };

  Pool() = default;

  ~Pool() {
    std::vector<std::thread> workers;
    {
      MutexLock lock(mu_);
      stopping_ = true;
      workers.swap(workers_);
    }
    work_cv_.notify_all();
    for (auto& w : workers) w.join();
  }

  void ensure_workers_locked(int helpers) LCRS_REQUIRES(mu_) {
    while (static_cast<int>(workers_.size()) < helpers) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  /// Claims and executes chunks until the job is drained. Every chunk is
  /// executed even after a failure (matching the pre-pool semantics of
  /// one thread per range); the first exception wins.
  static void run_chunks(Job& job) {
    for (;;) {
      const std::int64_t i = job.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= job.chunks) return;
      const std::int64_t begin = i * job.chunk;
      const std::int64_t end = std::min(begin + job.chunk, job.n);
      std::exception_ptr error;
      if (begin < end) {
        try {
          (*job.fn)(begin, end);
        } catch (...) {
          error = std::current_exception();
        }
      }
      MutexLock lock(job.mu);
      if (error && !job.error) job.error = error;
      if (++job.completed == job.chunks) job.done_cv.notify_all();
    }
  }

  void worker_loop() {
    for (;;) {
      std::shared_ptr<Job> job;
      {
        MutexLock lock(mu_);
        while (!stopping_ && queue_.empty()) work_cv_.wait(mu_);
        if (queue_.empty()) return;  // stopping and nothing left
        job = queue_.front();
      }
      run_chunks(*job);
      {
        // The job is drained (no chunks left to claim); retire it so
        // later wakeups see fresh work at the front.
        MutexLock lock(mu_);
        if (!queue_.empty() && queue_.front() == job) queue_.pop_front();
      }
    }
  }

  Mutex mu_{"common.parallel.pool"};
  CondVar work_cv_;
  std::deque<std::shared_ptr<Job>> queue_ LCRS_GUARDED_BY(mu_);
  std::vector<std::thread> workers_ LCRS_GUARDED_BY(mu_);
  bool stopping_ LCRS_GUARDED_BY(mu_) = false;
};

}  // namespace

int parallel_thread_count() {
  const int n = g_threads.load();
  return n >= 1 ? n : hardware_threads();
}

void set_parallel_thread_count(int n) { g_threads.store(n < 1 ? 0 : n); }

void parallel_for(std::int64_t n,
                  const std::function<void(std::int64_t, std::int64_t)>& fn) {
  if (n <= 0) return;
  const int workers = static_cast<int>(
      std::min<std::int64_t>(parallel_thread_count(), n));
  if (workers <= 1) {
    fn(0, n);
    return;
  }
  Pool::instance().run(n, workers, fn);
}

}  // namespace lcrs
