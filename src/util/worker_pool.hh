/**
 * @file
 * A small persistent worker-thread pool for fork/join phases.
 *
 * The parallel GC phases (mark, compact) need "run f(i) on N threads
 * and wait". Spawning fresh std::threads per collection would work,
 * but every short-lived thread permanently registers a per-thread
 * staging shard with each NvmDevice it flushes — a long-lived
 * process collecting periodically would grow that registry without
 * bound. A pool reuses the same threads across collections, bounding
 * shard growth and eliminating per-GC thread-start latency.
 */

#ifndef ESPRESSO_UTIL_WORKER_POOL_HH
#define ESPRESSO_UTIL_WORKER_POOL_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace espresso {

/** Lazily-grown fork/join thread pool. */
class WorkerPool
{
  public:
    WorkerPool() = default;
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /**
     * Run @p fn(0) .. @p fn(n-1) on pool threads and block until all
     * return. The pool grows to @p n threads on demand and never
     * shrinks; a round of one runs on the calling thread, skipping
     * the hand-off. @p fn must not throw (wrap bodies that can). Not
     * reentrant: one run() at a time.
     */
    void run(unsigned n, const std::function<void(unsigned)> &fn);

  private:
    void threadMain(unsigned idx);

    std::mutex mu_;
    std::condition_variable workCv_; ///< workers wait for a round
    std::condition_variable doneCv_; ///< run() waits for completion
    const std::function<void(unsigned)> *fn_ = nullptr;
    /** Round counter; bumped by run(). A worker participates when it
     * has not yet seen the current round and its index is below the
     * round's width. */
    std::uint64_t round_ = 0;
    unsigned width_ = 0;     ///< workers participating this round
    unsigned remaining_ = 0; ///< participants still running
    bool stop_ = false;
    std::vector<std::thread> threads_;
};

} // namespace espresso

#endif // ESPRESSO_UTIL_WORKER_POOL_HH
