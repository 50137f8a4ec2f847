/**
 * @file
 * Group commit: batch the flush+fence drain of concurrently
 * committing transactions into one cycle.
 *
 * Eager commit pays two fences per transaction (new images, then the
 * commit record). A batched drain stages every member's new images,
 * fences once, stages every member's commit record and fences once
 * more, so its fence cost is constant in the batch size.
 *
 * There is one discipline, natural group commit; nobody waits for
 * arrivals:
 *
 *  - commit(): the blocking path. The caller commits eagerly on its
 *    own thread and returns once its commit record is durable.
 *  - commitAsync(): the network front door's path. The caller (an
 *    event-loop worker that must never block on a fence) parks only
 *    the *transaction* here and returns. A lazily spawned drainer
 *    thread drains whatever is pending when it runs, and the commits
 *    that park while it fences form its next batch, so batches grow
 *    only with real concurrency. Each completion callback runs on the
 *    drainer thread, off the coordinator mutex, once its batch is
 *    durable. A batch of one takes the eager path, so its event
 *    stream is identical to a sync commit's.
 *
 * Sync commits stay eager because parking them behind a running
 * drain measured slower on a 4-vCPU host: espresso_bench's wire_kv
 * preload runs four sync loaders on two CPUs, and each paid a condvar
 * park and wake instead of a ~4 µs spinning commit (setup_s 0.390 →
 * 0.443 s, medians of 6 pairs), while embedded_tpcc's members formed
 * no batch larger than one either way. A window that waits for more
 * arrivals saves fences, but a waiting committer keeps its row locks
 * and WAL token, and a closed-loop client cannot send the next
 * arrival until this one is answered (EXPERIMENTS.md, "wire_bench
 * with natural group commit").
 */

#ifndef ESPRESSO_DB_COMMIT_COORDINATOR_HH
#define ESPRESSO_DB_COMMIT_COORDINATOR_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace espresso {

class NvmDevice;

namespace db {

class WalShard;

/** Batches concurrent async transaction commits into shared drain
 * cycles. */
class CommitCoordinator
{
  public:
    /** Async completion: the exception_ptr is set when the drain
     * died of a simulated crash. Runs on the drainer thread. */
    using DoneFn = std::function<void(std::exception_ptr)>;

    /** Drain hook: receives the size of the batch just taken. */
    using DrainHook = std::function<void(std::size_t)>;

    explicit CommitCoordinator(NvmDevice *device);
    ~CommitCoordinator();

    CommitCoordinator(const CommitCoordinator &) = delete;
    CommitCoordinator &operator=(const CommitCoordinator &) = delete;

    /** Commit @p shard's open transaction eagerly on the calling
     * thread; returns (or throws) once its commit record is
     * durable. */
    void commit(WalShard &shard);

    /** Park @p shard's open transaction for the drainer and return
     * immediately; @p done fires once its commit record is durable
     * (see DoneFn). The caller must not touch the shard until then. */
    void commitAsync(WalShard &shard, DoneFn done);

    /** Test seam: @p hook runs on the drainer thread after it takes
     * a batch and before it stages it, so a test can hold a drain
     * open while later commits park. Set it only while no async
     * commit is pending or draining; null clears it. */
    void
    setDrainHook(DrainHook hook)
    {
        drainHook_ = std::move(hook);
    }

    /** Drop volatile batching state after a simulated power failure
     * (callers are quiesced by contract; parked async commits are
     * dropped without their callbacks — their sessions died with the
     * power). */
    void resetAfterCrash();

    struct Stats
    {
        std::uint64_t batches = 0; ///< drain cycles (incl. eager)
        std::uint64_t txns = 0;    ///< transactions committed
        std::uint64_t maxBatch = 0;
        /** Always 0; kept because espresso_bench reports it. */
        std::uint64_t windowTimeouts = 0;
        /** Always 0; kept because espresso_bench reports it. */
        std::uint64_t autoWindowNs = 0;
    };

    Stats stats() const;

  private:
    struct Waiter
    {
        WalShard *shard = nullptr;
        DoneFn done;
    };

    /** Drains pending async commits until destruction. */
    void drainerLoop();

    /** Stage+fence a batch of two or more; runs on the drainer. */
    void drainBatch(const std::vector<Waiter> &batch);

    /** Count one drain cycle of @p n transactions. */
    void recordBatch(std::uint64_t n);

    NvmDevice *device_;

    /** See setDrainHook(). */
    DrainHook drainHook_;

    std::atomic<std::uint64_t> statBatches_{0};
    std::atomic<std::uint64_t> statTxns_{0};
    std::atomic<std::uint64_t> statMaxBatch_{0};

    std::mutex mu_;
    std::condition_variable cv_;
    std::vector<Waiter> pending_; ///< guarded by mu_
    bool stop_ = false;           ///< guarded by mu_
    /** Spawned by the first commitAsync (guarded by mu_). */
    std::thread drainer_;
};

} // namespace db
} // namespace espresso

#endif // ESPRESSO_DB_COMMIT_COORDINATOR_HH
