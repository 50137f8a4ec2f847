/**
 * @file
 * Group commit: batch the flush+fence drain of concurrently
 * committing transactions into one cycle.
 *
 * Eager commit pays two fences per transaction (new images, then the
 * commit record). With K transactions committing concurrently the
 * coordinator elects the first arrival leader; the leader waits up
 * to the batch window for the other in-flight transactions to arrive
 * and then drains the whole batch — every shard's new images staged,
 * one fence, every shard's commit record staged, one fence — so the
 * per-batch fence cost is constant in K.
 *
 * Small batches drain inline on the leader thread (two fences per
 * batch). Large batches fan the per-shard image staging out across
 * the persistent WorkerPool — each worker stages its slice of shards
 * and fences them in parallel — before the leader's single retire
 * fence, so the serial drain depth stays constant no matter how wide
 * a burst commits. The fan-out is used only on hosts with enough
 * cores for the workers' fences to really overlap; otherwise every
 * batch drains inline (two fences total).
 *
 * A batch of one falls back to the eager path on the caller's own
 * thread, so single-threaded behavior (and its crash sweep event
 * stream) is identical to a database without a coordinator.
 *
 * Two entry points:
 *
 *  - commit(): the classic blocking path — the caller parks until
 *    its commit record is durable (and may be elected leader).
 *  - commitAsync(): the network front door's path. The caller
 *    (an event-loop worker that must never block on a fence) parks
 *    only the *transaction* here and returns; a lazily spawned
 *    drainer thread acts as the standing leader for async entries
 *    and invokes the completion callback — off the coordinator
 *    mutex, on the drainer thread — once the batch is durable. Under
 *    a window, sync and async waiters share batches.
 *
 * With no window (0, or auto: ESPRESSO_DB_GROUP_COMMIT=auto) nobody
 * waits; this is natural group commit. A sync commit takes the eager
 * path on its own thread. The drainer drains whatever is pending the
 * moment it runs, and async commits that park while a drain fences
 * form the next batch, so batches grow only with real concurrency.
 * Auto mode deliberately opens no window: waiting for more arrivals
 * saves fences, but a waiting committer keeps its row locks and WAL
 * token, and a closed-loop client cannot send the next arrival until
 * this one is answered (EXPERIMENTS.md, "wire_bench with natural
 * group commit").
 */

#ifndef ESPRESSO_DB_COMMIT_COORDINATOR_HH
#define ESPRESSO_DB_COMMIT_COORDINATOR_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/worker_pool.hh"

namespace espresso {

class NvmDevice;

namespace db {

class WalShard;

/** Batches concurrent transaction commits into shared drain cycles. */
class CommitCoordinator
{
  public:
    /** Largest batch one drain cycle will absorb. */
    static constexpr unsigned kMaxBatch = 64;

    /** Batches at least this big stage through the WorkerPool. */
    static constexpr unsigned kParallelDrainMin = 8;

    /** Stage-fan-out width for pool drains. */
    static constexpr unsigned kDrainWorkers = 4;

    /** window_ns sentinel: natural group commit, no window (see
     * file comment). */
    static constexpr std::uint64_t kAutoWindow = ~0ull;

    /** Async completion: the exception_ptr is set when the drain
     * died of a simulated crash. Runs on the drainer thread. */
    using DoneFn = std::function<void(std::exception_ptr)>;

    /** @param device the database device; @param window_ns how long
     * a leader waits for stragglers (0 or kAutoWindow = never). */
    CommitCoordinator(NvmDevice *device, std::uint64_t window_ns);
    ~CommitCoordinator();

    CommitCoordinator(const CommitCoordinator &) = delete;
    CommitCoordinator &operator=(const CommitCoordinator &) = delete;

    /** Commit @p shard's open transaction; returns (or throws) once
     * its commit record is durable. */
    void commit(WalShard &shard);

    /** Park @p shard's open transaction for a batched drain and
     * return immediately; @p done fires once its commit record is
     * durable (see DoneFn). The caller must not touch the shard
     * until then. */
    void commitAsync(WalShard &shard, DoneFn done);

    /** In-flight transaction accounting: a leader stops waiting as
     * soon as every in-flight transaction has joined its batch. */
    void txnBegan() { inflight_.fetch_add(1, std::memory_order_relaxed); }
    void txnEnded();

    unsigned
    inflight() const
    {
        return inflight_.load(std::memory_order_relaxed);
    }

    std::uint64_t windowNs() const { return windowNs_; }

    /** The window a leader waits: the configured one, 0 in auto
     * mode. */
    std::uint64_t effectiveWindowNs() const;

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
        /** Leader windows that expired before every in-flight txn
         * joined — a high ratio means the window is too short or
         * in-flight txns are long. */
        std::uint64_t windowTimeouts = 0;
        /** Always 0: auto mode has no window. Kept because
         * espresso_bench reports it as db.commit.auto_window_us. */
        std::uint64_t autoWindowNs = 0;
    };

    Stats stats() const;

  private:
    struct Waiter
    {
        WalShard *shard = nullptr;
        bool done = false;
        std::exception_ptr err;
        /** Non-null for async entries (heap-owned; the leader that
         * drains the batch deletes them after firing the callback). */
        DoneFn asyncDone;
    };

    /** Feed the arrival-gap EWMA (a window's quiet period). */
    void noteArrival();

    /** Take leadership, wait out the window, drain the batch and
     * deliver results. @p lock is held on entry and exit. */
    void leadBatch(std::unique_lock<std::mutex> &lock);

    /** Standing leader for async entries. */
    void drainerLoop();

    /** Stage+fence the whole batch; runs on the drain thread. */
    void drainBatch(const std::vector<Waiter *> &batch);

    /** Racy-max update for the maxBatch gauge. */
    void bumpMaxBatch(std::uint64_t n);

    NvmDevice *device_;
    const std::uint64_t windowNs_;
    std::atomic<unsigned> inflight_{0};

    /** Commit arrival cadence under a window. Racy-relaxed on
     * purpose: the EWMA is a tuning signal, not a correctness
     * input. */
    std::atomic<std::uint64_t> lastArrivalNs_{0};
    std::atomic<std::uint64_t> ewmaGapNs_{0};

    std::mutex mu_;
    std::condition_variable cv_;
    std::vector<Waiter *> pending_;
    bool leaderActive_ = false;
    bool stop_ = false;
    /** True while a leader sits in its batch window, so txnEnded()
     * knows to wake it (its target may just have shrunk). */
    std::atomic<bool> leaderWaiting_{false};

    /** Lazily spawned by the first commitAsync (guarded by mu_). */
    std::thread drainer_;
    bool drainerStarted_ = false;

    WorkerPool pool_;

    std::atomic<std::uint64_t> statBatches_{0};
    std::atomic<std::uint64_t> statTxns_{0};
    std::atomic<std::uint64_t> statMaxBatch_{0};
    std::atomic<std::uint64_t> statWindowTimeouts_{0};
};

} // namespace db
} // namespace espresso

#endif // ESPRESSO_DB_COMMIT_COORDINATOR_HH
