#include "db/commit_coordinator.hh"

#include <algorithm>
#include <chrono>

#include "db/wal.hh"
#include "nvm/nvm_device.hh"

namespace espresso {
namespace db {

namespace {

/** Arrival gaps above this don't feed the EWMA (an idle pause is not
 * a signal about the arrival rate under load). */
constexpr std::uint64_t kMaxArrivalGapNs = 10'000'000;

std::uint64_t
steadyNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

CommitCoordinator::CommitCoordinator(NvmDevice *device,
                                     std::uint64_t window_ns)
    : device_(device), windowNs_(window_ns)
{}

CommitCoordinator::~CommitCoordinator()
{
    {
        std::lock_guard<std::mutex> g(mu_);
        stop_ = true;
        cv_.notify_all();
    }
    if (drainer_.joinable())
        drainer_.join();
}

void
CommitCoordinator::bumpMaxBatch(std::uint64_t n)
{
    std::uint64_t cur = statMaxBatch_.load(std::memory_order_relaxed);
    while (cur < n && !statMaxBatch_.compare_exchange_weak(
                          cur, n, std::memory_order_relaxed)) {
    }
}

void
CommitCoordinator::noteArrival()
{
    std::uint64_t now = steadyNowNs();
    std::uint64_t last =
        lastArrivalNs_.exchange(now, std::memory_order_relaxed);
    if (last == 0 || now <= last)
        return;
    std::uint64_t gap = std::min(now - last, kMaxArrivalGapNs);
    std::uint64_t e = ewmaGapNs_.load(std::memory_order_relaxed);
    ewmaGapNs_.store(e == 0 ? gap : (e * 7 + gap) / 8,
                     std::memory_order_relaxed);
}

std::uint64_t
CommitCoordinator::effectiveWindowNs() const
{
    return windowNs_ == kAutoWindow ? 0 : windowNs_;
}

void
CommitCoordinator::drainBatch(const std::vector<Waiter *> &batch)
{
    // The fan-out only pays when the workers' fences actually overlap.
    // On a host with fewer cores than drain workers they serialize
    // instead, so the "parallel" path just multiplies the fence count
    // (kDrainWorkers + 1 per batch instead of 2) — inline staging is
    // strictly better there.
    static const bool pool_pays =
        std::thread::hardware_concurrency() >= kDrainWorkers;
    if (pool_pays && batch.size() >= kParallelDrainMin) {
        // Wide burst: fan the image staging out — each worker stages
        // its slice of shards and fences them, in parallel. Pool
        // bodies must not throw; a simulated crash is re-raised here.
        unsigned n = std::min<unsigned>(
            kDrainWorkers, static_cast<unsigned>(batch.size()));
        std::vector<std::exception_ptr> errs(n);
        pool_.run(n, [&](unsigned w) {
            try {
                for (std::size_t i = w; i < batch.size(); i += n)
                    batch[i]->shard->stageCommit();
                device_->fence();
            } catch (...) {
                errs[w] = std::current_exception();
            }
        });
        for (const std::exception_ptr &e : errs)
            if (e)
                std::rethrow_exception(e);
    } else {
        for (Waiter *w : batch)
            w->shard->stageCommit();
        device_->fence();
    }
    for (Waiter *w : batch)
        w->shard->stageRetire();
    device_->fence();
}

void
CommitCoordinator::leadBatch(std::unique_lock<std::mutex> &lock)
{
    leaderActive_ = true;
    std::uint64_t window = effectiveWindowNs();
    if (window > 0) {
        leaderWaiting_.store(true, std::memory_order_release);
        auto now = std::chrono::steady_clock::now();
        auto deadline = now + std::chrono::nanoseconds(window);
        // A straggler that lost the CPU shouldn't cost the batch the
        // whole window: once arrivals go quiet, drain what we have.
        // "Quiet" is measured against the observed arrival cadence —
        // several expected gaps, not a fixed fraction of the window —
        // so slow-arriving pipelines aren't truncated to tiny
        // batches on slow hosts.
        auto quiet = std::chrono::nanoseconds(std::max<std::uint64_t>(
            {window / 4,
             4 * ewmaGapNs_.load(std::memory_order_relaxed), 1000}));
        std::size_t last_size = pending_.size();
        auto last_arrival = now;
        for (;;) {
            // Once every in-flight txn has joined there is nothing
            // left to wait for.
            unsigned target = std::min(
                kMaxBatch, std::max(1u, inflight_.load(
                                            std::memory_order_relaxed)));
            if (pending_.size() >= target)
                break;
            if (pending_.size() != last_size) {
                last_size = pending_.size();
                last_arrival = std::chrono::steady_clock::now();
            }
            auto slice = std::min(deadline, last_arrival + quiet);
            if (cv_.wait_until(lock, slice) ==
                std::cv_status::timeout) {
                now = std::chrono::steady_clock::now();
                if (now >= deadline) {
                    statWindowTimeouts_.fetch_add(
                        1, std::memory_order_relaxed);
                    break;
                }
                if (pending_.size() == last_size)
                    break; // quiescent: no arrival for a quiet period
            }
        }
        leaderWaiting_.store(false, std::memory_order_release);
    }

    std::vector<Waiter *> batch;
    batch.swap(pending_);
    if (batch.empty()) {
        leaderActive_ = false;
        cv_.notify_all();
        return;
    }
    lock.unlock();

    std::exception_ptr err;
    try {
        if (batch.size() == 1) {
            // Alone after the window: the eager path, on this thread
            // — identical to a coordinator-less commit.
            batch[0]->shard->commitEager();
        } else {
            drainBatch(batch);
        }
    } catch (...) {
        err = std::current_exception();
    }

    std::vector<Waiter *> asyncs;
    lock.lock();
    statBatches_.fetch_add(1, std::memory_order_relaxed);
    statTxns_.fetch_add(batch.size(), std::memory_order_relaxed);
    bumpMaxBatch(batch.size());
    for (Waiter *w : batch) {
        if (w->asyncDone) {
            asyncs.push_back(w);
        } else {
            w->err = err;
            w->done = true;
        }
    }
    leaderActive_ = false;
    cv_.notify_all();
    lock.unlock();

    // Callbacks run off the coordinator mutex so they may re-enter
    // (begin the next pipelined transaction, even commit it).
    for (Waiter *w : asyncs) {
        w->asyncDone(err);
        delete w;
    }
    lock.lock();
}

void
CommitCoordinator::commit(WalShard &shard)
{
    if (effectiveWindowNs() == 0) {
        shard.commitEager();
        statBatches_.fetch_add(1, std::memory_order_relaxed);
        statTxns_.fetch_add(1, std::memory_order_relaxed);
        bumpMaxBatch(1);
        return;
    }

    noteArrival();
    Waiter self;
    self.shard = &shard;
    std::unique_lock<std::mutex> lock(mu_);
    pending_.push_back(&self);
    cv_.notify_all();

    // Follow until done, or claim leadership of the next batch.
    for (;;) {
        if (self.done) {
            if (self.err)
                std::rethrow_exception(self.err);
            return;
        }
        if (!leaderActive_) {
            leadBatch(lock);
            continue;
        }
        cv_.wait(lock);
    }
}

void
CommitCoordinator::commitAsync(WalShard &shard, DoneFn done)
{
    if (effectiveWindowNs() > 0)
        noteArrival();
    Waiter *w = new Waiter;
    w->shard = &shard;
    w->asyncDone = std::move(done);

    std::lock_guard<std::mutex> g(mu_);
    if (!drainerStarted_) {
        drainerStarted_ = true;
        drainer_ = std::thread([this] { drainerLoop(); });
    }
    pending_.push_back(w);
    cv_.notify_all();
}

void
CommitCoordinator::drainerLoop()
{
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
        if (pending_.empty() || leaderActive_) {
            cv_.wait(lock);
            continue;
        }
        // With no window this drains whatever accumulated while the
        // previous batch fenced: natural group commit.
        leadBatch(lock);
    }
}

void
CommitCoordinator::txnEnded()
{
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    // A leader waiting for "every in-flight txn" may be waiting for
    // this one; wake it so it re-derives its shrunken target. The
    // lock makes the wakeup race-free; it is only taken while a
    // leader actually sits in its window.
    if (leaderWaiting_.load(std::memory_order_acquire)) {
        std::lock_guard<std::mutex> g(mu_);
        cv_.notify_all();
    }
}

void
CommitCoordinator::resetAfterCrash()
{
    std::lock_guard<std::mutex> g(mu_);
    for (Waiter *w : pending_)
        if (w->asyncDone)
            delete w; // session died with the power; no callback
    pending_.clear();
    leaderActive_ = false;
    inflight_.store(0, std::memory_order_relaxed);
    lastArrivalNs_.store(0, std::memory_order_relaxed);
    ewmaGapNs_.store(0, std::memory_order_relaxed);
}

CommitCoordinator::Stats
CommitCoordinator::stats() const
{
    Stats s;
    s.batches = statBatches_.load(std::memory_order_relaxed);
    s.txns = statTxns_.load(std::memory_order_relaxed);
    s.maxBatch = statMaxBatch_.load(std::memory_order_relaxed);
    s.windowTimeouts =
        statWindowTimeouts_.load(std::memory_order_relaxed);
    return s;
}

} // namespace db
} // namespace espresso
