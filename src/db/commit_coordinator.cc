#include "db/commit_coordinator.hh"

#include "db/wal.hh"
#include "nvm/nvm_device.hh"

namespace espresso {
namespace db {

CommitCoordinator::CommitCoordinator(NvmDevice *device) : device_(device)
{}

CommitCoordinator::~CommitCoordinator()
{
    {
        std::lock_guard<std::mutex> g(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    if (drainer_.joinable())
        drainer_.join();
}

void
CommitCoordinator::recordBatch(std::uint64_t n)
{
    statBatches_.fetch_add(1, std::memory_order_relaxed);
    statTxns_.fetch_add(n, std::memory_order_relaxed);
    std::uint64_t cur = statMaxBatch_.load(std::memory_order_relaxed);
    while (cur < n && !statMaxBatch_.compare_exchange_weak(
                          cur, n, std::memory_order_relaxed)) {
    }
}

void
CommitCoordinator::drainBatch(const std::vector<Waiter> &batch)
{
    for (const Waiter &w : batch)
        w.shard->stageCommit();
    device_->fence();
    for (const Waiter &w : batch)
        w.shard->stageRetire();
    device_->fence();
}

void
CommitCoordinator::commit(WalShard &shard)
{
    shard.commitEager();
    recordBatch(1);
}

void
CommitCoordinator::commitAsync(WalShard &shard, DoneFn done)
{
    std::lock_guard<std::mutex> g(mu_);
    if (!drainer_.joinable())
        drainer_ = std::thread([this] { drainerLoop(); });
    pending_.push_back(Waiter{&shard, std::move(done)});
    cv_.notify_one();
}

void
CommitCoordinator::drainerLoop()
{
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        cv_.wait(lock, [this] { return stop_ || !pending_.empty(); });
        if (stop_)
            return;
        // Whatever parked while the previous batch fenced drains now:
        // natural group commit.
        std::vector<Waiter> batch;
        batch.swap(pending_);
        lock.unlock();

        if (drainHook_)
            drainHook_(batch.size());
        std::exception_ptr err;
        try {
            if (batch.size() == 1)
                batch[0].shard->commitEager();
            else
                drainBatch(batch);
        } catch (...) {
            err = std::current_exception();
        }
        recordBatch(batch.size());
        // Callbacks run off the coordinator mutex so they may re-enter
        // (begin the next pipelined transaction, even commit it).
        for (Waiter &w : batch)
            w.done(err);
        lock.lock();
    }
}

void
CommitCoordinator::resetAfterCrash()
{
    std::lock_guard<std::mutex> g(mu_);
    pending_.clear(); // sessions died with the power; no callbacks
}

CommitCoordinator::Stats
CommitCoordinator::stats() const
{
    Stats s;
    s.batches = statBatches_.load(std::memory_order_relaxed);
    s.txns = statTxns_.load(std::memory_order_relaxed);
    s.maxBatch = statMaxBatch_.load(std::memory_order_relaxed);
    return s;
}

} // namespace db
} // namespace espresso
