#include "util/worker_pool.hh"

namespace espresso {

WorkerPool::~WorkerPool()
{
    {
        std::lock_guard<std::mutex> g(mu_);
        stop_ = true;
    }
    workCv_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

void
WorkerPool::run(unsigned n, const std::function<void(unsigned)> &fn)
{
    if (n == 0)
        return;
    if (n == 1) {
        fn(0);
        return;
    }
    std::unique_lock<std::mutex> lock(mu_);
    while (threads_.size() < n) {
        unsigned idx = static_cast<unsigned>(threads_.size());
        threads_.emplace_back([this, idx]() { threadMain(idx); });
    }
    fn_ = &fn;
    width_ = n;
    remaining_ = n;
    ++round_;
    workCv_.notify_all();
    doneCv_.wait(lock, [this]() { return remaining_ == 0; });
    fn_ = nullptr;
}

void
WorkerPool::threadMain(unsigned idx)
{
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        workCv_.wait(lock, [&]() {
            return stop_ || (round_ != seen && idx < width_);
        });
        if (stop_)
            return;
        seen = round_;
        const std::function<void(unsigned)> *fn = fn_;
        lock.unlock();
        (*fn)(idx);
        lock.lock();
        if (--remaining_ == 0)
            doneCv_.notify_all();
    }
}

} // namespace espresso
