#include "nvm/nvm_device.hh"

#include <chrono>
#include <cstring>
#include <fstream>
#include <new>
#include <thread>
#include <unordered_map>

#include "util/logging.hh"
#include "util/rng.hh"
#include "util/spin.hh"

namespace espresso {

namespace {

std::atomic<std::uint64_t> g_deviceSerial{1};

std::uint8_t *
zeroedBytes(std::size_t n)
{
    void *p = std::calloc(n, 1);
    if (p == nullptr && n != 0)
        throw std::bad_alloc();
    return static_cast<std::uint8_t *>(p);
}

void
yieldFor(std::uint64_t ns)
{
    if (ns == 0)
        return;
    auto until = std::chrono::steady_clock::now() +
                 std::chrono::nanoseconds(ns);
    while (std::chrono::steady_clock::now() < until)
        std::this_thread::yield();
}

void
sleepFor(std::uint64_t ns)
{
    if (ns == 0)
        return;
    std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
}

void
spinFor(std::uint64_t ns)
{
    if (ns == 0)
        return;
    if (ns < 50) {
        // Sub-50ns delays are below the clock-read floor of a timed
        // spin; approximate with a calibrated arithmetic loop
        // (~1ns/iteration on current hardware).
        volatile std::uint64_t sink = 0;
        for (std::uint64_t i = 0; i < ns; ++i)
            sink = sink + 1;
        return;
    }
    spinForNs(ns);
}

} // namespace

NvmDevice::NvmDevice(std::size_t size, NvmConfig cfg)
    : size_(alignUp(size, kCacheLineSize)), cfg_(cfg),
      working_(zeroedBytes(size_)), durable_(zeroedBytes(size_)),
      serial_(g_deviceSerial.fetch_add(1, std::memory_order_relaxed))
{
    if (size == 0)
        fatal("NvmDevice: zero-sized device");
}

NvmDevice::StagingShard &
NvmDevice::localShard()
{
    // Per-thread cache: device serial -> this thread's shard.
    // Serials are never reused, so stale entries for destroyed
    // devices are dead weight, never dangling lookups.
    thread_local std::unordered_map<std::uint64_t, StagingShard *> cache;
    StagingShard *&slot = cache[serial_];
    if (!slot) {
        auto shard = std::make_unique<StagingShard>();
        slot = shard.get();
        std::lock_guard<std::mutex> g(shardMu_);
        shards_.push_back(std::move(shard));
    }
    return *slot;
}

void
NvmDevice::clearAllShards()
{
    std::lock_guard<std::mutex> g(shardMu_);
    for (auto &shard : shards_)
        shard->staged.clear();
}

void
NvmDevice::flush(Addr addr, std::size_t len)
{
    if (!cfg_.persistenceEnabled)
        return;
    if (injector_)
        injector_->onEvent();
    if (len == 0)
        return;

    std::size_t off = toOffset(addr);
    if (off >= size_ || off + len > size_)
        panic("NvmDevice::flush out of range");

    std::vector<std::size_t> &staged = localShard().staged;
    std::size_t first = alignDown(off, kCacheLineSize);
    std::size_t last = alignUp(off + len, kCacheLineSize);
    stats_.flushCalls.fetch_add(1, std::memory_order_relaxed);
    for (std::size_t line = first; line < last; line += kCacheLineSize) {
        if (staged.empty() || staged.back() != line)
            staged.push_back(line);
        stats_.linesFlushed.fetch_add(1, std::memory_order_relaxed);
        spinFor(cfg_.flushLatencyNs);
    }
}

void
NvmDevice::fence()
{
    if (!cfg_.persistenceEnabled)
        return;
    if (injector_)
        injector_->onEvent();
    stats_.fences.fetch_add(1, std::memory_order_relaxed);
    std::vector<std::size_t> &staged = localShard().staged;
    if (!staged.empty()) {
        // Two threads may stage the same line (adjacent metadata
        // words); serialize per line — via its stripe lock — so the
        // durable image never sees a half-merged line, while fences
        // of disjoint lines proceed in parallel.
        for (std::size_t line : staged) {
            SpinGuard g(commitLocks_[(line / kCacheLineSize) %
                                     kCommitStripes]);
            commitLine(line);
        }
    }
    staged.clear();
    if (cfg_.fenceDrainSerialized) {
        // One drain at a time per device (per-DIMM bandwidth bound);
        // a sleeping drain frees the host CPU, so drains on sibling
        // devices overlap even on a single-core host.
        std::lock_guard<std::mutex> g(drainMu_);
        sleepFor(cfg_.fenceLatencyNs);
    } else if (cfg_.fenceWaitYields) {
        yieldFor(cfg_.fenceLatencyNs);
    } else {
        spinFor(cfg_.fenceLatencyNs);
    }
}

void
NvmDevice::commitLine(std::size_t line_off)
{
    std::memcpy(durable_.get() + line_off, working_.get() + line_off,
                kCacheLineSize);
}

void
NvmDevice::crash(CrashMode mode, std::uint64_t seed)
{
    clearAllShards();
    if (mode == CrashMode::kEvictRandomLines) {
        // Each dirty-but-unfenced line may have been evicted to the
        // DIMM before power was lost.
        Rng rng(seed);
        for (std::size_t line = 0; line < size_; line += kCacheLineSize) {
            if (std::memcmp(working_.get() + line, durable_.get() + line,
                            kCacheLineSize) != 0 &&
                rng.nextBool()) {
                commitLine(line);
            }
        }
    }
    std::memcpy(working_.get(), durable_.get(), size_);
}

void
NvmDevice::shutdownClean()
{
    clearAllShards();
    std::memcpy(durable_.get(), working_.get(), size_);
}

void
NvmDevice::saveDurable(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        fatal("NvmDevice: cannot open " + path + " for writing");
    out.write(reinterpret_cast<const char *>(durable_.get()),
              static_cast<std::streamsize>(size_));
    if (!out)
        fatal("NvmDevice: short write to " + path);
}

void
NvmDevice::loadDurable(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("NvmDevice: cannot open " + path + " for reading");
    in.read(reinterpret_cast<char *>(durable_.get()),
            static_cast<std::streamsize>(size_));
    if (in.gcount() != static_cast<std::streamsize>(size_))
        fatal("NvmDevice: short read from " + path);
    clearAllShards();
    std::memcpy(working_.get(), durable_.get(), size_);
}

} // namespace espresso
