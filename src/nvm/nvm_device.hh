/**
 * @file
 * Emulated byte-addressable non-volatile memory.
 *
 * Model: the CPU reads and writes a @e working image through ordinary
 * loads/stores (the device hands out a raw pointer). Durability is a
 * separate @e durable image. `flush(addr, len)` stages the covered
 * cache lines (clwb/clflush); `fence()` copies every staged line from
 * the working image into the durable image (sfence draining the write
 * pipeline to the DIMM). On a crash, the working image is rebuilt
 * from the durable image — optionally keeping a seeded random subset
 * of unflushed dirty lines to model uncontrolled cache eviction.
 *
 * This reproduces the failure semantics the paper's §4 protocols are
 * designed against, on commodity DRAM (the paper itself ran on a
 * Viking NVDIMM, which is architecturally ordinary memory plus
 * flush-controlled durability). Flush/fence latency knobs let the
 * benchmarks model the persistence-instruction overhead measured in
 * §6.4.
 */

#ifndef ESPRESSO_NVM_NVM_DEVICE_HH
#define ESPRESSO_NVM_NVM_DEVICE_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "nvm/crash_injector.hh"
#include "util/common.hh"
#include "util/spin.hh"

namespace espresso {

/** Tunables for an NvmDevice. */
struct NvmConfig
{
    /** Busy-wait applied per flushed cache line (models clflush). */
    std::uint64_t flushLatencyNs = 0;

    /** Busy-wait applied per fence (models sfence + queue drain). */
    std::uint64_t fenceLatencyNs = 0;

    /**
     * When true, the fence-latency wait yields the host CPU instead
     * of busy-spinning. A real sfence stalls only the issuing core;
     * on a container with fewer host cores than modeled threads a
     * busy-wait would serialize stalls that real hardware overlaps,
     * so throughput benchmarks (ycsb_lite) enable this to let
     * sibling threads run during a fence drain.
     */
    bool fenceWaitYields = false;

    /**
     * When true, the modeled fence drain holds this device's write
     * queue: concurrent fences on one device serialize their latency
     * waits, modeling a per-DIMM write-bandwidth bound (the paper's
     * one-PJH-per-device Table 1 inventory is exactly what a fabric
     * shards against). The wait sleeps rather than spins, so drains
     * on *different* devices overlap regardless of host core count.
     * Off by default: the per-core stall model above stays the
     * behavior every existing benchmark calibrated against.
     */
    bool fenceDrainSerialized = false;

    /**
     * When false, flush/fence perform no latency and no staging and a
     * crash loses everything since the last clean shutdown. Used as
     * the "remove all clflush" baseline of §6.4.
     */
    bool persistenceEnabled = true;
};

/** How a simulated power failure treats unflushed data. */
enum class CrashMode
{
    /** Only fenced data survives (most conservative). */
    kDiscardUnflushed,

    /**
     * Fenced data survives; each other dirty line independently
     * survives with probability 1/2 (seeded), modeling lines that
     * happened to be evicted from the cache before the failure.
     */
    kEvictRandomLines,
};

/** Persistence-event statistics (atomic: flush/fence run
 * concurrently from allocating threads). */
struct NvmStats
{
    std::atomic<std::uint64_t> flushCalls{0};
    std::atomic<std::uint64_t> linesFlushed{0};
    std::atomic<std::uint64_t> fences{0};
};

/** An emulated NVM DIMM. */
class NvmDevice
{
  public:
    /**
     * @param size capacity in bytes (rounded up to a cache line).
     * @param cfg latency/behaviour knobs.
     */
    explicit NvmDevice(std::size_t size, NvmConfig cfg = {});

    NvmDevice(const NvmDevice &) = delete;
    NvmDevice &operator=(const NvmDevice &) = delete;

    std::size_t size() const { return size_; }
    const NvmConfig &config() const { return cfg_; }
    NvmConfig &config() { return cfg_; }

    /** Base of the working image; all managed addresses point here. */
    std::uint8_t *base() { return working_.get(); }
    const std::uint8_t *base() const { return working_.get(); }

    /** Address of byte offset @p off in the working image. */
    Addr
    toAddr(std::size_t off) const
    {
        return reinterpret_cast<Addr>(working_.get()) + off;
    }

    /** Offset of working-image address @p a. */
    std::size_t
    toOffset(Addr a) const
    {
        return a - reinterpret_cast<Addr>(working_.get());
    }

    /** True if @p a points into this device's working image. */
    bool
    contains(Addr a) const
    {
        Addr b = reinterpret_cast<Addr>(working_.get());
        return a >= b && a < b + size_;
    }

    /**
     * Stage the cache lines covering [addr, addr+len) for durability
     * (clwb). Durable only after the next fence(). Staging is
     * per-thread (as clwb/sfence order a single core's stores), so
     * concurrent flushes never contend.
     */
    void flush(Addr addr, std::size_t len);

    /** Commit the calling thread's staged lines to the durable image
     * (sfence). */
    void fence();

    /** flush + fence convenience for a single datum. */
    void
    persist(Addr addr, std::size_t len)
    {
        flush(addr, len);
        fence();
    }

    /** Simulate a power failure; the working image becomes whatever
     * survived, and all staged-but-unfenced state is dropped. */
    void crash(CrashMode mode = CrashMode::kDiscardUnflushed,
               std::uint64_t seed = 1);

    /** Clean shutdown: everything becomes durable (msync + unmount). */
    void shutdownClean();

    /** Write the durable image to @p path. */
    void saveDurable(const std::string &path) const;

    /** Replace both images with the file contents (clean boot). */
    void loadDurable(const std::string &path);

    const NvmStats &stats() const { return stats_; }

    void
    resetStats()
    {
        stats_.flushCalls = 0;
        stats_.linesFlushed = 0;
        stats_.fences = 0;
    }

    /** Fault injection hook; null disables injection. */
    void setInjector(CrashInjector *injector) { injector_ = injector; }
    CrashInjector *injector() { return injector_; }

  private:
    /** One thread's staged line offsets; duplicates are harmless
     * (the commit is an idempotent copy), so a vector beats a hash
     * set here. */
    struct StagingShard
    {
        std::vector<std::size_t> staged;
    };

    void commitLine(std::size_t line_off);

    /** The calling thread's shard for this device (registered on
     * first use). */
    StagingShard &localShard();

    /** Drop every thread's staged lines (crash / clean shutdown /
     * image load — callers are quiesced by contract). */
    void clearAllShards();

    struct FreeBytes
    {
        void operator()(std::uint8_t *p) const { std::free(p); }
    };
    using Image = std::unique_ptr<std::uint8_t[], FreeBytes>;

    std::size_t size_;
    NvmConfig cfg_;
    /** Zeroed by calloc, which leaves memory the kernel hands out
     * already zeroed untouched: a new device's pages fault in on
     * first use, not all at construction. */
    Image working_;
    Image durable_;
    /** Device identity for the thread-local shard cache; never
     * reused across devices. */
    std::uint64_t serial_;
    /** All shards ever handed out, one per touching thread. */
    std::vector<std::unique_ptr<StagingShard>> shards_;
    std::mutex shardMu_;
    /**
     * Striped per-line commit locks: two threads may legally fence
     * the same metadata cache line, so each line's durable copy must
     * be exclusive — but lines hash to independent stripes, so
     * concurrent fences of disjoint data (parallel GC slice workers,
     * allocator TLAB traffic) commit without contending on one
     * global mutex.
     */
    static constexpr std::size_t kCommitStripes = 64;
    std::array<SpinLock, kCommitStripes> commitLocks_;
    /** Write-queue token for fenceDrainSerialized. */
    std::mutex drainMu_;
    NvmStats stats_;
    CrashInjector *injector_ = nullptr;
};

} // namespace espresso

#endif // ESPRESSO_NVM_NVM_DEVICE_HH
