/**
 * @file
 * Emulated byte-addressable non-volatile memory.
 *
 * Model: the CPU reads and writes a @e working image through ordinary
 * loads/stores (the device hands out a raw pointer). Durability is a
 * separate @e durable image. `flush(addr, len)` stages the covered
 * cache lines (clwb/clflush); `fence()` copies every staged line from
 * the working image into the durable image (sfence draining the write
 * pipeline to the DIMM). On a crash, the working image reverts to the
 * durable image — optionally keeping a seeded random subset of
 * unflushed dirty lines to model uncontrolled cache eviction.
 *
 * Both images are mappings of one memfd: the durable image a
 * MAP_SHARED view, the working image a MAP_PRIVATE copy-on-write
 * view. A working page nobody has written since the last power cut
 * is the durable page itself; the first store to it gives it a
 * private copy, which the kernel's page table records
 * (`/proc/self/pagemap` shows it present and not file-backed, or
 * swapped out). A power cut reads one pagemap entry per page, visits
 * only the written pages (in eviction mode it compares their lines
 * in address order), and drops them (MADV_DONTNEED) so they refault
 * from the durable image: it costs the scan plus O(pages written),
 * not a copy of the whole image, and the next store to a dropped
 * page pays one copy-on-write fault. This needs Linux
 * (`memfd_create` and a readable `/proc/self/pagemap`); a device
 * fails to construct without them.
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
#include <memory>
#include <mutex>
#include <string>
#include <utility>
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
    ~NvmDevice();

    NvmDevice(const NvmDevice &) = delete;
    NvmDevice &operator=(const NvmDevice &) = delete;

    std::size_t size() const { return size_; }
    const NvmConfig &config() const { return cfg_; }
    NvmConfig &config() { return cfg_; }

    /** Base of the working image; all managed addresses point here. */
    std::uint8_t *base() { return working_; }
    const std::uint8_t *base() const { return working_; }

    /** Address of byte offset @p off in the working image. */
    Addr
    toAddr(std::size_t off) const
    {
        return reinterpret_cast<Addr>(working_) + off;
    }

    /** Offset of working-image address @p a. */
    std::size_t
    toOffset(Addr a) const
    {
        return a - reinterpret_cast<Addr>(working_);
    }

    /** True if @p a points into this device's working image. */
    bool
    contains(Addr a) const
    {
        Addr b = reinterpret_cast<Addr>(working_);
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
     * survived, and all staged-but-unfenced state is dropped. Costs
     * O(pages written since the last cut), plus a pagemap scan. */
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

    /** Page-aligned [begin, end) offset runs of the working pages
     * written since they were last dropped, in ascending order. */
    std::vector<std::pair<std::size_t, std::size_t>> writtenRuns() const;

    /** Discard the working image's private copies of [begin, end):
     * those pages read the durable image again. */
    void dropWorking(std::size_t begin, std::size_t end);

    /** The calling thread's shard for this device (registered on
     * first use). */
    StagingShard &localShard();

    /** Drop every thread's staged lines (crash / clean shutdown /
     * image load — callers are quiesced by contract). */
    void clearAllShards();

    std::size_t size_;
    /** size_ rounded up to whole pages: the memfd and both mappings. */
    std::size_t mapSize_;
    NvmConfig cfg_;
    /** MAP_PRIVATE view of the memfd. A sparse memfd reads as zeros,
     * so a new device's pages fault in on first use, not all at
     * construction. */
    std::uint8_t *working_ = nullptr;
    /** MAP_SHARED view of the same memfd. */
    std::uint8_t *durable_ = nullptr;
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
