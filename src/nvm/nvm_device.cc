#include "nvm/nvm_device.hh"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
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

std::size_t
pageSize()
{
    static const std::size_t size = ::sysconf(_SC_PAGESIZE);
    return size;
}

/**
 * This process's page table, one 64-bit entry per virtual page.
 * Opened per use: the path names the opening process, so a
 * descriptor kept across a fork would read the parent's pages.
 */
class Pagemap
{
  public:
    Pagemap() : fd_(::open("/proc/self/pagemap", O_RDONLY | O_CLOEXEC))
    {
        if (fd_ < 0)
            fatal(std::string("NvmDevice: cannot open /proc/self/pagemap: ") +
                  std::strerror(errno));
    }
    ~Pagemap() { ::close(fd_); }
    Pagemap(const Pagemap &) = delete;
    Pagemap &operator=(const Pagemap &) = delete;

    /** Read the entries of up to @p n pages from virtual page
     * @p first on into @p out; returns how many were read. */
    std::size_t
    read(std::uint64_t *out, std::size_t first, std::size_t n) const
    {
        ssize_t got = ::pread(fd_, out, n * sizeof(*out),
                              static_cast<off_t>(first * sizeof(*out)));
        if (got <= 0)
            fatal(std::string("NvmDevice: reading /proc/self/pagemap: ") +
                  (got < 0 ? std::strerror(errno) : "end of file"));
        return static_cast<std::size_t>(got) / sizeof(*out);
    }

  private:
    int fd_;
};

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
    : size_(alignUp(size, kCacheLineSize)),
      mapSize_(alignUp(size_, pageSize())), cfg_(cfg),
      serial_(g_deviceSerial.fetch_add(1, std::memory_order_relaxed))
{
    if (size == 0)
        fatal("NvmDevice: zero-sized device");
    Pagemap(); // opened and closed: fail here, not at the first cut
    int fd = ::memfd_create("espresso-nvm", MFD_CLOEXEC);
    if (fd < 0)
        fatal(std::string("NvmDevice: memfd_create: ") + std::strerror(errno));
    if (::ftruncate(fd, static_cast<off_t>(mapSize_)) != 0) {
        ::close(fd);
        throw std::bad_alloc();
    }
    void *durable = ::mmap(nullptr, mapSize_, PROT_READ | PROT_WRITE,
                           MAP_SHARED, fd, 0);
    void *working = ::mmap(nullptr, mapSize_, PROT_READ | PROT_WRITE,
                           MAP_PRIVATE, fd, 0);
    ::close(fd); // the mappings hold the file
    if (durable == MAP_FAILED || working == MAP_FAILED) {
        if (durable != MAP_FAILED)
            ::munmap(durable, mapSize_);
        if (working != MAP_FAILED)
            ::munmap(working, mapSize_);
        throw std::bad_alloc();
    }
    durable_ = static_cast<std::uint8_t *>(durable);
    working_ = static_cast<std::uint8_t *>(working);
}

NvmDevice::~NvmDevice()
{
    ::munmap(working_, mapSize_);
    ::munmap(durable_, mapSize_);
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
    std::memcpy(durable_ + line_off, working_ + line_off, kCacheLineSize);
}

std::vector<std::pair<std::size_t, std::size_t>>
NvmDevice::writtenRuns() const
{
    // A written page holds a private copy: present and not backed by
    // the file, or swapped out (only a private copy can be).
    constexpr std::uint64_t kPresent = 1ull << 63;
    constexpr std::uint64_t kSwapped = 1ull << 62;
    constexpr std::uint64_t kFilePage = 1ull << 61;
    const std::size_t page = pageSize();
    const std::size_t pages = mapSize_ / page;
    const std::size_t firstPage =
        reinterpret_cast<std::uintptr_t>(working_) / page;

    std::vector<std::pair<std::size_t, std::size_t>> runs;
    std::array<std::uint64_t, 1024> entries{};
    Pagemap pagemap;
    for (std::size_t p = 0; p < pages;) {
        std::size_t got = pagemap.read(entries.data(), firstPage + p,
                                       std::min(entries.size(), pages - p));
        for (std::size_t i = 0; i < got; ++i, ++p) {
            std::uint64_t e = entries[i];
            bool written =
                (e & kSwapped) || ((e & kPresent) && !(e & kFilePage));
            if (!written)
                continue;
            std::size_t off = p * page;
            if (!runs.empty() && runs.back().second == off)
                runs.back().second = off + page;
            else
                runs.emplace_back(off, off + page);
        }
    }
    return runs;
}

void
NvmDevice::dropWorking(std::size_t begin, std::size_t end)
{
    if (::madvise(working_ + begin, end - begin, MADV_DONTNEED) != 0)
        panic(std::string("NvmDevice: madvise: ") + std::strerror(errno));
}

void
NvmDevice::crash(CrashMode mode, std::uint64_t seed)
{
    clearAllShards();
    // Only a written page can differ from the durable image, and the
    // pages come in address order, so each differing line draws its
    // coin in the order a scan of the whole image would: a seed
    // always yields the same survivors.
    Rng rng(seed);
    for (auto [begin, end] : writtenRuns()) {
        if (mode == CrashMode::kEvictRandomLines) {
            // Each dirty-but-unfenced line may have been evicted to
            // the DIMM before power was lost.
            for (std::size_t line = begin; line < std::min(end, size_);
                 line += kCacheLineSize) {
                if (std::memcmp(working_ + line, durable_ + line,
                                kCacheLineSize) != 0 &&
                    rng.nextBool()) {
                    commitLine(line);
                }
            }
        }
        dropWorking(begin, end);
    }
}

void
NvmDevice::shutdownClean()
{
    clearAllShards();
    for (auto [begin, end] : writtenRuns()) {
        std::memcpy(durable_ + begin, working_ + begin, end - begin);
        dropWorking(begin, end);
    }
}

void
NvmDevice::saveDurable(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        fatal("NvmDevice: cannot open " + path + " for writing");
    out.write(reinterpret_cast<const char *>(durable_),
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
    in.read(reinterpret_cast<char *>(durable_),
            static_cast<std::streamsize>(size_));
    if (in.gcount() != static_cast<std::streamsize>(size_))
        fatal("NvmDevice: short read from " + path);
    clearAllShards();
    dropWorking(0, mapSize_);
}

} // namespace espresso
