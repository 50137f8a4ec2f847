/**
 * @file
 * Unit tests for the NVM emulation: flush/fence durability, crash
 * modes, fault injection, and file round-trips, plus a differential
 * oracle that replays seeded traffic against a whole-image reference
 * model of a power cut.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "nvm/nvm_device.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace espresso {
namespace {

TEST(NvmDeviceTest, UnflushedWritesDieInACrash)
{
    NvmDevice dev(4096);
    dev.base()[0] = 0xAB;
    dev.crash();
    EXPECT_EQ(dev.base()[0], 0);
}

TEST(NvmDeviceTest, FlushWithoutFenceIsNotDurable)
{
    NvmDevice dev(4096);
    dev.base()[0] = 0xAB;
    dev.flush(dev.toAddr(0), 1);
    dev.crash();
    EXPECT_EQ(dev.base()[0], 0);
}

TEST(NvmDeviceTest, FlushPlusFenceIsDurable)
{
    NvmDevice dev(4096);
    dev.base()[0] = 0xAB;
    dev.base()[100] = 0xCD;
    dev.flush(dev.toAddr(0), 1);
    dev.flush(dev.toAddr(100), 1);
    dev.fence();
    dev.base()[200] = 0xEF; // after the fence: lost
    dev.crash();
    EXPECT_EQ(dev.base()[0], 0xAB);
    EXPECT_EQ(dev.base()[100], 0xCD);
    EXPECT_EQ(dev.base()[200], 0);
}

TEST(NvmDeviceTest, FlushCoversWholeCacheLines)
{
    NvmDevice dev(4096);
    dev.base()[10] = 1;
    dev.base()[63] = 2; // same line as 10
    dev.base()[64] = 3; // next line
    dev.persist(dev.toAddr(10), 1);
    dev.crash();
    EXPECT_EQ(dev.base()[10], 1);
    EXPECT_EQ(dev.base()[63], 2); // dragged in by line granularity
    EXPECT_EQ(dev.base()[64], 0);
}

TEST(NvmDeviceTest, EvictionModeKeepsFencedDataAlways)
{
    for (std::uint64_t seed = 1; seed <= 32; ++seed) {
        NvmDevice dev(4096);
        dev.base()[0] = 0x11;
        dev.persist(dev.toAddr(0), 1);
        dev.base()[128] = 0x22; // unflushed: may or may not survive
        dev.crash(CrashMode::kEvictRandomLines, seed);
        EXPECT_EQ(dev.base()[0], 0x11) << "seed " << seed;
        EXPECT_TRUE(dev.base()[128] == 0 || dev.base()[128] == 0x22);
    }
}

TEST(NvmDeviceTest, EvictionModeEventuallyEvicts)
{
    // Over many seeds, at least one unflushed line must survive and
    // at least one must die — otherwise the mode is degenerate.
    int survived = 0, died = 0;
    for (std::uint64_t seed = 1; seed <= 64; ++seed) {
        NvmDevice dev(4096);
        dev.base()[128] = 0x22;
        dev.crash(CrashMode::kEvictRandomLines, seed);
        (dev.base()[128] == 0x22 ? survived : died) += 1;
    }
    EXPECT_GT(survived, 0);
    EXPECT_GT(died, 0);
}

TEST(NvmDeviceTest, ShutdownCleanPersistsEverything)
{
    NvmDevice dev(4096);
    dev.base()[77] = 0x42;
    dev.shutdownClean();
    dev.crash();
    EXPECT_EQ(dev.base()[77], 0x42);
}

TEST(NvmDeviceTest, StatsCountFlushesAndFences)
{
    NvmDevice dev(4096);
    dev.flush(dev.toAddr(0), 200); // 4 lines (0..255 rounded)
    dev.fence();
    EXPECT_EQ(dev.stats().flushCalls, 1u);
    EXPECT_EQ(dev.stats().linesFlushed, 4u);
    EXPECT_EQ(dev.stats().fences, 1u);
}

TEST(NvmDeviceTest, PersistenceDisabledIsFreeAndVolatile)
{
    NvmConfig cfg;
    cfg.persistenceEnabled = false;
    NvmDevice dev(4096, cfg);
    dev.base()[0] = 9;
    dev.persist(dev.toAddr(0), 1);
    EXPECT_EQ(dev.stats().linesFlushed, 0u);
    dev.crash();
    EXPECT_EQ(dev.base()[0], 0);
}

TEST(NvmDeviceTest, FileRoundTrip)
{
    std::string path = testing::TempDir() + "/nvm_image.bin";
    {
        NvmDevice dev(4096);
        std::memcpy(dev.base(), "espresso", 8);
        dev.persist(dev.toAddr(0), 8);
        dev.saveDurable(path);
    }
    NvmDevice dev2(4096);
    dev2.loadDurable(path);
    EXPECT_EQ(std::memcmp(dev2.base(), "espresso", 8), 0);
}

TEST(CrashInjectorTest, FiresAtTheArmedEvent)
{
    NvmDevice dev(4096);
    CrashInjector inj;
    dev.setInjector(&inj);
    inj.arm(3);
    dev.flush(dev.toAddr(0), 1); // event 1
    dev.fence();                 // event 2
    EXPECT_THROW(dev.flush(dev.toAddr(0), 1), SimulatedCrash); // 3
    inj.disarm();
    dev.flush(dev.toAddr(0), 1); // counted, no fire
    EXPECT_EQ(inj.eventCount(), 4u);
}

TEST(NvmDeviceTest, OutOfRangeFlushPanics)
{
    NvmDevice dev(4096);
    EXPECT_THROW(dev.flush(dev.toAddr(4095), 16), PanicError);
}

/**
 * The device as two byte vectors: a fence copies staged lines, and a
 * power cut scans the whole image, drawing one eviction coin per
 * differing line in address order, then copies durable over working.
 * The device must leave its working image byte-identical to this.
 */
struct ReferenceNvm
{
    explicit ReferenceNvm(std::size_t size) : working(size), durable(size) {}

    void
    flush(std::size_t off, std::size_t len)
    {
        for (std::size_t line = alignDown(off, kCacheLineSize);
             line < off + len; line += kCacheLineSize)
            staged.push_back(line);
    }

    void
    fence()
    {
        for (std::size_t line : staged)
            commitLine(line);
        staged.clear();
    }

    void
    crash(CrashMode mode, std::uint64_t seed)
    {
        staged.clear();
        if (mode == CrashMode::kEvictRandomLines) {
            Rng rng(seed);
            for (std::size_t line = 0; line < working.size();
                 line += kCacheLineSize) {
                if (std::memcmp(&working[line], &durable[line],
                                kCacheLineSize) != 0 &&
                    rng.nextBool())
                    commitLine(line);
            }
        }
        working = durable;
    }

    void
    shutdownClean()
    {
        staged.clear();
        durable = working;
    }

    void
    commitLine(std::size_t line)
    {
        std::memcpy(&durable[line], &working[line], kCacheLineSize);
    }

    std::vector<std::uint8_t> working;
    std::vector<std::uint8_t> durable;
    std::vector<std::size_t> staged;
};

bool
sameWorkingImage(const NvmDevice &dev, const ReferenceNvm &ref)
{
    return std::memcmp(dev.base(), ref.working.data(), dev.size()) == 0;
}

constexpr CrashMode kBothModes[] = {CrashMode::kDiscardUnflushed,
                                    CrashMode::kEvictRandomLines};

/** Seeded stores, reads, flushes, fences, clean shutdowns and power
 * cuts in both modes, against the reference, on sizes that are not
 * page multiples (one is smaller than a page). Stores mostly hit a
 * few hot pages, so most pages stay unwritten between cuts. */
TEST(NvmOracleTest, PowerCutsMatchTheWholeImageReference)
{
    const std::size_t sizes[] = {1000, 3 * 4096 + 1000, 17 * 4096 + 320};
    unsigned crashes = 0, divergences = 0;
    for (std::uint64_t trial = 0; trial < 250; ++trial) {
        Rng rng(trial + 1);
        NvmDevice dev(sizes[trial % 3]);
        ReferenceNvm ref(dev.size());
        const std::size_t pages = (dev.size() + 4095) / 4096;
        std::size_t hot[3];
        for (std::size_t &h : hot)
            h = rng.nextBelow(pages);
        auto pickOffset = [&]() -> std::size_t {
            if (rng.nextBelow(4) == 0)
                return rng.nextBelow(dev.size());
            std::size_t page = hot[rng.nextBelow(3)] * 4096;
            std::size_t room = std::min<std::size_t>(4096, dev.size() - page);
            return page + rng.nextBelow(room);
        };
        for (unsigned step = 0; step < 400; ++step) {
            std::size_t off = pickOffset();
            std::size_t len = std::min<std::size_t>(1 + rng.nextBelow(200),
                                                    dev.size() - off);
            std::uint64_t op = rng.nextBelow(16);
            if (op < 7) {
                auto v = static_cast<std::uint8_t>(rng.next());
                std::memset(dev.base() + off, v, len);
                std::memset(&ref.working[off], v, len);
            } else if (op == 7) {
                // A read faults the page in without writing it.
                ASSERT_EQ(dev.base()[off], ref.working[off]);
            } else if (op < 11) {
                dev.flush(dev.toAddr(off), len);
                ref.flush(off, len);
            } else if (op < 13) {
                dev.fence();
                ref.fence();
            } else if (op == 13) {
                if (rng.nextBelow(8) == 0) {
                    dev.shutdownClean();
                    ref.shutdownClean();
                }
            } else {
                CrashMode mode = kBothModes[rng.nextBool() ? 1 : 0];
                std::uint64_t seed = rng.next();
                dev.crash(mode, seed);
                ref.crash(mode, seed);
                ++crashes;
                if (!sameWorkingImage(dev, ref))
                    ++divergences;
                ASSERT_EQ(divergences, 0u)
                    << "trial " << trial << " step " << step;
            }
        }
    }
    std::printf("[ nvm oracle ] %u power cuts, %u divergences\n", crashes,
                divergences);
    EXPECT_GE(crashes, 10000u);
}

TEST(NvmOracleTest, ShutdownCleanThenCrash)
{
    for (CrashMode mode : kBothModes) {
        NvmDevice dev(5 * 4096 + 192);
        ReferenceNvm ref(dev.size());
        const std::size_t kept[] = {0, 4096 + 7, dev.size() - 1};
        for (std::size_t off : kept) {
            dev.base()[off] = 0x5A;
            ref.working[off] = 0x5A;
        }
        dev.shutdownClean();
        ref.shutdownClean();
        dev.base()[2 * 4096] = 0x77; // after the shutdown: may be lost
        ref.working[2 * 4096] = 0x77;
        dev.crash(mode, 7);
        ref.crash(mode, 7);
        EXPECT_TRUE(sameWorkingImage(dev, ref));
        for (std::size_t off : kept)
            EXPECT_EQ(dev.base()[off], 0x5A);
    }
}

TEST(NvmOracleTest, SaveLoadRoundTripAfterCopyOnWriteStores)
{
    std::string path = testing::TempDir() + "/nvm_cow_image.bin";
    NvmDevice dev(3 * 4096 + 640);
    std::memset(dev.base() + 100, 0x11, 300); // fenced
    dev.persist(dev.toAddr(100), 300);
    std::memset(dev.base() + 4096, 0x22, 64); // never flushed
    dev.base()[2 * 4096 + 5] = 0x33;
    dev.saveDurable(path);

    std::vector<std::uint8_t> expect(dev.size(), 0);
    std::memset(&expect[100], 0x11, 300);
    NvmDevice fresh(dev.size());
    fresh.loadDurable(path);
    EXPECT_EQ(std::memcmp(fresh.base(), expect.data(), dev.size()), 0);

    // Loading over written pages drops their private copies too.
    dev.loadDurable(path);
    EXPECT_EQ(std::memcmp(dev.base(), expect.data(), dev.size()), 0);
    dev.base()[4096] = 0x44;
    dev.crash(CrashMode::kDiscardUnflushed);
    EXPECT_EQ(std::memcmp(dev.base(), expect.data(), dev.size()), 0);
}

TEST(NvmOracleTest, FenceOfANeverWrittenLine)
{
    // A line on a page nobody wrote since the last cut reads the
    // durable page itself, so its fence copies a page onto itself.
    for (CrashMode mode : kBothModes) {
        NvmDevice dev(2 * 4096 + 64);
        ReferenceNvm ref(dev.size());
        std::memset(dev.base() + 128, 0x66, 64);
        std::memset(&ref.working[128], 0x66, 64);
        dev.persist(dev.toAddr(128), 64);
        ref.flush(128, 64);
        ref.fence();
        dev.crash(mode, 3);
        ref.crash(mode, 3);
        ASSERT_TRUE(sameWorkingImage(dev, ref));

        const std::size_t unwritten[] = {128, 4096, dev.size() - 64};
        for (std::size_t off : unwritten) {
            dev.persist(dev.toAddr(off), 64);
            ref.flush(off, 64);
            ref.fence();
        }
        dev.base()[192] = 0x01; // a store after the fences
        ref.working[192] = 0x01;
        dev.crash(mode, 5);
        ref.crash(mode, 5);
        EXPECT_TRUE(sameWorkingImage(dev, ref));
        EXPECT_EQ(dev.base()[128], 0x66);
    }
}

TEST(NvmOracleTest, ConcurrentFencesOfDisjointAndSharedLines)
{
    constexpr unsigned kThreads = 4;
    constexpr std::size_t kOwnLines = 48;
    constexpr std::size_t kSharedLines = 8;
    constexpr std::size_t kShared = kThreads * kOwnLines * kCacheLineSize;
    auto ownLine = [](unsigned t, std::size_t i) {
        return (i * kThreads + t) * kCacheLineSize; // interleaved
    };
    auto sharedLine = [](std::size_t i) {
        return kShared + (i % kSharedLines) * kCacheLineSize;
    };
    auto inPhase = [](auto body) {
        std::vector<std::thread> threads;
        for (unsigned t = 0; t < kThreads; ++t)
            threads.emplace_back(body, t);
        for (std::thread &th : threads)
            th.join();
    };
    for (CrashMode mode : kBothModes) {
        NvmDevice dev(kShared + kSharedLines * kCacheLineSize + 200);
        // Each thread writes its own lines and its own byte of every
        // shared line; then all fence at once, the shared lines from
        // every thread; then each writes again without fencing.
        inPhase([&](unsigned t) {
            for (std::size_t i = 0; i < kOwnLines; ++i)
                std::memset(dev.base() + ownLine(t, i), 0x10 + t,
                            kCacheLineSize / 2);
            for (std::size_t i = 0; i < kSharedLines; ++i)
                dev.base()[sharedLine(i) + t] = 0x80 + t;
        });
        ReferenceNvm ref(dev.size());
        std::memcpy(ref.durable.data(), dev.base(), dev.size());
        inPhase([&](unsigned t) {
            for (std::size_t i = 0; i < kOwnLines; ++i) {
                dev.flush(dev.toAddr(ownLine(t, i)), kCacheLineSize);
                dev.flush(dev.toAddr(sharedLine(i)), 1);
                dev.fence();
            }
        });
        inPhase([&](unsigned t) {
            for (std::size_t i = 0; i < kOwnLines; i += 3)
                dev.base()[ownLine(t, i) + 40] = 0xF0 + t;
        });
        std::memcpy(ref.working.data(), dev.base(), dev.size());
        dev.crash(mode, 11);
        ref.crash(mode, 11);
        EXPECT_TRUE(sameWorkingImage(dev, ref));
        for (unsigned t = 0; t < kThreads; ++t) {
            EXPECT_EQ(dev.base()[ownLine(t, 1)], 0x10 + t);
            EXPECT_EQ(dev.base()[sharedLine(0) + t], 0x80 + t);
        }
    }
}

} // namespace
} // namespace espresso
