/**
 * @file
 * Crash-matrix driver: a table of step sequences built from the four
 * durability primitives — pnew (allocate + flushObject), flushField,
 * setRoot, and WAL commit — each swept against a power failure at
 * every persistence event, under both crash modes (conservative
 * discard-unflushed and random cache eviction).
 *
 * Where pjh_crash_test / db_crash_test each sweep one fixed workload,
 * this driver enumerates *orderings* of the primitives, so the
 * pairwise interactions (publish-before-flush, re-flush after
 * publish, interleaved allocation and publication, WAL commit
 * brackets of varying width) are all covered by one regression gate.
 *
 * Recovery invariants asserted after every injected crash (§3/§4):
 *  - the heap parses end to end (torn allocation tails repaired);
 *  - every published root is a well-formed object whose flushed
 *    field holds a value that was durably written at some point —
 *    never a torn or invented value;
 *  - committed WAL transactions are atomic: all statements or none;
 *  - the recovered instance stays fully usable (new allocations,
 *    publications and transactions succeed).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/espresso.hh"
#include "db/database.hh"
#include "nvm/crash_injector.hh"
#include "util/rng.hh"

namespace espresso {
namespace {

// ---------------------------------------------------------------------
// PJH-side matrix: sequences over pnew / flushField / setRoot
// ---------------------------------------------------------------------

/** One primitive step of a PJH sequence. */
enum class Step : std::uint8_t {
    kPnew,       ///< allocate a Node, init value, flushObject
    kFlushField, ///< overwrite value on the latest node, flushField
    kSetRoot,    ///< durably publish the latest node as a fresh root
};

using Sequence = std::vector<Step>;

/** The step orderings swept by the matrix. */
const std::vector<std::pair<const char *, Sequence>> &
sequences()
{
    using S = Step;
    static const std::vector<std::pair<const char *, Sequence>> kSeqs = {
        {"alloc-publish", {S::kPnew, S::kSetRoot, S::kPnew, S::kSetRoot}},
        {"alloc-burst-then-publish",
         {S::kPnew, S::kPnew, S::kPnew, S::kSetRoot}},
        {"flush-after-publish",
         {S::kPnew, S::kSetRoot, S::kFlushField, S::kFlushField}},
        {"flush-before-publish",
         {S::kPnew, S::kFlushField, S::kSetRoot, S::kFlushField,
          S::kSetRoot}},
        {"republish-mutated",
         {S::kPnew, S::kSetRoot, S::kFlushField, S::kSetRoot, S::kPnew,
          S::kFlushField, S::kSetRoot}},
    };
    return kSeqs;
}

KlassDef
nodeDef()
{
    return KlassDef{"Node",
                    "",
                    {{"value", FieldType::kI64}, {"next", FieldType::kRef}},
                    false};
}

constexpr const char *kHeapName = "matrix";

/** Roots r0.. checked after recovery; a sequence publishes one per
 * kSetRoot step. */
constexpr int kMaxRoots = 16;

/** Environment for one sweep iteration plus the expected-state model. */
struct MatrixRig
{
    /** @p lean shrinks the DRAM heap and the PJH's fixed areas, for a
     * sweep that builds a rig per (event, seed) pair. */
    explicit MatrixRig(bool lean = false)
    {
        EspressoConfig cfg;
        PjhConfig heap_cfg;
        heap_cfg.dataSize = 2u << 20;
        if (lean) {
            cfg.volatileHeap.edenSize = 256u << 10;
            cfg.volatileHeap.survivorSize = 64u << 10;
            cfg.volatileHeap.oldSize = 1u << 20;
            heap_cfg.dataSize = 256u << 10;
            heap_cfg.nameTableCapacity = 64;
            heap_cfg.klassSegSize = 64u << 10;
            heap_cfg.bounceSize = 64u << 10;
            heap_cfg.undoLogSize = 64u << 10;
        }
        rt = std::make_unique<EspressoRuntime>(cfg);
        rt->define(nodeDef());
        valueOff = rt->fieldOffset("Node", "value");
        heap = rt->heaps().createHeap(kHeapName, heap_cfg);
        rt->heaps().deviceOf(kHeapName)->setInjector(&injector);
    }

    /**
     * Run @p seq to completion or SimulatedCrash. Tracks every value
     * durably written into a value field; a recovered root must read
     * back one of those.
     */
    void
    run(const Sequence &seq)
    {
        Oop node;
        std::int64_t next_value = 1;
        int root_idx = 0;
        for (Step s : seq) {
            switch (s) {
            case Step::kPnew:
                node = rt->pnewInstance(heap, "Node");
                node.setI64(valueOff, next_value);
                writtenValues.insert(next_value);
                ++next_value;
                heap->flushObject(node);
                break;
            case Step::kFlushField:
                ASSERT_FALSE(node.isNull());
                node.setI64(valueOff, next_value);
                writtenValues.insert(next_value);
                ++next_value;
                heap->flushField(node, valueOff);
                break;
            case Step::kSetRoot:
                ASSERT_FALSE(node.isNull());
                heap->setRoot("r" + std::to_string(root_idx++), node);
                break;
            }
        }
    }

    std::unique_ptr<EspressoRuntime> rt;
    PjhHeap *heap = nullptr;
    CrashInjector injector;
    std::uint32_t valueOff = 0;
    std::set<std::int64_t> writtenValues;
};

void
verifyRecovered(MatrixRig &rig, PjhHeap *h, const char *seq_name,
                std::uint64_t event)
{
    // Invariant 1: the heap parses end to end.
    std::size_t objects = 0;
    ASSERT_NO_THROW(h->forEachObject([&](Oop) { ++objects; }))
        << seq_name << " event " << event;

    // Invariant 2: every surviving root is a well-formed Node whose
    // value field reads back a value that was actually written —
    // recovery may lose an unfenced update but never invents one.
    for (int r = 0; r < kMaxRoots; ++r) {
        Oop root = h->getRoot("r" + std::to_string(r));
        if (root.isNull())
            continue;
        ASSERT_EQ(root.klass()->name(), "Node")
            << seq_name << " event " << event << " root " << r;
        std::int64_t v = root.getI64(rig.valueOff);
        EXPECT_TRUE(rig.writtenValues.count(v))
            << seq_name << " event " << event << " root " << r
            << " holds invented value " << v;
    }

    // Invariant 3: the recovered heap accepts new work.
    Oop extra = rig.rt->pnewInstance(h, "Node");
    extra.setI64(rig.valueOff, 424242);
    h->flushObject(extra);
    h->setRoot("extra", extra);
    EXPECT_EQ(h->getRoot("extra").getI64(rig.valueOff), 424242)
        << seq_name << " event " << event;
}

/**
 * Sweep one sequence: crash at every persistence event, recover,
 * verify (on lean rigs when @p lean). Adds the allocation tails
 * recovery plugged to @p tail_repairs when given.
 */
void
sweepSequence(const char *name, const Sequence &seq, CrashMode mode,
              std::uint64_t seed, bool lean = false,
              std::uint64_t *tail_repairs = nullptr)
{
    for (std::uint64_t event = 1;; ++event) {
        MatrixRig rig(lean);
        rig.injector.arm(event);
        bool crashed = false;
        try {
            rig.run(seq);
        } catch (const SimulatedCrash &) {
            crashed = true;
        }
        rig.injector.disarm();
        if (testing::Test::HasFatalFailure())
            return;
        if (!crashed) {
            // Past the end of the event stream: verify the clean
            // detach/reload path too, then stop.
            rig.rt->heaps().detachHeap(kHeapName);
            PjhHeap *h = rig.rt->heaps().loadHeap(kHeapName);
            verifyRecovered(rig, h, name, 0);
            ASSERT_GT(event, 1u) << name << ": workload produced no events";
            break;
        }
        rig.rt->heaps().crashHeap(kHeapName, mode, seed + event);
        PjhHeap *h = rig.rt->heaps().loadHeap(kHeapName);
        if (tail_repairs)
            *tail_repairs += h->stats().tailRepairs;
        verifyRecovered(rig, h, name, event);
    }
}

TEST(CrashMatrixTest, PjhSequencesConservative)
{
    for (const auto &[name, seq] : sequences())
        sweepSequence(name, seq, CrashMode::kDiscardUnflushed, 1,
                      /*lean=*/true);
}

TEST(CrashMatrixTest, PjhSequencesWithCacheEviction)
{
    for (const auto &[name, seq] : sequences())
        for (std::uint64_t seed : {101u, 202u})
            sweepSequence(name, seq, CrashMode::kEvictRandomLines, seed,
                          /*lean=*/true);
}

TEST(CrashMatrixTest, PnewTornTailSweepWithCacheEviction)
{
    // A pnew into an open chunk stages the chunk's new trailing filler
    // and makes it durable under the header's fence, so a crash in
    // that window can leave the header durable and the filler lost
    // (or the reverse, or a torn header). Back-to-back pnews under
    // many eviction seeds reach each combination; repair must plug the
    // torn tail inside its registered chunk, and the recovered heap
    // must hold the matrix's invariants.
    Sequence seq;
    for (int i = 0; i < 12; ++i) {
        seq.push_back(Step::kPnew);
        seq.push_back(Step::kSetRoot);
    }
    std::uint64_t tail_repairs = 0;
    for (std::uint64_t seed = 1000; seed <= 16000; seed += 1000) {
        sweepSequence("pnew-publish-x12", seq, CrashMode::kEvictRandomLines,
                      seed, /*lean=*/true, &tail_repairs);
        if (testing::Test::HasFatalFailure())
            return;
    }
    EXPECT_GT(tail_repairs, 0u)
        << "no crash left a torn allocation tail for repair to plug";
}

// ---------------------------------------------------------------------
// Multi-threaded PJH matrix: N allocator/root-mutator threads,
// crashed at randomized persistence events
// ---------------------------------------------------------------------

/**
 * Each worker allocates Nodes, stamps them with thread-unique
 * values, durably flushes them, and periodically publishes the
 * freshest one under a thread-private root name. A crash fires at a
 * randomized persistence event; the injector then kills every other
 * thread at its own next persistence point (power loss is global).
 *
 * Invariants after recovery (§4.1 extended with TLAB slots):
 *  - the heap parses end to end (at most one torn tail per
 *    registered chunk, all plugged);
 *  - every surviving root is a well-formed Node holding a value some
 *    thread actually wrote — never torn or invented;
 *  - the recovered heap accepts new allocations and publications
 *    from multiple threads at once.
 */
struct MtRig
{
    MtRig(int thread_count, int ops_per_thread)
        : threads(thread_count), opsPerThread(ops_per_thread)
    {
        rt = std::make_unique<EspressoRuntime>();
        rt->define(nodeDef());
        valueOff = rt->fieldOffset("Node", "value");
        heap = rt->heaps().createHeap(kHeapName, 8u << 20);
        rt->heaps().deviceOf(kHeapName)->setInjector(&injector);
    }

    /** Runs the workload; returns true when a crash fired. */
    bool
    run()
    {
        std::atomic<bool> crashed{false};
        std::vector<std::thread> workers;
        for (int w = 0; w < threads; ++w) {
            workers.emplace_back([this, w, &crashed]() {
                std::set<std::int64_t> written;
                try {
                    for (int i = 0; i < opsPerThread &&
                                    !crashed.load(
                                        std::memory_order_relaxed);
                         ++i) {
                        std::int64_t v = w * 1000000 + i;
                        Oop node = rt->pnewInstance(heap, "Node");
                        node.setI64(valueOff, v);
                        written.insert(v);
                        heap->flushObject(node);
                        if (i % 3 == 0) {
                            heap->setRoot("t" + std::to_string(w),
                                          node);
                        } else if (i % 3 == 1) {
                            // In-place mutation of the latest node.
                            std::int64_t v2 = v + 500000;
                            node.setI64(valueOff, v2);
                            written.insert(v2);
                            heap->flushField(node, valueOff);
                        }
                    }
                } catch (const SimulatedCrash &) {
                    crashed.store(true, std::memory_order_relaxed);
                }
                std::lock_guard<std::mutex> g(writtenMu);
                writtenValues.insert(written.begin(), written.end());
            });
        }
        for (auto &t : workers)
            t.join();
        return crashed.load();
    }

    const int threads;
    const int opsPerThread;
    std::unique_ptr<EspressoRuntime> rt;
    PjhHeap *heap = nullptr;
    CrashInjector injector;
    std::uint32_t valueOff = 0;
    std::mutex writtenMu;
    std::set<std::int64_t> writtenValues;
};

void
verifyMtRecovered(MtRig &rig, PjhHeap *h, std::uint64_t event)
{
    // Invariant 1: the heap parses end to end.
    std::size_t objects = 0;
    ASSERT_NO_THROW(h->forEachObject([&](Oop) { ++objects; }))
        << "mt event " << event;

    // Invariant 2: surviving roots are well-formed and hold only
    // values some thread durably wrote.
    for (int w = 0; w < rig.threads; ++w) {
        Oop root = h->getRoot("t" + std::to_string(w));
        if (root.isNull())
            continue;
        ASSERT_EQ(root.klass()->name(), "Node")
            << "mt event " << event << " thread " << w;
        std::int64_t v = root.getI64(rig.valueOff);
        EXPECT_TRUE(rig.writtenValues.count(v))
            << "mt event " << event << " root t" << w
            << " holds invented value " << v;
    }

    // Invariant 3: the recovered heap takes concurrent new work.
    std::vector<std::thread> workers;
    for (int w = 0; w < rig.threads; ++w) {
        workers.emplace_back([&rig, h, w]() {
            for (int i = 0; i < 8; ++i) {
                Oop extra = rig.rt->pnewInstance(h, "Node");
                extra.setI64(rig.valueOff, 777000 + w);
                h->flushObject(extra);
                h->setRoot("extra" + std::to_string(w), extra);
            }
        });
    }
    for (auto &t : workers)
        t.join();
    for (int w = 0; w < rig.threads; ++w) {
        EXPECT_EQ(h->getRoot("extra" + std::to_string(w))
                      .getI64(rig.valueOff),
                  777000 + w)
            << "mt event " << event;
    }
}

void
sweepMt(CrashMode mode, std::uint64_t seed, int iterations, int threads,
        int ops_per_thread)
{
    // Size the random crash points against an uninterrupted run.
    std::uint64_t max_events;
    {
        MtRig probe(threads, ops_per_thread);
        ASSERT_FALSE(probe.run());
        max_events = probe.injector.eventCount();
        ASSERT_GT(max_events, 0u);
    }

    Rng rng(seed);
    for (int it = 0; it < iterations; ++it) {
        std::uint64_t event = 1 + rng.nextBelow(max_events);
        MtRig rig(threads, ops_per_thread);
        rig.injector.arm(event);
        bool crashed = rig.run();
        rig.injector.disarm();
        if (testing::Test::HasFatalFailure())
            return;
        if (!crashed) {
            // Thread interleaving reached fewer events this run;
            // exercise the clean detach/reload path instead.
            rig.rt->heaps().detachHeap(kHeapName);
            PjhHeap *h = rig.rt->heaps().loadHeap(kHeapName);
            verifyMtRecovered(rig, h, 0);
            continue;
        }
        rig.rt->heaps().crashHeap(kHeapName, mode, seed + event);
        PjhHeap *h = rig.rt->heaps().loadHeap(kHeapName);
        verifyMtRecovered(rig, h, event);
    }
}

TEST(CrashMatrixTest, MtAllocRootSweepConservative)
{
    sweepMt(CrashMode::kDiscardUnflushed, 31, 24, 4, 60);
}

TEST(CrashMatrixTest, MtAllocRootSweepWithCacheEviction)
{
    sweepMt(CrashMode::kEvictRandomLines, 57, 24, 4, 60);
}

// Threads past the 64th share TLAB slots: a shared slot admits one
// allocation at a time, so the same invariants must hold with two
// threads interleaving pnews in one registered chunk.
constexpr int kSharedSlotThreads =
    static_cast<int>(PjhMetadata::kMaxTlabSlots) + 8;

TEST(CrashMatrixTest, MtAllocRootSweepSharedSlotsConservative)
{
    sweepMt(CrashMode::kDiscardUnflushed, 73, 24, kSharedSlotThreads, 20);
}

TEST(CrashMatrixTest, MtAllocRootSweepSharedSlotsWithCacheEviction)
{
    sweepMt(CrashMode::kEvictRandomLines, 89, 24, kSharedSlotThreads, 20);
}

// ---------------------------------------------------------------------
// GC matrix: crashes injected mid-collection (mark persists, slice
// compaction, finish), single- and multi-slice, then recovered via
// compact(resume=true)
// ---------------------------------------------------------------------

/**
 * A heap of rooted lists interleaved with garbage, collected with a
 * crash injected at a randomized persistence event of the collection
 * itself. Recovery replays only unfinished compaction slices.
 *
 * Invariants after recovery (§4.2/§4.3 extended with slices):
 *  - the heap parses end to end (inter-slice gaps plugged);
 *  - every root resolves to its full list — exact length, exact
 *    values, so no node was lost, invented, or moved twice (every
 *    value is unique; a double-move would surface as a duplicated
 *    or clobbered node);
 *  - every surviving object is one the workload wrote;
 *  - the recovered heap accepts new work and a follow-up clean
 *    collection that drops all remaining garbage.
 */
/** 48-byte list node: deliberately does NOT divide the 64 KiB region
 * size, so packed live objects straddle region boundaries and slice
 * planning must route cuts around them. */
KlassDef
gcNodeDef()
{
    return KlassDef{"GcNode",
                    "",
                    {{"value", FieldType::kI64},
                     {"next", FieldType::kRef},
                     {"pad1", FieldType::kI64},
                     {"pad2", FieldType::kI64}},
                    false};
}

struct GcRig
{
    static constexpr int kRoots = 6;
    static constexpr int kPerList = 400;
    static constexpr int kGarbagePerLive = 3;

    explicit GcRig(unsigned gc_threads)
    {
        rt = std::make_unique<EspressoRuntime>();
        rt->define(gcNodeDef());
        valueOff = rt->fieldOffset("GcNode", "value");
        nextOff = rt->fieldOffset("GcNode", "next");
        rt->heaps().setGcThreads(gc_threads);
        heap = rt->heaps().createHeap(kHeapName, 16u << 20);

        std::int64_t next_value = 1;
        for (int r = 0; r < kRoots; ++r) {
            Oop head;
            for (int i = 0; i < kPerList; ++i) {
                head = node(next_value, head);
                liveValues.insert(next_value);
                ++next_value;
                for (int g = 0; g < kGarbagePerLive; ++g) {
                    node(-next_value, Oop());
                    writtenValues.insert(-next_value);
                    ++next_value;
                }
            }
            heap->setRoot("r" + std::to_string(r), head);
        }
        writtenValues.insert(liveValues.begin(), liveValues.end());
        // Only the collection's own persistence events are swept.
        rt->heaps().deviceOf(kHeapName)->setInjector(&injector);
    }

    Oop
    node(std::int64_t v, Oop next)
    {
        Oop n = rt->pnewInstance(heap, "GcNode");
        n.setI64(valueOff, v);
        n.setRef(nextOff, next);
        heap->flushObject(n);
        return n;
    }

    std::unique_ptr<EspressoRuntime> rt;
    PjhHeap *heap = nullptr;
    CrashInjector injector;
    std::uint32_t valueOff = 0, nextOff = 0;
    std::set<std::int64_t> liveValues;
    std::set<std::int64_t> writtenValues;
};

void
verifyGcRecovered(GcRig &rig, PjhHeap *h, std::uint64_t event)
{
    // Invariant 1: the heap parses end to end, and every surviving
    // object holds a value the workload wrote, at most once each (a
    // node moved twice would appear twice or clobber a neighbour).
    std::multiset<std::int64_t> seen;
    ASSERT_NO_THROW(h->forEachObject([&](Oop o) {
        ASSERT_EQ(o.klass()->name(), "GcNode") << "gc event " << event;
        seen.insert(o.getI64(rig.valueOff));
    })) << "gc event "
        << event;
    for (std::int64_t v : seen) {
        EXPECT_TRUE(rig.writtenValues.count(v))
            << "gc event " << event << " invented value " << v;
        EXPECT_EQ(seen.count(v), 1u)
            << "gc event " << event << " value " << v
            << " duplicated (object moved twice?)";
    }
    // ... and no live node was lost.
    for (std::int64_t v : rig.liveValues) {
        ASSERT_EQ(seen.count(v), 1u)
            << "gc event " << event << " live value " << v << " lost";
    }

    // Invariant 2: every root resolves to its full, exact list.
    for (int r = 0; r < GcRig::kRoots; ++r) {
        Oop cur = h->getRoot("r" + std::to_string(r));
        int len = 0;
        std::int64_t prev = 0;
        while (!cur.isNull()) {
            ASSERT_EQ(cur.klass()->name(), "GcNode")
                << "gc event " << event << " root " << r;
            std::int64_t v = cur.getI64(rig.valueOff);
            ASSERT_TRUE(rig.liveValues.count(v))
                << "gc event " << event << " root " << r
                << " reaches non-live value " << v;
            // Lists were built head-first with ascending values.
            if (len > 0) {
                ASSERT_LT(v, prev)
                    << "gc event " << event << " root " << r;
            }
            prev = v;
            cur = Oop(cur.getRef(rig.nextOff));
            ASSERT_LE(++len, GcRig::kPerList)
                << "gc event " << event << " root " << r;
        }
        ASSERT_EQ(len, GcRig::kPerList)
            << "gc event " << event << " root " << r;
    }

    // Invariant 3: the recovered heap takes new work and a clean
    // follow-up collection that drops every remaining garbage node.
    Oop extra = rig.rt->pnewInstance(h, "GcNode");
    extra.setI64(rig.valueOff, 987654);
    h->flushObject(extra);
    h->setRoot("extra", extra);
    h->collect(nullptr);
    EXPECT_EQ(h->getRoot("extra").getI64(rig.valueOff), 987654)
        << "gc event " << event;
    std::size_t live_after = 0;
    h->forEachObject([&](Oop) { ++live_after; });
    EXPECT_EQ(live_after,
              static_cast<std::size_t>(GcRig::kRoots *
                                       GcRig::kPerList) +
                  1)
        << "gc event " << event;
}

void
sweepGc(CrashMode mode, std::uint64_t seed, int iterations,
        unsigned gc_threads)
{
    // Size the random crash points against an uninterrupted
    // collection (the injector only observes the GC: it is attached
    // after the workload is built).
    std::uint64_t max_events;
    {
        GcRig probe(gc_threads);
        probe.heap->collect(nullptr);
        max_events = probe.injector.eventCount();
        ASSERT_GT(max_events, 0u);
    }

    Rng rng(seed);
    bool saw_multi_slice_recovery = false;
    for (int it = 0; it < iterations; ++it) {
        GcRig rig(gc_threads);
        std::uint64_t event = 1 + rng.nextBelow(max_events);
        rig.injector.arm(event);
        bool crashed = false;
        try {
            rig.heap->collect(nullptr);
        } catch (const SimulatedCrash &) {
            crashed = true;
        }
        rig.injector.disarm();
        if (testing::Test::HasFatalFailure())
            return;
        if (!crashed) {
            // Event landed past the collection (worker interleaving
            // shifted the stream): verify the clean path instead.
            rig.rt->heaps().detachHeap(kHeapName);
            PjhHeap *h = rig.rt->heaps().loadHeap(kHeapName);
            verifyGcRecovered(rig, h, 0);
            continue;
        }
        rig.rt->heaps().crashHeap(kHeapName, mode, seed + event);
        PjhHeap *h = rig.rt->heaps().loadHeap(kHeapName);
        if (h->stats().recoveries > 0 && h->meta().gcSliceCount > 1)
            saw_multi_slice_recovery = true;
        verifyGcRecovered(rig, h, event);
        if (testing::Test::HasFatalFailure())
            return;
    }
    if (gc_threads > 1) {
        // The sweep must actually exercise multi-slice resume, not
        // just pre-compaction crashes.
        EXPECT_TRUE(saw_multi_slice_recovery)
            << "no iteration crashed inside a multi-slice compaction";
    }
}

TEST(CrashMatrixTest, GcSweepSingleSliceConservative)
{
    sweepGc(CrashMode::kDiscardUnflushed, 11, 10, 1);
}

TEST(CrashMatrixTest, GcSweepSingleSliceWithCacheEviction)
{
    sweepGc(CrashMode::kEvictRandomLines, 23, 10, 1);
}

TEST(CrashMatrixTest, GcSweepMultiSliceConservative)
{
    sweepGc(CrashMode::kDiscardUnflushed, 37, 14, 4);
}

TEST(CrashMatrixTest, GcSweepMultiSliceWithCacheEviction)
{
    sweepGc(CrashMode::kEvictRandomLines, 53, 14, 4);
}

// ---------------------------------------------------------------------
// Concurrent-marking matrix: mutator threads race a SATB cycle, power
// fails at a randomized persistence event of either side; recovery
// must resume (gcInProgress durable) or discard (gcMarkingActive
// alone) without losing, inventing, or double-moving an object
// ---------------------------------------------------------------------

/**
 * Pre-built rooted lists (the snapshot-live set, immutable during the
 * run) share the heap with garbage and with mutator threads that
 * allocate, flush, publish, link and unlink nodes *while* a
 * concurrent collection runs. Crash points come in two flavours:
 * uniformly random over the whole interleaved event stream, and
 * targeted — armed from the marking hook while the cycle is held in
 * kMarking, so the sweep provably exercises the discard window
 * (gcMarkingActive persisted, gcInProgress not yet).
 *
 * Invariants after recovery:
 *  - the heap parses end to end;
 *  - no snapshot-live node is ever lost, invented, or moved twice,
 *    whichever path recovery took;
 *  - mutator roots never hold a value no thread durably wrote;
 *  - the recovered heap takes new work, and a clean follow-up
 *    concurrent cycle drops every remaining pre-crash garbage node.
 */
struct ConcRig
{
    static constexpr int kRoots = 4;
    static constexpr int kPerList = 250;
    static constexpr int kGarbagePerLive = 2;
    static constexpr int kMutators = 3;
    static constexpr int kOpsPerThread = 80;

    ConcRig()
    {
        rt = std::make_unique<EspressoRuntime>();
        rt->define(gcNodeDef());
        valueOff = rt->fieldOffset("GcNode", "value");
        nextOff = rt->fieldOffset("GcNode", "next");
        rt->heaps().setGcThreads(2);
        heap = rt->heaps().createHeap(kHeapName, 16u << 20);
        heap->setGcConcurrent(true);

        std::int64_t next_value = 1;
        for (int r = 0; r < kRoots; ++r) {
            Oop head;
            for (int i = 0; i < kPerList; ++i) {
                head = node(next_value, head);
                liveValues.insert(next_value);
                ++next_value;
                for (int g = 0; g < kGarbagePerLive; ++g) {
                    node(-next_value, Oop());
                    writtenValues.insert(-next_value);
                    ++next_value;
                }
            }
            heap->setRoot("r" + std::to_string(r), head);
        }
        writtenValues.insert(liveValues.begin(), liveValues.end());
        rt->heaps().deviceOf(kHeapName)->setInjector(&injector);
    }

    Oop
    node(std::int64_t v, Oop next)
    {
        Oop n = rt->pnewInstance(heap, "GcNode");
        n.setI64(valueOff, v);
        n.setRef(nextOff, next);
        heap->flushObject(n);
        return n;
    }

    /** One mutator: allocate/flush/publish/link/unlink under the
     * concurrent-mode contract (compound ops in a MutatorSection). */
    void
    mutate(int w, std::atomic<bool> &crashed)
    {
        std::set<std::int64_t> written;
        const std::string root = "mt" + std::to_string(w);
        try {
            for (int i = 0;
                 i < kOpsPerThread &&
                 !crashed.load(std::memory_order_relaxed);
                 ++i) {
                std::int64_t v = 10000000 + w * 1000000 + i;
                PjhHeap::MutatorSection ms(*heap);
                Oop n = rt->pnewInstance(heap, "GcNode");
                n.setI64(valueOff, v);
                written.insert(v);
                heap->flushObject(n);
                switch (i % 4) {
                case 0:
                    // Republish: drops the previous chain (deletion
                    // barrier shades it).
                    heap->setRoot(root, n);
                    break;
                case 1: {
                    // Push onto the chain (insertion barrier).
                    Oop head = heap->getRoot(root);
                    if (!head.isNull())
                        heap->storeRef(n, nextOff, head);
                    heap->setRoot(root, n);
                    break;
                }
                case 2: {
                    std::int64_t v2 = v + 500000;
                    n.setI64(valueOff, v2);
                    written.insert(v2);
                    heap->flushField(n, valueOff);
                    break;
                }
                case 3: {
                    // Unlink the chain tail (deletion barrier).
                    Oop head = heap->getRoot(root);
                    if (!head.isNull())
                        heap->storeRef(head, nextOff, Oop());
                    break;
                }
                }
            }
        } catch (const SimulatedCrash &) {
            crashed.store(true, std::memory_order_relaxed);
        }
        std::lock_guard<std::mutex> g(writtenMu);
        writtenValues.insert(written.begin(), written.end());
    }

    /**
     * Mutators race one concurrent collection. @p arm_after_marking
     * == 0: the caller pre-armed the injector. > 0: the marking hook
     * arms that many events ahead once the first trace is done, then
     * holds the cycle in kMarking until the crash fires or the
     * mutators run out of ops (lands the crash in or just past the
     * marking window).
     */
    bool
    run(std::uint64_t arm_after_marking)
    {
        std::atomic<bool> crashed{false};
        std::atomic<int> mutating{kMutators};
        if (arm_after_marking > 0) {
            heap->setMarkingHook([this, arm_after_marking, &mutating]() {
                injector.arm(arm_after_marking);
                while (!injector.tripped() && mutating.load() > 0)
                    std::this_thread::yield();
            });
        }
        std::vector<std::thread> workers;
        for (int w = 0; w < kMutators; ++w) {
            workers.emplace_back([this, w, &crashed, &mutating]() {
                mutate(w, crashed);
                mutating.fetch_sub(1);
            });
        }
        std::thread collector([this, &crashed]() {
            try {
                heap->collect(nullptr);
            } catch (const SimulatedCrash &) {
                crashed.store(true, std::memory_order_relaxed);
            }
        });
        collector.join();
        for (auto &t : workers)
            t.join();
        heap->setMarkingHook(nullptr);
        return crashed.load();
    }

    std::unique_ptr<EspressoRuntime> rt;
    PjhHeap *heap = nullptr;
    CrashInjector injector;
    std::uint32_t valueOff = 0, nextOff = 0;
    std::set<std::int64_t> liveValues;
    std::mutex writtenMu;
    std::set<std::int64_t> writtenValues;
};

void
verifyConcRecovered(ConcRig &rig, PjhHeap *h, std::uint64_t event)
{
    // Invariant 1: the heap parses end to end, and the snapshot-live
    // set was neither lost nor duplicated (a node moved twice would
    // surface as a duplicate).
    std::multiset<std::int64_t> seen;
    ASSERT_NO_THROW(h->forEachObject([&](Oop o) {
        if (o.klass()->name() == "GcNode")
            seen.insert(o.getI64(rig.valueOff));
    })) << "conc event "
        << event;
    for (std::int64_t v : rig.liveValues) {
        ASSERT_EQ(seen.count(v), 1u)
            << "conc event " << event << " live value " << v
            << " lost or duplicated";
    }

    // Invariant 2: every pre-built root resolves its full exact list.
    for (int r = 0; r < ConcRig::kRoots; ++r) {
        Oop cur = h->getRoot("r" + std::to_string(r));
        int len = 0;
        std::int64_t prev = 0;
        while (!cur.isNull()) {
            ASSERT_EQ(cur.klass()->name(), "GcNode")
                << "conc event " << event << " root " << r;
            std::int64_t v = cur.getI64(rig.valueOff);
            ASSERT_TRUE(rig.liveValues.count(v))
                << "conc event " << event << " root " << r
                << " reaches non-live value " << v;
            if (len > 0) {
                ASSERT_LT(v, prev)
                    << "conc event " << event << " root " << r;
            }
            prev = v;
            cur = Oop(cur.getRef(rig.nextOff));
            ASSERT_LE(++len, ConcRig::kPerList)
                << "conc event " << event << " root " << r;
        }
        ASSERT_EQ(len, ConcRig::kPerList)
            << "conc event " << event << " root " << r;
    }

    // Invariant 3: mutator roots never hold an invented value.
    for (int w = 0; w < ConcRig::kMutators; ++w) {
        Oop root = h->getRoot("mt" + std::to_string(w));
        if (root.isNull())
            continue;
        ASSERT_EQ(root.klass()->name(), "GcNode")
            << "conc event " << event << " mt" << w;
        EXPECT_TRUE(rig.writtenValues.count(root.getI64(rig.valueOff)))
            << "conc event " << event << " root mt" << w
            << " holds invented value";
    }

    // Invariant 4: new work succeeds, and a clean follow-up
    // concurrent cycle drops every remaining pre-crash garbage node
    // while keeping the live set exact.
    Oop extra = rig.rt->pnewInstance(h, "GcNode");
    extra.setI64(rig.valueOff, 987654);
    h->flushObject(extra);
    h->setRoot("extra", extra);
    h->setGcConcurrent(true);
    h->collect(nullptr);
    EXPECT_EQ(h->getRoot("extra").getI64(rig.valueOff), 987654)
        << "conc event " << event;
    std::multiset<std::int64_t> after;
    h->forEachObject([&](Oop o) {
        if (o.klass()->name() == "GcNode")
            after.insert(o.getI64(rig.valueOff));
    });
    for (std::int64_t v : after) {
        EXPECT_GE(v, 0)
            << "conc event " << event << " garbage value " << v
            << " survived a clean collection";
    }
    for (std::int64_t v : rig.liveValues) {
        ASSERT_EQ(after.count(v), 1u)
            << "conc event " << event << " live value " << v
            << " lost by the follow-up collection";
    }
}

void
sweepConcGc(CrashMode mode, std::uint64_t seed, int iterations,
            bool target_marking)
{
    std::uint64_t max_events = 0;
    {
        ConcRig probe;
        ASSERT_FALSE(probe.run(0));
        max_events = probe.injector.eventCount();
        ASSERT_GT(max_events, 0u);
    }

    Rng rng(seed);
    int discards_seen = 0, resumes_seen = 0;
    for (int it = 0; it < iterations; ++it) {
        ConcRig rig;
        std::uint64_t event;
        bool crashed;
        if (target_marking) {
            event = 1 + rng.nextBelow(8);
            crashed = rig.run(event);
        } else {
            event = 1 + rng.nextBelow(max_events);
            rig.injector.arm(event);
            crashed = rig.run(0);
        }
        rig.injector.disarm();
        if (testing::Test::HasFatalFailure())
            return;
        if (!crashed) {
            // The cycle (or the whole run) finished first: verify the
            // clean detach/reload path instead.
            rig.rt->heaps().detachHeap(kHeapName);
            PjhHeap *h = rig.rt->heaps().loadHeap(kHeapName);
            verifyConcRecovered(rig, h, 0);
            continue;
        }
        rig.rt->heaps().crashHeap(kHeapName, mode, seed + event);
        PjhHeap *h = rig.rt->heaps().loadHeap(kHeapName);
        if (h->stats().markDiscards > 0)
            ++discards_seen;
        else if (h->stats().recoveries > 0)
            ++resumes_seen;
        verifyConcRecovered(rig, h, event);
        if (testing::Test::HasFatalFailure())
            return;
    }
    if (target_marking) {
        EXPECT_GT(discards_seen, 0)
            << "no crash landed inside the marking window";
    } else {
        EXPECT_GT(discards_seen + resumes_seen, 0)
            << "no crash landed inside the collection itself";
    }
}

TEST(CrashMatrixTest, ConcurrentGcOverlapSweepConservative)
{
    sweepConcGc(CrashMode::kDiscardUnflushed, 113, 10, false);
}

TEST(CrashMatrixTest, ConcurrentGcOverlapSweepWithCacheEviction)
{
    sweepConcGc(CrashMode::kEvictRandomLines, 127, 10, false);
}

TEST(CrashMatrixTest, ConcurrentGcMarkWindowSweepConservative)
{
    sweepConcGc(CrashMode::kDiscardUnflushed, 131, 8, true);
}

TEST(CrashMatrixTest, ConcurrentGcMarkWindowSweepWithCacheEviction)
{
    sweepConcGc(CrashMode::kEvictRandomLines, 137, 8, true);
}

// ---------------------------------------------------------------------
// WAL-side matrix: commit brackets of varying width
// ---------------------------------------------------------------------

/** One WAL scenario: statements inside one begin/commit bracket. */
struct WalScenario
{
    const char *name;
    std::vector<const char *> body;
};

const std::vector<WalScenario> &
walScenarios()
{
    static const std::vector<WalScenario> kScenarios = {
        {"single-update", {"UPDATE ACCT SET BAL = 150 WHERE ID = 1"}},
        {"transfer",
         {"UPDATE ACCT SET BAL = 70 WHERE ID = 1",
          "UPDATE ACCT SET BAL = 130 WHERE ID = 2"}},
        {"wide-commit",
         {"UPDATE ACCT SET BAL = 60 WHERE ID = 1",
          "UPDATE ACCT SET BAL = 140 WHERE ID = 2",
          "INSERT INTO ACCT (ID, BAL) VALUES (3, 0)",
          "INSERT INTO ACCT (ID, BAL) VALUES (4, 0)"}},
    };
    return kScenarios;
}

std::unique_ptr<db::Database>
makeDb()
{
    db::DatabaseConfig cfg;
    cfg.rowRegionSize = 4u << 20;
    cfg.rowsPerTable = 256;
    auto d = std::make_unique<db::Database>(cfg);
    d->executeSql("CREATE TABLE ACCT (ID BIGINT PRIMARY KEY, BAL BIGINT)");
    d->executeSql("INSERT INTO ACCT (ID, BAL) VALUES (1, 100)");
    d->executeSql("INSERT INTO ACCT (ID, BAL) VALUES (2, 100)");
    return d;
}

std::int64_t
balance(db::Database &d, int id)
{
    db::ResultSet r = d.executeSql(
        "SELECT BAL FROM ACCT WHERE ID = " + std::to_string(id));
    EXPECT_EQ(r.rows.size(), 1u);
    return r.rows.empty() ? -1 : r.rows[0][0].i;
}

/**
 * Crash at every WAL persistence event of @p sc; after recovery the
 * bracket must have applied completely or not at all.
 */
void
sweepWal(const WalScenario &sc, CrashMode mode, std::uint64_t seed)
{
    for (std::uint64_t event = 1;; ++event) {
        auto d = makeDb();
        CrashInjector inj;
        d->device().setInjector(&inj);
        inj.arm(event);
        bool crashed = false;
        try {
            db::Txn t = d->beginTxn();
            for (const char *sql : sc.body)
                d->executeSql(sql);
            ASSERT_TRUE(t.commit().isOk()) << sc.name << " event " << event;
        } catch (const SimulatedCrash &) {
            crashed = true;
        }
        inj.disarm();
        d->device().setInjector(nullptr);
        if (!crashed)
            break;

        d->crash(mode, seed + event);

        // Atomicity: either the pristine pre-state or the full
        // post-state of the bracket, nothing in between.
        std::int64_t a = balance(*d, 1), b = balance(*d, 2);
        std::size_t rows = d->rowCount("ACCT");
        bool before = a == 100 && b == 100 && rows == 2;
        bool after = false;
        if (std::string(sc.name) == "single-update")
            after = a == 150 && b == 100 && rows == 2;
        else if (std::string(sc.name) == "transfer")
            after = a == 70 && b == 130 && rows == 2;
        else
            after = a == 60 && b == 140 && rows == 4;
        EXPECT_TRUE(before || after)
            << sc.name << " event " << event << ": a=" << a << " b=" << b
            << " rows=" << rows;

        // The recovered database stays fully usable.
        d->executeSql("INSERT INTO ACCT (ID, BAL) VALUES (9, 1)");
        EXPECT_EQ(
            d->executeSql("SELECT * FROM ACCT WHERE ID = 9").rows.size(),
            1u)
            << sc.name << " event " << event;
    }
}

TEST(CrashMatrixTest, WalCommitConservative)
{
    for (const WalScenario &sc : walScenarios())
        sweepWal(sc, CrashMode::kDiscardUnflushed, 7);
}

TEST(CrashMatrixTest, WalCommitWithCacheEviction)
{
    for (const WalScenario &sc : walScenarios())
        sweepWal(sc, CrashMode::kEvictRandomLines, 7);
}

// ---------------------------------------------------------------------
// Fabric matrix: crash one shard (mid-pnew or mid-GC) while the other
// members keep serving; ring-manifest recovery from a crash between a
// shard's create and the manifest commit
// ---------------------------------------------------------------------

/**
 * A 4-member fabric with one victim shard. The injector is attached
 * to the victim's device only — a power failure in a fabric-per-shard
 * deployment takes out one device, not the machine — so the sweep
 * asserts the failure *stays* shard-local: the surviving members
 * serve routed pnew + roots while the victim is down, and per-shard
 * recovery (tail repair mid-pnew, compaction replay mid-GC) restores
 * the victim without touching the others.
 */
struct FabricRig
{
    static constexpr unsigned kShards = 4;
    static constexpr unsigned kVictim = 2;

    FabricRig()
    {
        rt = std::make_unique<EspressoRuntime>();
        rt->define(nodeDef());
        valueOff = rt->fieldOffset("Node", "value");
        PjhConfig cfg;
        cfg.dataSize = 4u << 20;
        fabric = rt->heaps().createFabric("fabmatrix", cfg, kShards);
        for (int i = 0; victimKeys.size() < 64; ++i) {
            std::string key = "vk" + std::to_string(i);
            if (fabric->shardIndexFor(key) == kVictim)
                victimKeys.push_back(key);
        }
        for (int i = 0; otherKeys.size() < 16; ++i) {
            std::string key = "ok" + std::to_string(i);
            if (fabric->shardIndexFor(key) != kVictim)
                otherKeys.push_back(key);
        }
        fabric->shardDevice(kVictim)->setInjector(&injector);
    }

    /** pnew+flush+publish on the victim until the crash fires;
     * returns true when it did. */
    bool
    runVictimPnew()
    {
        try {
            for (std::size_t i = 0; i < victimKeys.size(); ++i) {
                std::int64_t v = static_cast<std::int64_t>(i) + 1;
                Oop node = rt->pnewInstance(fabric, victimKeys[i],
                                            "Node");
                node.setI64(valueOff, v);
                writtenValues.insert(v);
                fabric->shard(kVictim)->flushObject(node);
                if (i % 2 == 0)
                    fabric->setRoot(victimKeys[i], node);
            }
        } catch (const SimulatedCrash &) {
            return true;
        }
        return false;
    }

    /** The surviving members must serve while the victim is down. */
    void
    assertOthersServe()
    {
        for (const std::string &key : otherKeys) {
            Oop node = rt->pnewInstance(fabric, key, "Node");
            node.setI64(valueOff, 31337);
            fabric->shardFor(key)->flushObject(node);
            fabric->setRoot(key, node);
            ASSERT_EQ(fabric->getRoot(key).getI64(valueOff), 31337)
                << key;
        }
    }

    /** Victim invariants after per-shard recovery. */
    void
    verifyVictimRecovered(std::uint64_t event)
    {
        PjhHeap *h = fabric->shard(kVictim);
        ASSERT_NE(h, nullptr);
        std::size_t objects = 0;
        ASSERT_NO_THROW(h->forEachObject([&](Oop) { ++objects; }))
            << "fabric event " << event;
        for (const std::string &key : victimKeys) {
            Oop root = fabric->getRoot(key);
            if (root.isNull())
                continue;
            ASSERT_EQ(root.klass()->name(), "Node")
                << "fabric event " << event << " " << key;
            EXPECT_TRUE(
                writtenValues.count(root.getI64(valueOff)))
                << "fabric event " << event << " " << key
                << " holds invented value";
        }
        // The whole fabric accepts new routed work.
        Oop extra =
            rt->pnewInstance(fabric, victimKeys[0], "Node");
        extra.setI64(valueOff, 424242);
        h->flushObject(extra);
        fabric->setRoot("extra", extra);
        EXPECT_EQ(fabric->getRoot("extra").getI64(valueOff), 424242)
            << "fabric event " << event;
    }

    std::unique_ptr<EspressoRuntime> rt;
    HeapFabric *fabric = nullptr;
    CrashInjector injector;
    std::uint32_t valueOff = 0;
    std::vector<std::string> victimKeys;
    std::vector<std::string> otherKeys;
    std::set<std::int64_t> writtenValues;
};

void
sweepFabricPnew(CrashMode mode, std::uint64_t seed, int iterations)
{
    std::uint64_t max_events;
    {
        FabricRig probe;
        ASSERT_FALSE(probe.runVictimPnew());
        max_events = probe.injector.eventCount();
        ASSERT_GT(max_events, 0u);
    }

    Rng rng(seed);
    for (int it = 0; it < iterations; ++it) {
        FabricRig rig;
        std::uint64_t event = 1 + rng.nextBelow(max_events);
        rig.injector.arm(event);
        bool crashed = rig.runVictimPnew();
        rig.injector.disarm();
        if (testing::Test::HasFatalFailure())
            return;
        if (!crashed)
            continue;
        // Victim is down, not yet recovered: the other members keep
        // serving through the ring.
        rig.assertOthersServe();
        if (testing::Test::HasFatalFailure())
            return;
        rig.fabric->crashShard(FabricRig::kVictim, mode, seed + event);
        rig.fabric->reattachShard(FabricRig::kVictim);
        rig.verifyVictimRecovered(event);
        if (testing::Test::HasFatalFailure())
            return;
    }
}

void
sweepFabricGc(CrashMode mode, std::uint64_t seed, int iterations)
{
    auto fillVictim = [](FabricRig &rig) {
        // Live roots interleaved with garbage on the victim.
        for (std::size_t i = 0; i < rig.victimKeys.size(); ++i) {
            std::int64_t v = static_cast<std::int64_t>(i) + 1;
            Oop node = rig.rt->pnewInstance(
                rig.fabric, rig.victimKeys[i], "Node");
            node.setI64(rig.valueOff, v);
            rig.writtenValues.insert(v);
            rig.fabric->shard(FabricRig::kVictim)->flushObject(node);
            if (i % 2 == 0)
                rig.fabric->setRoot(rig.victimKeys[i], node);
        }
    };

    std::uint64_t max_events;
    {
        FabricRig probe;
        probe.injector.disarm();
        fillVictim(probe);
        probe.injector.resetCount();
        probe.fabric->collectShard(FabricRig::kVictim);
        max_events = probe.injector.eventCount();
        ASSERT_GT(max_events, 0u);
    }

    Rng rng(seed);
    for (int it = 0; it < iterations; ++it) {
        FabricRig rig;
        fillVictim(rig);
        std::uint64_t event = 1 + rng.nextBelow(max_events);
        rig.injector.resetCount();
        rig.injector.arm(event);
        bool crashed = false;
        try {
            rig.fabric->collectShard(FabricRig::kVictim);
        } catch (const SimulatedCrash &) {
            crashed = true;
        }
        rig.injector.disarm();
        if (testing::Test::HasFatalFailure())
            return;
        if (!crashed)
            continue;
        rig.assertOthersServe();
        if (testing::Test::HasFatalFailure())
            return;
        // Per-shard recovery replays the interrupted collection.
        rig.fabric->crashShard(FabricRig::kVictim, mode, seed + event);
        rig.fabric->reattachShard(FabricRig::kVictim);
        rig.verifyVictimRecovered(event);
        if (testing::Test::HasFatalFailure())
            return;
        // A follow-up clean collection still works on the victim.
        rig.fabric->collectShard(FabricRig::kVictim);
        rig.verifyVictimRecovered(event);
        if (testing::Test::HasFatalFailure())
            return;
    }
}

/**
 * Sweep a power failure across every manifest persistence event of
 * fabric creation: declare, per-member format flags, final commit.
 * Recovery must either find no durable declaration (a crash before
 * the atomic creation point — the fabric never existed) or roll the
 * membership forward to the declared target, re-formatting members
 * that never reached their format flag.
 */
void
sweepFabricManifest(CrashMode mode, std::uint64_t seed)
{
    EspressoRuntime rt;
    rt.define(nodeDef());
    std::uint32_t value_off = rt.fieldOffset("Node", "value");

    for (std::uint64_t event = 1;; ++event) {
        CrashInjector injector;
        HeapFabric fabric(&rt.registry(), nullptr);
        fabric.setManifestInjector(&injector);
        injector.arm(event);
        PjhConfig cfg;
        cfg.dataSize = 1u << 20;
        FabricConfig fcfg;
        fcfg.shard = cfg;
        fcfg.shards = 4;
        bool crashed = false;
        try {
            fabric.create(fcfg);
        } catch (const SimulatedCrash &) {
            crashed = true;
        }
        injector.disarm();
        if (!crashed) {
            ASSERT_GT(event, 1u) << "creation produced no events";
            break;
        }

        fabric.crashAll(mode, seed + event);
        if (!fabric.manifestDeclared()) {
            // Crashed before the declaration fence: the fabric never
            // existed; nothing to recover.
            continue;
        }
        fabric.recover();
        ASSERT_EQ(fabric.shardCount(), 4u) << "event " << event;
        EXPECT_GE(fabric.epoch(), 1u) << "event " << event;
        for (unsigned s = 0; s < 4; ++s) {
            PjhHeap *h = fabric.shard(s);
            ASSERT_NE(h, nullptr) << "event " << event << " shard " << s;
            Oop node = h->allocInstance(
                rt.registry().resolve("Node", MemKind::kPersistent));
            node.setI64(value_off, 7);
            h->flushObject(node);
            h->setRoot("probe", node);
            EXPECT_EQ(h->getRoot("probe").getI64(value_off), 7)
                << "event " << event << " shard " << s;
        }
    }
}

TEST(CrashMatrixTest, FabricShardPnewSweepConservative)
{
    sweepFabricPnew(CrashMode::kDiscardUnflushed, 61, 16);
}

TEST(CrashMatrixTest, FabricShardPnewSweepWithCacheEviction)
{
    sweepFabricPnew(CrashMode::kEvictRandomLines, 67, 16);
}

TEST(CrashMatrixTest, FabricShardGcSweepConservative)
{
    sweepFabricGc(CrashMode::kDiscardUnflushed, 71, 10);
}

TEST(CrashMatrixTest, FabricShardGcSweepWithCacheEviction)
{
    sweepFabricGc(CrashMode::kEvictRandomLines, 73, 10);
}

/** Members binding @p name as a live kRoot, fabric-wide. */
unsigned
fabricRootBindings(HeapFabric &fabric, const std::string &name)
{
    unsigned n = 0;
    for (unsigned s = 0; s < RingManifestData::kMaxShards; ++s) {
        PjhHeap *h = fabric.shard(s);
        if (!h)
            continue;
        NameEntry *e = h->names().find(name, NameKind::kRoot);
        if (e && NameTable::readValue(e) != 0)
            ++n;
    }
    return n;
}

/**
 * Sweep a power failure across every persistence event of an online
 * membership change — the declare fence, joiner formats, each
 * streamed root move (clone, forward stub, old-binding retire,
 * migrated flags), the commit fence, and post-commit cleanup.
 * Recovery must land on exactly the old or the new membership with
 * every root present exactly once, holding its written value: no
 * lost, duplicated, or dangling root.
 *
 * The injector rides the manifest and every pre-change member
 * device. On grow the joiners are created mid-change, so their
 * writes cannot inject — the shrink sweep covers the destination
 * side instead (its destinations are surviving members).
 */
void
sweepFabricMigration(CrashMode mode, std::uint64_t seed, bool grow_dir)
{
    EspressoRuntime rt;
    rt.define(nodeDef());
    std::uint32_t value_off = rt.fieldOffset("Node", "value");
    auto *klass = rt.registry().resolve("Node", MemKind::kPersistent);
    const unsigned from = grow_dir ? 2 : 4;
    const unsigned target = grow_dir ? 4 : 2;
    constexpr int kRoots = 12;

    for (std::uint64_t event = 1;; ++event) {
        CrashInjector injector;
        HeapFabric fabric(&rt.registry(), nullptr);
        fabric.setManifestInjector(&injector);
        PjhConfig cfg;
        cfg.dataSize = 1u << 20;
        FabricConfig fcfg;
        fcfg.shard = cfg;
        fcfg.shards = from;
        fabric.create(fcfg);
        for (int i = 0; i < kRoots; ++i) {
            std::string key = "m" + std::to_string(i);
            PjhHeap *h = fabric.shard(fabric.shardIndexFor(key));
            Oop node = h->allocInstance(klass);
            node.setI64(value_off, 600 + i);
            h->flushObject(node);
            fabric.setRoot(key, node);
        }
        for (unsigned s = 0; s < from; ++s)
            fabric.shardDevice(s)->setInjector(&injector);
        fabric.manifestDevice()->setInjector(&injector);
        injector.resetCount();
        injector.arm(event);
        bool crashed = false;
        try {
            if (grow_dir)
                fabric.grow(target - from);
            else
                fabric.shrink(from - target);
        } catch (const SimulatedCrash &) {
            crashed = true;
        }
        injector.disarm();

        if (crashed) {
            fabric.crashAll(mode, seed + event);
            // The declare fence is the point of no return: recovery
            // rolls a declared change forward to the target, and an
            // undeclared one stays at the old membership.
            fabric.recover();
        }

        unsigned count = fabric.shardCount();
        ASSERT_TRUE(count == from || count == target)
            << "event " << event << ": membership " << count
            << " is neither old nor new";
        ASSERT_FALSE(fabric.migrating()) << "event " << event;
        for (int i = 0; i < kRoots; ++i) {
            std::string key = "m" + std::to_string(i);
            Oop r = fabric.getRoot(key);
            ASSERT_FALSE(r.isNull())
                << "event " << event << ": lost root " << key;
            EXPECT_EQ(r.getI64(value_off), 600 + i)
                << "event " << event << " " << key;
            EXPECT_EQ(fabricRootBindings(fabric, key), 1u)
                << "event " << event << " " << key;
        }
        // The fabric accepts new routed work post-recovery.
        std::string probe = "probe" + std::to_string(event);
        PjhHeap *h = fabric.shard(fabric.shardIndexFor(probe));
        ASSERT_NE(h, nullptr) << "event " << event;
        Oop extra = h->allocInstance(klass);
        extra.setI64(value_off, 31337);
        h->flushObject(extra);
        fabric.setRoot(probe, extra);
        EXPECT_EQ(fabric.getRoot(probe).getI64(value_off), 31337)
            << "event " << event;
        if (testing::Test::HasFatalFailure())
            return;
        if (!crashed) {
            ASSERT_GT(event, 1u)
                << "membership change produced no events";
            ASSERT_EQ(count, target) << "clean run must commit";
            break;
        }
    }
}

TEST(CrashMatrixTest, FabricGrowMigrationSweepConservative)
{
    sweepFabricMigration(CrashMode::kDiscardUnflushed, 97, true);
}

TEST(CrashMatrixTest, FabricGrowMigrationSweepWithCacheEviction)
{
    sweepFabricMigration(CrashMode::kEvictRandomLines, 101, true);
}

TEST(CrashMatrixTest, FabricShrinkMigrationSweepConservative)
{
    sweepFabricMigration(CrashMode::kDiscardUnflushed, 103, false);
}

TEST(CrashMatrixTest, FabricShrinkMigrationSweepWithCacheEviction)
{
    sweepFabricMigration(CrashMode::kEvictRandomLines, 107, false);
}

TEST(CrashMatrixTest, FabricManifestCreateSweepConservative)
{
    sweepFabricManifest(CrashMode::kDiscardUnflushed, 79);
}

TEST(CrashMatrixTest, FabricManifestCreateSweepWithCacheEviction)
{
    sweepFabricManifest(CrashMode::kEvictRandomLines, 83);
}

} // namespace
} // namespace espresso
