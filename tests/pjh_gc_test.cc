/**
 * @file
 * Persistent-space garbage collection (§4.2): liveness from root
 * table and DRAM roots, compaction correctness, reference fixup on
 * both sides of the heap boundary, timestamps, reclamation, and the
 * mutator safepoint of both cycle modes.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/espresso.hh"
#include "util/rng.hh"

namespace espresso {
namespace {

KlassDef
nodeDef()
{
    return KlassDef{
        "Node", "",
        {{"value", FieldType::kI64}, {"next", FieldType::kRef}},
        false};
}

class PjhGcTest : public ::testing::Test
{
  protected:
    PjhGcTest()
    {
        rt_ = std::make_unique<EspressoRuntime>();
        rt_->define(nodeDef());
        h_ = rt_->heaps().createHeap("gc", 4u << 20);
        valueOff_ = rt_->fieldOffset("Node", "value");
        nextOff_ = rt_->fieldOffset("Node", "next");
    }

    Oop
    pnode(std::int64_t v, Oop next = Oop())
    {
        Oop n = rt_->pnewInstance(h_, "Node");
        n.setI64(valueOff_, v);
        n.setRef(nextOff_, next);
        h_->flushObject(n);
        return n;
    }

    std::int64_t
    listSum(Oop head)
    {
        std::int64_t sum = 0;
        for (Oop cur = head; !cur.isNull();
             cur = Oop(cur.getRef(nextOff_)))
            sum += cur.getI64(valueOff_);
        return sum;
    }

    std::unique_ptr<EspressoRuntime> rt_;
    PjhHeap *h_ = nullptr;
    std::uint32_t valueOff_ = 0, nextOff_ = 0;
};

TEST_F(PjhGcTest, ReclaimsUnreachableObjects)
{
    Oop keep;
    for (int i = 0; i < 1000; ++i) {
        Oop n = pnode(i);
        if (i == 500)
            keep = n;
    }
    h_->setRoot("keep", keep);
    std::size_t used_before = h_->dataUsed();

    h_->collect(&rt_->heap());

    EXPECT_LT(h_->dataUsed(), used_before / 4);
    Oop kept = h_->getRoot("keep");
    EXPECT_EQ(kept.getI64(valueOff_), 500);
    EXPECT_EQ(h_->stats().collections, 1u);
}

TEST_F(PjhGcTest, PreservesListsThroughCompaction)
{
    const int kLen = 200;
    Oop head;
    for (int i = kLen - 1; i >= 0; --i)
        head = pnode(i, head);
    h_->setRoot("head", head);
    // Garbage interleaved during construction is already there (each
    // pnode above is reachable); add explicit garbage:
    for (int i = 0; i < 3000; ++i)
        pnode(-i);

    std::int64_t expected = listSum(h_->getRoot("head"));
    h_->collect(&rt_->heap());
    EXPECT_EQ(listSum(h_->getRoot("head")), expected);

    // Walk the compacted heap: every object must be parseable and a
    // Node (or filler).
    std::size_t count = 0;
    h_->forEachObject([&](Oop o) {
        ++count;
        EXPECT_EQ(o.klass()->name(), "Node");
    });
    EXPECT_EQ(count, static_cast<std::size_t>(kLen));
}

TEST_F(PjhGcTest, DramHandlesActAsRootsAndAreFixedUp)
{
    Oop n = pnode(42);
    Handle h = rt_->handles().create(n); // only a DRAM root, no PJH root
    for (int i = 0; i < 500; ++i)
        pnode(-i); // garbage below/around it

    h_->collect(&rt_->heap());

    Oop moved = h.get();
    ASSERT_FALSE(moved.isNull());
    EXPECT_TRUE(h_->containsData(moved.addr()));
    EXPECT_EQ(moved.getI64(valueOff_), 42);
    rt_->handles().release(h);

    // With the handle gone it becomes garbage.
    std::size_t used = h_->dataUsed();
    h_->collect(&rt_->heap());
    EXPECT_LT(h_->dataUsed(), used);
}

TEST_F(PjhGcTest, VolatileObjectsReferencingPjhAreRootsAndFixed)
{
    // A DRAM Node pointing into NVM: the NVM target must survive and
    // the DRAM slot must be updated when it moves.
    Oop pnvm = pnode(7);
    Oop dram = rt_->newInstance("Node");
    dram.setRef(nextOff_, pnvm);
    Handle hd = rt_->handles().create(dram);
    for (int i = 0; i < 500; ++i)
        pnode(-i);

    h_->collect(&rt_->heap());

    Oop target = Oop(hd.get().getRef(nextOff_));
    ASSERT_FALSE(target.isNull());
    EXPECT_TRUE(h_->containsData(target.addr()));
    EXPECT_EQ(target.getI64(valueOff_), 7);
    rt_->handles().release(hd);
}

TEST_F(PjhGcTest, NvmToDramPointersSurviveCollection)
{
    Oop p = pnode(1);
    Oop dram = rt_->newInstance("Node");
    dram.setI64(valueOff_, 1234);
    p.setRef(nextOff_, dram);
    Handle keep_dram = rt_->handles().create(dram);
    h_->setRoot("p", p);
    for (int i = 0; i < 300; ++i)
        pnode(-i);

    h_->collect(&rt_->heap());

    Oop p2 = h_->getRoot("p");
    Oop out = Oop(p2.getRef(nextOff_));
    ASSERT_FALSE(out.isNull());
    EXPECT_FALSE(h_->containsData(out.addr()));
    EXPECT_EQ(out.getI64(valueOff_), 1234);
    rt_->handles().release(keep_dram);
}

TEST_F(PjhGcTest, TimestampsAdvanceEachCollection)
{
    Oop n = pnode(1);
    h_->setRoot("n", n);
    Word ts0 = h_->meta().globalTimestamp;
    h_->collect(&rt_->heap());
    EXPECT_EQ(h_->meta().globalTimestamp, ts0 + 1);
    EXPECT_EQ(h_->getRoot("n").gcTimestamp(),
              static_cast<std::uint16_t>(ts0 + 1));
    h_->collect(&rt_->heap());
    EXPECT_EQ(h_->meta().globalTimestamp, ts0 + 2);
    EXPECT_EQ(h_->getRoot("n").gcTimestamp(),
              static_cast<std::uint16_t>(ts0 + 2));
    EXPECT_EQ(h_->meta().gcInProgress, 0u);
}

TEST_F(PjhGcTest, CollectionIsTriggeredByAllocationPressure)
{
    // Fill the heap with garbage; pnew must trigger GC and succeed.
    h_->setRoot("keep", pnode(1));
    for (int i = 0; i < 200000; ++i)
        pnode(i);
    EXPECT_GT(h_->stats().collections, 0u);
    EXPECT_EQ(h_->getRoot("keep").getI64(valueOff_), 1);
}

TEST_F(PjhGcTest, EmptyAndIdempotentCollections)
{
    h_->collect(&rt_->heap()); // nothing live but filler-free heap
    std::size_t used = h_->dataUsed();
    h_->collect(&rt_->heap());
    EXPECT_EQ(h_->dataUsed(), used);

    Oop head;
    for (int i = 0; i < 50; ++i)
        head = pnode(i, head);
    h_->setRoot("head", head);
    std::int64_t expected = listSum(h_->getRoot("head"));
    h_->collect(&rt_->heap());
    std::size_t used2 = h_->dataUsed();
    h_->collect(&rt_->heap());
    EXPECT_EQ(h_->dataUsed(), used2); // stable graph, stable heap
    EXPECT_EQ(listSum(h_->getRoot("head")), expected);
}

TEST_F(PjhGcTest, SurvivesCollectionThenReload)
{
    Oop head;
    for (int i = 49; i >= 0; --i)
        head = pnode(i, head);
    h_->setRoot("head", head);
    for (int i = 0; i < 1000; ++i)
        pnode(-i);
    h_->collect(&rt_->heap());

    rt_->heaps().detachHeap("gc");
    PjhHeap *h2 = rt_->heaps().loadHeap("gc");
    Oop cur = h2->getRoot("head");
    for (int i = 0; i < 50; ++i) {
        ASSERT_FALSE(cur.isNull());
        EXPECT_EQ(cur.getI64(valueOff_), i);
        cur = Oop(cur.getRef(nextOff_));
    }
}

TEST_F(PjhGcTest, ParallelCollectionPreservesGraphsAndCounts)
{
    h_->setGcThreads(4);
    const int kLists = 8, kLen = 150;
    std::vector<std::int64_t> expected;
    for (int l = 0; l < kLists; ++l) {
        Oop head;
        for (int i = 0; i < kLen; ++i)
            head = pnode(l * 1000 + i, head);
        h_->setRoot("list" + std::to_string(l), head);
        expected.push_back(listSum(head));
        for (int g = 0; g < 400; ++g)
            pnode(-g); // interleaved garbage
    }

    h_->collect(&rt_->heap());

    EXPECT_EQ(h_->stats().lastGcMarked,
              static_cast<std::uint64_t>(kLists * kLen));
    std::size_t count = 0;
    h_->forEachObject([&](Oop o) {
        ++count;
        EXPECT_EQ(o.klass()->name(), "Node");
    });
    EXPECT_EQ(count, static_cast<std::size_t>(kLists * kLen));
    for (int l = 0; l < kLists; ++l)
        EXPECT_EQ(listSum(h_->getRoot("list" + std::to_string(l))),
                  expected[l])
            << "list " << l;

    // Idempotence with slice-local packing: a second parallel
    // collection of the stable graph keeps every list intact.
    h_->collect(&rt_->heap());
    for (int l = 0; l < kLists; ++l)
        EXPECT_EQ(listSum(h_->getRoot("list" + std::to_string(l))),
                  expected[l])
            << "list " << l << " after second collection";
}

TEST_F(PjhGcTest, ParallelCollectionHandlesRegionStraddlers)
{
    // 48-byte objects do not divide the 64 KiB region size, so once
    // packed contiguously, live objects straddle region boundaries.
    // Slice planning must only cut where no object straddles —
    // regression test for slice-split straddlers.
    rt_->define({"Fat",
                 "",
                 {{"value", FieldType::kI64},
                  {"next", FieldType::kRef},
                  {"pad1", FieldType::kI64},
                  {"pad2", FieldType::kI64}},
                 false});
    std::uint32_t v_off = rt_->fieldOffset("Fat", "value");
    std::uint32_t n_off = rt_->fieldOffset("Fat", "next");
    h_->setGcThreads(8);

    // Aperiodic garbage interleaving: a periodic layout can make
    // every live-balanced cut point land on an object boundary by
    // coincidence, hiding the straddler case this test exists for.
    Rng rng(42);
    const int kLen = 8000; // ~375 KiB live, ~6 regions when packed
    Oop head;
    std::int64_t expected = 0;
    for (int i = 0; i < kLen; ++i) {
        Oop o = rt_->pnewInstance(h_, "Fat");
        o.setI64(v_off, i);
        o.setRef(n_off, head);
        h_->flushObject(o);
        head = o;
        expected += i;
        for (std::uint64_t g = rng.nextBelow(3); g > 0; --g)
            pnode(-i);
    }
    h_->setRoot("fat", head);

    auto fat_sum = [&]() {
        std::int64_t sum = 0;
        int len = 0;
        for (Oop cur = h_->getRoot("fat"); !cur.isNull();
             cur = Oop(cur.getRef(n_off))) {
            sum += cur.getI64(v_off);
            ++len;
        }
        EXPECT_EQ(len, kLen);
        return sum;
    };

    // First collection packs the survivors contiguously; the second
    // and third compact a heap whose region boundaries are straddled.
    for (int pass = 0; pass < 3; ++pass) {
        h_->collect(&rt_->heap());
        ASSERT_EQ(fat_sum(), expected) << "pass " << pass;
        std::size_t count = 0;
        h_->forEachObject([&](Oop o) {
            ++count;
            EXPECT_EQ(o.klass()->name(), "Fat");
        });
        ASSERT_EQ(count, static_cast<std::size_t>(kLen))
            << "pass " << pass;
    }
    // The packed heap still yields a multi-slice plan (48-byte
    // packing aligns with a region boundary every 3 regions), so
    // this test really exercises parallel slices over straddlers.
    EXPECT_GT(h_->meta().gcSliceCount, 1u);
}

TEST_F(PjhGcTest, StaleVolatileSlotIntoFillerIsNotForwarded)
{
    // A DRAM object whose ref field points at the active TLAB's
    // trailing filler — the stale-handle shape left behind by
    // retired TLABs. The filler must be neither retained by the mark
    // phase nor forwarded into whatever lands at its destination.
    Oop keep = pnode(7);
    h_->setRoot("keep", keep);
    Addr filler = keep.addr() + 32; // Node is 32 bytes; tail follows
    ASSERT_TRUE(h_->containsData(filler));
    Oop dram = rt_->newInstance("Node");
    dram.setRef(nextOff_, Oop(filler));
    Handle hd = rt_->handles().create(dram);

    h_->collect(&rt_->heap());

    // The filler was not treated as live: only the rooted Node
    // survives (a retained 64 KiB TLAB filler would dwarf it).
    EXPECT_EQ(h_->stats().lastGcMarked, 1u);
    EXPECT_LT(h_->dataUsed(), 1024u);
    std::size_t count = 0;
    h_->forEachObject([&](Oop) { ++count; });
    EXPECT_EQ(count, 1u);
    // The stale slot was left alone, not forwarded into garbage.
    EXPECT_EQ(Oop(hd.get().getRef(nextOff_)).addr(), filler);
    rt_->handles().release(hd);
}

TEST_F(PjhGcTest, GcStatsSurviveReload)
{
    Oop head;
    for (int i = 0; i < 32; ++i)
        head = pnode(i, head);
    h_->setRoot("head", head);
    for (int i = 0; i < 500; ++i)
        pnode(-i);
    h_->collect(&rt_->heap());
    ASSERT_EQ(h_->stats().lastGcMarked, 32u);

    rt_->heaps().detachHeap("gc");
    PjhHeap *h2 = rt_->heaps().loadHeap("gc");
    EXPECT_EQ(h2->stats().lastGcMarked, 32u);
    EXPECT_EQ(h2->stats().collections, 1u);
    EXPECT_EQ(h2->meta().gcCollections, 1u);
}

TEST_F(PjhGcTest, RandomSharedGraphsSurviveRepeatedCollections)
{
    Rng rng(7);
    std::vector<Oop> pool;
    std::vector<std::string> roots;
    for (int i = 0; i < 400; ++i) {
        Oop next =
            pool.empty() ? Oop() : pool[rng.nextBelow(pool.size())];
        Oop n = pnode(i, next);
        pool.push_back(n);
        if (rng.nextBelow(8) == 0) {
            std::string rname = "r" + std::to_string(i);
            h_->setRoot(rname, n);
            roots.push_back(rname);
        }
    }
    ASSERT_FALSE(roots.empty());

    auto checksum = [&]() {
        std::int64_t sum = 0;
        for (const auto &r : roots)
            sum += listSum(h_->getRoot(r));
        return sum;
    };
    std::int64_t before = checksum();
    for (int i = 0; i < 4; ++i) {
        for (int g = 0; g < 500; ++g)
            pnode(-g);
        h_->collect(&rt_->heap());
        EXPECT_EQ(checksum(), before) << "iteration " << i;
    }
}

TEST_F(PjhGcTest, ConcurrentCycleCollectsAndRecordsStats)
{
    h_->setGcConcurrent(true);
    const int kLen = 200;
    Oop head;
    for (int i = kLen - 1; i >= 0; --i)
        head = pnode(i, head);
    h_->setRoot("head", head);
    for (int i = 0; i < 3000; ++i)
        pnode(-i);
    std::int64_t expected = listSum(h_->getRoot("head"));

    h_->collect(&rt_->heap());

    EXPECT_EQ(listSum(h_->getRoot("head")), expected);
    std::size_t count = 0;
    h_->forEachObject([&](Oop) { ++count; });
    EXPECT_EQ(count, static_cast<std::size_t>(kLen));
    EXPECT_EQ(h_->stats().collections, 1u);
    EXPECT_EQ(h_->stats().lastGcMarked, static_cast<std::uint64_t>(kLen));
    EXPECT_EQ(h_->meta().gcMarkEpoch, 1u);
    EXPECT_EQ(h_->meta().gcMarkingActive, 0u);
    // No mutators raced this cycle: nothing shaded, nothing floating.
    EXPECT_EQ(h_->stats().lastGcShaded, 0u);
    EXPECT_EQ(h_->stats().lastGcFloating, 0u);

    h_->collect(&rt_->heap());
    EXPECT_EQ(h_->meta().gcMarkEpoch, 2u);
    EXPECT_EQ(h_->stats().collections, 2u);

    // The per-cycle record survives detach/reload.
    rt_->heaps().detachHeap("gc");
    PjhHeap *h2 = rt_->heaps().loadHeap("gc");
    EXPECT_EQ(h2->meta().gcMarkEpoch, 2u);
    EXPECT_EQ(h2->stats().lastGcMarked, static_cast<std::uint64_t>(kLen));
    EXPECT_EQ(h2->stats().markDiscards, 0u);
}

TEST_F(PjhGcTest, SatbBarrierKeepsSnapshotAliveOneCycle)
{
    h_->setGcConcurrent(true);
    const int kLen = 3000;
    Oop head;
    std::set<std::int64_t> old_values;
    for (int i = kLen - 1; i >= 0; --i) {
        head = pnode(i, head);
        old_values.insert(i);
    }
    h_->setRoot("head", head);

    // Hold the cycle in kMarking after its first trace until the
    // overwrite below has landed, so it lands mid-mark every run.
    std::atomic<bool> ops_landed{false};
    h_->setMarkingHook([&ops_landed]() {
        while (!ops_landed.load(std::memory_order_acquire))
            std::this_thread::yield();
    });
    std::atomic<bool> done{false};
    std::thread collector([&]() {
        h_->collect(&rt_->heap());
        done.store(true, std::memory_order_release);
    });
    while (!done.load(std::memory_order_acquire) &&
           !h_->markingConcurrently())
        std::this_thread::yield();
    bool during_mark;
    {
        // Drop the whole old list by republishing the root. Under
        // SATB the overwritten snapshot must survive *this* cycle.
        PjhHeap::MutatorSection ms(*h_);
        bool mark_before = h_->markingConcurrently();
        Oop fresh = rt_->pnewInstance(h_, "Node");
        fresh.setI64(valueOff_, 777777);
        h_->flushObject(fresh);
        h_->setRoot("head", fresh);
        // Phase moves kMarking -> kPaused monotonically within a
        // cycle, so marking observed on both sides brackets the ops.
        during_mark = mark_before && h_->markingConcurrently();
    }
    ops_landed.store(true, std::memory_order_release);
    collector.join();
    h_->setMarkingHook(nullptr);

    EXPECT_EQ(h_->getRoot("head").getI64(valueOff_), 777777);
    std::set<std::int64_t> seen;
    h_->forEachObject(
        [&](Oop o) { seen.insert(o.getI64(valueOff_)); });
    for (std::int64_t v : old_values) {
        ASSERT_TRUE(seen.count(v))
            << "snapshot value " << v
            << " collected in the cycle it was dropped";
    }
    // The ops landed mid-mark, so the deletion barrier, not the
    // initial snapshot, kept it.
    EXPECT_TRUE(during_mark);
    EXPECT_GE(h_->stats().lastGcShaded + h_->stats().lastGcFloating, 1u);

    // The next cycle reclaims the dropped list: it is garbage now.
    h_->collect(&rt_->heap());
    std::size_t live = 0;
    h_->forEachObject([&](Oop) { ++live; });
    EXPECT_EQ(live, 1u);
}

TEST_F(PjhGcTest, StwCollectionWaitsOutMutatorSections)
{
    // An STW cycle holds the safepoint from start to finish: a thread
    // looping MutatorSection{pnew, flushObject, setRoot} waits each
    // cycle out instead of racing it, and every root it published
    // survives with the value it last stored.
    h_->setGcConcurrent(false);
    constexpr int kRoots = 64;
    constexpr int kCycles = 5;
    std::atomic<bool> stop{false};
    std::atomic<int> published{0};
    std::thread mutator([&]() {
        for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
            {
                PjhHeap::MutatorSection ms(*h_);
                Oop n = rt_->pnewInstance(h_, "Node");
                n.setI64(valueOff_, i);
                h_->flushObject(n);
                h_->setRoot("m" + std::to_string(i % kRoots), n);
            }
            published.store(i + 1, std::memory_order_release);
        }
    });
    for (int c = 1; c <= kCycles; ++c) {
        while (published.load(std::memory_order_acquire) < c * 200)
            std::this_thread::yield();
        h_->collect(&rt_->heap());
    }
    stop.store(true, std::memory_order_relaxed);
    mutator.join();

    int n = published.load(std::memory_order_acquire);
    ASSERT_GE(n, kCycles * 200);
    for (int k = 0; k < kRoots; ++k) {
        Oop r = h_->getRoot("m" + std::to_string(k));
        ASSERT_FALSE(r.isNull()) << "root m" << k;
        EXPECT_EQ(r.getI64(valueOff_), k + (n - 1 - k) / kRoots * kRoots)
            << "root m" << k;
    }
    EXPECT_GE(h_->stats().collections, static_cast<std::uint64_t>(kCycles));
    h_->forEachObject(
        [&](Oop o) { EXPECT_EQ(o.klass()->name(), "Node"); });
}

TEST_F(PjhGcTest, CollectionTriggeredInsideOwnSectionReturns)
{
    // Allocation pressure inside the caller's own MutatorSection: the
    // triggered cycle's safepoint drains to the caller's bracket depth
    // instead of waiting for that section to exit.
    for (bool concurrent : {false, true}) {
        SCOPED_TRACE(concurrent ? "concurrent" : "stw");
        EspressoRuntime rt;
        rt.define(nodeDef());
        std::uint32_t off = rt.fieldOffset("Node", "value");
        PjhHeap *h = rt.heaps().createHeap("small", 1u << 20);
        h->setGcConcurrent(concurrent);
        Oop keep = rt.pnewInstance(h, "Node");
        keep.setI64(off, 4242);
        h->flushObject(keep);
        h->setRoot("keep", keep);
        {
            PjhHeap::MutatorSection ms(*h);
            for (int i = 0; i < 200000; ++i)
                rt.pnewInstance(h, "Node");
        }
        EXPECT_GT(h->stats().collections, 0u);
        EXPECT_EQ(h->getRoot("keep").getI64(off), 4242);
        EXPECT_EQ(h->gcPhase(), GcPhase::kIdle);
    }
}

TEST_F(PjhGcTest, CollectionsTriggeredInsideTwoSectionsReturn)
{
    // Two threads fill the heap inside their own MutatorSections. The
    // first trigger's cycle drains the other thread's section; that
    // thread's own trigger then waits for the cycle lock, and must
    // step out of its section while it does.
    for (bool concurrent : {false, true}) {
        SCOPED_TRACE(concurrent ? "concurrent" : "stw");
        EspressoRuntime rt;
        rt.define(nodeDef());
        PjhHeap *h = rt.heaps().createHeap("small", 1u << 20);
        h->setGcConcurrent(concurrent);
        std::vector<std::thread> fillers;
        for (int t = 0; t < 2; ++t) {
            fillers.emplace_back([&]() {
                PjhHeap::MutatorSection ms(*h);
                for (int i = 0; i < 100000; ++i)
                    rt.pnewInstance(h, "Node");
            });
        }
        for (std::thread &t : fillers)
            t.join();
        EXPECT_GT(h->stats().collections, 1u);
        EXPECT_EQ(h->gcPhase(), GcPhase::kIdle);
    }
}

TEST_F(PjhGcTest, StwCyclesAdvanceTheMarkEpoch)
{
    // Every cycle arms and retires the marking-epoch record, so
    // gcMarkEpoch counts STW cycles as well as concurrent ones.
    h_->setRoot("n", pnode(1));
    Word epoch = h_->meta().gcMarkEpoch;
    h_->setGcConcurrent(false);
    h_->collect(&rt_->heap());
    EXPECT_EQ(h_->meta().gcMarkEpoch, epoch + 1);
    EXPECT_EQ(h_->meta().gcMarkingActive, 0u);
    h_->setGcConcurrent(true);
    h_->collect(&rt_->heap());
    h_->setGcConcurrent(false);
    h_->collect(&rt_->heap());
    EXPECT_EQ(h_->meta().gcMarkEpoch, epoch + 3);
    EXPECT_EQ(h_->meta().gcMarkingActive, 0u);
    EXPECT_EQ(h_->getRoot("n").getI64(valueOff_), 1);
}

/** Sets an environment variable for one scope, restoring it after. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name))
            old_ = old;
        setenv(name, value, 1);
    }
    ~ScopedEnv()
    {
        if (old_)
            setenv(name_, old_->c_str(), 1);
        else
            unsetenv(name_);
    }

  private:
    const char *name_;
    std::optional<std::string> old_;
};

TEST(PjhGcEnvTest, MalformedKnobsKeepTheDefaults)
{
    // A lenient parser reads "false" as on and "4x" as 4; both must
    // warn and keep the heap defaults (STW, one GC thread).
    ScopedEnv conc("ESPRESSO_GC_CONCURRENT", "false");
    ScopedEnv threads("ESPRESSO_GC_THREADS", "4x");
    EspressoRuntime rt;
    PjhHeap *h = rt.heaps().createHeap("env", 1u << 20);
    EXPECT_FALSE(h->gcConcurrent());
    EXPECT_EQ(h->gcThreads(), 1u);
}

} // namespace
} // namespace espresso
