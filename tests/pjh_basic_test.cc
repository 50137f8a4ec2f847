/**
 * @file
 * PJH basics: creation, pnew allocation, the name table and root
 * APIs (Table 1), flush APIs (§3.5), type-based safety (§3.4), heap
 * walking, and the undo log.
 */

#include <gtest/gtest.h>

#include <functional>
#include <thread>

#include "core/espresso.hh"
#include "util/logging.hh"
#include "pjh/klass_segment.hh"

namespace espresso {
namespace {

KlassDef
personDef()
{
    return KlassDef{
        "Person", "",
        {{"id", FieldType::kI64}, {"name", FieldType::kRef}},
        false};
}

class PjhBasicTest : public ::testing::Test
{
  protected:
    PjhBasicTest()
    {
        rt_ = std::make_unique<EspressoRuntime>();
        rt_->define(personDef());
        h_ = rt_->heaps().createHeap("Jimmy", 4u << 20);
        idOff_ = rt_->fieldOffset("Person", "id");
        nameOff_ = rt_->fieldOffset("Person", "name");
    }

    std::unique_ptr<EspressoRuntime> rt_;
    PjhHeap *h_ = nullptr;
    std::uint32_t idOff_ = 0;
    std::uint32_t nameOff_ = 0;
};

TEST_F(PjhBasicTest, CreateAndExists)
{
    EXPECT_TRUE(rt_->heaps().existsHeap("Jimmy"));
    EXPECT_FALSE(rt_->heaps().existsHeap("Nobody"));
    EXPECT_EQ(rt_->heaps().heap("Jimmy"), h_);
    EXPECT_THROW(rt_->heaps().createHeap("Jimmy", 1u << 20), FatalError);
}

TEST_F(PjhBasicTest, PnewAllocatesInPersistentSpace)
{
    Oop p = rt_->pnewInstance(h_, "Person");
    EXPECT_TRUE(h_->containsData(p.addr()));
    EXPECT_FALSE(rt_->heap().contains(p.addr()));
    EXPECT_TRUE(p.hasKlassImage());
    EXPECT_EQ(p.klass()->name(), "Person");
    EXPECT_EQ(p.klass()->memKind(), MemKind::kPersistent);
    EXPECT_EQ(p.getI64(idOff_), 0); // zeroed
}

TEST_F(PjhBasicTest, PnewArraysOfAllShapes)
{
    Oop longs = rt_->pnewI64Array(h_, 10);
    EXPECT_EQ(longs.arrayLength(), 10u);
    longs.setI64(ObjectLayout::kArrayHeaderSize + 3 * 8, 99);

    Oop chars = rt_->pnewString(h_, "espresso");
    EXPECT_EQ(EspressoRuntime::readString(chars), "espresso");

    Oop people = rt_->pnewRefArray(h_, "Person", 4);
    Oop p = rt_->pnewInstance(h_, "Person");
    people.setRefElem(2, p.addr());
    EXPECT_EQ(Oop(people.getRefElem(2)), p);
    EXPECT_EQ(people.klass()->name(), "[LPerson;");
}

TEST_F(PjhBasicTest, RootsRoundTrip)
{
    Oop p = rt_->pnewInstance(h_, "Person");
    p.setI64(idOff_, 77);
    h_->setRoot("Jimmy_info", p);
    EXPECT_TRUE(h_->hasRoot("Jimmy_info"));
    EXPECT_EQ(h_->getRoot("Jimmy_info"), p);
    EXPECT_FALSE(h_->hasRoot("missing"));
    EXPECT_TRUE(h_->getRoot("missing").isNull());

    // Roots are reassignable, including to null.
    Oop q = rt_->pnewInstance(h_, "Person");
    h_->setRoot("Jimmy_info", q);
    EXPECT_EQ(h_->getRoot("Jimmy_info"), q);
    h_->setRoot("Jimmy_info", Oop());
    EXPECT_TRUE(h_->getRoot("Jimmy_info").isNull());
}

TEST_F(PjhBasicTest, SetRootRejectsForeignObjects)
{
    Oop volatile_p = rt_->newInstance("Person");
    EXPECT_THROW(h_->setRoot("bad", volatile_p), FatalError);
}

TEST_F(PjhBasicTest, FlushApisMakeDataDurable)
{
    Oop p = rt_->pnewInstance(h_, "Person");
    h_->setRoot("p", p);
    p.setI64(idOff_, 123);
    h_->flushField(p, idOff_); // Field.flush(x)

    Oop arr = rt_->pnewI64Array(h_, 8);
    h_->setRoot("arr", arr);
    arr.setI64(ObjectLayout::kArrayHeaderSize + 3 * 8, 55);
    h_->flushArrayElement(arr, 3); // Array.flush(z, 3)

    Oop q = rt_->pnewInstance(h_, "Person");
    h_->setRoot("q", q);
    q.setI64(idOff_, 9);
    h_->flushObject(q); // coarse-grained Object.flush

    rt_->heaps().crashHeap("Jimmy");
    PjhHeap *h2 = rt_->heaps().loadHeap("Jimmy");
    EXPECT_EQ(h2->getRoot("p").getI64(idOff_), 123);
    EXPECT_EQ(h2->getRoot("arr").getI64(
                  ObjectLayout::kArrayHeaderSize + 3 * 8),
              55);
    EXPECT_EQ(h2->getRoot("q").getI64(idOff_), 9);
}

TEST_F(PjhBasicTest, UnflushedFieldDataDiesInACrash)
{
    Oop p = rt_->pnewInstance(h_, "Person");
    h_->setRoot("p", p);
    p.setI64(idOff_, 123); // never flushed
    rt_->heaps().crashHeap("Jimmy");
    PjhHeap *h2 = rt_->heaps().loadHeap("Jimmy");
    // Metadata (header, root) survives; the field write does not.
    Oop p2 = h2->getRoot("p");
    ASSERT_FALSE(p2.isNull());
    EXPECT_EQ(p2.klass()->name(), "Person");
    EXPECT_EQ(p2.getI64(idOff_), 0);
}

TEST_F(PjhBasicTest, MixedNvmDramPointersAreAllowed)
{
    // §3.2: pnew'ed objects may reference DRAM.
    Oop p = rt_->pnewInstance(h_, "Person");
    Oop dram_name = rt_->newString("volatile-name");
    p.setRef(nameOff_, dram_name);
    EXPECT_EQ(Oop(p.getRef(nameOff_)), dram_name);

    // The volatile GC must treat the NVM slot as a root.
    Handle keep = rt_->handles().create(p); // (not required, p is in NVM)
    rt_->heap().collectYoung();
    Oop moved = Oop(p.getRef(nameOff_));
    ASSERT_FALSE(moved.isNull());
    EXPECT_EQ(EspressoRuntime::readString(moved), "volatile-name");
    rt_->handles().release(keep);
}

TEST_F(PjhBasicTest, TypeBasedSafetyRefusesOutPointers)
{
    rt_->define(KlassDef{
        "SafeBox", "", {{"ref", FieldType::kRef}}, /*persistentOnly=*/true});
    Oop box = rt_->pnewInstance(h_, "SafeBox");
    std::uint32_t ref_off = rt_->fieldOffset("SafeBox", "ref");

    Oop persistent = rt_->pnewInstance(h_, "Person");
    EXPECT_NO_THROW(h_->storeRef(box, ref_off, persistent));

    Oop dram = rt_->newInstance("Person");
    EXPECT_THROW(h_->storeRef(box, ref_off, dram), MemorySafetyError);
    // Nulls are always fine.
    EXPECT_NO_THROW(h_->storeRef(box, ref_off, Oop()));
}

TEST_F(PjhBasicTest, HeapWalkSeesEveryAllocation)
{
    std::size_t baseline = 0;
    h_->forEachObject([&](Oop) { ++baseline; });
    for (int i = 0; i < 25; ++i)
        rt_->pnewInstance(h_, "Person");
    rt_->pnewI64Array(h_, 100);
    std::size_t count = 0;
    h_->forEachObject([&](Oop) { ++count; });
    EXPECT_EQ(count, baseline + 26);
}

TEST_F(PjhBasicTest, PnewIntoAnOpenChunkCostsOneFence)
{
    // A pnew into the open TLAB chunk stages the chunk's new trailing
    // filler and persists the header under one fence, whether or not
    // a remainder is left behind — in a slot of its own and in a slot
    // that a thread past the 64th shares.
    Klass *person = rt_->registry().resolve("Person", MemKind::kPersistent);
    Klass *longs =
        rt_->registry().arrayOf(FieldType::kI64, MemKind::kPersistent);
    // Room for a chunk per slot plus the carves below, so no
    // collection retires the open chunks mid-test.
    PjhHeap *heap = rt_->heaps().createHeap("slots", 16u << 20);
    const NvmStats &st = rt_->heaps().deviceOf("slots")->stats();

    auto pnews_cost_one_fence = [&]() {
        // Open (or join) this thread's chunk; persist both Klass
        // images.
        Oop last = heap->allocInstance(person);
        const std::size_t person_bytes = last.sizeInBytes();
        last = heap->allocArray(longs, 4);

        auto fences = [&](const std::function<Oop()> &alloc) {
            std::uint64_t before = st.fences.load();
            last = alloc();
            return st.fences.load() - before;
        };
        // Bytes left past the latest allocation in its registered
        // chunk.
        auto chunk_left = [&]() -> std::size_t {
            const PjhMetadata &meta = heap->meta();
            Addr off = last.addr() - heap->dataBase();
            for (std::size_t i = 0; i < PjhMetadata::kMaxTlabSlots; ++i) {
                if (meta.tlabSlotStart(i) <= off && off < meta.tlabSlotEnd(i))
                    return meta.tlabSlotEnd(i) - off - last.sizeInBytes();
            }
            ADD_FAILURE() << "allocation outside every registered chunk";
            return 0;
        };

        // With a remainder.
        EXPECT_EQ(fences([&] { return heap->allocInstance(person); }), 1u);
        EXPECT_EQ(fences([&] { return heap->allocArray(longs, 7); }), 1u);

        // An array that leaves room for exactly one Person, then that
        // Person: an instance exact fit (rem == 0).
        std::uint64_t len = (chunk_left() - person_bytes -
                             ObjectLayout::kArrayHeaderSize) /
                            kWordSize;
        EXPECT_EQ(fences([&] { return heap->allocArray(longs, len); }), 1u);
        ASSERT_EQ(chunk_left(), person_bytes);
        EXPECT_EQ(fences([&] { return heap->allocInstance(person); }), 1u);
        EXPECT_EQ(chunk_left(), 0u);

        // The next pnew carves a second chunk; an array sized to all
        // of what it leaves is an array exact fit.
        last = heap->allocInstance(person);
        len = (chunk_left() - ObjectLayout::kArrayHeaderSize) / kWordSize;
        EXPECT_EQ(fences([&] { return heap->allocArray(longs, len); }), 1u);
        EXPECT_EQ(chunk_left(), 0u);
    };

    // The test thread takes ordinal 0: the first slot, its own.
    pnews_cost_one_fence();

    // 64 short-lived threads take ordinals 1..64, so the next thread's
    // ordinal is past the slot table and its slot is shared with a
    // thread that already opened a chunk there.
    for (std::size_t i = 0; i < PjhMetadata::kMaxTlabSlots; ++i)
        std::thread([&] { heap->allocInstance(person); }).join();
    std::thread([&] {
        const Addr top = heap->dataTop();
        heap->allocInstance(person);
        EXPECT_EQ(heap->dataTop(), top) << "the shared slot's chunk was "
                                           "not open";
        pnews_cost_one_fence();
    }).join();
}

TEST_F(PjhBasicTest, AllocationFailsCleanlyWhenFull)
{
    PjhConfig tiny;
    tiny.dataSize = 64u << 10;
    PjhHeap *small = rt_->heaps().createHeap("tiny", tiny);
    small->setGcTrigger({}); // no collector: exhaust and fail
    EXPECT_THROW(
        {
            for (int i = 0; i < 100000; ++i)
                rt_->pnewInstance(small, "Person");
        },
        FatalError);
}

TEST_F(PjhBasicTest, OversizedObjectIsRejected)
{
    PjhConfig cfg;
    cfg.dataSize = 8u << 20;
    cfg.bounceSize = 64u << 10;
    PjhHeap *heap = rt_->heaps().createHeap("bounded", cfg);
    EXPECT_THROW(rt_->pnewI64Array(heap, 1u << 20), FatalError);
}

TEST_F(PjhBasicTest, UndoLogCommitAndAbort)
{
    Oop p = rt_->pnewInstance(h_, "Person");
    h_->setRoot("p", p);
    p.setI64(idOff_, 10);
    h_->flushField(p, idOff_);

    UndoLog &log = h_->undoLog();

    // Abort restores the old value.
    log.begin();
    log.record(p.addr() + idOff_, 8);
    p.setI64(idOff_, 20);
    log.abort();
    EXPECT_EQ(p.getI64(idOff_), 10);

    // Commit keeps and persists the new value.
    log.begin();
    log.record(p.addr() + idOff_, 8);
    p.setI64(idOff_, 30);
    log.commit();
    EXPECT_EQ(p.getI64(idOff_), 30);

    rt_->heaps().crashHeap("Jimmy");
    PjhHeap *h2 = rt_->heaps().loadHeap("Jimmy");
    EXPECT_EQ(h2->getRoot("p").getI64(idOff_), 30);
}

TEST_F(PjhBasicTest, UndoLogRollsBackAcrossACrash)
{
    Oop p = rt_->pnewInstance(h_, "Person");
    h_->setRoot("p", p);
    p.setI64(idOff_, 10);
    h_->flushField(p, idOff_);

    UndoLog &log = h_->undoLog();
    log.begin();
    log.record(p.addr() + idOff_, 8);
    p.setI64(idOff_, 999);
    h_->flushField(p, idOff_); // even persisted, it must roll back

    rt_->heaps().crashHeap("Jimmy");
    PjhHeap *h2 = rt_->heaps().loadHeap("Jimmy");
    EXPECT_EQ(h2->getRoot("p").getI64(idOff_), 10);
    EXPECT_FALSE(h2->undoLog().active());
}

} // namespace
} // namespace espresso
