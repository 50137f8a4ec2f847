/**
 * @file
 * Heap reloading (§3.3) and memory-safety levels (§3.4): clean
 * detach/load, in-place Klass reinitialization (including classes the
 * application never redefined), zeroing vs user-guaranteed safety,
 * and the remap/rebase path when the heap moves to a new address.
 */

#include <gtest/gtest.h>

#include "core/espresso.hh"
#include "util/logging.hh"

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

KlassDef
nodeDef()
{
    return KlassDef{
        "Node", "",
        {{"value", FieldType::kI64}, {"next", FieldType::kRef}},
        false};
}

class PjhReloadTest : public ::testing::Test
{
  protected:
    PjhReloadTest()
    {
        rt_ = std::make_unique<EspressoRuntime>();
        rt_->define(personDef());
        rt_->define(nodeDef());
        idOff_ = rt_->fieldOffset("Person", "id");
        nameOff_ = rt_->fieldOffset("Person", "name");
        valueOff_ = rt_->fieldOffset("Node", "value");
        nextOff_ = rt_->fieldOffset("Node", "next");
    }

    /** Build the canonical list heap: root -> n0 -> n1 -> ... */
    PjhHeap *
    buildListHeap(const std::string &name, int len)
    {
        PjhHeap *h = rt_->heaps().createHeap(name, 4u << 20);
        Oop head;
        for (int i = len - 1; i >= 0; --i) {
            Oop n = rt_->pnewInstance(h, "Node");
            n.setI64(valueOff_, i);
            n.setRef(nextOff_, head);
            h->flushObject(n);
            head = n;
        }
        h->setRoot("head", head);
        return h;
    }

    void
    verifyList(PjhHeap *h, int len)
    {
        Oop cur = h->getRoot("head");
        for (int i = 0; i < len; ++i) {
            ASSERT_FALSE(cur.isNull()) << "list truncated at " << i;
            EXPECT_EQ(cur.getI64(valueOff_), i);
            EXPECT_EQ(cur.klass()->name(), "Node");
            cur = Oop(cur.getRef(nextOff_));
        }
        EXPECT_TRUE(cur.isNull());
    }

    std::unique_ptr<EspressoRuntime> rt_;
    std::uint32_t idOff_ = 0, nameOff_ = 0, valueOff_ = 0, nextOff_ = 0;
};

TEST_F(PjhReloadTest, DetachThenLoadPreservesEverything)
{
    buildListHeap("list", 50);
    rt_->heaps().detachHeap("list");
    EXPECT_TRUE(rt_->heaps().existsHeap("list"));
    EXPECT_EQ(rt_->heaps().heap("list"), nullptr);

    PjhHeap *h = rt_->heaps().loadHeap("list");
    verifyList(h, 50);
    EXPECT_EQ(h->stats().rebases, 0u); // same mapping, no rebase
}

TEST_F(PjhReloadTest, LoadIntoAFreshRuntimeRebuildsKlassesFromImages)
{
    // Populate, detach, and migrate the device into a *new* runtime
    // that never defined Person/Node: class reinitialization must
    // reconstruct them from the Klass segment alone.
    buildListHeap("list", 10);
    {
        Oop p = rt_->pnewInstance(rt_->heaps().heap("list"), "Person");
        p.setI64(idOff_, 5);
        rt_->heaps().heap("list")->flushObject(p);
        rt_->heaps().heap("list")->setRoot("person", p);
    }
    rt_->heaps().detachHeap("list");
    NvmDevice *dev = rt_->heaps().deviceOf("list");

    EspressoRuntime fresh;
    ASSERT_EQ(fresh.registry().find("Node"), nullptr);
    auto heap = PjhHeap::attach(dev, &fresh.registry(),
                                SafetyLevel::kUserGuaranteed);
    ASSERT_NE(fresh.registry().find("Node"), nullptr);
    ASSERT_NE(fresh.registry().find("Person"), nullptr);
    EXPECT_EQ(fresh.registry().find("Person")->fieldOffset("id"), idOff_);

    Oop p = heap->getRoot("person");
    EXPECT_EQ(p.getI64(fresh.fieldOffset("Person", "id")), 5);
    Oop cur = heap->getRoot("head");
    EXPECT_EQ(cur.getI64(fresh.fieldOffset("Node", "value")), 0);
}

TEST_F(PjhReloadTest, MismatchedRedefinitionIsRejectedAtLoad)
{
    buildListHeap("list", 3);
    rt_->heaps().detachHeap("list");
    NvmDevice *dev = rt_->heaps().deviceOf("list");

    EspressoRuntime fresh;
    fresh.define(KlassDef{"Node", "", {{"value", FieldType::kI64}}, false});
    EXPECT_THROW(PjhHeap::attach(dev, &fresh.registry(),
                                 SafetyLevel::kUserGuaranteed),
                 FatalError);
}

TEST_F(PjhReloadTest, ZeroingSafetyNullifiesVolatilePointers)
{
    PjhHeap *h = buildListHeap("list", 5);
    // Hang a DRAM string off a persistent Person, plus a DRAM root.
    Oop p = rt_->pnewInstance(h, "Person");
    p.setI64(idOff_, 1);
    p.setRef(nameOff_, rt_->newString("dram"));
    h->flushObject(p);
    h->setRoot("person", p);

    rt_->heaps().detachHeap("list");
    PjhHeap *h2 = rt_->heaps().loadHeap("list", SafetyLevel::kZeroing);

    Oop p2 = h2->getRoot("person");
    ASSERT_FALSE(p2.isNull());
    EXPECT_EQ(p2.getI64(idOff_), 1);
    // The out-pointer became null instead of dangling.
    EXPECT_EQ(p2.getRef(nameOff_), kNullAddr);
    verifyList(h2, 5); // in-heap pointers untouched
}

TEST_F(PjhReloadTest, UserGuaranteedSafetyLeavesPointersAlone)
{
    PjhHeap *h = buildListHeap("list", 5);
    Oop p = rt_->pnewInstance(h, "Person");
    Oop dram = rt_->newString("dram");
    p.setRef(nameOff_, dram);
    h->flushObject(p);
    h->setRoot("person", p);
    Addr stale = dram.addr();

    rt_->heaps().detachHeap("list");
    PjhHeap *h2 =
        rt_->heaps().loadHeap("list", SafetyLevel::kUserGuaranteed);
    // The (dangling) pointer is preserved verbatim — user's problem.
    EXPECT_EQ(h2->getRoot("person").getRef(nameOff_), stale);
}

TEST_F(PjhReloadTest, MigrationForcesRebaseAndPreservesTheGraph)
{
    buildListHeap("list", 40);
    rt_->heaps().detachHeap("list");
    rt_->heaps().migrateHeap("list"); // new device => new addresses

    PjhHeap *h = rt_->heaps().loadHeap("list");
    EXPECT_EQ(h->stats().rebases, 1u);
    verifyList(h, 40);

    // The heap stays fully usable after a rebase.
    Oop extra = rt_->pnewInstance(h, "Node");
    extra.setI64(valueOff_, 999);
    h->flushObject(extra);
    h->setRoot("extra", extra);
    EXPECT_EQ(h->getRoot("extra").getI64(valueOff_), 999);
}

TEST_F(PjhReloadTest, MigrationPlusZeroingSafety)
{
    PjhHeap *h = buildListHeap("list", 8);
    Oop p = rt_->pnewInstance(h, "Person");
    p.setRef(nameOff_, rt_->newString("dram"));
    h->flushObject(p);
    h->setRoot("person", p);

    rt_->heaps().detachHeap("list");
    rt_->heaps().migrateHeap("list");
    PjhHeap *h2 = rt_->heaps().loadHeap("list", SafetyLevel::kZeroing);
    verifyList(h2, 8);
    EXPECT_EQ(h2->getRoot("person").getRef(nameOff_), kNullAddr);
}

TEST_F(PjhReloadTest, RepeatedDetachLoadCycles)
{
    buildListHeap("list", 20);
    for (int cycle = 0; cycle < 5; ++cycle) {
        rt_->heaps().detachHeap("list");
        PjhHeap *h = rt_->heaps().loadHeap("list");
        verifyList(h, 20);
        // Mutate durably each cycle.
        Oop head = h->getRoot("head");
        head.setI64(valueOff_, 0); // unchanged value, but exercise flush
        h->flushField(head, valueOff_);
    }
}

TEST_F(PjhReloadTest, UncleanLoadTouchesOnlyRegisteredChunks)
{
    // Every allocation lands in a registered TLAB chunk, so an unclean
    // load repairs those chunks only. Plant an unparseable header in
    // a chunk that attach has since retired; the load after a power
    // failure must leave it alone.
    PjhHeap *h = rt_->heaps().createHeap("list", 4u << 20);
    Oop planted;
    for (int i = 0; i < 10; ++i) {
        Oop n = rt_->pnewInstance(h, "Node");
        n.setI64(valueOff_, i);
        h->flushObject(n);
        if (i == 3)
            planted = n;
    }
    rt_->heaps().detachHeap("list");
    h = rt_->heaps().loadHeap("list"); // retires the slot table

    Oop ack = rt_->pnewInstance(h, "Node");
    ack.setI64(valueOff_, 4242);
    h->flushObject(ack);
    h->setRoot("ack", ack);
    const Addr klass_word = planted.addr() + ObjectLayout::kKlassOffset;
    storeWord(klass_word, 0);
    h->device().persist(klass_word, kWordSize);

    rt_->heaps().crashHeap("list");
    h = rt_->heaps().loadHeap("list", SafetyLevel::kUserGuaranteed);
    EXPECT_EQ(h->stats().tailRepairs, 0u);
    EXPECT_EQ(loadWord(klass_word), 0u);
    EXPECT_EQ(h->getRoot("ack").getI64(valueOff_), 4242);
}

TEST_F(PjhReloadTest, LoadTimeIsDominatedByKlassCountNotObjects)
{
    // The Fig. 18 property, as a coarse assertion: loading a heap
    // with 8x the objects must not cost anywhere near 8x under
    // user-guaranteed safety. (Precise curves live in the bench.)
    PjhHeap *small = rt_->heaps().createHeap("small", 16u << 20);
    PjhHeap *large = rt_->heaps().createHeap("large", 16u << 20);
    for (int i = 0; i < 1000; ++i) {
        Oop n = rt_->pnewInstance(small, "Node");
        n.setI64(valueOff_, i);
    }
    for (int i = 0; i < 8000; ++i) {
        Oop n = rt_->pnewInstance(large, "Node");
        n.setI64(valueOff_, i);
    }
    rt_->heaps().detachHeap("small");
    rt_->heaps().detachHeap("large");

    PjhHeap *s2 = rt_->heaps().loadHeap("small");
    PjhHeap *l2 = rt_->heaps().loadHeap("large");
    // Both loads bind the same number of Klasses; allow generous
    // noise but reject anything resembling linear scaling.
    EXPECT_LT(l2->stats().lastLoadBindNs,
              s2->stats().lastLoadBindNs * 6 + 2000000);
}

} // namespace
} // namespace espresso
