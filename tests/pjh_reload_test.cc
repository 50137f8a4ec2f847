/**
 * @file
 * Heap reloading (§3.3) and memory-safety levels (§3.4): clean
 * detach/load, in-place Klass reinitialization (including classes the
 * application never redefined), zeroing vs user-guaranteed safety,
 * and the remap/rebase path when the heap moves to a new address.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/espresso.hh"
#include "util/logging.hh"

namespace espresso {
namespace {

/** A PJH image's geometry, read from its metadata whether or not the
 * heap is attached. Addresses are current ones; stored addresses plus
 * delta give current ones (non-zero only before a rebase). */
struct RawImage
{
    explicit RawImage(NvmDevice *dev)
        : devBase(reinterpret_cast<Addr>(dev->base())), devSize(dev->size())
    {
        const auto *m = reinterpret_cast<const PjhMetadata *>(devBase);
        data = devBase + m->dataOff;
        dataSize = m->dataSize;
        top = data + m->topOffset;
        seg = devBase + m->klassSegOff;
        segSize = m->klassSegSize;
        delta = static_cast<std::ptrdiff_t>(data - m->addressHint);
    }

    Addr devBase;
    std::size_t devSize;
    Addr data = 0;
    std::size_t dataSize = 0;
    Addr top = 0;
    Addr seg = 0;
    std::size_t segSize = 0;
    std::ptrdiff_t delta = 0;
};

/** One object found by the reference walk. */
struct RawObject
{
    Addr addr = 0;
    std::size_t size = 0;
    std::vector<Addr> refSlots;
};

/** The in-test reference walk: every object of [data, top), one
 * after another from the data base, serially. */
std::vector<RawObject>
referenceWalk(const RawImage &img)
{
    std::vector<RawObject> out;
    for (Addr a = img.data; a < img.top;) {
        Oop o(a);
        if (!pjhRawHeaderValid(o, img.seg, img.segSize, img.delta)) {
            ADD_FAILURE() << "reference walk: no object at data+"
                          << a - img.data;
            break;
        }
        RawObject r;
        r.addr = a;
        r.size = pjhRawObjectSize(o, img.delta);
        pjhRawForEachRefSlotWithDelta(
            o, img.delta, [&r](Addr slot) { r.refSlots.push_back(slot); });
        out.push_back(std::move(r));
        a += out.back().size;
    }
    return out;
}

/** What a zeroing load must leave in [data, top): klass words and
 * in-device references rebased by delta, every non-null reference
 * outside the data heap nulled, every other word as it was. */
struct ZeroingExpectation
{
    Addr data = 0;
    std::vector<Word> want;
    std::size_t nulled = 0;
};

ZeroingExpectation
expectZeroing(NvmDevice *dev)
{
    RawImage img(dev);
    ZeroingExpectation e;
    e.data = img.data;
    const auto *words = reinterpret_cast<const Word *>(img.data);
    e.want.assign(words, words + (img.top - img.data) / kWordSize);
    auto word = [&](Addr a) -> Word & {
        return e.want[(a - img.data) / kWordSize];
    };
    const Addr stored_dev = img.devBase - static_cast<Addr>(img.delta);
    for (const RawObject &o : referenceWalk(img)) {
        word(o.addr + ObjectLayout::kKlassOffset) += img.delta;
        for (Addr slot : o.refSlots) {
            Word &v = word(slot);
            if (v >= stored_dev && v < stored_dev + img.devSize)
                v += img.delta;
            if (v != kNullAddr &&
                (v < img.data || v >= img.data + img.dataSize)) {
                v = kNullAddr;
                ++e.nulled;
            }
        }
    }
    return e;
}

/** Every word of the expectation's range must match. */
void
checkImage(const ZeroingExpectation &e)
{
    std::size_t bad = 0;
    for (std::size_t i = 0; i < e.want.size(); ++i) {
        Word got = loadWord(e.data + i * kWordSize);
        if (got != e.want[i] && bad++ < 5) {
            ADD_FAILURE() << "data+" << i * kWordSize << " holds " << std::hex
                          << got << ", want " << e.want[i];
        }
    }
    EXPECT_EQ(bad, 0u);
}

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
        dram_ = rt_->newString("dram");
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

    /**
     * Fill a fresh heap with about @p bytes of groups: a Node ref
     * array of 64..511 elements, 8 Nodes it points at (chained by
     * next), and a Person (root-reachable through the "spine" ref
     * array) naming the array. Every group also leaves 4 unreachable
     * Nodes behind, so a collection has garbage to compact away.
     */
    PjhHeap *
    buildGroupHeap(const std::string &name, std::size_t bytes)
    {
        PjhHeap *h = rt_->heaps().createHeap(name, bytes + (4u << 20));
        const std::size_t groups = bytes / 2800;
        Oop spine = rt_->pnewRefArray(h, "Person", groups);
        h->setRoot("spine", spine);
        for (std::size_t g = 0; g < groups; ++g) {
            Oop nodes[8];
            Oop prev;
            for (int i = 0; i < 8; ++i) {
                nodes[i] = rt_->pnewInstance(h, "Node");
                nodes[i].setI64(valueOff_, static_cast<std::int64_t>(g));
                nodes[i].setRef(nextOff_, prev);
                h->flushObject(nodes[i]);
                prev = nodes[i];
                if (i % 2 == 1)
                    rt_->pnewInstance(h, "Node"); // garbage
            }
            const std::uint64_t len = 64 + (g * 37) % 448;
            Oop arr = rt_->pnewRefArray(h, "Node", len);
            for (std::uint64_t j = 0; j < len; ++j)
                if (j % 3 != 0)
                    arr.setRefElem(j, nodes[j % 8].addr());
            h->flushObject(arr);
            Oop p = rt_->pnewInstance(h, "Person");
            p.setI64(idOff_, static_cast<std::int64_t>(g));
            p.setRef(nameOff_, arr);
            h->flushObject(p);
            spine.setRefElem(g, p.addr());
        }
        h->flushObject(spine);
        return h;
    }

    /**
     * Point reference slots of @p h at a DRAM object where a split
     * walk could lose them: the first and the last object with a
     * reference slot in every zeroing range, and three elements of
     * every fourth ref array. Each store is made durable.
     */
    void
    plantDramRefs(PjhHeap *h)
    {
        const Addr dram = dram_.addr();
        RawImage img(&h->device());
        std::vector<RawObject> objs = referenceWalk(img);
        auto plant = [&](Addr slot) {
            storeWord(slot, dram);
            h->device().persist(slot, kWordSize);
        };
        auto has_slots = [](const RawObject &o) {
            return !o.refSlots.empty();
        };
        std::size_t ranges = 0;
        for (Addr cut = img.data; cut < img.top;
             cut += PjhHeap::kZeroingRangeBytes, ++ranges) {
            Addr next = cut + PjhHeap::kZeroingRangeBytes;
            auto in_range = std::find_if(
                objs.begin(), objs.end(),
                [&](const RawObject &o) { return o.addr >= cut; });
            auto past = std::find_if(
                in_range, objs.end(),
                [&](const RawObject &o) { return o.addr >= next; });
            auto first = std::find_if(in_range, past, has_slots);
            auto last = std::find_if(std::make_reverse_iterator(past),
                                     std::make_reverse_iterator(in_range),
                                     has_slots);
            ASSERT_NE(first, past) << "range " << ranges;
            plant(first->refSlots.front());
            plant(last->refSlots.back());
        }
        ASSERT_GE(ranges, 4u) << "the heap must span several ranges";
        std::size_t arrays = 0;
        for (const RawObject &o : objs) {
            if (!pjhRawImage(Oop(o.addr))->isArray() || o.refSlots.empty() ||
                arrays++ % 4 != 0)
                continue;
            plant(o.refSlots.front());
            plant(o.refSlots[o.refSlots.size() / 2]);
            plant(o.refSlots.back());
        }
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
    /** The out-of-heap referent the zeroing tests plant. */
    Oop dram_;
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

// A zeroing load walks the heap in ranges of kZeroingRangeBytes on
// several threads. Each case below spans several ranges, plants DRAM
// references at the first and last object of every range and in ref
// array elements, and checks the loaded image word for word against a
// serial reference walk made before the load.

/** Size of the heaps the split-walk cases build. */
constexpr std::size_t kSplitHeapBytes = 11 * PjhHeap::kZeroingRangeBytes / 2;

TEST_F(PjhReloadTest, ZeroingSplitWalkAfterCleanDetach)
{
    PjhHeap *h = buildGroupHeap("groups", kSplitHeapBytes);
    ASSERT_NO_FATAL_FAILURE(plantDramRefs(h));
    rt_->heaps().detachHeap("groups");

    ZeroingExpectation want = expectZeroing(rt_->heaps().deviceOf("groups"));
    EXPECT_GT(want.nulled, 0u);
    rt_->heaps().loadHeap("groups", SafetyLevel::kZeroing);
    checkImage(want);
}

TEST_F(PjhReloadTest, ZeroingSplitWalkAfterPowerCut)
{
    // The power cut hits while the build's TLAB chunks are registered,
    // so the load parses them for torn tails first (all allocations
    // completed, so it plugs none).
    PjhHeap *h = buildGroupHeap("groups", kSplitHeapBytes);
    ASSERT_NO_FATAL_FAILURE(plantDramRefs(h));
    rt_->heaps().crashHeap("groups");

    ZeroingExpectation want = expectZeroing(rt_->heaps().deviceOf("groups"));
    EXPECT_GT(want.nulled, 0u);
    h = rt_->heaps().loadHeap("groups", SafetyLevel::kZeroing);
    EXPECT_EQ(h->stats().tailRepairs, 0u);
    checkImage(want);
}

TEST_F(PjhReloadTest, ZeroingSplitWalkAfterCompaction)
{
    PjhHeap *h = buildGroupHeap("groups", kSplitHeapBytes);
    const std::size_t used = h->dataUsed();
    h->collect(&rt_->heap());
    ASSERT_LT(h->dataUsed(), used);
    ASSERT_NO_FATAL_FAILURE(plantDramRefs(h)); // on the compacted layout
    rt_->heaps().detachHeap("groups");

    ZeroingExpectation want = expectZeroing(rt_->heaps().deviceOf("groups"));
    EXPECT_GT(want.nulled, 0u);
    rt_->heaps().loadHeap("groups", SafetyLevel::kZeroing);
    checkImage(want);
}

TEST_F(PjhReloadTest, ZeroingSplitWalkAfterMigration)
{
    PjhHeap *h = buildGroupHeap("groups", kSplitHeapBytes);
    ASSERT_NO_FATAL_FAILURE(plantDramRefs(h));
    rt_->heaps().detachHeap("groups");
    rt_->heaps().migrateHeap("groups");

    ZeroingExpectation want = expectZeroing(rt_->heaps().deviceOf("groups"));
    EXPECT_GT(want.nulled, 0u);
    h = rt_->heaps().loadHeap("groups", SafetyLevel::kZeroing);
    EXPECT_EQ(h->stats().rebases, 1u);
    checkImage(want);
}

TEST_F(PjhReloadTest, ZeroingProvesStartGuessesThatLandInsideArrays)
{
    // Every cut between ranges falls inside a long[] whose payload
    // repeats a live tagged klass word (Person's), so the first word
    // past each cut parses as a Person whose name slot holds a
    // non-null out-of-heap value. Only proving the split tells those
    // payload words from objects; nulling them would corrupt the
    // arrays.
    PjhConfig cfg;
    cfg.dataSize = 8u << 20;
    cfg.tlabSize = 4u << 10; // each array gets a chunk of its own size
    PjhHeap *h = rt_->heaps().createHeap("arrays", cfg);
    auto dram_person = [&] {
        Oop p = rt_->pnewInstance(h, "Person");
        p.setRef(nameOff_, dram_);
        h->flushObject(p);
        return p;
    };
    const Word fake_header = dram_person().klassRefRaw();
    for (int i = 0; i < 20; ++i)
        dram_person();
    constexpr std::uint64_t kLen = 9001;
    while (h->dataUsed() < 11 * PjhHeap::kZeroingRangeBytes / 2) {
        Oop a = rt_->pnewI64Array(h, kLen);
        for (std::uint64_t j = 0; j < kLen; ++j)
            storeWord(a.elemAddr(j, kWordSize), fake_header);
        h->flushObject(a);
    }
    for (int i = 0; i < 20; ++i)
        dram_person();

    RawImage img(&h->device());
    std::vector<RawObject> objs = referenceWalk(img);
    std::size_t cuts = 0;
    for (Addr cut = img.data + PjhHeap::kZeroingRangeBytes; cut < img.top;
         cut += PjhHeap::kZeroingRangeBytes, ++cuts) {
        auto holder = std::find_if(objs.rbegin(), objs.rend(),
                                   [&](const RawObject &o) {
                                       return o.addr <= cut;
                                   });
        ASSERT_NE(holder, objs.rend());
        Oop o(holder->addr);
        ASSERT_TRUE(o.klass()->isArray()) << "cut " << cuts;
        EXPECT_EQ(o.arrayLength(), kLen) << "cut " << cuts;
        EXPECT_GE(cut, o.elemAddr(0, kWordSize)) << "cut " << cuts;
        EXPECT_LE(cut + ObjectLayout::kHeaderSize,
                  holder->addr + holder->size)
            << "cut " << cuts;
    }
    ASSERT_GE(cuts, 4u);
    rt_->heaps().detachHeap("arrays");

    ZeroingExpectation want = expectZeroing(rt_->heaps().deviceOf("arrays"));
    EXPECT_EQ(want.nulled, 41u);
    rt_->heaps().loadHeap("arrays", SafetyLevel::kZeroing);
    checkImage(want);
}

TEST_F(PjhReloadTest, ZeroingLoadFlushesEachNulledSlotAndFencesOnce)
{
    // The walk's threads never flush: the loading thread flushes each
    // slot and root it nulls, once, and fences once if it nulled any.
    // The baseline is a user-guaranteed load of the same image.
    PjhHeap *h = buildGroupHeap("groups", kSplitHeapBytes);
    ASSERT_NO_FATAL_FAILURE(plantDramRefs(h));
    h->setRoot("dram", h->getRoot("spine"));
    NameEntry *root = h->names().find("dram", NameKind::kRoot);
    ASSERT_NE(root, nullptr);
    root->value = dram_.addr(); // setRoot refuses an out-of-heap value
    h->device().persist(reinterpret_cast<Addr>(&root->value), kWordSize);
    rt_->heaps().detachHeap("groups");
    // Retire the build's TLAB slots, whose clearing flushes too.
    rt_->heaps().loadHeap("groups", SafetyLevel::kUserGuaranteed);
    rt_->heaps().detachHeap("groups");

    NvmDevice *dev = rt_->heaps().deviceOf("groups");
    struct Persists
    {
        std::uint64_t flushCalls, lines, fences;
    };
    auto load = [&](SafetyLevel safety) {
        dev->resetStats();
        rt_->heaps().loadHeap("groups", safety);
        Persists p{dev->stats().flushCalls.load(),
                   dev->stats().linesFlushed.load(),
                   dev->stats().fences.load()};
        rt_->heaps().detachHeap("groups");
        return p;
    };
    const std::size_t nulled = expectZeroing(dev).nulled + 1; // + the root
    ASSERT_GT(nulled, 1u);
    Persists ug = load(SafetyLevel::kUserGuaranteed);
    Persists zeroing = load(SafetyLevel::kZeroing);
    EXPECT_EQ(zeroing.flushCalls, ug.flushCalls + nulled);
    EXPECT_EQ(zeroing.lines, ug.lines + nulled);
    EXPECT_EQ(zeroing.fences, ug.fences + 1);

    // Nothing is left to null: no flush or fence beyond the baseline.
    Persists again = load(SafetyLevel::kZeroing);
    EXPECT_EQ(again.flushCalls, ug.flushCalls);
    EXPECT_EQ(again.lines, ug.lines);
    EXPECT_EQ(again.fences, ug.fences);
}

TEST_F(PjhReloadTest, CorruptArrayLengthPanicsTheLoadsThatWalkTheHeap)
{
    // A long[] whose length word reads 2^40 must not step a walk past
    // the top and end it quietly: the objects above the array — a DRAM
    // reference for zeroing, an in-heap one for the rebase — would be
    // skipped.
    auto build = [&](const std::string &name) {
        PjhHeap *h = buildListHeap(name, 5);
        Oop arr = rt_->pnewI64Array(h, 4);
        Oop p = rt_->pnewInstance(h, "Person");
        p.setRef(nameOff_, dram_);
        h->flushObject(p);
        h->setRoot("person", p);
        Oop n = rt_->pnewInstance(h, "Node");
        n.setRef(nextOff_, h->getRoot("head"));
        h->flushObject(n);
        h->setRoot("above", n);
        arr.setArrayLength(std::uint64_t(1) << 40);
        h->device().persist(arr.addr() + ObjectLayout::kArrayLengthOffset,
                            kWordSize);
        rt_->heaps().detachHeap(name);
    };
    build("zeroing");
    EXPECT_THROW(rt_->heaps().loadHeap("zeroing", SafetyLevel::kZeroing),
                 PanicError);

    build("rebase");
    rt_->heaps().migrateHeap("rebase");
    EXPECT_THROW(
        rt_->heaps().loadHeap("rebase", SafetyLevel::kUserGuaranteed),
        PanicError);
}

} // namespace
} // namespace espresso
