/**
 * @file
 * HeapFabric unit suite: consistent-hash routing (determinism,
 * balance, minimal remap on growth), the 1-shard-fabric equivalence
 * of the classic Table-1 API, fabric-routed pnew and roots,
 * cross-shard roots registered through the home shard's name table
 * (and surviving that shard's compaction), shard-scoped GC
 * quiescence (a remote shard's collect() never blocks allocation),
 * the fabric GC coordinator, ring-manifest recovery from a crash
 * mid-create, crash-atomic cross-shard setRoot republication (the
 * DecisionLog intent sweep), and the HeapManager registry under concurrent
 * create/load (the former unsynchronized-std::map race).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/espresso.hh"
#include "nvm/crash_injector.hh"

namespace espresso {
namespace {

KlassDef
nodeDef()
{
    return KlassDef{"Node",
                    "",
                    {{"value", FieldType::kI64}, {"next", FieldType::kRef}},
                    false};
}

/** A route key the ring sends to shard @p want. */
std::string
keyForShard(const HeapFabric *fabric, unsigned want, const char *tag)
{
    for (int i = 0; i < 100000; ++i) {
        std::string key = std::string(tag) + std::to_string(i);
        if (fabric->shardIndexFor(key) == want)
            return key;
    }
    ADD_FAILURE() << "no key routes to shard " << want;
    return "";
}

TEST(ShardRouterTest, DeterministicAndBalanced)
{
    ShardRouter router(8, 64);
    std::vector<std::size_t> hits(8, 0);
    for (int i = 0; i < 10000; ++i) {
        std::string key = "user." + std::to_string(i);
        unsigned s = router.shardForName(key);
        ASSERT_LT(s, 8u);
        EXPECT_EQ(s, router.shardForName(key)); // deterministic
        ++hits[s];
    }
    for (unsigned s = 0; s < 8; ++s) {
        // Perfect balance is 1250; vnode placement keeps every shard
        // within a loose band (no starved or doubly-loaded member).
        EXPECT_GT(hits[s], 400u) << "shard " << s << " starved";
        EXPECT_LT(hits[s], 2600u) << "shard " << s << " overloaded";
    }

    ShardRouter again(8, 64);
    for (int i = 0; i < 256; ++i) {
        std::string key = "k" + std::to_string(i);
        EXPECT_EQ(router.shardForName(key), again.shardForName(key));
        EXPECT_EQ(router.shardForKey(i), again.shardForKey(i));
    }
}

TEST(ShardRouterTest, GrowthRemapsOnlyAFraction)
{
    ShardRouter four(4, 64);
    ShardRouter five(5, 64);
    int moved = 0;
    const int kKeys = 10000;
    for (int i = 0; i < kKeys; ++i) {
        std::string key = "k" + std::to_string(i);
        unsigned a = four.shardForName(key);
        unsigned b = five.shardForName(key);
        if (a != b) {
            ++moved;
            // Consistent hashing: a key only ever moves *to* the new
            // member, never between surviving ones.
            EXPECT_EQ(b, 4u) << key;
        }
    }
    // Ideal is 1/5 of the keys; allow generous vnode noise but stay
    // far below the ~4/5 a mod-N rehash would move.
    EXPECT_GT(moved, kKeys / 20);
    EXPECT_LT(moved, kKeys * 2 / 5);
}

TEST(HeapFabricTest, SingleHeapApiIsAOneShardFabric)
{
    EspressoRuntime rt;
    rt.define(nodeDef());
    std::uint32_t off = rt.fieldOffset("Node", "value");

    PjhHeap *heap = rt.heaps().createHeap("solo", 2u << 20);
    HeapFabric *fabric = rt.heaps().fabric("solo");
    ASSERT_NE(fabric, nullptr);
    EXPECT_EQ(fabric->shardCount(), 1u);
    EXPECT_EQ(fabric->shard(0), heap);
    EXPECT_EQ(rt.heaps().heap("solo"), heap);
    EXPECT_EQ(rt.heaps().deviceOf("solo"), fabric->shardDevice(0));

    Oop node = rt.pnewInstance(heap, "Node");
    node.setI64(off, 41);
    heap->flushObject(node);
    heap->setRoot("r", node);

    rt.heaps().crashHeap("solo");
    EXPECT_EQ(rt.heaps().heap("solo"), nullptr);
    heap = rt.heaps().loadHeap("solo");
    EXPECT_EQ(heap->getRoot("r").getI64(off), 41);

    // Every route key lands on the only shard.
    EXPECT_EQ(fabric->shardFor("anything"), heap);
    EXPECT_EQ(fabric->shardForKey(12345), heap);
}

TEST(HeapFabricTest, RoutedPnewLandsOnTheRingShard)
{
    EspressoRuntime rt;
    rt.define(nodeDef());
    std::uint32_t off = rt.fieldOffset("Node", "value");

    PjhConfig cfg;
    cfg.dataSize = 2u << 20;
    HeapFabric *fabric = rt.heaps().createFabric("fab", cfg, 4);
    ASSERT_EQ(fabric->shardCount(), 4u);
    EXPECT_GE(fabric->epoch(), 1u);

    std::set<unsigned> used;
    for (int i = 0; i < 64; ++i) {
        std::string key = "acct." + std::to_string(i);
        unsigned idx = fabric->shardIndexFor(key);
        used.insert(idx);
        Oop node = rt.pnewInstance(fabric, key, "Node");
        node.setI64(off, i);
        PjhHeap *home = fabric->shardFor(key);
        EXPECT_TRUE(home->containsData(node.addr()));
        EXPECT_EQ(fabric->homeOf(node), home);
        home->flushObject(node);
        fabric->setRoot(key, node);
    }
    // 64 keys over 4 shards: the ring must actually spread them.
    EXPECT_EQ(used.size(), 4u);

    for (int i = 0; i < 64; ++i) {
        std::string key = "acct." + std::to_string(i);
        Oop got = fabric->getRoot(key);
        ASSERT_FALSE(got.isNull()) << key;
        EXPECT_EQ(got.getI64(off), i) << key;
        EXPECT_TRUE(fabric->hasRoot(key));
    }
    EXPECT_FALSE(fabric->hasRoot("never-set"));
}

TEST(HeapFabricTest, CrossShardRootIsRegisteredOnTheHomeShard)
{
    EspressoRuntime rt;
    rt.define(nodeDef());
    std::uint32_t off = rt.fieldOffset("Node", "value");

    PjhConfig cfg;
    cfg.dataSize = 2u << 20;
    HeapFabric *fabric = rt.heaps().createFabric("xfab", cfg, 4);

    // Allocate on shard 2, publish under a name the ring routes to a
    // different shard.
    std::string home_key = keyForShard(fabric, 2, "home.");
    Oop node = rt.pnewInstance(fabric, home_key, "Node");
    node.setI64(off, 777);
    fabric->shard(2)->flushObject(node);

    std::string remote_name = keyForShard(fabric, 0, "remote.");
    fabric->setRoot(remote_name, node);

    // The entry lives in the home shard's name table (its GC must
    // pin and forward it), not on the ring shard.
    EXPECT_TRUE(fabric->shard(2)->hasRoot(remote_name));
    EXPECT_TRUE(fabric->shard(0)->getRoot(remote_name).isNull());
    EXPECT_EQ(fabric->getRoot(remote_name).getI64(off), 777);

    // Pile garbage in front of the object and compact the home
    // shard: the root entry must follow the moved object.
    for (int i = 0; i < 50; ++i)
        rt.pnewInstance(fabric, home_key, "Node");
    fabric->collectShard(2);
    Oop moved = fabric->getRoot(remote_name);
    ASSERT_FALSE(moved.isNull());
    EXPECT_EQ(moved.getI64(off), 777);

    // Republication to an object on another shard nulls the stale
    // home entry so the old binding can never resurface.
    std::string other_key = keyForShard(fabric, 1, "other.");
    Oop other = rt.pnewInstance(fabric, other_key, "Node");
    other.setI64(off, 888);
    fabric->shard(1)->flushObject(other);
    fabric->setRoot(remote_name, other);
    EXPECT_EQ(fabric->getRoot(remote_name).getI64(off), 888);
    EXPECT_TRUE(fabric->shard(2)->getRoot(remote_name).isNull());
}

TEST(HeapFabricTest, RemoteShardCollectDoesNotBlockAllocation)
{
    EspressoRuntime rt;
    rt.define(nodeDef());
    std::uint32_t off = rt.fieldOffset("Node", "value");

    PjhConfig cfg;
    cfg.dataSize = 2u << 20;
    HeapFabric *fabric = rt.heaps().createFabric("gcfab", cfg, 2);

    // Populate shard 0 (fast), then slow its device down so its
    // collection holds gcInProgress for a long, observable window.
    std::string k0 = keyForShard(fabric, 0, "s0.");
    std::string k1 = keyForShard(fabric, 1, "s1.");
    Oop live = rt.pnewInstance(fabric, k0, "Node");
    live.setI64(off, 4242);
    fabric->shard(0)->flushObject(live);
    fabric->setRoot(k0, live);
    for (int i = 0; i < 200; ++i) {
        Oop keep = rt.pnewInstance(fabric, k0, "Node");
        keep.setI64(off, i);
        fabric->shard(0)->flushObject(keep);
        fabric->shard(0)->setRoot("keep" + std::to_string(i), keep);
    }
    NvmConfig &dev_cfg = fabric->shardDevice(0)->config();
    dev_cfg.fenceLatencyNs = 200000; // 200 us per fence
    dev_cfg.fenceWaitYields = true;  // free the (possibly single) core

    std::atomic<bool> done{false};
    std::thread collector([&]() {
        fabric->collectShard(0);
        done.store(true, std::memory_order_release);
    });

    // Wait until shard 0's collection provably owns that shard, then
    // allocate on shard 1 — per-shard quiescence means these must
    // complete while the remote collect still runs.
    while (!fabric->shard(0)->collecting() &&
           !done.load(std::memory_order_acquire)) {
        std::this_thread::yield();
    }
    bool observed_during_gc = false;
    for (int i = 0; i < 100; ++i) {
        Oop node = rt.pnewInstance(fabric, k1, "Node");
        node.setI64(off, 9000 + i);
        fabric->shard(1)->flushObject(node);
        if (!done.load(std::memory_order_acquire))
            observed_during_gc = true;
    }
    EXPECT_TRUE(observed_during_gc)
        << "shard-1 allocations never overlapped shard-0's collect";
    collector.join();
    dev_cfg.fenceLatencyNs = 0;

    // Both shards intact afterwards.
    EXPECT_EQ(fabric->getRoot(k0).getI64(off), 4242);
    Oop fresh = rt.pnewInstance(fabric, k1, "Node");
    fresh.setI64(off, 1);
    fabric->shard(1)->flushObject(fresh);
}

TEST(HeapFabricTest, RootOpsProceedDuringConcurrentMark)
{
    // PR 5 left one contract weaker: root ops on names homed on a
    // collecting shard blocked for the whole collection. Concurrent
    // marking retires it — while the shard is *marking*, root ops
    // proceed under the SATB barrier and block only at the brief
    // snapshot and remark+compact safepoints.
    EspressoRuntime rt;
    rt.define(nodeDef());
    std::uint32_t off = rt.fieldOffset("Node", "value");

    PjhConfig cfg;
    cfg.dataSize = 8u << 20;
    HeapFabric *fabric = rt.heaps().createFabric("concfab", cfg, 2);
    fabric->setGcConcurrent(true);
    PjhHeap *h0 = fabric->shard(0);
    ASSERT_TRUE(h0->gcConcurrent());

    // Keys homed on shard 0 for the root ops issued mid-mark.
    std::vector<std::string> keys;
    for (int i = 0; keys.size() < 48; ++i) {
        std::string key = "lv" + std::to_string(i);
        if (fabric->shardIndexFor(key) == 0)
            keys.push_back(key);
    }

    // A large reachable population gives the trace real work: one
    // long chain, rooted every 16 nodes (the name table is small).
    std::uint32_t next_off = rt.fieldOffset("Node", "next");
    std::string k0 = keyForShard(fabric, 0, "c0.");
    Oop prev;
    for (int i = 0; i < 12000; ++i) {
        Oop n = rt.pnewInstance(fabric, k0, "Node");
        n.setI64(off, i);
        n.setRef(next_off, prev);
        h0->flushObject(n);
        if (i % 16 == 0)
            h0->setRoot("keep" + std::to_string(i), n);
        prev = n;
    }

    // Hold the cycle in kMarking after its first trace until every
    // root op below has landed, so the ops overlap marking by
    // construction rather than by winning a race with the tracer.
    std::atomic<bool> ops_landed{false};
    h0->setMarkingHook([&ops_landed]() {
        while (!ops_landed.load(std::memory_order_acquire))
            std::this_thread::yield();
    });
    std::atomic<bool> done{false};
    std::thread collector([&]() {
        fabric->collectShard(0);
        done.store(true, std::memory_order_release);
    });

    while (!h0->markingConcurrently() &&
           !done.load(std::memory_order_acquire))
        std::this_thread::yield();

    // Full root ops against the collecting shard: allocate, publish,
    // read back. Under the retired contract every one of these would
    // block until the collection finished.
    int during_mark = 0;
    std::size_t issued = 0;
    for (const std::string &key : keys) {
        if (done.load(std::memory_order_acquire))
            break;
        bool before = h0->markingConcurrently();
        {
            PjhHeap::MutatorSection ms(*h0);
            Oop n = rt.pnewInstance(fabric, key, "Node");
            n.setI64(off, 100000 + static_cast<std::int64_t>(issued));
            h0->flushObject(n);
            fabric->setRoot(key, n);
        }
        Oop back = fabric->getRoot(key);
        ASSERT_FALSE(back.isNull()) << key;
        EXPECT_EQ(back.getI64(off),
                  100000 + static_cast<std::int64_t>(issued))
            << key;
        // Phase moves kMarking -> kPaused monotonically within the
        // cycle: marking on both sides brackets the whole op.
        if (before && h0->markingConcurrently())
            ++during_mark;
        ++issued;
    }
    ops_landed.store(true, std::memory_order_release);
    collector.join();
    h0->setMarkingHook(nullptr);
    EXPECT_GT(during_mark, 0)
        << "no root op overlapped the marking phase — the retired "
           "blocking contract crept back";

    // Everything published mid-cycle survived it, the pre-built roots
    // are intact, and the cycle was genuinely concurrent.
    for (std::size_t i = 0; i < issued; ++i) {
        EXPECT_EQ(fabric->getRoot(keys[i]).getI64(off),
                  100000 + static_cast<std::int64_t>(i))
            << keys[i];
    }
    EXPECT_EQ(h0->getRoot("keep0").getI64(off), 0);
    EXPECT_EQ(h0->getRoot("keep11984").getI64(off), 11984);
    EXPECT_EQ(h0->meta().gcMarkEpoch, 1u);
    EXPECT_GT(h0->stats().lastGcConcMarkNs, 0u);
}

TEST(HeapFabricTest, CollectAllRunsEveryMemberIndependently)
{
    EspressoRuntime rt;
    rt.define(nodeDef());
    std::uint32_t off = rt.fieldOffset("Node", "value");

    PjhConfig cfg;
    cfg.dataSize = 2u << 20;
    HeapFabric *fabric = rt.heaps().createFabric("allfab", cfg, 4);

    std::vector<std::string> keys;
    for (unsigned s = 0; s < 4; ++s) {
        std::string key =
            keyForShard(fabric, s, ("s" + std::to_string(s) + ".").c_str());
        keys.push_back(key);
        Oop live = rt.pnewInstance(fabric, key, "Node");
        live.setI64(off, 100 + static_cast<int>(s));
        fabric->shard(s)->flushObject(live);
        fabric->setRoot(key, live);
        for (int i = 0; i < 32; ++i)
            rt.pnewInstance(fabric, key, "Node"); // garbage
    }

    std::vector<std::size_t> used_before;
    for (unsigned s = 0; s < 4; ++s)
        used_before.push_back(fabric->shard(s)->dataUsed());

    fabric->collectAll();

    for (unsigned s = 0; s < 4; ++s) {
        EXPECT_EQ(fabric->shard(s)->meta().gcCollections, 1u)
            << "shard " << s;
        EXPECT_LT(fabric->shard(s)->dataUsed(), used_before[s])
            << "shard " << s << " reclaimed nothing";
        EXPECT_EQ(fabric->getRoot(keys[s]).getI64(off),
                  100 + static_cast<int>(s));
    }
}

TEST(HeapFabricTest, ManifestRecoversFromACrashMidCreate)
{
    EspressoRuntime rt;
    rt.define(nodeDef());
    std::uint32_t off = rt.fieldOffset("Node", "value");

    // Fire between the second shard's format and the manifest
    // commit: the declare costs 1 flush + 1 fence, each
    // markFormatted 1 flush + 1 fence, so event 6 lands after
    // member 1's format flag.
    CrashInjector injector;
    HeapFabric fabric(&rt.registry(), nullptr);
    fabric.setManifestInjector(&injector);
    injector.arm(6);
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
    ASSERT_TRUE(crashed);
    injector.disarm();

    fabric.crashAll();
    ASSERT_TRUE(fabric.manifestDeclared());
    fabric.recover();
    EXPECT_EQ(fabric.shardCount(), 4u);
    EXPECT_EQ(fabric.manifestDeclared(), true);
    for (unsigned s = 0; s < 4; ++s) {
        ASSERT_NE(fabric.shard(s), nullptr);
        std::string key =
            keyForShard(&fabric, s, ("k" + std::to_string(s) + ".").c_str());
        Oop node = fabric.shard(s)->allocInstance(
            rt.registry().resolve("Node", MemKind::kPersistent));
        node.setI64(off, 5);
        fabric.shard(s)->flushObject(node);
        fabric.setRoot(key, node);
        EXPECT_EQ(fabric.getRoot(key).getI64(off), 5);
    }
}

TEST(HeapFabricTest, SurvivorsServeRootsWhileAMemberIsDown)
{
    EspressoRuntime rt;
    rt.define(nodeDef());
    std::uint32_t off = rt.fieldOffset("Node", "value");

    PjhConfig cfg;
    cfg.dataSize = 1u << 20;
    HeapFabric *fabric = rt.heaps().createFabric("downfab", cfg, 4);

    fabric->crashShard(2);
    ASSERT_EQ(fabric->shard(2), nullptr);

    // Publishing an object living on a healthy shard must work even
    // when the *name* ring-routes to the crashed member (failures
    // stay shard-local; the home shard owns the entry anyway).
    std::string victim_name = keyForShard(fabric, 2, "victimname.");
    std::string home_key = keyForShard(fabric, 1, "homekey.");
    Oop node = rt.pnewInstance(fabric, home_key, "Node");
    node.setI64(off, 55);
    fabric->shard(1)->flushObject(node);
    fabric->setRoot(victim_name, node);
    EXPECT_EQ(fabric->getRoot(victim_name).getI64(off), 55);

    fabric->reattachShard(2);
    ASSERT_NE(fabric->shard(2), nullptr);
    EXPECT_EQ(fabric->getRoot(victim_name).getI64(off), 55);
}

TEST(HeapFabricTest, LoadFabricReattachesCrashedMembers)
{
    EspressoRuntime rt;
    rt.define(nodeDef());
    std::uint32_t off = rt.fieldOffset("Node", "value");

    PjhConfig cfg;
    cfg.dataSize = 1u << 20;
    HeapFabric *fabric = rt.heaps().createFabric("reload", cfg, 2);
    std::string key = keyForShard(fabric, 1, "rk.");
    Oop node = rt.pnewInstance(fabric, key, "Node");
    node.setI64(off, 321);
    fabric->shard(1)->flushObject(node);
    fabric->setRoot(key, node);

    // A member-level crash must be repaired by the load path, never
    // handed back as a null shard.
    fabric->crashShard(1);
    ASSERT_EQ(fabric->shard(1), nullptr);
    HeapFabric *loaded = rt.heaps().loadFabric("reload");
    ASSERT_EQ(loaded, fabric);
    ASSERT_NE(fabric->shard(1), nullptr);
    EXPECT_EQ(fabric->getRoot(key).getI64(off), 321);

    // Same through the single-heap surface on a 1-shard fabric.
    rt.heaps().createHeap("solo2", 1u << 20);
    rt.heaps().fabric("solo2")->crashShard(0);
    EXPECT_NE(rt.heaps().loadHeap("solo2"), nullptr);
}

// PR 6: cross-shard root republication is crash-atomic. Moving a
// root from a shard-0 object to a shard-1 object is a multi-device
// protocol (publish on the new home, sweep the stale entry on the
// old). A power failure at every persistence event of that protocol
// must recover — via the DecisionLog intent on the manifest device —
// to exactly the old or the new binding, never a null or mixed view.
TEST(HeapFabricTest, SetRootRepublicationCrashSweep)
{
    for (std::uint64_t event = 1;; ++event) {
        EspressoRuntime rt;
        rt.define(nodeDef());
        std::uint32_t off = rt.fieldOffset("Node", "value");

        HeapFabric fabric(&rt.registry(), nullptr);
        PjhConfig cfg;
        cfg.dataSize = 1u << 20;
        FabricConfig fcfg;
        fcfg.shard = cfg;
        fcfg.shards = 2;
        fabric.create(fcfg);

        auto *k = rt.registry().resolve("Node", MemKind::kPersistent);
        Oop old_obj = fabric.shard(0)->allocInstance(k);
        old_obj.setI64(off, 111);
        fabric.shard(0)->flushObject(old_obj);
        fabric.setRoot("mover", old_obj); // clean first publication

        Oop new_obj = fabric.shard(1)->allocInstance(k);
        new_obj.setI64(off, 222);
        fabric.shard(1)->flushObject(new_obj);

        CrashInjector inj;
        fabric.shardDevice(0)->setInjector(&inj);
        fabric.shardDevice(1)->setInjector(&inj);
        fabric.manifestDevice()->setInjector(&inj);
        inj.arm(event);
        bool crashed = false;
        try {
            fabric.setRoot("mover", new_obj);
        } catch (const SimulatedCrash &) {
            crashed = true;
        }
        inj.disarm();
        fabric.shardDevice(0)->setInjector(nullptr);
        fabric.shardDevice(1)->setInjector(nullptr);
        fabric.manifestDevice()->setInjector(nullptr);
        if (!crashed) {
            // Past the protocol's last event: the republication
            // completed; done sweeping.
            EXPECT_EQ(fabric.getRoot("mover").getI64(off), 222);
            break;
        }

        fabric.crashAll(CrashMode::kDiscardUnflushed, 900 + event);
        fabric.recover();

        Oop r = fabric.getRoot("mover");
        ASSERT_FALSE(r.isNull())
            << "event " << event << ": root lost mid-republication";
        std::int64_t v = r.getI64(off);
        EXPECT_TRUE(v == 111 || v == 222)
            << "event " << event << ": torn republication, value " << v;

        // The recovered fabric still republishes cleanly.
        Oop again = fabric.shard(1)->allocInstance(k);
        again.setI64(off, 333);
        fabric.shard(1)->flushObject(again);
        fabric.setRoot("mover", again);
        EXPECT_EQ(fabric.getRoot("mover").getI64(off), 333);
    }
}

TEST(ShardRouterTest, ShrinkRemapsMinimally)
{
    // Satellite: member removal must strand only the removed
    // member's keys; everything else keeps its old mapping, so an
    // old-epoch lookup of an unmoved key equals the new-epoch one.
    ShardRouter five(5, 64);
    ShardRouter four(4, 64);
    int moved = 0;
    const int kKeys = 10000;
    for (int i = 0; i < kKeys; ++i) {
        std::string key = "k" + std::to_string(i);
        std::uint64_t h = ShardRouter::hashName(key);
        unsigned a = five.shardForName(key);
        unsigned b = four.shardForName(key);
        EXPECT_EQ(five.remapped(four, h), a != b) << key;
        if (a != b) {
            ++moved;
            // Only keys that lived on the removed member move, and
            // they land on a surviving member.
            EXPECT_EQ(a, 4u) << key;
            EXPECT_LT(b, 4u) << key;
        } else {
            // Old/new-epoch lookup equivalence for unmoved keys.
            EXPECT_EQ(five.shardForHash(h), four.shardForHash(h))
                << key;
        }
    }
    // Ideal is 1/5 of the keys; a mod-N rehash would move ~4/5.
    EXPECT_GT(moved, kKeys / 20);
    EXPECT_LT(moved, kKeys * 2 / 5);
}

/** Count the members binding @p name as a non-null kRoot. */
unsigned
rootBindings(HeapFabric &fabric, const std::string &name)
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

/** True when any member still holds a live forwarding entry. */
bool
hasLiveForward(HeapFabric &fabric, const std::string &name)
{
    for (unsigned s = 0; s < RingManifestData::kMaxShards; ++s) {
        PjhHeap *h = fabric.shard(s);
        if (!h)
            continue;
        NameEntry *e = h->names().find(name, NameKind::kForward);
        if (e && NameTable::readValue(e) != 0)
            return true;
    }
    return false;
}

TEST(HeapFabricTest, GrowMigratesRemappedRootsToTheirNewHome)
{
    EspressoRuntime rt;
    rt.define(nodeDef());
    std::uint32_t off = rt.fieldOffset("Node", "value");
    PjhConfig cfg;
    cfg.dataSize = 2u << 20;
    HeapFabric *fabric = rt.heaps().createFabric("grow", cfg, 2);
    std::uint64_t epoch0 = fabric->epoch();

    constexpr int kRoots = 48;
    for (int i = 0; i < kRoots; ++i) {
        std::string key = "g" + std::to_string(i);
        Oop node = rt.pnewInstance(fabric, key, "Node");
        node.setI64(off, 5000 + i);
        fabric->shardFor(key)->flushObject(node);
        fabric->setRoot(key, node);
    }

    ShardRouter old_ring(2, ShardRouter::kDefaultVnodes);
    ShardRouter new_ring(4, ShardRouter::kDefaultVnodes);
    fabric->grow(2);

    EXPECT_EQ(fabric->shardCount(), 4u);
    EXPECT_FALSE(fabric->migrating());
    EXPECT_GT(fabric->epoch(), epoch0);
    int moved = 0;
    for (int i = 0; i < kRoots; ++i) {
        std::string key = "g" + std::to_string(i);
        Oop r = fabric->getRoot(key);
        ASSERT_FALSE(r.isNull()) << key;
        EXPECT_EQ(r.getI64(off), 5000 + i) << key;
        // Exactly one binding fabric-wide, on the new ring's shard,
        // with every forwarding entry retired.
        EXPECT_EQ(rootBindings(*fabric, key), 1u) << key;
        EXPECT_FALSE(hasLiveForward(*fabric, key)) << key;
        unsigned home = new_ring.shardForName(key);
        NameEntry *e =
            fabric->shard(home)->names().find(key, NameKind::kRoot);
        ASSERT_NE(e, nullptr) << key;
        EXPECT_NE(NameTable::readValue(e), 0u) << key;
        if (old_ring.shardForName(key) != home)
            ++moved;
    }
    ASSERT_GT(moved, 0) << "ring produced no remapped roots";

    // The grown fabric routes new work across all four members.
    for (unsigned s = 0; s < 4; ++s) {
        std::string key = keyForShard(fabric, s, "post");
        Oop node = rt.pnewInstance(fabric, key, "Node");
        node.setI64(off, 777);
        fabric->shardFor(key)->flushObject(node);
        fabric->setRoot(key, node);
        EXPECT_EQ(fabric->getRoot(key).getI64(off), 777) << key;
    }
}

TEST(HeapFabricTest, GrowDeepCopiesTheRootClosure)
{
    EspressoRuntime rt;
    rt.define(nodeDef());
    std::uint32_t value_off = rt.fieldOffset("Node", "value");
    std::uint32_t next_off = rt.fieldOffset("Node", "next");
    PjhConfig cfg;
    cfg.dataSize = 2u << 20;
    HeapFabric *fabric = rt.heaps().createFabric("closure", cfg, 2);

    // Linked lists rooted under ring-routed names: migration must
    // move the whole closure, not just the head.
    constexpr int kLists = 16, kLen = 10;
    for (int l = 0; l < kLists; ++l) {
        std::string key = "list" + std::to_string(l);
        unsigned home = fabric->shardIndexFor(key);
        Oop head;
        for (int i = 0; i < kLen; ++i) {
            Oop n = rt.pnewInstance(fabric, key, "Node");
            n.setI64(value_off, l * 100 + i);
            n.setRef(next_off, head);
            fabric->shard(home)->flushObject(n);
            head = n;
        }
        fabric->setRoot(key, head);
    }

    ShardRouter old_ring(2, ShardRouter::kDefaultVnodes);
    ShardRouter new_ring(4, ShardRouter::kDefaultVnodes);
    fabric->grow(2);

    int moved = 0;
    for (int l = 0; l < kLists; ++l) {
        std::string key = "list" + std::to_string(l);
        unsigned home = new_ring.shardForName(key);
        bool remapped = old_ring.shardForName(key) != home;
        moved += remapped ? 1 : 0;
        Oop cur = fabric->getRoot(key);
        PjhHeap *dst = fabric->shard(home);
        for (int i = kLen - 1; i >= 0; --i) {
            ASSERT_FALSE(cur.isNull()) << key << " node " << i;
            EXPECT_EQ(cur.getI64(value_off), l * 100 + i)
                << key << " node " << i;
            // A migrated closure lives wholly on the new home.
            EXPECT_TRUE(dst->containsData(cur.addr()))
                << key << " node " << i
                << (remapped ? " dangles into the old member"
                             : " left its home");
            cur = Oop(cur.getRef(next_off));
        }
        EXPECT_TRUE(cur.isNull()) << key;
    }
    ASSERT_GT(moved, 0) << "ring produced no remapped lists";
}

TEST(HeapFabricTest, ShrinkEvacuatesRemovedMembers)
{
    EspressoRuntime rt;
    rt.define(nodeDef());
    std::uint32_t off = rt.fieldOffset("Node", "value");
    PjhConfig cfg;
    cfg.dataSize = 2u << 20;
    HeapFabric *fabric = rt.heaps().createFabric("shrink", cfg, 4);

    constexpr int kRoots = 48;
    for (int i = 0; i < kRoots; ++i) {
        std::string key = "s" + std::to_string(i);
        Oop node = rt.pnewInstance(fabric, key, "Node");
        node.setI64(off, 9000 + i);
        fabric->shardFor(key)->flushObject(node);
        fabric->setRoot(key, node);
    }

    fabric->shrink(2);

    EXPECT_EQ(fabric->shardCount(), 2u);
    EXPECT_FALSE(fabric->migrating());
    EXPECT_EQ(fabric->shard(2), nullptr);
    EXPECT_EQ(fabric->shard(3), nullptr);
    ShardRouter new_ring(2, ShardRouter::kDefaultVnodes);
    for (int i = 0; i < kRoots; ++i) {
        std::string key = "s" + std::to_string(i);
        Oop r = fabric->getRoot(key);
        ASSERT_FALSE(r.isNull()) << key;
        EXPECT_EQ(r.getI64(off), 9000 + i) << key;
        EXPECT_EQ(rootBindings(*fabric, key), 1u) << key;
        unsigned home = new_ring.shardForName(key);
        EXPECT_TRUE(fabric->shard(home)->containsData(r.addr()))
            << key;
    }
}

TEST(HeapFabricTest, GrownMembershipSurvivesCrashAndRecover)
{
    // Regression: recover() must roll the membership forward from
    // the durable manifest, not re-commit the creation-time count.
    EspressoRuntime rt;
    rt.define(nodeDef());
    std::uint32_t off = rt.fieldOffset("Node", "value");

    HeapFabric fabric(&rt.registry(), nullptr);
    PjhConfig cfg;
    cfg.dataSize = 1u << 20;
    FabricConfig fcfg;
    fcfg.shard = cfg;
    fcfg.shards = 2;
    fabric.create(fcfg);
    auto *k = rt.registry().resolve("Node", MemKind::kPersistent);
    for (int i = 0; i < 24; ++i) {
        std::string key = "p" + std::to_string(i);
        unsigned home = fabric.shardIndexFor(key);
        Oop node = fabric.shard(home)->allocInstance(k);
        node.setI64(off, 40 + i);
        fabric.shard(home)->flushObject(node);
        fabric.setRoot(key, node);
    }
    fabric.grow(2);
    std::uint64_t epoch_after_grow = fabric.epoch();

    fabric.crashAll(CrashMode::kDiscardUnflushed, 4242);
    fabric.recover();

    EXPECT_EQ(fabric.shardCount(), 4u);
    EXPECT_EQ(fabric.epoch(), epoch_after_grow);
    EXPECT_FALSE(fabric.migrating());
    for (int i = 0; i < 24; ++i) {
        std::string key = "p" + std::to_string(i);
        Oop r = fabric.getRoot(key);
        ASSERT_FALSE(r.isNull()) << key;
        EXPECT_EQ(r.getI64(off), 40 + i) << key;
        EXPECT_EQ(rootBindings(fabric, key), 1u) << key;
    }
}

TEST(HeapFabricTest, GrowUnderConcurrentTraffic)
{
    EspressoRuntime rt;
    rt.define(nodeDef());
    std::uint32_t off = rt.fieldOffset("Node", "value");
    PjhConfig cfg;
    cfg.dataSize = 4u << 20;
    HeapFabric *fabric = rt.heaps().createFabric("online", cfg, 2);

    constexpr int kThreads = 4;
    constexpr int kOps = 120;
    std::atomic<bool> go{false};
    std::atomic<int> published{0};
    std::vector<std::thread> workers;
    for (int w = 0; w < kThreads; ++w) {
        workers.emplace_back([&, w]() {
            while (!go.load(std::memory_order_acquire)) {
            }
            for (int i = 0; i < kOps; ++i) {
                std::string key =
                    "w" + std::to_string(w) + "." + std::to_string(i);
                Oop node = rt.pnewInstance(fabric, key, "Node");
                node.setI64(off, w * 1000 + i);
                // homeOf: the write ring may flip mid-change, but
                // the object stays where pnew landed it.
                fabric->homeOf(node)->flushObject(node);
                fabric->setRoot(key, node);
                published.fetch_add(1, std::memory_order_relaxed);
                // Read back a previously published key (possibly
                // mid-move: the forward chain must hide the hop).
                std::string probe =
                    "w" + std::to_string(w) + "." +
                    std::to_string(i / 2);
                Oop r = fabric->getRoot(probe);
                ASSERT_FALSE(r.isNull()) << probe;
                ASSERT_EQ(r.getI64(off), w * 1000 + i / 2) << probe;
            }
        });
    }
    go.store(true, std::memory_order_release);
    // Grow while the workers hammer; the membership change streams
    // roots concurrently with allocation and publication.
    while (published.load(std::memory_order_acquire) <
           kThreads * kOps / 4)
        std::this_thread::yield();
    fabric->grow(2);
    for (auto &t : workers)
        t.join();

    EXPECT_EQ(fabric->shardCount(), 4u);
    EXPECT_FALSE(fabric->migrating());
    for (int w = 0; w < kThreads; ++w) {
        for (int i = 0; i < kOps; ++i) {
            std::string key =
                "w" + std::to_string(w) + "." + std::to_string(i);
            Oop r = fabric->getRoot(key);
            ASSERT_FALSE(r.isNull()) << key;
            EXPECT_EQ(r.getI64(off), w * 1000 + i) << key;
            EXPECT_EQ(rootBindings(*fabric, key), 1u) << key;
        }
    }
}

TEST(HeapFabricTest, BalancerGrowsOnOccupancyHighWater)
{
    EspressoRuntime rt;
    rt.define(nodeDef());
    std::uint32_t off = rt.fieldOffset("Node", "value");
    PjhConfig cfg;
    cfg.dataSize = 2u << 20;
    HeapFabric *fabric = rt.heaps().createFabric("bal", cfg, 2);

    // Cold fabric: nothing to balance.
    EXPECT_FALSE(fabric->balance(0.99));
    EXPECT_EQ(fabric->shardCount(), 2u);

    for (int i = 0; i < 256; ++i) {
        std::string key = "b" + std::to_string(i);
        Oop node = rt.pnewInstance(fabric, key, "Node");
        node.setI64(off, i);
        fabric->shardFor(key)->flushObject(node);
        if (i % 4 == 0)
            fabric->setRoot(key, node);
    }
    std::vector<HeapFabric::Occupancy> occ = fabric->occupancy();
    ASSERT_EQ(occ.size(), 2u);
    for (const auto &o : occ)
        EXPECT_GT(o.used, 0u) << "member " << o.shard;

    // Any occupancy beats a zero high-water mark: the balancer adds
    // members through the same epoch-versioned migration machinery.
    EXPECT_TRUE(fabric->balance(0.0, 2));
    EXPECT_EQ(fabric->shardCount(), 4u);
    for (int i = 0; i < 256; i += 4) {
        std::string key = "b" + std::to_string(i);
        Oop r = fabric->getRoot(key);
        ASSERT_FALSE(r.isNull()) << key;
        EXPECT_EQ(r.getI64(off), i) << key;
    }
}

TEST(HeapManagerTest, RegistrySurvivesConcurrentCreateAndLoad)
{
    EspressoRuntime rt;
    rt.define(nodeDef());
    rt.heaps().createHeap("shared", 1u << 20);

    constexpr int kThreads = 8;
    std::atomic<int> failures{0};
    std::vector<std::thread> workers;
    for (int w = 0; w < kThreads; ++w) {
        workers.emplace_back([&, w]() {
            std::string mine = "own" + std::to_string(w);
            PjhHeap *h =
                rt.heaps().createHeap(mine, 1u << 20);
            if (!h)
                failures.fetch_add(1);
            for (int i = 0; i < 200; ++i) {
                if (!rt.heaps().existsHeap("shared") ||
                    rt.heaps().heap("shared") == nullptr ||
                    rt.heaps().loadHeap("shared") == nullptr ||
                    rt.heaps().fabric(mine) == nullptr ||
                    rt.heaps().deviceOf(mine) == nullptr) {
                    failures.fetch_add(1);
                    return;
                }
            }
        });
    }
    for (auto &t : workers)
        t.join();
    EXPECT_EQ(failures.load(), 0);
    for (int w = 0; w < kThreads; ++w)
        EXPECT_NE(rt.heaps().heap("own" + std::to_string(w)), nullptr);
}

} // namespace
} // namespace espresso
