/**
 * @file
 * HeapFabric — many PJH instances behind one API (the sharded
 * runtime).
 *
 * The paper's heap manager (§3.3, Table 1) names one PJH per device;
 * a fabric scales that horizontally: N PjhHeap shards, each on its
 * own NvmDevice, behind a consistent-hash ring (ShardRouter) that
 * routes root names and allocation keys to shards. Membership is
 * durable in a RingManifest on the fabric's own small manifest
 * device, so a reboot (or a crash mid-create) re-attaches every
 * member shard deterministically.
 *
 * Contracts:
 *  - Routing: a route key (root name, database pk) picks exactly one
 *    shard via the ring; a 1-shard fabric behaves exactly like the
 *    classic single PjhHeap.
 *  - Roots: setRoot(name, obj) registers the root in the name table
 *    of the shard that *owns* obj (its home shard), even when the
 *    ring routes the name elsewhere — that keeps cross-shard
 *    references legal: the home shard's GC pins the object through
 *    its own name table and rewrites the entry when compaction moves
 *    it, while every other shard's GC ignores out-of-heap values.
 *    getRoot(name) probes the ring shard first and falls back to the
 *    other members, so lookups stay O(1) for ring-local roots (the
 *    common case: pnew routed by the same key) and stay correct for
 *    remote-shard roots.
 *  - GC: collectShard(i) pauses shard i only — allocation and
 *    roots on every other shard proceed (the safepoint's scope is
 *    the shard, not the process); shard i's own traffic waits the
 *    collection out. In concurrent mode (setGcConcurrent /
 *    ESPRESSO_GC_CONCURRENT) shard i's traffic overlaps the marking
 *    phase and waits only for the snapshot and remark+compact
 *    safepoints. collectAll() fans
 *    independent per-shard collections across a fabric-level
 *    worker pool (ESPRESSO_FABRIC_GC_WORKERS, default: one worker
 *    per shard).
 *  - Recovery: recover() re-attaches members from the manifest;
 *    members flagged formatted but not yet committed (a crash
 *    between shard create and manifest commit) are rolled forward,
 *    members that never reached the formatted flag are re-formatted
 *    from the manifest's stored sizing, then the membership is
 *    re-committed. Per-shard crash recovery (torn tails, interrupted
 *    compactions) is PjhHeap::attach's job and stays per-shard.
 *
 * Elastic membership (grow/shrink) is ONLINE: traffic keeps flowing
 * while members join or leave. The durable protocol mirrors fabric
 * creation — declareMigration() fences a checksummed intent record,
 * per-member migrated flags persist incremental progress, and the
 * membership commit() fence (epoch += 1, shardCount = target) is the
 * atomic switch; recover() rolls a declared change forward and a
 * torn declare reads as "nothing happened". While a change is in
 * flight the fabric routes by an epoch PAIR: writes (pnew, null
 * publishes) follow the next ring so new data lands on its
 * post-change home, reads probe the next ring, then the committed
 * ring — following forwarding stubs (NameKind::kForward) the
 * migration leaves in the old home's name table — then every member.
 * The commit fence retires the forwards.
 *
 * Lifecycle membership operations (create, recover, detach,
 * crashShard, crashAll, reattachShard, migrate) are not thread-safe
 * against each other or against traffic on the affected shard.
 * grow/shrink are the exception by design: they serialize against
 * each other on an internal mutex and run concurrently with
 * allocation and root traffic — but not with collections of source
 * members (object closures are streamed with plain reads that a
 * compaction would move underneath); keeping collections off source
 * members is the caller's contract. HeapManager serializes the
 * named-fabric registry.
 */

#ifndef ESPRESSO_PJH_HEAP_FABRIC_HH
#define ESPRESSO_PJH_HEAP_FABRIC_HH

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "heap/volatile_heap.hh"
#include "nvm/decision_log.hh"
#include "nvm/nvm_device.hh"
#include "pjh/pjh_heap.hh"
#include "pjh/shard_router.hh"
#include "runtime/klass_registry.hh"
#include "util/spin.hh"
#include "util/worker_pool.hh"

namespace espresso {

/** Creation-time shape of a fabric. */
struct FabricConfig
{
    /** Sizing applied to every shard. */
    PjhConfig shard;

    /** Member count; 0 resolves ESPRESSO_SHARDS, then 1. */
    unsigned shards = 0;

    /** Ring points per shard; 0 resolves ESPRESSO_SHARD_VNODES, then
     * ShardRouter::kDefaultVnodes. */
    unsigned vnodes = 0;
};

/** One consistent-hash fabric of PJH shards. */
class HeapFabric
{
  public:
    /**
     * @param registry runtime class directory.
     * @param volatile_heap DRAM heap for cross-heap GC wiring (may
     *        be null for standalone fabrics).
     * @param nvm_cfg knobs applied to every device this fabric
     *        creates (shards and manifest).
     */
    HeapFabric(KlassRegistry *registry, VolatileHeap *volatile_heap,
               NvmConfig nvm_cfg = {});
    ~HeapFabric();

    HeapFabric(const HeapFabric &) = delete;
    HeapFabric &operator=(const HeapFabric &) = delete;

    /** Resolve a shard count of 0 (ESPRESSO_SHARDS, then 1). */
    static unsigned shardsFromEnv();

    /** @name Lifecycle */
    /// @{
    /** Format the manifest and every shard (crash-tolerant; see
     * RingManifest). The fabric ends attached. */
    void create(const FabricConfig &cfg);

    /** Attach (or crash-recover) a fabric from its durable manifest
     * and shard devices. */
    void recover(SafetyLevel safety = SafetyLevel::kUserGuaranteed);

    /** Make every member live: full recover() when the fabric is
     * down, per-member reattach for individually crashed shards
     * (the loadHeap path must never hand back a null member). */
    void ensureAttached(SafetyLevel safety =
                            SafetyLevel::kUserGuaranteed);

    /** Clean shutdown of every attached shard + the manifest. */
    void detach();

    /** True while the fabric's shards are attached (individual
     * members may still be down after crashShard). */
    bool attached() const { return !heaps_.empty(); }

    /** True when create() ever committed durable state (exists on
     * devices, attached or not). */
    bool
    exists() const
    {
        return manifestDev_ != nullptr;
    }
    /// @}

    /** @name Geometry */
    /// @{
    /** Member slots in use (during a grow this already counts the
     * joining members; individual slots may be crashed/null). */
    unsigned
    shardCount() const
    {
        return memberSlots_.load(std::memory_order_acquire);
    }

    /** Committed membership epoch. */
    std::uint64_t epoch() const;

    /** Shard @p i, or nullptr while that member is crashed. */
    PjhHeap *shard(unsigned i) const;

    NvmDevice *shardDevice(unsigned i) const;
    NvmDevice *manifestDevice() const { return manifestDev_.get(); }

    /** The committed epoch's ring. */
    const ShardRouter &router() const;

    /** True while a membership change is streaming keys. */
    bool migrating() const;
    /// @}

    /** @name Routing (read side: the committed epoch's ring) */
    /// @{
    unsigned shardIndexFor(const std::string &route_key) const;

    /** Ring shard for a name/route key (must be attached). */
    PjhHeap *shardFor(const std::string &route_key) const;

    /** Ring shard for an integer key (database pks). */
    PjhHeap *shardForKey(std::uint64_t key) const;

    /** @name Write-epoch routing
     * During a membership change these follow the NEXT ring, so new
     * allocations land on their post-change home and need no
     * migration; with no change in flight they equal the committed
     * ring. The runtime's pnew paths route through these. */
    /// @{
    unsigned shardIndexForWrite(const std::string &route_key) const;
    PjhHeap *shardForWrite(const std::string &route_key) const;
    PjhHeap *shardForKeyWrite(std::uint64_t key) const;
    /// @}

    /** Attached shard whose data heap owns @p obj, or nullptr. */
    PjhHeap *homeOf(Oop obj) const;
    /// @}

    /**
     * @name Elastic membership (online grow/shrink)
     *
     * Durable state machine, same checksummed-declare pattern as
     * creation:
     *
     *   declareMigration(target)  -- fence; the change now durably
     *                                exists and recovery rolls it
     *                                forward
     *   [format + markFormatted]  -- joining members, grow only
     *   markMigrated(s)           -- after source member s's remapped
     *                                roots are durably re-homed
     *   commit                    -- epoch += 1, shardCount = target;
     *                                the atomic membership switch
     *   [retire forwards, drop leavers, clearMigration]
     *
     * Migration streams each remapped root's object closure to its
     * new home shard, publishes the root there, leaves a
     * NameKind::kForward stub (value = dest member + 1) in the old
     * home's name table, then nulls the old binding — in that order,
     * so a reader that misses the old binding is guaranteed (by the
     * name table's release/acquire value discipline) to see the
     * forward and the new binding. A crash replays the member's
     * sweep idempotently: already-moved roots are skipped (their
     * destination binding is non-null). After the commit fence the
     * forwards are retired (value 0) and, on shrink, the evacuated
     * members are torn down.
     *
     * Caller contract: one membership change at a time (internally
     * serialized), every current member attached, and no concurrent
     * collect() on source members while the change streams closures.
     */
    /// @{
    /** Add @p added members and re-home ring-remapped keys. */
    void grow(unsigned added);

    /** Evacuate and remove the last @p removed members. */
    void shrink(unsigned removed);

    /** Per-member occupancy (live members only). */
    struct Occupancy
    {
        unsigned shard;
        std::size_t used;
        std::size_t capacity;
    };
    std::vector<Occupancy> occupancy() const;

    /**
     * Fabric-aware load balancer, now a thin policy layer on the
     * migration machinery: when any live member's data occupancy is
     * at or above @p high_water (fraction of capacity), grow by
     * @p add_shards so the ring spreads its keys. Returns true when
     * a grow ran.
     */
    bool balance(double high_water, unsigned add_shards = 1);
    /// @}

    /**
     * @name Fabric-routed roots (Table 1, sharded)
     *
     * setRoot publishes on the object's home shard, then nulls any
     * stale binding other shards still carry; racing setRoots of the
     * same name are serialized by a per-name stripe lock, so the
     * last writer wins (same guarantee as the single-heap upsert).
     *
     * Republication across shards is crash-atomic (PR 6): before the
     * new publication, setRoot records a durable intent {name, home
     * shard} in a DecisionLog region on the manifest device and
     * clears it after the stale-entry sweep. recover() replays
     * surviving intents: if the new home's binding durably landed,
     * the sweep is completed (roll forward); if not, the old
     * fully-swept binding is still current and stays (roll back) —
     * either way the fabric reads one complete publication, never a
     * mix. Two exceptions fall back to the pre-PR-6 contract (crash
     * between publication and sweep leaves the previous, still-valid
     * binding visible): single-shard fabrics skip intents (nothing
     * to sweep), and names longer than the intent payload capacity
     * (DecisionLog::kMaxPayload bytes).
     *
     * Root-op vs. GC contract (PR 8 retired the PR 5 limitation):
     *  - Against a shard in *concurrent* collection (see
     *    PjhHeap::setGcConcurrent) root operations proceed throughout
     *    the marking overlap — every fabric probe routes through the
     *    shard's guarded accessors, so reads and publishes are
     *    barrier-shaded and block only for the shard's brief
     *    safepoints (initial snapshot, remark+compact).
     *  - Against a shard in *STW* collection, root operations on that
     *    shard wait for the collection to finish, exactly like any
     *    mutator access to a collecting heap. Ring-homed names (the
     *    key-routed pnew-then-publish pattern) only ever touch their
     *    own shard, so they proceed freely during other shards'
     *    collections either way.
     */
    /// @{
    void setRoot(const std::string &name, Oop obj);
    Oop getRoot(const std::string &name) const;
    bool hasRoot(const std::string &name) const;
    /// @}

    /** @name GC coordinator */
    /// @{
    /** Collect shard @p i only; other shards keep allocating. */
    void collectShard(unsigned i);

    /** Independent per-shard collections, fanned across the
     * fabric-level worker pool. */
    void collectAll();

    /** Concurrent collectAll() workers (ESPRESSO_FABRIC_GC_WORKERS;
     * default one per shard). */
    unsigned gcWorkers() const { return gcWorkers_; }
    void setGcWorkers(unsigned n);

    /** Per-shard parallel mark/compact knob, applied to every
     * member (current and future). 0 restores the per-heap default. */
    void setGcThreads(unsigned n);

    /** Per-shard concurrent-marking knob (see
     * PjhHeap::setGcConcurrent), applied to every member (current
     * and future): collectShard/collectAll then pause each shard
     * only for the snapshot and remark+compact safepoints instead of
     * the whole cycle. */
    void setGcConcurrent(bool on);
    /// @}

    /** @name Failure simulation (tests, crash sweeps) */
    /// @{
    /** Power-fail member @p i only: its volatile state drops, its
     * device reverts to the durable image; other members keep
     * serving. */
    void crashShard(unsigned i, CrashMode mode = CrashMode::kDiscardUnflushed,
                    std::uint64_t seed = 1);

    /** Re-attach a crashed member (per-shard recovery). */
    PjhHeap *reattachShard(unsigned i,
                           SafetyLevel safety = SafetyLevel::kUserGuaranteed);

    /** Power-fail the whole fabric (all shards + manifest). */
    void crashAll(CrashMode mode = CrashMode::kDiscardUnflushed,
                  std::uint64_t seed = 1);

    /** Migrate every device to a fresh mapping (forces the rebase
     * scan on the next recover()). Fabric must not be attached. */
    void migrate();

    /** Install a crash injector on the manifest device (applied at
     * create() if the device does not exist yet), so crash sweeps
     * can fire between a shard's format and the manifest commit. */
    void setManifestInjector(CrashInjector *injector);

    /** True when the manifest's durable declaration fence completed
     * (creation's atomic point; false means the fabric never
     * existed and recover() would refuse). */
    bool
    manifestDeclared() const
    {
        return manifest_.declared();
    }
    /// @}

  private:
    /** One epoch pair of rings, published atomically so traffic
     * threads read a consistent (committed, next, migrating) triple.
     * Old instances stay alive until fabric destruction — a reader
     * may still hold one. */
    struct FabricRouting
    {
        ShardRouter committed;
        ShardRouter next;
        bool migrating = false;
    };

    void wireShard(PjhHeap *heap);
    void unwireShard(PjhHeap *heap);
    void dropShardHeap(unsigned i);

    const FabricRouting *
    routingRef() const
    {
        return routing_.load(std::memory_order_acquire);
    }

    /** Publish a new routing epoch pair (membership contexts only). */
    void publishRouting(ShardRouter committed, ShardRouter next,
                        bool migrating);

    /** Publish member @p k's heap pointer for lock-free readers and
     * raise the slot high-water mark. */
    void publishMember(unsigned k, PjhHeap *heap);

    /** Validate + declare a change to @p target members, then drive
     * it to completion (caller holds membershipMu_). */
    void changeMembershipLocked(unsigned target);

    /** Drive a declared migration record to completion: bring
     * joiners up, stream each source member, commit, retire
     * forwards, tear down leavers. Idempotent — also the crash
     * roll-forward path recover() re-enters. */
    void completeMembershipChangeLocked();

    /** Stream member @p s's remapped roots to their new homes. */
    void migrateMember(unsigned s, const ShardRouter &old_ring,
                       const ShardRouter &new_ring, bool grow_dir);

    /** Move one root: clone its closure, publish on the new home,
     * leave a forward, null the old binding. */
    void migrateRoot(PjhHeap *src, const std::string &name,
                     unsigned dest_idx);

    /** Deep-copy @p obj's intra-shard closure from @p src to @p dst
     * (refs between closure members are remapped; refs out of the
     * source shard are carried verbatim). */
    Oop cloneClosure(PjhHeap *src, PjhHeap *dst, Oop obj) const;

    /** Retire (zero) every kForward stub on member @p s. */
    void retireForwards(unsigned s);

    /** Post-commit cleanup: retire forwards on the change's source
     * members, tear down evacuated members (shrink), durably clear
     * the migration record. Idempotent; also the crash roll-forward
     * path for a crash after the commit fence. */
    void finishMigrationCleanupLocked();

    /** Byte offset of the root-intent DecisionLog region on the
     * manifest device. */
    static std::size_t rootIntentsOff();

    /** Rebuild the intent-log view and roll surviving setRoot
     * intents forward/back (end of recover(), heaps attached). */
    void replayRootIntents();

    /** Format shard @p k on a fresh device sized for @p cfg. */
    void formatShard(unsigned k, const PjhConfig &cfg);

    KlassRegistry *registry_;
    VolatileHeap *volatileHeap_;
    NvmConfig nvmCfg_;

    std::unique_ptr<NvmDevice> manifestDev_;
    RingManifest manifest_;
    /** Durable setRoot republication intents, one slot per name
     * stripe (the stripe lock serializes its slot's writers). */
    DecisionLog rootIntents_;
    std::vector<std::unique_ptr<NvmDevice>> devices_;
    /** One slot per member; a crashed member's slot is null until
     * reattachShard(). Empty vector = fabric not attached. */
    std::vector<std::unique_ptr<PjhHeap>> heaps_;

    /** Lock-free mirror of heaps_ for traffic threads: grow/shrink
     * resize the owning vectors while allocators route, so hot paths
     * never touch the vectors themselves. */
    std::array<std::atomic<PjhHeap *>, RingManifestData::kMaxShards>
        live_{};
    /** Member-slot high-water mark (shardCount()). */
    std::atomic<unsigned> memberSlots_{0};

    /** Current epoch pair; history keeps old pairs alive for
     * readers that loaded them before a swap. */
    std::atomic<const FabricRouting *> routing_{nullptr};
    std::vector<std::unique_ptr<FabricRouting>> routingHistory_;

    /** Serializes grow/shrink (and their crash-resume) runs. */
    std::mutex membershipMu_;

    /** Fabric-level GC coordinator pool (distinct from each heap's
     * own mark/compact pool). */
    WorkerPool gcPool_;
    unsigned gcWorkers_ = 0;

    /** Fabric-wide per-shard GC thread override; 0 = heap default. */
    unsigned gcThreads_ = 0;

    /** Fabric-wide concurrent-marking override; -1 = heap default
     * (ESPRESSO_GC_CONCURRENT), else forced 0/1 on every member. */
    int gcConcurrent_ = -1;

    /** Pending manifest injector until create() makes the device. */
    CrashInjector *manifestInjector_ = nullptr;

    /** Serializes racing fabric setRoots of one name, so a publish
     * and its stale-entry sweep are atomic against each other (two
     * concurrent republications can otherwise null each other's
     * fresh binding). */
    static constexpr std::size_t kRootStripes = 16;
    mutable SpinLock rootLocks_[kRootStripes];
};

} // namespace espresso

#endif // ESPRESSO_PJH_HEAP_FABRIC_HH
