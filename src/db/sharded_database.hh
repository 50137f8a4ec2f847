/**
 * @file
 * ShardedDatabase — the embedded database over a consistent-hash
 * shard fabric.
 *
 * Partitions every table horizontally by primary key: pk → shard via
 * the same ShardRouter the heap fabric uses, one full Database engine
 * (catalog + row store + sharded undo WAL + group-commit coordinator)
 * per shard, each on its own NvmDevice. DDL broadcasts; the direct
 * (DBPersistable) record path routes point operations by pk and fans
 * scans out across members in shard order. Because every member owns
 * its WAL, crash recovery is per-shard-local — one member's power
 * failure never corrupts the others.
 *
 * Transactions: a db::Txn from beginTxn()/tryBeginTxn() is a bracket
 * that may touch several shards. It owns one member Txn per member
 * it joined, opened lazily on the first statement that routes there,
 * and binds and parks them with itself. Statements outside a bracket
 * auto-commit on their member.
 *
 * Cross-shard atomicity is two-phase commit. A bracket that wrote
 * N > 1 members commits by (1) preparing each member in ascending
 * shard order — the member durably marks its staged undo segment
 * "prepared" under a coordinator-issued transaction id — then (2)
 * publishing the commit decision as one fenced record in the
 * coordinator's DecisionLog (its own small NVM device), then (3)
 * retiring every prepared member. These steps act on the member Txns
 * directly, so a parked bracket commits on any thread. The decision
 * record is the commit point: crash() recovery reads the surviving
 * decisions and rolls a member's prepared segment forward iff its
 * transaction id has one, else back (presumed abort) — so a crash
 * anywhere in the protocol leaves all members committed or all
 * rolled back. Single-member brackets skip the coordinator entirely
 * and keep the one-fence eager/group-commit path. Multi-member
 * prepares fence eagerly, bypassing each member's group-commit
 * batching (a 2PC commit is already a multi-fence protocol; batching
 * the prepares would serialize unrelated brackets on each other's
 * decisions).
 *
 * Isolation: members share one SnapshotClock, so a kSnapshot bracket
 * takes a single fabric-wide timestamp and the 2PC decision flips
 * visibility of all members' rows atomically (the commit timestamp
 * is published into every member's control block inside one clock
 * critical section). A WAL-full, deadlock, bounded-wait or snapshot
 * conflict abort on any member aborts the whole bracket: every
 * touched shard rolls back, the error propagates, and the Txn's
 * commit() reports it.
 *
 * Elastic membership: grow()/shrink() repartition every table over a
 * new ring while point operations and brackets keep running. The
 * change publishes an epoch *pair* {committed, next}: writes and
 * inserts route by the next ring immediately; reads probe the new
 * home first and fall back to the old one while rows stream over.
 * Each remapped row moves in its own cross-shard 2PC bracket
 * (write-lock source → upsert dest → delete source → commit), so a
 * mover and a concurrent user write serialize on the row lock and a
 * snapshot scan sees exactly one copy of every row. Open brackets
 * drain at two fences — before the pair is published and before the
 * new ring is committed — matching the heap fabric's declare →
 * migrate → commit protocol. A crash mid-change is resumed by
 * resumeMembershipChange() after crash(); the per-row move brackets
 * are idempotent (absent source rows are skipped), so the
 * repartition simply re-runs. Shrunk members are retained as
 * unlisted zombies so member indices stay stable for the life of
 * the instance.
 *
 * Caller contracts (same as Database): DDL, crash()/crashShard(),
 * and grow()/shrink() must not run concurrently with other
 * statements *on the calling thread*; other threads' traffic keeps
 * flowing and is drained at the two fences. The SQL ingress path is
 * not routed (use a per-shard Database for SQL); the record path is
 * the sharded surface.
 */

#ifndef ESPRESSO_DB_SHARDED_DATABASE_HH
#define ESPRESSO_DB_SHARDED_DATABASE_HH

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "db/database.hh"
#include "nvm/decision_log.hh"
#include "pjh/shard_router.hh"

namespace espresso {
namespace db {

/** Sizing for a ShardedDatabase. */
struct ShardedDatabaseConfig
{
    /** Per-member engine sizing. */
    DatabaseConfig shard;

    /** Member count; 0 resolves ESPRESSO_SHARDS, then 1. */
    unsigned shards = 0;

    /** Ring points per member; 0 resolves ESPRESSO_SHARD_VNODES,
     * then ShardRouter::kDefaultVnodes. */
    unsigned vnodes = 0;
};

/** One pk-partitioned database fabric. */
class ShardedDatabase
{
  public:
    explicit ShardedDatabase(const ShardedDatabaseConfig &cfg = {},
                             NvmConfig nvm_cfg = {});
    ~ShardedDatabase();

    ShardedDatabase(const ShardedDatabase &) = delete;
    ShardedDatabase &operator=(const ShardedDatabase &) = delete;

    /** @name Geometry */
    /// @{
    /** Listed member count: the committed membership, or the union
     * of old and new memberships while a change is migrating (scans
     * must cover joiners and leavers until the commit fence). */
    unsigned
    shardCount() const
    {
        return memberCount_.load(std::memory_order_acquire);
    }

    Database &shard(unsigned i) { return *shards_[i]; }

    /** The committed ring (reads; the pre-change ring mid-change). */
    const ShardRouter &router() const { return routingRef().committed; }

    /** Routes by the *next* ring: where writes land, and where a
     * remapped pk lives once its move bracket commits. */
    unsigned
    shardIndexForPk(std::int64_t pk) const
    {
        return routingRef().next.shardForKey(
            static_cast<std::uint64_t>(pk));
    }

    Database &
    shardForPk(std::int64_t pk)
    {
        return *shards_[shardIndexForPk(pk)];
    }
    /// @}

    /** @name Elastic membership */
    /// @{
    /**
     * Add @p added members and repartition every table over the
     * grown ring while traffic keeps flowing (see the file comment
     * for the fence protocol). Joiners replay the catalog before
     * they are published. Serializes against other membership
     * changes; the calling thread must hold no open bracket.
     */
    void grow(unsigned added);

    /** Remove the top @p removed members, streaming every row they
     * hold to its new home first. The shrunk members' engines are
     * retained (unlisted) until destruction. */
    void shrink(unsigned removed);

    /** Re-run an interrupted membership change after crash(): the
     * repartition's per-row move brackets are idempotent, so the
     * change rolls forward to its commit fence. No-op when no
     * change was in flight. */
    void resumeMembershipChange();

    /** True while a membership change is streaming rows. */
    bool migrating() const { return routingRef().migrating; }
    /// @}

    /** @name Transactions */
    /// @{
    /** Open a bracket bound to the calling thread. Admission parks
     * while a membership change drains brackets; member joins queue
     * for their WAL shard. commitAsync() commits on the calling
     * thread, then calls done. */
    Txn beginTxn(const TxnOptions &opts = {});

    /** Never queue: decline kBusy while a membership change drains
     * brackets. A member join that finds no free WAL shard token, or
     * a row-lock wait that runs out, aborts the bracket kBusy. */
    Status tryBeginTxn(const TxnOptions &opts, Txn *out);

    /** Brackets begun and not yet finished (leak checks). */
    unsigned
    openTxnCount() const
    {
        return activeBrackets_.load(std::memory_order_acquire);
    }

    /** Held WAL shard tokens across all members (leak checks). */
    unsigned busyWalShards() const;
    /// @}

    /** @name Direct (DBPersistable) path, pk-routed */
    /// @{
    /** Broadcast DDL: every member carries every table's schema. */
    void createTable(const TableSchema &schema);

    void persistRecord(const std::string &table, const DbRecord &record);

    /** Masked update ONLY — false when the pk is absent (the wire
     * kUpdate surface; same migration-aware two-home probing as
     * persistRecord). */
    bool updateRecord(const std::string &table, const DbRecord &record);

    bool fetchRecord(const std::string &table, std::int64_t pk,
                     DbRecord *out);
    bool deleteRecord(const std::string &table, std::int64_t pk);

    /** Fan-out scan in ascending shard order. */
    void scanEq(const std::string &table, const std::string &column,
                const DbValue &v,
                const std::function<void(const std::vector<DbValue> &)>
                    &fn);

    /** Sum over members. */
    std::size_t rowCount(const std::string &table);
    /// @}

    /** @name Failure simulation */
    /// @{
    /**
     * Power-fail member @p i only; it recovers from its own WAL
     * while the other members keep serving *reads and new
     * auto-committed work*. Every open bracket goes inert, so
     * callers must be quiesced with no open bracket anywhere (same
     * contract as Database::crash); under that contract no member
     * holds 2PC prepared state, so the member recovers
     * presumed-abort.
     */
    void crashShard(unsigned i,
                    CrashMode mode = CrashMode::kDiscardUnflushed,
                    std::uint64_t seed = 1);

    /** Power-fail every member *and the coordinator device*, then
     * recover: surviving commit decisions roll their prepared
     * members forward, everything else rolls back. Callers must be
     * quiesced (brackets killed mid-2PC by a SimulatedCrash count
     * as quiesced — their threads are dead). */
    void crash(CrashMode mode = CrashMode::kDiscardUnflushed,
               std::uint64_t seed = 1);
    /// @}

    /** @name Introspection (tests, tools) */
    /// @{
    /** The 2PC coordinator's decision-log device (fault-injection
     * point for crash sweeps). */
    NvmDevice &coordinatorDevice() { return *coordDev_; }

    SnapshotClock &snapshotClock() { return clock_; }
    /// @}

  private:
    static constexpr unsigned kCoordSlots = 64;
    static constexpr unsigned kNoCoordSlot = ~0u;

    /** One cross-shard bracket's state (defined in the .cc). */
    struct Bracket;

    /** The calling thread's bound, active bracket (or null). */
    Bracket *boundBracket() const;

    /** Register and bind a bracket (admission already counted). */
    Txn openBracket(const TxnOptions &opts, bool nowait);

    /** Run a routed statement inside the bound bracket (@p fn gets
     * it, or null): a member abort kills the whole bracket, a power
     * failure leaves it inert. */
    template <typename Fn> auto routed(Fn &&fn);

    /** Finish @p b for its Txn (see Database::finishTx). */
    Status finishBracket(Bracket &b, bool commit);

    /** Commit the bracket: direct member commit for ≤ 1 member,
     * 2PC for more. */
    Status commitBracket(Bracket &b);

    /** Roll back every joined member (abort / rollback path). */
    void abortBracket(Bracket &b);

    /** Shared bracket epilogue: release the snapshot, uncount. */
    void closeBracket(Bracket &b);

    /** Open the bracket's member transaction on @p idx if needed. */
    void joinShard(Bracket *b, unsigned idx);

    /** Kill the bracket after a member aborted mid-statement. */
    void noteMemberAbort(Bracket *b, StatusCode code);

    /** @name Coordinator decision-slot allocation */
    /// @{
    unsigned claimCoordSlot();
    void releaseCoordSlot(unsigned slot);
    /// @}

    /** pk column of @p table (members share one catalog shape). */
    std::int64_t pkOf(const std::string &table, const DbRecord &record);

    /**
     * The published routing epoch pair. While a membership change is
     * migrating, writes route by @p next and reads probe next-then-
     * committed; outside a change the two rings are identical.
     * Instances are immutable once published and retained until
     * destruction, so a lock-free reader's reference never dangles.
     */
    struct DbRouting
    {
        ShardRouter committed;
        ShardRouter next;
        bool migrating = false;
    };

    const DbRouting &
    routingRef() const
    {
        return *routing_.load(std::memory_order_acquire);
    }

    void publishRouting(ShardRouter committed, ShardRouter next,
                        bool migrating);

    /** @name Membership-change machinery (membershipMu_ held) */
    /// @{
    /** Declare + migrate + commit for from → target members. */
    void runMembershipChangeLocked(unsigned from, unsigned target);

    /** Stream every remapped row to its new home, one idempotent
     * 2PC bracket per row. */
    void repartition(unsigned from, unsigned target);

    /** Move one row: lock at @p src, upsert at @p dst, delete at
     * @p src, commit — retrying when chosen as a deadlock victim. */
    void moveRow(const std::string &table, unsigned src, unsigned dst,
                 std::int64_t pk);

    /** Construct one joiner engine and replay the catalog into it. */
    void addMemberLocked();
    /// @}

    /** @name Bracket drain fence */
    /// @{
    /** Raise the barrier and wait for every counted bracket to
     * close (new beginTxn calls park on the barrier). */
    void quiesceBrackets();
    void releaseBrackets();
    /// @}

    ShardedDatabaseConfig cfg_;
    /** Ring points per member (resolved once; rebuilt rings match). */
    unsigned vnodes_ = ShardRouter::kDefaultVnodes;
    /** Member engine sizing, kept for joiners. */
    NvmConfig nvmCfg_;

    /** Current routing epoch pair (see DbRouting). */
    std::atomic<const DbRouting *> routing_{nullptr};
    /** Every routing ever published (lock-free readers may still
     * hold references; guarded by routingMu_). */
    std::vector<std::unique_ptr<DbRouting>> routingHistory_;
    SpinLock routingMu_;

    /** Listed members (see shardCount()). */
    std::atomic<unsigned> memberCount_{0};

    /** Serializes membership changes. */
    SpinLock membershipMu_;
    /** In-flight change for resumeMembershipChange() (guarded by
     * membershipMu_). */
    bool migrPending_ = false;
    unsigned migrFrom_ = 0;
    unsigned migrTarget_ = 0;

    /** Bracket drain fence: beginTxn parks while the barrier is up;
     * quiesceBrackets waits for the count to hit zero. */
    std::atomic<bool> bracketBarrier_{false};
    std::atomic<unsigned> activeBrackets_{0};

    /** One commit clock across all members: cross-shard commits get
     * one timestamp, snapshots are fabric-wide. */
    SnapshotClock clock_;

    /** The coordinator's own durable home (decision records must
     * survive crashes independently of any member). */
    std::unique_ptr<NvmDevice> coordDev_;
    DecisionLog coordLog_;
    /** Serializes coordinator id reservation. */
    SpinLock coordMu_;
    /** Live decision slots (bit i = slot i claimed). */
    std::atomic<std::uint64_t> coordSlotBitmap_{0};

    /** Member engines. Reserved to RingManifestData::kMaxShards up
     * front so push_back never reallocates under indexed readers;
     * shrunk members stay as unlisted zombies (indices are stable
     * for the life of the instance). */
    std::vector<std::unique_ptr<Database>> shards_;

    /** Bumped by crash()/crashShard(): brackets begun before are
     * lost. */
    std::atomic<std::uint64_t> generation_{0};
};

} // namespace db
} // namespace espresso

#endif // ESPRESSO_DB_SHARDED_DATABASE_HH
