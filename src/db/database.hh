/**
 * @file
 * The embedded database (mini-H2) running on emulated NVM.
 *
 * Two ingress paths over one storage/transaction core, mirroring the
 * paper's Fig. 1 vs Fig. 13:
 *
 *  - executeSql(): the JDBC path. Statements arrive as text, are
 *    tokenized/parsed/typed (the transformation cost the ORM's JPA
 *    provider pays on top of its own SQL formatting), then executed.
 *  - persistRecord()/fetchRecord()/deleteRecord(): the DBPersistable
 *    path. Typed records arrive directly, with a per-column dirty
 *    mask enabling field-level updates (§5).
 *
 * Both paths share the WAL, the row store, and the catalog. A
 * statement runs inside the calling thread's bound db::Txn (see
 * db/txn.hh), or else auto-commits on its own.
 *
 * Transactions: beginTxn() and tryBeginTxn() open a Txn that owns
 * one undo-WAL shard (its token), its row write set and its
 * snapshot, so up to walShards transactions log concurrently. Write
 * locks are strict two-phase; a wait that closes a cycle aborts the
 * youngest transaction with StatusCode::kDeadlock. Commits go
 * through the group-commit coordinator, which has one discipline: a
 * sync commit() commits eagerly on its own thread, and a
 * commitAsync() parks for the drainer, which drains whatever is
 * pending when it runs (natural group commit; no commit waits for
 * arrivals). Sync commits stay eager because parking them behind a
 * drain measured slower (see CommitCoordinator). An engine-side
 * abort (WAL full, deadlock, snapshot conflict, bounded-wait kBusy)
 * rolls the whole transaction back; the Txn's commit() reports why.
 *
 * Caller contracts: DDL (createTable / CREATE TABLE) and crash()
 * must not run concurrently with other statements.
 */

#ifndef ESPRESSO_DB_DATABASE_HH
#define ESPRESSO_DB_DATABASE_HH

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/catalog.hh"
#include "db/commit_coordinator.hh"
#include "db/row_store.hh"
#include "db/sql_parser.hh"
#include "db/status.hh"
#include "db/txn.hh"
#include "db/wal.hh"
#include "nvm/nvm_device.hh"
#include "util/phase_timer.hh"
#include "util/spin.hh"

namespace espresso {
namespace db {

/** Sizing for a Database device. */
struct DatabaseConfig
{
    std::size_t rowRegionSize = 32u << 20;
    std::size_t walSize = 4u << 20;
    std::size_t rowsPerTable = 8192;

    /** Undo-WAL shards: up to this many transactions log without
     * blocking each other (extra threads queue on a shard). */
    unsigned walShards = 8;

    /** Read by nothing; kept because espresso_bench names it. */
    static constexpr std::uint64_t kWindowAuto = ~0ull - 1;

    /** Read by nothing; kept because espresso_bench sets it. */
    std::uint64_t groupCommitWindowUs = 0;
};

/** Query result. */
struct ResultSet
{
    std::vector<std::string> columns;
    std::vector<std::vector<DbValue>> rows;

    /** Rows affected, for DML statements. */
    std::size_t affected = 0;
};

/** A typed record for the direct (DBPersistable) path. */
struct DbRecord
{
    std::vector<DbValue> values;
    std::uint64_t dirtyMask = ~0ull;
};

/** One embedded database instance. */
class Database
{
  public:
    /** @param shared_clock commit clock shared with other members of
     * a sharded runtime (null: this instance owns its own). */
    explicit Database(const DatabaseConfig &cfg = {},
                      NvmConfig nvm_cfg = {},
                      SnapshotClock *shared_clock = nullptr);
    ~Database();

    Database(const Database &) = delete;
    Database &operator=(const Database &) = delete;

    /** Attribute engine time to @p timer ("database" bucket) and SQL
     * parsing to "transformation". */
    void setPhaseTimer(PhaseTimer *timer) { timer_ = timer; }

    /** @name Transactions */
    /// @{
    /** Open a transaction bound to the calling thread, queueing for
     * the thread's home WAL shard (so up to walShards threads never
     * queue on each other). Its commitAsync() completes on the
     * group-commit drainer once durable, or inline when the
     * transaction wrote nothing or was already aborted. */
    Txn beginTxn(const TxnOptions &opts = {});

    /** Never queue: take any free WAL shard token, searching from the
     * home shard, or decline kBusy with nothing opened. The
     * transaction's row-lock waits are bounded and abort it kBusy
     * (the wire front door's event loops must never park). */
    Status tryBeginTxn(const TxnOptions &opts, Txn *out);

    /** WAL shards whose transaction token is currently held: one per
     * open transaction (leak checks). */
    unsigned busyWalShards() const;
    /// @}

    /** @name SQL (JDBC) path */
    /// @{
    ResultSet executeSql(const std::string &sql);
    /// @}

    /** @name Direct (DBPersistable) path */
    /// @{
    void createTable(const TableSchema &schema);

    /** Insert or (masked) update by primary key. */
    void persistRecord(const std::string &table, const DbRecord &record);

    /** Masked update ONLY — false when the pk is absent, never an
     * insert. The sharded layer's epoch-pair writes need to probe
     * "update wherever the row lives" without upsert resurrecting a
     * row on the wrong member mid-repartition. */
    bool updateRecord(const std::string &table, const DbRecord &record);

    bool fetchRecord(const std::string &table, std::int64_t pk,
                     DbRecord *out);

    /** Write-locking read: claim the row (strict 2PL, held to the
     * end of the current transaction) and return its committed
     * values; false when absent. The repartition row mover reads
     * the source row through this so the move serializes against
     * concurrent updates. */
    bool fetchForUpdate(const std::string &table, std::int64_t pk,
                        DbRecord *out);

    bool deleteRecord(const std::string &table, std::int64_t pk);

    /** Visit every live row's primary key (read-uncommitted; the
     * repartition scanner's enumeration). */
    void forEachPk(const std::string &table,
                   const std::function<void(std::int64_t)> &fn);

    /** Version-chain length behind @p pk (chain-trim regression
     * hook). */
    std::size_t versionChainDepth(const std::string &table,
                                  std::int64_t pk);

    /** Scan by single-column equality (child tables, fk lookups). */
    void scanEq(const std::string &table, const std::string &column,
                const DbValue &v,
                const std::function<void(const std::vector<DbValue> &)>
                    &fn);
    /// @}

    /** @name Reads at an explicit snapshot (sharded-bracket reads:
     * the calling thread need not hold an open member transaction) */
    /// @{
    bool fetchRecordAt(const std::string &table, std::int64_t pk,
                       DbRecord *out, Word snapshot);
    void scanEqAt(const std::string &table, const std::string &column,
                  const DbValue &v,
                  const std::function<void(const std::vector<DbValue> &)>
                      &fn,
                  Word snapshot);
    /// @}

    std::size_t rowCount(const std::string &table);

    /** Simulate a power failure and reopen (recovery rolls back every
     * open transaction, whose Txns go inert; @p is_committed resolves
     * transactions that crashed between 2PC prepare and commit).
     * Callers must be quiesced. */
    void crash(CrashMode mode = CrashMode::kDiscardUnflushed,
               std::uint64_t seed = 1,
               const WalShard::ResolveFn &is_committed = {});

    NvmDevice &device() { return *dev_; }
    const Catalog &catalog() const { return catalog_; }

    /** @name Introspection (tests, tools) */
    /// @{
    Wal &wal() { return *wal_; }
    CommitCoordinator &commitCoordinator() { return *coordinator_; }
    SnapshotClock &snapshotClock() { return *clock_; }

    /** WAL shard of the calling thread's bound transaction, else its
     * home shard. */
    unsigned currentTxShard();
    /// @}

  private:
    friend class ShardedDatabase;

    /** One transaction's engine state (defined in database.cc). */
    struct TxContext;

    /** The calling thread's bound, active transaction (or null). */
    TxContext *boundTx() const;

    /** The calling thread's home WAL shard (round-robin on first
     * use). */
    unsigned homeShard();

    /** Open a bound transaction; empty when @p nowait found no free
     * WAL shard token. @p bracket_snapshot: a sharded bracket's
     * already-registered snapshot. */
    Txn openTxn(Isolation iso, Word bracket_snapshot, bool nowait);

    /** @return false only in nowait mode, when no WAL shard token
     * was free (nothing was opened). */
    bool beginTx(TxContext &ctx, Isolation iso, Word bracket_snapshot,
                 bool nowait);
    void commitTx(TxContext &ctx);
    void rollbackTx(TxContext &ctx);

    /** Finish @p ctx for its Txn; reports an engine-side abort, and
     * touches nothing when the transaction was lost to a power
     * failure. */
    Status finishTx(TxContext &ctx, bool commit);

    /** Txn::commitAsync for a Database transaction. */
    void commitTxAsync(std::unique_ptr<TxContext> ctx,
                       std::function<void(Status)> done);

    /** Post-durable-commit bookkeeping: allocate + publish the
     * commit timestamp, stamp rows, close the bracket. */
    void finishCommitLocal(TxContext &ctx);

    /** Shared tail of commit/rollback: snapshot end, shard release. */
    void endTxCommon(TxContext &ctx);

    /** @name 2PC member protocol (driven by ShardedDatabase on a
     * bracket's member transaction, from any thread) */
    /// @{
    /** Prepare @p member under @p txn_id; false when it logged
     * nothing (vote commit with no prepared state — finish retires
     * it empty). */
    bool prepareTx2pc(Txn &member, Word txn_id);

    /** Publish @p ts as @p member's commit timestamp. Caller holds
     * the shared SnapshotClock's mu. */
    void publishCommitTsLocked(Txn &member, Word ts);

    /** Complete the member commit after the coordinator's durable
     * decision: retire the prepared segment (or the empty bracket),
     * stamp rows with @p ts, close out; @p member is spent. */
    void finishPreparedTx(Txn &member, Word ts, bool prepared);
    /// @}

    /** Snapshot of the calling thread's bound transaction (or
     * kNoSnapshot). */
    Word currentSnapshot() const;

    /** Run @p fn inside the calling thread's bound transaction, or in
     * a statement-scoped one when none is active; a WAL-full error,
     * deadlock, or snapshot conflict rolls the whole transaction
     * back. */
    template <typename Fn> ResultSet mutate(Fn &&fn);

    ResultSet execute(const SqlStatement &stmt);
    std::size_t tableIndexOrDie(const std::string &table);
    ResultSet executeCreateTable(const TableSchema &schema);

    DatabaseConfig cfg_;
    std::size_t rowsOff_ = 0;
    std::unique_ptr<NvmDevice> dev_;
    Catalog catalog_;
    std::unique_ptr<Wal> wal_;
    std::unique_ptr<RowStore> rows_;
    std::unique_ptr<CommitCoordinator> coordinator_;
    PhaseTimer *timer_ = nullptr;

    /** In-flight transaction control blocks, indexed by token - 1
     * (one per WAL shard). */
    std::unique_ptr<TxnCtrl[]> ctrls_;
    /** Owned clock when no shared one was passed in. */
    std::unique_ptr<SnapshotClock> ownedClock_;
    SnapshotClock *clock_ = nullptr;
    /** Begin sequences for TxnCtrl::seq (never 0). */
    std::atomic<std::uint64_t> txnSeqCounter_{1};

    /** DDL serialization (DDL vs DML concurrency is the caller's
     * contract, matching the catalog's). */
    std::mutex ddlMu_;

    /** Home WAL shard per thread token; not reaped, so growth is
     * bounded by the threads that ever touch this database. */
    SpinLock homesMu_;
    std::unordered_map<std::uint64_t, unsigned> homes_;
    unsigned nextShard_ = 0; ///< guarded by homesMu_

    /** Bumped by crash(): transactions begun before are lost. */
    std::atomic<std::uint64_t> generation_{0};
};

} // namespace db
} // namespace espresso

#endif // ESPRESSO_DB_DATABASE_HH
