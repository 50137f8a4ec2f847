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
 * Both paths share the WAL, the row store, and the catalog; explicit
 * begin/commit brackets group statements, otherwise each call is
 * auto-committed.
 *
 * Concurrency (PR 4): transactions are per-thread. Each thread is
 * bound to a TxContext owning one WAL shard and the transaction's
 * row write-set; begin()/commit()/rollback()/inTransaction() operate
 * on the calling thread's context, so N threads run N transactions
 * concurrently. Commits drain through the group-commit coordinator
 * (batch window: DatabaseConfig::groupCommitWindowUs, or the
 * ESPRESSO_DB_GROUP_COMMIT env var in microseconds; 0 = eager).
 * Caller contracts: DDL (createTable / CREATE TABLE) and crash()
 * must not run concurrently with other statements.
 *
 * Transactions + isolation (PR 6): beginTxn(TxnOptions) returns an
 * explicit RAII Txn handle whose commit() reports every failure mode
 * as a db::Status; the per-thread begin()/commit()/rollback() +
 * lastTxOutcome() shims remain. Write-write conflicts across rows no
 * longer require a caller-side lock order: a wait that closes a
 * cycle aborts its youngest transaction with StatusCode::kDeadlock.
 * Isolation::kSnapshot gives latch-free consistent reads at the
 * transaction's begin timestamp, with first-committer-wins write
 * conflicts (StatusCode::kConflict) — see db/txn.hh.
 *
 * Detached sessions (PR 10, the wire front door): a Txn handle is
 * thread-affine by design — commit() from another thread reports
 * StatusCode::kMisuse ("foreign or stale transaction handle").
 * Network servers need the opposite: a connection's transaction must
 * hop between event-loop worker threads and commit on whichever
 * thread the group-commit drainer runs. beginDetached() opens a
 * transaction that lives in the engine (not in any thread's slot);
 * bindDetached()/unbindDetached() splice it into the calling
 * thread's slot around each statement batch, and
 * commitDetached()/commitDetachedAsync()/rollbackDetached() finish
 * it from any thread. Detached begins never block: they take a free
 * WAL shard token or fail with StatusCode::kBusy (admission
 * control), and their row-lock waits are bounded (kBusy abort) so an
 * event-loop worker can never park behind a stalled session.
 */

#ifndef ESPRESSO_DB_DATABASE_HH
#define ESPRESSO_DB_DATABASE_HH

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
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

    /** Resolve groupCommitWindowUs from ESPRESSO_DB_GROUP_COMMIT:
     * "auto" or a count of microseconds (envCountOrAuto); anything
     * else warns and commits eagerly. */
    static constexpr std::uint64_t kWindowFromEnv = ~0ull;

    /** Auto-tune the window from the observed commit arrival rate
     * (ESPRESSO_DB_GROUP_COMMIT=auto): an uncontended committer gets
     * the eager path, concurrent committers get a window sized to
     * one batch of arrivals. See CommitCoordinator. */
    static constexpr std::uint64_t kWindowAuto = ~0ull - 1;

    /** Group-commit batch window in microseconds; 0 commits eagerly
     * (the seed behavior); kWindowAuto auto-tunes. Defaults to the
     * env knob, else 0. */
    std::uint64_t groupCommitWindowUs = kWindowFromEnv;
};

/** How the calling thread's last transaction ended. */
enum class TxOutcome
{
    kNone,
    kCommitted,
    kRolledBack,
    kRolledBackWalFull,  ///< undo segment overflow forced a rollback
    kRolledBackDeadlock, ///< chosen as a deadlock victim
    kRolledBackConflict, ///< snapshot first-committer-wins conflict
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

    /** @name Transactions (calling thread's) */
    /// @{
    /** Open an explicit transaction on the calling thread and return
     * its handle. */
    Txn beginTxn(const TxnOptions &opts = {});

    void begin();
    void commit();
    void rollback();
    bool inTransaction() const;

    /** Outcome of the calling thread's last finished transaction. */
    TxOutcome lastTxOutcome() const;
    /// @}

    /** @name Detached transaction sessions (wire front door)
     *
     * Transferable transactions for servers whose connections hop
     * between worker threads (see file comment). Lifecycle:
     * beginDetached -> {bindDetached ... statements ...
     * unbindDetached}* -> commitDetached / commitDetachedAsync /
     * rollbackDetached. A session is either parked (owned by the
     * engine) or bound to exactly one thread; finishing a bound
     * session is a fatal protocol error.
     */
    /// @{
    /** Open a detached transaction without blocking. kBusy (with
     * *id_out == 0) when every WAL shard token is taken — nothing
     * was opened; retry later. */
    Status beginDetached(const TxnOptions &opts, std::uint64_t *id_out);

    /** Splice session @p id into the calling thread's transaction
     * slot (the slot's idle context, if any, is stashed and restored
     * on unbind). False when the id is unknown, the session is bound
     * elsewhere, or the calling thread has its own open
     * transaction. */
    bool bindDetached(std::uint64_t id);

    /** Park the bound session again; fatal when @p id is not bound
     * to the calling thread. */
    void unbindDetached(std::uint64_t id);

    /** Park the calling thread's open explicit transaction as a new
     * detached session and return its id (fatal without one). The
     * wire workers' auto-commit path: begin on the worker, execute,
     * detach, hand the commit to the async drainer. */
    std::uint64_t detachCurrentTx();

    /** Commit/roll back a parked session from any thread. Reports
     * kAborted/kWalFull/kDeadlock/kConflict/kBusy when the engine
     * already rolled the transaction back mid-statement. */
    Status commitDetached(std::uint64_t id);
    Status rollbackDetached(std::uint64_t id);

    /** Commit a parked session through the group-commit batcher
     * without blocking the calling thread; @p done fires on the
     * drainer thread (or inline for an empty/already-aborted
     * transaction) once the commit is durable. */
    void commitDetachedAsync(std::uint64_t id,
                             std::function<void(Status)> done);

    /** Parked + bound session count (leak checks). */
    std::size_t detachedCount() const;

    /** WAL shards whose transaction token is currently held (leak
     * checks: 0 once every session is finished). */
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

    /** Simulate a power failure and reopen (rolls back every open
     * txn; @p is_committed resolves transactions that crashed
     * between 2PC prepare and commit). Callers must be quiesced. */
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

    /** WAL shard bound to the calling thread. */
    unsigned currentTxShard();
    /// @}

  private:
    friend class Txn;
    friend class ShardedDatabase;

    /** Per-thread transaction state. */
    struct TxContext
    {
        unsigned shardId = 0;
        bool explicitTx = false;
        /** Set when the engine rolled an explicit txn back
         * mid-statement (log full, deadlock victim, snapshot
         * conflict); the next commit()/rollback() consumes it
         * instead of fataling. */
        bool aborted = false;
        StatusCode abortCode = StatusCode::kOk;
        TxOutcome lastOutcome = TxOutcome::kNone;
        Isolation isolation = Isolation::kReadUncommitted;
        /** Snapshot timestamp (kNoSnapshot outside kSnapshot). */
        Word snapshot = kNoSnapshot;
        /** False when a sharded bracket registered the snapshot. */
        bool ownsSnapshot = false;
        /** Begin sequence of the open (or last) transaction; ties a
         * Txn handle to the engine-side state. */
        std::uint64_t txnSeq = 0;
        RowTxState rowTx;
    };

    /** A parked transferable transaction (see beginDetached). */
    struct DetachedSession
    {
        /** The parked transaction (null while bound to a thread). */
        std::unique_ptr<TxContext> ctx;
        /** The binder's displaced idle slot context. */
        std::unique_ptr<TxContext> stash;
        /** Thread token of the binder (0 = parked). */
        std::uint64_t boundToken = 0;
    };

    TxContext &txContext();
    TxContext *txContextIfAny() const;

    /** Remove parked session @p id from the table (fatal when
     * unknown or bound). */
    std::unique_ptr<TxContext> takeDetached(std::uint64_t id);

    /** @return false only in nowait mode, when no WAL shard token
     * was free (nothing was opened). nowait begins also bound the
     * row-lock wait so the transaction aborts kBusy instead of
     * parking its thread. */
    bool beginTx(TxContext &ctx,
                 Isolation iso = Isolation::kReadUncommitted,
                 Word bracket_snapshot = kNoSnapshot,
                 bool nowait = false);
    void commitTx(TxContext &ctx);
    void rollbackTx(TxContext &ctx, TxOutcome outcome);

    /** Post-durable-commit bookkeeping: allocate + publish the
     * commit timestamp, stamp rows, close the bracket. */
    void finishCommitLocal(TxContext &ctx);

    /** Shared tail of commit/rollback: writer exit, snapshot end,
     * shard release. */
    void endTxCommon(TxContext &ctx);

    /** @name Txn-handle plumbing (thread-affine) */
    /// @{
    Status commitHandle(std::uint64_t seq);
    Status rollbackHandle(std::uint64_t seq);
    bool handleActive(std::uint64_t seq) const;
    /// @}

    /** @name 2PC member protocol (driven by ShardedDatabase) */
    /// @{
    /** Like begin(), for a sharded bracket: the bracket's isolation
     * and (already registered) snapshot apply to the member txn. */
    void beginWith(Isolation iso, Word bracket_snapshot);

    /** Nowait beginWith: false when no WAL shard token was free
     * (nothing was opened). */
    bool beginWithTry(Isolation iso, Word bracket_snapshot);

    /** Prepare the calling thread's open transaction under
     * @p txn_id; false when it logged nothing (vote commit with no
     * prepared state — finish retires it empty). */
    bool prepareTx2pc(Word txn_id);

    /** Publish @p ts as the open transaction's commit timestamp.
     * Caller holds the shared SnapshotClock's mu. */
    void publishCommitTsLocked(Word ts);

    /** Complete the member commit after the coordinator's durable
     * decision: retire the prepared segment (or the empty bracket),
     * stamp rows with @p ts, close out. */
    void finishPreparedTx(Word ts, bool prepared);
    /// @}

    /** Snapshot of the calling thread's open transaction (or
     * kNoSnapshot). */
    Word currentSnapshot() const;

    /** Run @p fn inside the calling thread's transaction, opening a
     * statement-scoped one when none is active; a WAL-full error,
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
    /** Begin sequences for TxnCtrl::seq / Txn handles (never 0). */
    std::atomic<std::uint64_t> txnSeqCounter_{1};

    /** DDL serialization (DDL vs DML concurrency is the caller's
     * contract, matching the catalog's). */
    std::mutex ddlMu_;

    mutable SpinLock ctxMu_;
    /** Keyed by a never-recycled per-thread token (std::thread::id
     * values can be reused, which would hand a new thread a dead
     * thread's transaction state). Entries are not reaped; growth is
     * bounded by the number of threads that ever touch this
     * database. */
    std::unordered_map<std::uint64_t, std::unique_ptr<TxContext>>
        ctxs_;
    /** Detached sessions by id (under ctxMu_). */
    std::unordered_map<std::uint64_t, DetachedSession> detached_;
    std::atomic<std::uint64_t> detachedIdCounter_{1};
    std::atomic<unsigned> nextShard_{0};

    /** Identity for the thread-local context cache. */
    std::uint64_t serial_;
    /** Bumped by crash() so stale cached contexts revalidate. */
    std::atomic<std::uint64_t> generation_{0};
};

} // namespace db
} // namespace espresso

#endif // ESPRESSO_DB_DATABASE_HH
