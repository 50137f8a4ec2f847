/**
 * @file
 * Slotted fixed-width row storage on the database device, with a
 * volatile primary-key hash index per table (rebuilt on open, the
 * way H2 rebuilds/loads in-memory indexes).
 *
 * Every mutation logs the old row image through the caller's WAL
 * shard before touching it, so statement atomicity and crash
 * rollback come for free.
 *
 * Concurrency: many transactions mutate one table at once.
 *  - The volatile indexes (pkIndex/eqIndex/freeRows/highWater) sit
 *    behind one short per-table spinlock (`indexMu`).
 *  - Row bytes are copied under striped per-row latches, so readers
 *    never observe a torn row.
 *  - A writing transaction additionally claims the row's owner word
 *    and keeps it until commit/rollback (strict two-phase on
 *    writes): two in-flight transactions can never both hold undo
 *    images of one row, which is what makes undo-rollback of one
 *    transaction unable to clobber another's committed write.
 *  - Writers that close a wait cycle are detected (waits-for walk
 *    over the TxnCtrl blocks) and the youngest cycle member aborts
 *    with StatusCode::kDeadlock instead of spinning forever.
 *  - erase() defers both the slot's return to the free list and the
 *    pk/eq index removals until commit, so a rolled-back delete
 *    never races a reuse of its slot or its primary key; the
 *    deleting transaction itself may still re-insert the pk.
 *
 * MVCC: row header word 1 is the version word — the row's commit
 * timestamp, or a dirty marker naming the in-flight writer. Every
 * writer pushes the pre-image of each row it touches onto a volatile
 * per-slot version chain before dirtying it, and stamps the rows
 * with its commit timestamp; snapshot readers resolve each row to
 * the newest version committed at or before their snapshot, walking
 * the chain when the current bytes are too new. Chains keep only
 * images some active snapshot can reach, so with no snapshot active
 * a commit drops them again. Committed deletes whose timestamp is
 * newer than the oldest active snapshot become gravestones: the
 * slot, pk mapping, and chain stay put (readers still resolve the
 * dead row's history) until no snapshot needs them, then a lazy
 * sweep reaps them.
 */

#ifndef ESPRESSO_DB_ROW_STORE_HH
#define ESPRESSO_DB_ROW_STORE_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "db/catalog.hh"
#include "db/txn.hh"
#include "db/wal.hh"
#include "util/spin.hh"

namespace espresso {

class NvmDevice;

namespace db {

/**
 * Per-transaction row-store write state: the rows this transaction
 * has write-locked, and slot frees deferred to commit. Owned by the
 * engine's TxContext; token is unique among in-flight transactions.
 */
struct RowTxState
{
    Word token = 0;
    /** Bounded write-lock wait: abort with StatusCode::kBusy after
     * this many 256-spin rounds instead of waiting forever (0 =
     * unbounded). No-wait transactions — the network front door's
     * event-loop sessions — set this so a worker thread can never
     * park behind a lock whose holder is itself a parked session
     * waiting for that same worker to process its commit frame. */
    std::uint32_t maxSpinRounds = 0;
    /** Snapshot timestamp for SI write-conflict checks (0 = none). */
    Word snapshot = kNoSnapshot;
    std::vector<std::pair<std::size_t, std::size_t>> ownedRows;
    std::vector<std::pair<std::size_t, std::size_t>> deferredFree;
    /** Index removals deferred to commit — (table, pk, idx): an
     * uncommitted delete keeps its pk reserved, so a concurrent
     * same-pk insert can't slip in only to be resurrected over by
     * the delete's rollback. */
    std::vector<std::tuple<std::size_t, std::int64_t, std::size_t>>
        deferredPkErase;
    /** (table, eqKey, idx), for the secondary index. */
    std::vector<std::tuple<std::size_t, std::int64_t, std::size_t>>
        deferredEqErase;
};

/** All tables' row regions. */
class RowStore
{
  public:
    RowStore() = default;

    /**
     * @param device backing device.
     * @param base row-region base address.
     * @param size region capacity in bytes.
     * @param catalog schema source.
     * @param rows_per_table fixed table capacity.
     * @param ctrls in-flight transaction control blocks, indexed by
     *        token - 1 (may be null: no MVCC, no deadlock checks).
     * @param ctrl_count number of entries in @p ctrls.
     * @param clock the commit clock / snapshot registry (may be
     *        null alongside @p ctrls).
     */
    RowStore(NvmDevice *device, Addr base, std::size_t size,
             Catalog *catalog, std::size_t rows_per_table,
             TxnCtrl *ctrls = nullptr, unsigned ctrl_count = 0,
             SnapshotClock *clock = nullptr);

    RowStore(const RowStore &) = delete;
    RowStore &operator=(const RowStore &) = delete;

    /** Insert; false when the primary key already exists. */
    bool insert(std::size_t table, const std::vector<DbValue> &row,
                WalShard &wal, RowTxState &tx);

    /**
     * Update columns selected by @p dirty_mask (bit per column; the
     * pk column is never rewritten); false when the pk is absent.
     * @throws TxnAbortError(kConflict) when @p tx runs at snapshot
     * isolation and the row committed after its snapshot.
     */
    bool update(std::size_t table, std::int64_t pk,
                const std::vector<DbValue> &row, std::uint64_t dirty_mask,
                WalShard &wal, RowTxState &tx);

    /** Delete by pk; false when absent. Conflicts as update(). */
    bool erase(std::size_t table, std::int64_t pk, WalShard &wal,
               RowTxState &tx);

    /** Point lookup by pk. @p snapshot != kNoSnapshot resolves the
     * row as of that snapshot (version chains included). */
    bool fetch(std::size_t table, std::int64_t pk,
               std::vector<DbValue> *out,
               Word snapshot = kNoSnapshot) const;

    /**
     * Write-locking read: resolve @p pk, claim the row's owner word
     * for @p tx (strict 2PL — held to commit/rollback), and read the
     * current committed bytes. False when the pk is absent or the
     * row is committed-dead (gravestoned); an owner claimed on the
     * way is released with the transaction. The shard-repartition
     * row mover uses this so a row's move and concurrent updates of
     * it serialize on the owner word.
     */
    bool fetchOwned(std::size_t table, std::int64_t pk,
                    std::vector<DbValue> *out, RowTxState &tx);

    /** Version-chain length behind @p pk's slot (0 when absent);
     * regression hook for chain-trim bounds. */
    std::size_t versionChainDepth(std::size_t table,
                                  std::int64_t pk) const;

    /** Scan rows where column @p col equals @p v. */
    void scanEq(std::size_t table, std::size_t col, const DbValue &v,
                const std::function<void(const std::vector<DbValue> &)>
                    &fn,
                Word snapshot = kNoSnapshot) const;

    /** Visit every live row. */
    void scanAll(std::size_t table,
                 const std::function<void(const std::vector<DbValue> &)>
                     &fn,
                 Word snapshot = kNoSnapshot) const;

    /** Number of live rows (reaps expired gravestones first). */
    std::size_t rowCount(std::size_t table);

    /**
     * Apply deferred frees and release write locks (durable commit
     * already happened). @p commit_ts != 0 stamps every row this
     * transaction wrote with its commit timestamp; deletes too new
     * for the oldest active snapshot turn into gravestones instead
     * of freeing their slot.
     */
    void finishCommit(RowTxState &tx, Word commit_ts = 0);

    /** Discard deferred frees/erases, release write locks (the undo
     * restore + reconcileRange already repaired the indexes), and
     * return this transaction's unpublished insert slots to the
     * free list. */
    void finishRollback(RowTxState &tx);

    /**
     * Repair the volatile indexes for the row containing the undone
     * range [addr, addr+len): re-derive its pk/eq entries and free
     * state from the (now restored) persistent bytes.
     */
    void reconcileRange(Addr addr, std::size_t len);

    /**
     * Undo-restore @p len bytes from a log image into the device,
     * taking the row latch around the copy so snapshot readers never
     * observe a half-restored row. Ranges outside every row region
     * copy plain.
     */
    void restoreRange(Addr dst, const std::uint8_t *src,
                      std::size_t len);

    /** Create regions for newly cataloged tables (DDL hook); never
     * touches existing tables' indexes. */
    void ensureRegions();

    /** ensureRegions plus a full rebuild of every volatile index
     * from row state words (open/recovery hook; callers quiesced).
     * Scrubs dirty version markers left by dead transactions and
     * ratchets the commit clock past every recovered timestamp. */
    void syncWithCatalog();

  private:
    /** One saved pre-image on a slot's version chain. */
    struct RowVersion
    {
        Word version; ///< the image's (clean) commit timestamp
        std::vector<std::uint8_t> image; ///< full row bytes
    };

    /** A committed delete still visible to some snapshot. */
    struct Gravestone
    {
        std::int64_t pk;
        std::size_t idx;
        Word ts; ///< the delete's commit timestamp
    };

    struct TableRegion
    {
        static constexpr std::size_t kRowLatchStripes = 64;

        Addr base = 0;
        std::size_t capacity = 0;
        std::unordered_map<std::int64_t, std::size_t> pkIndex;
        /** Secondary equality index (schema.indexColumn). */
        std::unordered_multimap<std::int64_t, std::size_t> eqIndex;
        std::vector<std::size_t> freeRows;
        std::size_t highWater = 0;
        /** Committed deletes kept for active snapshots (indexMu). */
        std::vector<Gravestone> graveyard;

        /** Guards the six volatile members above. */
        mutable SpinLock indexMu;
        /** Striped row-byte latches (torn-read protection). */
        mutable std::array<SpinLock, kRowLatchStripes> rowLatches;
        /** Per-row write-owner tokens (0 = unowned). */
        std::unique_ptr<std::atomic<Word>[]> rowOwner;

        /** Guards versions (kept apart from indexMu: chain pushes
         * happen under row latches, index ops must stay cheap). */
        mutable SpinLock versionMu;
        /** slot index -> pre-images, oldest first. */
        mutable std::unordered_map<std::size_t, std::vector<RowVersion>>
            versions;
    };

    void initRegion(TableRegion &region, std::size_t table);
    void eqIndexErase(TableRegion &region, std::int64_t key,
                      std::size_t idx);
    void eqIndexEraseAllFor(TableRegion &region, std::size_t idx);
    db::DbValue cellAt(const TableRegion &region, std::size_t idx,
                       std::size_t row_bytes, std::size_t col) const;

    Addr rowAddr(const TableRegion &region, std::size_t idx,
                 std::size_t row_bytes) const
    {
        return region.base + idx * row_bytes;
    }

    SpinLock &
    rowLatch(const TableRegion &region, std::size_t idx) const
    {
        return region.rowLatches[idx % TableRegion::kRowLatchStripes];
    }

    /** Claim the row's owner word for @p tx (blocks on a conflicting
     * writer); true when newly acquired by this call.
     * @throws TxnAbortError(kDeadlock) when the wait closes a cycle
     * and @p tx is its youngest member. */
    bool acquireRow(std::size_t table, TableRegion &region,
                    std::size_t idx, RowTxState &tx);

    /** One-shot claim; false when another transaction holds the row.
     * Safe to call while holding indexMu (never spins). */
    bool tryAcquireRow(std::size_t table, TableRegion &region,
                       std::size_t idx, RowTxState &tx);
    void undoAcquire(TableRegion &region, std::size_t idx,
                     RowTxState &tx);

    /** Resolve pk -> owned row index, rechecking the mapping after
     * the owner claim; returns npos when the pk is absent. */
    std::size_t lockRowForWrite(std::size_t table, TableRegion &region,
                                std::int64_t pk, RowTxState &tx);

    /** Waits-for cycle check for the spinning transaction holding
     * token @p self (true = self is the youngest cycle member and
     * should abort). */
    bool detectDeadlock(Word self) const;

    /** Abort @p tx when the (owned, clean) row at @p addr committed
     * after tx.snapshot — snapshot isolation's first-committer-wins
     * rule. Call before logging/dirtying the row. */
    void checkWriteConflict(Addr addr, RowTxState &tx) const;

    /** Under the row latch, before the first byte of @p tx's write
     * lands: push the row's pre-image onto its version chain and
     * replace the clean version word with @p tx's dirty marker.
     * No-op when the row is already ours-dirty. */
    void markRowWrite(const TableRegion &region, std::size_t idx,
                      Addr addr, std::size_t row_bytes,
                      RowTxState &tx);

    /** Under the row latch: resolve the row as of @p snapshot into
     * @p out (current bytes or a chain image); false = not visible.
     * @p want_pk pins the lookup to one pk (kNoPkFilter = any). */
    bool resolveRowLocked(const TableRegion &region, std::size_t idx,
                          Addr addr, const TableSchema &schema,
                          Word snapshot, std::int64_t want_pk,
                          bool filter_pk,
                          std::vector<DbValue> *out) const;

    /** Drop chain entries for @p idx no active snapshot can reach:
     * per active snapshot, keep only the newest image at or below
     * it (all entries go when no snapshot is active). Bounds chain
     * length by the active-snapshot count, not the update count. */
    void pruneChain(const TableRegion &region, std::size_t idx,
                    const std::vector<Word> &active) const;

    /** Under indexMu: reap gravestones whose delete every active
     * snapshot postdates — erase the pk/eq entries, free the slot. */
    void pruneGraveyardLocked(TableRegion &region, std::size_t t,
                              Word min_active);

    /** Under indexMu: is @p idx gravestoned? */
    bool graveyardHolds(const TableRegion &region,
                        std::size_t idx) const;

    NvmDevice *device_ = nullptr;
    Addr base_ = 0;
    std::size_t size_ = 0;
    Catalog *catalog_ = nullptr;
    std::size_t rowsPerTable_ = 0;
    std::size_t allocated_ = 0;
    TxnCtrl *ctrls_ = nullptr;
    unsigned ctrlCount_ = 0;
    SnapshotClock *clock_ = nullptr;
    /** deque: growth never relocates (TableRegion is pinned by its
     * latches and concurrent readers). */
    std::deque<TableRegion> regions_;
};

} // namespace db
} // namespace espresso

#endif // ESPRESSO_DB_ROW_STORE_HH
