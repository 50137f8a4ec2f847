/**
 * @file
 * db::Txn, the one way to run an explicit transaction on a Database or
 * a ShardedDatabase, and the MVCC clock machinery under it.
 *
 * A Txn owns its engine state (TxnState): the WAL shard token, the
 * row write set and the snapshot. It is bound to the thread that
 * began it, so statements on that thread (persistRecord, fetchRecord,
 * scanEq, executeSql, ...) run inside it; statements on a thread with
 * no bound transaction auto-commit. unbind() parks a Txn and bind()
 * adopts it on another thread. commit() and rollback() work on the
 * bound thread, or on any thread while the Txn is parked. Dropping an
 * open Txn rolls it back. A Txn begun before a simulated power
 * failure (crash(), or a SimulatedCrash thrown through its statements
 * or commit) is inert: finishing or dropping it touches no engine
 * state.
 *
 * Isolation levels:
 *  - kReadUncommitted (default): reads never see torn rows but may
 *    see in-flight row images.
 *  - kSnapshot: the transaction takes a consistent snapshot S at
 *    begin. Reads resolve every row to its newest version committed
 *    at or before S, reconstructing overwritten rows from volatile
 *    version chains; a multi-row commit becomes visible atomically
 *    (all rows or none). Writes are first-committer-wins: writing a
 *    row that committed after S aborts with StatusCode::kConflict.
 *    Known limit: a snapshot transaction's reads come from its
 *    snapshot, so it does not observe its own uncommitted writes —
 *    write-heavy transactions should use kReadUncommitted (their
 *    writes are still fully atomic and durable).
 *
 * Version words: row header word 1 holds the row's commit timestamp
 * (clean, top bit 0) or an in-flight dirty marker packing the
 * writer's token + begin sequence; readers resolve markers through
 * the writer's TxnCtrl block. Every writer saves pre-images and
 * stamps its commit timestamp, so a snapshot may begin at any time.
 */

#ifndef ESPRESSO_DB_TXN_HH
#define ESPRESSO_DB_TXN_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "db/status.hh"
#include "util/common.hh"
#include "util/spin.hh"

namespace espresso {
namespace db {

class Database;
class ShardedDatabase;

enum class Isolation
{
    kReadUncommitted,
    kSnapshot,
};

struct TxnOptions
{
    Isolation isolation = Isolation::kReadUncommitted;
};

/** "No snapshot" sentinel; the clock starts at 1 so a real snapshot
 * timestamp is never 0. */
constexpr Word kNoSnapshot = 0;

/** @name Row version-word encoding (row header word 1) */
/// @{
constexpr Word kVersionDirtyBit = Word(1) << 63;
constexpr unsigned kVersionTokenShift = 48;
constexpr Word kVersionSeqMask = (Word(1) << kVersionTokenShift) - 1;
constexpr Word kVersionTokenMask = 0x7fff;

inline Word
makeDirtyVersion(Word token, Word seq)
{
    return kVersionDirtyBit | (token << kVersionTokenShift) |
           (seq & kVersionSeqMask);
}

inline bool
versionIsDirty(Word v)
{
    return (v & kVersionDirtyBit) != 0;
}

inline Word
dirtyVersionToken(Word v)
{
    return (v >> kVersionTokenShift) & kVersionTokenMask;
}

inline Word
dirtyVersionSeq(Word v)
{
    return v & kVersionSeqMask;
}
/// @}

/**
 * Per-token control block for the in-flight transaction on one WAL
 * shard (token = shard id + 1; the shard's exclusivity token
 * serializes its transactions). Cache-line sized so concurrent
 * readers of different writers' blocks never share a line.
 */
struct alignas(kCacheLineSize) TxnCtrl
{
    /** Begin sequence stamped into this txn's dirty markers; a
     * marker whose seq mismatches is stale (its txn finished). */
    std::atomic<Word> seq{0};

    /** 0 while running; the commit timestamp once durably
     * committed. Published under the SnapshotClock lock. */
    std::atomic<Word> commitTs{0};

    /** Token this transaction is spinning on (waits-for edge for
     * deadlock cycle detection); 0 when not waiting. */
    std::atomic<Word> waitingFor{0};
};

/**
 * The shared commit clock + active-snapshot registry. One per
 * Database, or one shared across every member of a ShardedDatabase
 * so a cross-shard commit flips visibility atomically for all
 * members.
 *
 * Critical sections of @p mu: commit-timestamp allocation (and, for
 * cross-shard commits, publication of that timestamp into every
 * member's TxnCtrl) and snapshot registration. A snapshot therefore
 * sees a multi-row, multi-member commit entirely or not at all.
 */
class SnapshotClock
{
  public:
    static constexpr Word kNoActiveSnapshots = ~Word(0);

    /** Guards clock and the registry; held across commit-ts
     * publication and snapshot-begin reads. */
    SpinLock mu;

    /** Last committed timestamp (starts at 1; guarded by mu). */
    Word clock = 1;

    /** Register a snapshot and return its timestamp S. */
    Word
    beginSnapshot()
    {
        SpinGuard g(mu);
        active_.insert(clock);
        return clock;
    }

    void
    endSnapshot(Word s)
    {
        SpinGuard g(mu);
        auto it = active_.find(s);
        if (it != active_.end())
            active_.erase(it);
    }

    /** Oldest registered snapshot, or kNoActiveSnapshots. */
    Word
    minActive()
    {
        SpinGuard g(mu);
        return active_.empty() ? kNoActiveSnapshots : *active_.begin();
    }

    /** Sorted copy of every active snapshot timestamp: the version
     * chain trimmer keeps, per active snapshot, only the newest
     * version at or below it. Empty = no active snapshots. */
    std::vector<Word>
    activeSnapshots()
    {
        SpinGuard g(mu);
        return {active_.begin(), active_.end()};
    }

    /** Raise the clock to at least @p v (crash recovery: committed
     * rows must stay in the past of new snapshots). */
    void
    noteRecoveredVersion(Word v)
    {
        SpinGuard g(mu);
        if (clock < v)
            clock = v;
    }

    /** After a simulated power failure: registered snapshots belong
     * to dead transactions (callers quiesced). The clock value
     * itself only ever ratchets up. */
    void
    resetAfterCrash()
    {
        SpinGuard g(mu);
        active_.clear();
    }

  private:
    std::multiset<Word> active_; ///< guarded by mu
};

/** Never-recycled token of the calling thread (std::thread::id
 * values can be reused by a later thread). */
std::uint64_t currentThreadToken();

/**
 * Engine-side state of one transaction, owned by its Txn. Database
 * and ShardedDatabase each derive their own.
 */
class TxnState
{
  public:
    TxnState() = default;
    virtual ~TxnState() = default;
    TxnState(const TxnState &) = delete;
    TxnState &operator=(const TxnState &) = delete;

    /** Open: not finished, not rolled back by the engine, not lost to
     * a power failure. */
    virtual bool active() const = 0;

    /** Commit or roll back; the state is spent afterwards. Called on
     * the bound thread or while parked. */
    virtual Status finish(bool commit) = 0;

    /** Commit, then report through @p done (inline by default).
     * @p self owns this state, so a commit may outlive its handle. */
    virtual void
    commitAsync(std::unique_ptr<TxnState> self,
                std::function<void(Status)> done)
    {
        done(self->finish(true));
    }

    /** Bind to the calling thread; kMisuse when the thread already
     * runs an active transaction on the same engine. */
    virtual Status bind();
    virtual void unbind();

    /** A power failure took the transaction: finishing or dropping
     * it must not touch the engine. */
    virtual void lose() = 0;

    /** The engine instance (binding key). */
    const void *owner = nullptr;
    /** currentThreadToken() of the bound thread (0 = parked). */
    std::uint64_t boundTo = 0;
    /** The snapshot timestamp (kNoSnapshot for kReadUncommitted). */
    Word snapshot = kNoSnapshot;
};

/** The calling thread's bound, active transaction on @p owner, or
 * null. */
TxnState *boundTxn(const void *owner);

/**
 * An explicit transaction (see the file comment). Move-only; an
 * empty handle (default-constructed, moved from, or finished)
 * reports kMisuse.
 */
class Txn
{
  public:
    Txn() = default;
    Txn(Txn &&) noexcept = default;
    Txn &operator=(Txn &&o) noexcept;
    ~Txn();

    Txn(const Txn &) = delete;
    Txn &operator=(const Txn &) = delete;

    /** True while this handle's transaction is open. */
    bool
    active() const
    {
        return state_ != nullptr && state_->active();
    }

    /** The snapshot timestamp (kNoSnapshot for kReadUncommitted). */
    Word
    snapshot() const
    {
        return state_ != nullptr ? state_->snapshot : kNoSnapshot;
    }

    /** Commit; every failure mode (WAL overflow, deadlock victim,
     * snapshot write conflict, bounded-wait kBusy) comes back as a
     * Status. From a thread the transaction is not bound to: kMisuse,
     * and the transaction stays open. */
    Status commit();

    /** Roll back; a quiet ok after an engine-side abort. */
    Status rollback();

    /** Commit without blocking the calling thread where the engine
     * can: @p done fires once the commit is durable (see
     * Database::beginTxn and ShardedDatabase::beginTxn). */
    void commitAsync(std::function<void(Status)> done);

    /** Adopt a parked transaction on the calling thread. */
    Status bind();

    /** Park the transaction (it must be bound to the calling
     * thread). */
    Status unbind();

  private:
    friend class Database;
    friend class ShardedDatabase;

    explicit Txn(std::unique_ptr<TxnState> state)
        : state_(std::move(state))
    {}

    /** Bound to a thread other than the calling one. */
    bool foreign() const;

    /** Finish through @p commit or roll back; empty afterwards. */
    Status finish(bool commit);

    std::unique_ptr<TxnState> state_;
};

} // namespace db
} // namespace espresso

#endif // ESPRESSO_DB_TXN_HH
