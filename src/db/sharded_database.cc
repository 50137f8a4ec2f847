#include "db/sharded_database.hh"

#include <bit>
#include <thread>
#include <unordered_set>

#include "db/wal.hh"
#include "nvm/crash_injector.hh"
#include "util/env.hh"
#include "util/logging.hh"

namespace espresso {
namespace db {

/** One cross-shard bracket: owned by a Txn. */
struct ShardedDatabase::Bracket final : TxnState
{
    Bracket(ShardedDatabase *s, bool nw, Isolation iso)
        : sdb(s), gen(s->generation_.load(std::memory_order_acquire)),
          nowait(nw), isolation(iso)
    {
        owner = s;
    }

    bool
    active() const override
    {
        return open && !lost &&
               gen == sdb->generation_.load(std::memory_order_acquire);
    }

    Status
    finish(bool commit) override
    {
        return sdb->finishBracket(*this, commit);
    }

    Status
    bind() override
    {
        if (boundTxn(owner) != nullptr)
            return Status::make(StatusCode::kMisuse,
                                "sharded db: the calling thread already "
                                "runs a bracket");
        for (std::size_t i = 0; i < members.size(); ++i) {
            if (members[i].state_ == nullptr)
                continue;
            Status s = members[i].bind();
            if (!s.isOk()) {
                while (i-- > 0)
                    (void)members[i].unbind();
                return s;
            }
        }
        return TxnState::bind();
    }

    void
    unbind() override
    {
        for (Txn &m : members)
            if (m.state_ != nullptr)
                (void)m.unbind();
        TxnState::unbind();
    }

    void
    lose() override
    {
        lost = true;
        for (Txn &m : members)
            if (m.state_ != nullptr)
                m.state_->lose();
    }

    ShardedDatabase *sdb;
    /** The fabric's crash generation at begin. */
    std::uint64_t gen;
    /** Wire bracket: member joins and row-lock waits never block —
     * they abort the bracket kBusy instead. */
    bool nowait;
    Isolation isolation;
    /** False once the engine aborted the bracket mid-statement. */
    bool open = true;
    bool lost = false;
    StatusCode abortCode = StatusCode::kOk;
    /** Member transactions by shard index (empty: not joined). */
    std::vector<Txn> members;
};

ShardedDatabase::ShardedDatabase(const ShardedDatabaseConfig &cfg,
                                 NvmConfig nvm_cfg)
    : cfg_(cfg), nvmCfg_(nvm_cfg)
{
    unsigned shards =
        cfg.shards ? cfg.shards : envUnsigned("ESPRESSO_SHARDS", 1);
    vnodes_ = cfg.vnodes
                  ? cfg.vnodes
                  : envUnsigned("ESPRESSO_SHARD_VNODES",
                                ShardRouter::kDefaultVnodes);
    coordDev_ = std::make_unique<NvmDevice>(
        DecisionLog::bytesFor(kCoordSlots), nvm_cfg);
    coordLog_ = DecisionLog(coordDev_.get(), 0, kCoordSlots);
    coordLog_.format();
    // Reserved to the cap so grow()'s push_back never reallocates
    // under concurrent indexed readers.
    shards_.reserve(RingManifestData::kMaxShards);
    for (unsigned i = 0; i < shards; ++i)
        shards_.push_back(
            std::make_unique<Database>(cfg.shard, nvm_cfg, &clock_));
    memberCount_.store(shards, std::memory_order_release);
    publishRouting(ShardRouter(shards, vnodes_),
                   ShardRouter(shards, vnodes_), false);
}

ShardedDatabase::~ShardedDatabase() = default;

void
ShardedDatabase::publishRouting(ShardRouter committed, ShardRouter next,
                                bool migrating)
{
    auto r = std::make_unique<DbRouting>();
    r->committed = std::move(committed);
    r->next = std::move(next);
    r->migrating = migrating;
    const DbRouting *raw = r.get();
    {
        SpinGuard g(routingMu_);
        routingHistory_.push_back(std::move(r));
    }
    routing_.store(raw, std::memory_order_release);
}

ShardedDatabase::Bracket *
ShardedDatabase::boundBracket() const
{
    return static_cast<Bracket *>(boundTxn(this));
}

void
ShardedDatabase::joinShard(Bracket *b, unsigned idx)
{
    if (b == nullptr)
        return;
    if (idx >= b->members.size())
        b->members.resize(idx + 1);
    Txn &m = b->members[idx];
    if (m.state_ != nullptr)
        return;
    m = shards_[idx]->openTxn(b->isolation, b->snapshot, b->nowait);
    // Wire bracket: no free member WAL shard token aborts the whole
    // bracket — routed() runs noteMemberAbort, so it dies cleanly.
    if (m.state_ == nullptr)
        throw TxnAbortError(StatusCode::kBusy,
                            "sharded db: member undo-log shards are "
                            "saturated; bracket aborted");
}

void
ShardedDatabase::abortBracket(Bracket &b)
{
    // A member the engine already rolled back reports a quiet ok, so
    // one loop covers both the explicit-rollback and the engine-abort
    // paths.
    for (Txn &m : b.members)
        (void)m.rollback();
    closeBracket(b);
}

void
ShardedDatabase::closeBracket(Bracket &b)
{
    if (b.snapshot != kNoSnapshot)
        clock_.endSnapshot(b.snapshot);
    b.open = false;
    activeBrackets_.fetch_sub(1, std::memory_order_acq_rel);
}

void
ShardedDatabase::quiesceBrackets()
{
    bracketBarrier_.store(true, std::memory_order_release);
    while (activeBrackets_.load(std::memory_order_acquire) != 0)
        std::this_thread::yield();
}

void
ShardedDatabase::releaseBrackets()
{
    bracketBarrier_.store(false, std::memory_order_release);
}

void
ShardedDatabase::noteMemberAbort(Bracket *b, StatusCode code)
{
    // The throwing member already rolled its transaction back; a
    // cross-shard bracket cannot outlive a half-aborted member.
    if (b != nullptr && b->open) {
        abortBracket(*b);
        b->abortCode = code;
    }
}

template <typename Fn>
auto
ShardedDatabase::routed(Fn &&fn)
{
    Bracket *b = boundBracket();
    try {
        return fn(b);
    } catch (const WalFullError &) {
        noteMemberAbort(b, StatusCode::kWalFull);
        throw;
    } catch (const TxnAbortError &e) {
        noteMemberAbort(b, e.code());
        throw;
    } catch (const SimulatedCrash &) {
        if (b != nullptr)
            b->lose();
        throw;
    }
}

unsigned
ShardedDatabase::claimCoordSlot()
{
    CrashInjector *inj = coordDev_->injector();
    for (;;) {
        std::uint64_t bits =
            coordSlotBitmap_.load(std::memory_order_relaxed);
        if (~bits != 0) {
            unsigned slot =
                static_cast<unsigned>(std::countr_one(bits));
            if (coordSlotBitmap_.compare_exchange_weak(
                    bits, bits | (1ull << slot),
                    std::memory_order_acq_rel,
                    std::memory_order_relaxed))
                return slot;
            continue;
        }
        // All 64 decision slots in flight; a slot holder may have
        // "lost power" mid-protocol, so honor the injector here too.
        if (inj != nullptr && inj->tripped())
            throw SimulatedCrash();
        std::this_thread::yield();
    }
}

void
ShardedDatabase::releaseCoordSlot(unsigned slot)
{
    coordSlotBitmap_.fetch_and(~(1ull << slot),
                               std::memory_order_release);
}

Txn
ShardedDatabase::beginTxn(const TxnOptions &opts)
{
    if (boundBracket() != nullptr)
        fatal("sharded db: nested transactions are not supported");
    // Bracket-drain fence: membership changes quiesce open brackets
    // at the declare and commit points; park admission while the
    // barrier is up, and back out of a raced admission so a quiesce
    // that observed zero never sees a late bracket slip through.
    for (;;) {
        while (bracketBarrier_.load(std::memory_order_acquire))
            std::this_thread::yield();
        activeBrackets_.fetch_add(1, std::memory_order_acq_rel);
        if (!bracketBarrier_.load(std::memory_order_acquire))
            break;
        activeBrackets_.fetch_sub(1, std::memory_order_acq_rel);
    }
    return openBracket(opts, false);
}

Status
ShardedDatabase::tryBeginTxn(const TxnOptions &opts, Txn *out)
{
    if (boundBracket() != nullptr)
        fatal("sharded db: nested transactions are not supported");
    // The nowait flavor of beginTxn's barrier dance: a draining
    // membership change turns new brackets away instead of parking
    // an event-loop worker on the fence.
    bool admitted = false;
    if (!bracketBarrier_.load(std::memory_order_acquire)) {
        activeBrackets_.fetch_add(1, std::memory_order_acq_rel);
        admitted = !bracketBarrier_.load(std::memory_order_acquire);
        if (!admitted)
            activeBrackets_.fetch_sub(1, std::memory_order_acq_rel);
    }
    if (!admitted)
        return Status::make(StatusCode::kBusy,
                            "sharded db: membership change draining "
                            "brackets; retry");
    *out = openBracket(opts, true);
    return Status::ok();
}

Txn
ShardedDatabase::openBracket(const TxnOptions &opts, bool nowait)
{
    auto b = std::make_unique<Bracket>(this, nowait, opts.isolation);
    if (opts.isolation == Isolation::kSnapshot)
        b->snapshot = clock_.beginSnapshot();
    b->members.resize(memberCount_.load(std::memory_order_acquire));
    (void)b->bind();
    return Txn(std::move(b));
}

Status
ShardedDatabase::finishBracket(Bracket &b, bool commit)
{
    if (b.boundTo != 0)
        b.unbind();
    if (!b.open)
        return commit ? Status::make(b.abortCode,
                                     "sharded db: transaction was "
                                     "rolled back by the engine")
                      : Status::ok();
    if (!b.active()) {
        // Lost to a power failure: recovery rolled it back, and the
        // member transactions are spent with it.
        b.lose();
        return commit ? Status::make(StatusCode::kAborted,
                                     "sharded db: transaction was lost "
                                     "to a power failure")
                      : Status::ok();
    }
    try {
        if (commit)
            return commitBracket(b);
        abortBracket(b);
        return Status::ok();
    } catch (const SimulatedCrash &) {
        b.lose();
        throw;
    }
}

Status
ShardedDatabase::commitBracket(Bracket &b)
{
    std::vector<unsigned> members;
    for (unsigned i = 0; i < b.members.size(); ++i)
        if (b.members[i].state_ != nullptr)
            members.push_back(i);

    if (members.size() <= 1) {
        // Zero or one member: the member's own commit is already
        // atomic and durable; no coordinator round trip.
        Status s = Status::ok();
        for (unsigned i : members)
            s = b.members[i].commit();
        closeBracket(b);
        return s;
    }

    // Cross-shard 2PC, ascending shard order throughout (so
    // concurrent brackets over overlapping member sets never
    // deadlock in the members' commit paths).
    //
    // Phase 1: every member stages its commit record and durably
    // marks its undo segment prepared under one coordinator id.
    Word txn_id;
    {
        SpinGuard g(coordMu_);
        txn_id = coordLog_.reserveIdBlock(1);
    }
    std::vector<std::uint8_t> prepared(members.size(), 0);
    bool any_prepared = false;
    for (std::size_t k = 0; k < members.size(); ++k) {
        unsigned m = members[k];
        prepared[k] =
            shards_[m]->prepareTx2pc(b.members[m], txn_id) ? 1 : 0;
        any_prepared |= prepared[k] != 0;
    }

    // Phase 2: one fenced decision record — the commit point. A
    // crash before it rolls every prepared member back (presumed
    // abort); after it, recovery rolls them all forward. Brackets
    // whose members all logged nothing have nothing to decide.
    unsigned slot = kNoCoordSlot;
    if (any_prepared) {
        slot = claimCoordSlot();
        coordLog_.publish(slot, DecisionLog::kKindTxnCommit, txn_id,
                          0, nullptr, 0);
    }

    // Make the commit visible to snapshots atomically across all
    // members: one timestamp, published into every member's control
    // block inside a single clock critical section.
    Word ts;
    {
        SpinGuard g(clock_.mu);
        ts = ++clock_.clock;
        for (unsigned i : members)
            shards_[i]->publishCommitTsLocked(b.members[i], ts);
    }

    for (std::size_t k = 0; k < members.size(); ++k) {
        unsigned m = members[k];
        shards_[m]->finishPreparedTx(b.members[m], ts, prepared[k] != 0);
    }

    if (slot != kNoCoordSlot) {
        coordLog_.clear(slot);
        releaseCoordSlot(slot);
    }
    closeBracket(b);
    return Status::ok();
}

unsigned
ShardedDatabase::busyWalShards() const
{
    unsigned n = 0;
    for (unsigned i = 0;
         i < memberCount_.load(std::memory_order_acquire); ++i)
        n += shards_[i]->busyWalShards();
    return n;
}

void
ShardedDatabase::createTable(const TableSchema &schema)
{
    unsigned n = shardCount();
    for (unsigned i = 0; i < n; ++i)
        shards_[i]->createTable(schema);
}

std::int64_t
ShardedDatabase::pkOf(const std::string &table, const DbRecord &record)
{
    const TableSchema *schema = shards_[0]->catalog().find(table);
    if (!schema)
        fatal("sharded db: no such table " + table);
    if (record.values.size() != schema->columns.size())
        fatal("sharded db: record shape mismatch for " + table);
    return record.values[schema->pkColumn].i;
}

void
ShardedDatabase::persistRecord(const std::string &table,
                               const DbRecord &record)
{
    std::int64_t pk = pkOf(table, record);
    const DbRouting &rt = routingRef();
    unsigned nidx =
        rt.next.shardForKey(static_cast<std::uint64_t>(pk));
    routed([&](Bracket *b) {
        if (rt.migrating) {
            unsigned oidx = rt.committed.shardForKey(
                static_cast<std::uint64_t>(pk));
            if (oidx != nidx) {
                // Mid-migration a remapped row lives at exactly one
                // of its two homes (movers delete-source and insert-
                // dest in one 2PC bracket): update it wherever it
                // is. A miss at both probes means a fresh insert —
                // or a row that moved between the probes, which the
                // final new-home upsert catches via its own
                // update-else-insert.
                joinShard(b, nidx);
                joinShard(b, oidx);
                if (shards_[nidx]->updateRecord(table, record))
                    return;
                if (shards_[oidx]->updateRecord(table, record))
                    return;
                shards_[nidx]->persistRecord(table, record);
                return;
            }
        }
        joinShard(b, nidx);
        shards_[nidx]->persistRecord(table, record);
    });
}

bool
ShardedDatabase::updateRecord(const std::string &table,
                              const DbRecord &record)
{
    std::int64_t pk = pkOf(table, record);
    const DbRouting &rt = routingRef();
    unsigned nidx =
        rt.next.shardForKey(static_cast<std::uint64_t>(pk));
    return routed([&](Bracket *b) {
        if (rt.migrating) {
            unsigned oidx = rt.committed.shardForKey(
                static_cast<std::uint64_t>(pk));
            if (oidx != nidx) {
                // Same two-home probe as persistRecord, minus the
                // final insert: update-only never resurrects a row.
                joinShard(b, nidx);
                joinShard(b, oidx);
                if (shards_[nidx]->updateRecord(table, record))
                    return true;
                if (shards_[oidx]->updateRecord(table, record))
                    return true;
                return shards_[nidx]->updateRecord(table, record);
            }
        }
        joinShard(b, nidx);
        return shards_[nidx]->updateRecord(table, record);
    });
}

bool
ShardedDatabase::fetchRecord(const std::string &table, std::int64_t pk,
                             DbRecord *out)
{
    Bracket *b = boundBracket();
    Word snap = b != nullptr ? b->snapshot : kNoSnapshot;
    const DbRouting &rt = routingRef();
    unsigned nidx =
        rt.next.shardForKey(static_cast<std::uint64_t>(pk));
    auto fetch_at = [&](unsigned i) {
        return snap != kNoSnapshot
                   ? shards_[i]->fetchRecordAt(table, pk, out, snap)
                   : shards_[i]->fetchRecord(table, pk, out);
    };
    if (!rt.migrating)
        return fetch_at(nidx);
    unsigned oidx =
        rt.committed.shardForKey(static_cast<std::uint64_t>(pk));
    if (oidx == nidx)
        return fetch_at(nidx);
    if (fetch_at(nidx))
        return true;
    if (fetch_at(oidx))
        return true;
    // The row may have streamed old-home → new-home between the two
    // probes; moves are one-way, so a second new-home probe is
    // definitive.
    return fetch_at(nidx);
}

bool
ShardedDatabase::deleteRecord(const std::string &table, std::int64_t pk)
{
    const DbRouting &rt = routingRef();
    unsigned nidx =
        rt.next.shardForKey(static_cast<std::uint64_t>(pk));
    return routed([&](Bracket *b) {
        if (rt.migrating) {
            unsigned oidx = rt.committed.shardForKey(
                static_cast<std::uint64_t>(pk));
            if (oidx != nidx) {
                // Same two-probe-plus-definitive-retry shape as
                // fetchRecord, but locking: the delete serializes
                // with a concurrent mover on the row lock.
                joinShard(b, nidx);
                joinShard(b, oidx);
                if (shards_[nidx]->deleteRecord(table, pk))
                    return true;
                if (shards_[oidx]->deleteRecord(table, pk))
                    return true;
                return shards_[nidx]->deleteRecord(table, pk);
            }
        }
        joinShard(b, nidx);
        return shards_[nidx]->deleteRecord(table, pk);
    });
}

void
ShardedDatabase::scanEq(
    const std::string &table, const std::string &column,
    const DbValue &v,
    const std::function<void(const std::vector<DbValue> &)> &fn)
{
    Bracket *b = boundBracket();
    unsigned n = shardCount();
    if (b != nullptr && b->snapshot != kNoSnapshot) {
        for (unsigned i = 0; i < n; ++i)
            shards_[i]->scanEqAt(table, column, v, fn, b->snapshot);
        return;
    }
    for (unsigned i = 0; i < n; ++i)
        shards_[i]->scanEq(table, column, v, fn);
}

std::size_t
ShardedDatabase::rowCount(const std::string &table)
{
    std::size_t rows = 0;
    unsigned n = shardCount();
    for (unsigned i = 0; i < n; ++i)
        rows += shards_[i]->rowCount(table);
    return rows;
}

void
ShardedDatabase::addMemberLocked()
{
    auto db =
        std::make_unique<Database>(cfg_.shard, nvmCfg_, &clock_);
    // Joiners replay the catalog before they are listed: every
    // member carries every table's schema.
    for (const TableSchema &t : shards_[0]->catalog().tables())
        db->createTable(t);
    shards_.push_back(std::move(db));
}

void
ShardedDatabase::moveRow(const std::string &table, unsigned src,
                         unsigned dst, std::int64_t pk)
{
    for (unsigned attempt = 0;; ++attempt) {
        Txn t = beginTxn();
        try {
            bool moved = routed([&](Bracket *b) {
                joinShard(b, src);
                DbRecord rec;
                if (!shards_[src]->fetchForUpdate(table, pk, &rec))
                    return false; // deleted, or already moved (resume)
                joinShard(b, dst);
                shards_[dst]->persistRecord(table, rec);
                if (!shards_[src]->deleteRecord(table, pk))
                    fatal("sharded db: repartition lost a locked row");
                return true;
            });
            if (!moved || t.commit().isOk())
                return; // dropping t releases the source row's lock
        } catch (const WalFullError &) {
        } catch (const TxnAbortError &) {
            // Deadlock victim against a user bracket: back off and
            // retry (the bracket already rolled back).
        }
        if (attempt > 10000)
            fatal("sharded db: repartition starved moving a row");
        std::this_thread::yield();
    }
}

void
ShardedDatabase::repartition(unsigned from, unsigned target)
{
    ShardRouter new_ring(target, vnodes_);
    // Grow remaps a slice of every old member; shrink drains the
    // removed members entirely (the new ring never maps to them).
    unsigned src_begin = target > from ? 0 : target;
    std::vector<std::string> tables;
    for (const TableSchema &t : shards_[0]->catalog().tables())
        tables.push_back(t.name);
    for (unsigned s = src_begin; s < from; ++s) {
        for (const std::string &table : tables) {
            std::vector<std::int64_t> movers;
            shards_[s]->forEachPk(table, [&](std::int64_t pk) {
                if (new_ring.shardForKey(
                        static_cast<std::uint64_t>(pk)) != s)
                    movers.push_back(pk);
            });
            for (std::int64_t pk : movers)
                moveRow(table, s,
                        new_ring.shardForKey(
                            static_cast<std::uint64_t>(pk)),
                        pk);
        }
    }
}

void
ShardedDatabase::runMembershipChangeLocked(unsigned from,
                                           unsigned target)
{
    // Declare: make sure every engine exists (idempotent across a
    // resume), list the union of old and new memberships so scans
    // cover joiners and leavers, and publish the epoch pair behind
    // a bracket drain.
    unsigned bound = from > target ? from : target;
    while (shards_.size() < bound)
        addMemberLocked();
    quiesceBrackets();
    memberCount_.store(bound, std::memory_order_release);
    publishRouting(ShardRouter(from, vnodes_),
                   ShardRouter(target, vnodes_), true);
    releaseBrackets();

    // Migrate: stream every remapped row to its new-ring home while
    // traffic keeps probing both epochs.
    repartition(from, target);

    // Commit: drain brackets begun against the pair, then retire
    // the old epoch.
    quiesceBrackets();
    publishRouting(ShardRouter(target, vnodes_),
                   ShardRouter(target, vnodes_), false);
    memberCount_.store(target, std::memory_order_release);
    migrPending_ = false;
    releaseBrackets();
}

void
ShardedDatabase::grow(unsigned added)
{
    if (added == 0)
        return;
    SpinGuard g(membershipMu_);
    if (migrPending_)
        fatal("sharded db: membership change already in flight "
              "(resumeMembershipChange after a crash)");
    if (boundBracket() != nullptr)
        fatal("sharded db: grow inside a transaction bracket");
    unsigned from = memberCount_.load(std::memory_order_acquire);
    unsigned target = from + added;
    if (target > RingManifestData::kMaxShards)
        fatal("sharded db: grow past the member cap");
    migrFrom_ = from;
    migrTarget_ = target;
    migrPending_ = true;
    runMembershipChangeLocked(from, target);
}

void
ShardedDatabase::shrink(unsigned removed)
{
    if (removed == 0)
        return;
    SpinGuard g(membershipMu_);
    if (migrPending_)
        fatal("sharded db: membership change already in flight "
              "(resumeMembershipChange after a crash)");
    if (boundBracket() != nullptr)
        fatal("sharded db: shrink inside a transaction bracket");
    unsigned from = memberCount_.load(std::memory_order_acquire);
    if (removed >= from)
        fatal("sharded db: cannot shrink to zero members");
    unsigned target = from - removed;
    migrFrom_ = from;
    migrTarget_ = target;
    migrPending_ = true;
    runMembershipChangeLocked(from, target);
}

void
ShardedDatabase::resumeMembershipChange()
{
    SpinGuard g(membershipMu_);
    if (!migrPending_)
        return;
    runMembershipChangeLocked(migrFrom_, migrTarget_);
}

void
ShardedDatabase::crashShard(unsigned i, CrashMode mode,
                            std::uint64_t seed)
{
    if (i >= shards_.size())
        fatal("sharded db: no such shard");
    generation_.fetch_add(1, std::memory_order_release);
    // Quiesced-caller contract: no bracket is mid-2PC, so the member
    // holds no prepared state and presumed abort is exact.
    shards_[i]->crash(mode, seed);
}

void
ShardedDatabase::crash(CrashMode mode, std::uint64_t seed)
{
    generation_.fetch_add(1, std::memory_order_release);

    // Counted brackets and a raised barrier belong to dead threads
    // (quiesced-caller contract) — including a membership change
    // killed mid-repartition, which resumeMembershipChange() rolls
    // forward after recovery. Open brackets, parked ones included,
    // died with the power: their Txns go inert.
    bracketBarrier_.store(false, std::memory_order_release);
    activeBrackets_.store(0, std::memory_order_release);

    // Coordinator first: the surviving decision records define which
    // in-doubt (prepared) member transactions committed.
    coordDev_->crash(mode, seed + 0x2b1);
    std::vector<DecisionLog::Record> records = coordLog_.recover();
    std::unordered_set<Word> committed;
    for (const DecisionLog::Record &r : records)
        if (r.kind == DecisionLog::kKindTxnCommit)
            committed.insert(r.txnId);
    WalShard::ResolveFn resolver = [&committed](Word txn_id) {
        return committed.count(txn_id) != 0;
    };

    for (std::size_t i = 0; i < shards_.size(); ++i)
        shards_[i]->crash(mode, seed + i, resolver);

    // Every in-doubt transaction is resolved; retire the decisions.
    for (const DecisionLog::Record &r : records)
        coordLog_.clear(r.slot);
    coordSlotBitmap_.store(0, std::memory_order_release);
}

} // namespace db
} // namespace espresso
