#include "db/database.hh"

#include "nvm/crash_injector.hh"
#include "util/env.hh"
#include "util/logging.hh"

namespace espresso {
namespace db {

namespace {

std::atomic<std::uint64_t> g_dbSerial{1};

/** Unique per thread lifetime, never recycled (unlike thread ids). */
std::atomic<std::uint64_t> g_threadToken{1};

std::uint64_t
threadToken()
{
    static thread_local std::uint64_t token =
        g_threadToken.fetch_add(1, std::memory_order_relaxed);
    return token;
}

/** Fast path for txContext(): the last (database serial, generation,
 * context) this thread resolved. File-scope (not function-local) so
 * the detached-session bind/unbind/detach paths can invalidate it
 * when they swap the thread's slot out from under the cache. */
struct CtxCache
{
    std::uint64_t serial = 0;
    std::uint64_t gen = 0;
    void *ctx = nullptr;
};
thread_local CtxCache g_ctxCache;

/** Row-lock wait bound for nowait (wire) transactions: this many
 * 256-spin rounds, then abort kBusy. Long enough to ride out a
 * committing holder, short enough that an event-loop worker stalls
 * for microseconds, not milliseconds. */
constexpr std::uint32_t kNetLockSpinRounds = 16;

} // namespace

Database::Database(const DatabaseConfig &cfg, NvmConfig nvm_cfg,
                   SnapshotClock *shared_clock)
    : cfg_(cfg),
      serial_(g_dbSerial.fetch_add(1, std::memory_order_relaxed))
{
    if (cfg_.groupCommitWindowUs == DatabaseConfig::kWindowFromEnv)
        cfg_.groupCommitWindowUs = envCountOrAuto(
            "ESPRESSO_DB_GROUP_COMMIT", DatabaseConfig::kWindowAuto, 0);

    std::size_t catalog_off = alignUp(64, kCacheLineSize);
    std::size_t wal_off =
        catalog_off + alignUp(Catalog::persistedBytes(), kCacheLineSize);
    rowsOff_ = wal_off + alignUp(cfg.walSize, kCacheLineSize);
    std::size_t total = rowsOff_ + alignUp(cfg.rowRegionSize,
                                           kCacheLineSize);

    dev_ = std::make_unique<NvmDevice>(total, nvm_cfg);
    Addr base = reinterpret_cast<Addr>(dev_->base());
    catalog_ = Catalog(dev_.get(), base + catalog_off);
    wal_ = std::make_unique<Wal>(dev_.get(), base + wal_off,
                                 cfg_.walSize, cfg_.walShards);
    if (shared_clock != nullptr) {
        clock_ = shared_clock;
    } else {
        ownedClock_ = std::make_unique<SnapshotClock>();
        clock_ = ownedClock_.get();
    }
    ctrls_ = std::make_unique<TxnCtrl[]>(wal_->shardCount());
    rows_ = std::make_unique<RowStore>(
        dev_.get(), base + rowsOff_, cfg_.rowRegionSize, &catalog_,
        cfg_.rowsPerTable, ctrls_.get(), wal_->shardCount(), clock_);
    std::uint64_t window_ns =
        cfg_.groupCommitWindowUs == DatabaseConfig::kWindowAuto
            ? CommitCoordinator::kAutoWindow
            : cfg_.groupCommitWindowUs * 1000;
    coordinator_ =
        std::make_unique<CommitCoordinator>(dev_.get(), window_ns);
}

Database::~Database() = default;

Database::TxContext &
Database::txContext()
{
    std::uint64_t gen = generation_.load(std::memory_order_acquire);
    if (g_ctxCache.serial == serial_ && g_ctxCache.gen == gen)
        return *static_cast<TxContext *>(g_ctxCache.ctx);
    SpinGuard g(ctxMu_);
    auto &slot = ctxs_[threadToken()];
    if (!slot) {
        slot = std::make_unique<TxContext>();
        slot->shardId = nextShard_.fetch_add(1, std::memory_order_relaxed) %
                        wal_->shardCount();
        slot->rowTx.token = slot->shardId + 1;
    }
    g_ctxCache = CtxCache{serial_, gen, slot.get()};
    return *slot;
}

Database::TxContext *
Database::txContextIfAny() const
{
    SpinGuard g(ctxMu_);
    auto it = ctxs_.find(threadToken());
    return it == ctxs_.end() ? nullptr : it->second.get();
}

bool
Database::beginTx(TxContext &ctx, Isolation iso, Word bracket_snapshot,
                  bool nowait)
{
    if (nowait) {
        // Admission control: claim any free shard token (starting at
        // the context's home shard) or decline — never queue. This
        // naturally caps concurrent wire write sessions at the shard
        // count.
        unsigned n = wal_->shardCount();
        unsigned chosen = n;
        for (unsigned i = 0; i < n; ++i) {
            unsigned cand = (ctx.shardId + i) % n;
            if (wal_->shard(cand).tryAcquireTx()) {
                chosen = cand;
                break;
            }
        }
        if (chosen == n)
            return false;
        ctx.shardId = chosen;
        ctx.rowTx.token = chosen + 1;
    } else {
        // One transaction per shard: extra threads mapped to the
        // same shard queue here.
        wal_->shard(ctx.shardId).acquireTx();
    }
    WalShard &shard = wal_->shard(ctx.shardId);
    ctx.rowTx.maxSpinRounds = nowait ? kNetLockSpinRounds : 0;

    ctx.isolation = iso;
    if (iso == Isolation::kSnapshot) {
        if (bracket_snapshot != kNoSnapshot) {
            // A sharded bracket registered one snapshot for every
            // member; re-registering here would read a different
            // clock value.
            ctx.snapshot = bracket_snapshot;
            ctx.ownsSnapshot = false;
        } else {
            ctx.snapshot = clock_->beginSnapshot();
            ctx.ownsSnapshot = true;
        }
    } else {
        ctx.snapshot = kNoSnapshot;
        ctx.ownsSnapshot = false;
    }
    ctx.rowTx.saveImages = clock_->enterWriter();
    ctx.rowTx.snapshot = ctx.snapshot;

    // Fresh control-block state before any marker can reference it.
    TxnCtrl &c = ctrls_[ctx.shardId];
    std::uint64_t seq =
        txnSeqCounter_.fetch_add(1, std::memory_order_relaxed);
    ctx.txnSeq = seq;
    c.commitTs.store(0, std::memory_order_relaxed);
    c.waitingFor.store(0, std::memory_order_relaxed);
    c.seq.store(seq, std::memory_order_release);

    shard.begin();
    coordinator_->txnBegan();
    return true;
}

void
Database::finishCommitLocal(TxContext &ctx)
{
    Word ts = 0;
    if (ctx.rowTx.saveImages) {
        // Allocate + publish the commit timestamp in one clock
        // critical section: a snapshot begun before sees none of
        // this transaction, one begun after sees all of it.
        SpinGuard g(clock_->mu);
        ts = ++clock_->clock;
        ctrls_[ctx.shardId].commitTs.store(ts,
                                           std::memory_order_release);
    }
    rows_->finishCommit(ctx.rowTx, ts);
    endTxCommon(ctx);
}

void
Database::endTxCommon(TxContext &ctx)
{
    clock_->exitWriter(ctx.rowTx.saveImages);
    ctx.rowTx.saveImages = false;
    ctx.rowTx.snapshot = kNoSnapshot;
    if (ctx.ownsSnapshot)
        clock_->endSnapshot(ctx.snapshot);
    ctx.snapshot = kNoSnapshot;
    ctx.ownsSnapshot = false;
    // Shard release comes after row stamping (finishCommit /
    // finishRollback): no new transaction reuses this token while
    // its markers are still being resolved away.
    wal_->shard(ctx.shardId).releaseTx();
    coordinator_->txnEnded();
}

void
Database::commitTx(TxContext &ctx)
{
    WalShard &shard = wal_->shard(ctx.shardId);
    if (shard.entryCount() == 0)
        shard.retireEmpty(); // nothing written: no fences, no batch
    else
        coordinator_->commit(shard);
    finishCommitLocal(ctx);
    ctx.lastOutcome = TxOutcome::kCommitted;
}

void
Database::rollbackTx(TxContext &ctx, TxOutcome outcome)
{
    WalShard &shard = wal_->shard(ctx.shardId);
    shard.rollbackAndRetire(
        [this](Addr addr, std::size_t len) {
            rows_->reconcileRange(addr, len);
        },
        [this](Addr dst, const std::uint8_t *src, std::size_t len) {
            rows_->restoreRange(dst, src, len);
        });
    // Invalidate the control block: a marker that somehow survived
    // the restore is stale and resolves through the version chain.
    ctrls_[ctx.shardId].seq.store(
        txnSeqCounter_.fetch_add(1, std::memory_order_relaxed),
        std::memory_order_release);
    rows_->finishRollback(ctx.rowTx);
    endTxCommon(ctx);
    ctx.lastOutcome = outcome;
}

template <typename Fn>
ResultSet
Database::mutate(Fn &&fn)
{
    TxContext &ctx = txContext();
    bool own = !ctx.explicitTx;
    if (own)
        beginTx(ctx);
    ResultSet rs;
    try {
        rs = fn(ctx);
    } catch (const WalFullError &e) {
        // Recoverable: undo what the transaction already wrote and
        // surface the outcome; the database stays usable. Rethrown
        // as WalFullError so callers can distinguish "transaction
        // too big" from genuine engine failures by type.
        rollbackTx(ctx, TxOutcome::kRolledBackWalFull);
        if (!own) {
            ctx.explicitTx = false;
            ctx.aborted = true;
            ctx.abortCode = StatusCode::kWalFull;
        }
        throw WalFullError(
            strCat("db: transaction rolled back: ", e.what()));
    } catch (const TxnAbortError &e) {
        // Deadlock victim or snapshot write conflict: the whole
        // transaction rolls back (auto and explicit alike — the
        // write locks must drop to break the cycle).
        rollbackTx(ctx, e.code() == StatusCode::kDeadlock
                            ? TxOutcome::kRolledBackDeadlock
                            : TxOutcome::kRolledBackConflict);
        if (!own) {
            ctx.explicitTx = false;
            ctx.aborted = true;
            ctx.abortCode = e.code();
        }
        throw;
    } catch (const SimulatedCrash &) {
        throw; // power failed mid-statement; recovery sorts it out
    } catch (...) {
        // The statement died before mutating rows (bad column, dup
        // pk, full table): an auto-txn rolls back; an explicit txn
        // stays open for the caller to decide.
        if (own)
            rollbackTx(ctx, TxOutcome::kRolledBack);
        throw;
    }
    if (own)
        commitTx(ctx);
    return rs;
}

Txn
Database::beginTxn(const TxnOptions &opts)
{
    TxContext &ctx = txContext();
    if (ctx.explicitTx)
        fatal("db: nested transactions are not supported");
    ctx.aborted = false;
    ctx.abortCode = StatusCode::kOk;
    beginTx(ctx, opts.isolation);
    ctx.explicitTx = true;
    return Txn(this, nullptr, ctx.txnSeq, ctx.snapshot);
}

Status
Database::commitHandle(std::uint64_t seq)
{
    TxContext *ctx = txContextIfAny();
    if (ctx == nullptr || ctx->txnSeq != seq)
        return Status::make(StatusCode::kMisuse,
                            "db: commit on a foreign or stale "
                            "transaction handle");
    if (!ctx->explicitTx) {
        if (ctx->aborted) {
            // The engine already rolled this transaction back
            // mid-statement; report why.
            ctx->aborted = false;
            StatusCode code = ctx->abortCode == StatusCode::kOk
                                  ? StatusCode::kAborted
                                  : ctx->abortCode;
            return Status::make(
                code, "db: transaction was rolled back by the engine");
        }
        return Status::make(StatusCode::kMisuse,
                            "db: transaction already finished");
    }
    ctx->explicitTx = false;
    commitTx(*ctx);
    return Status::ok();
}

Status
Database::rollbackHandle(std::uint64_t seq)
{
    TxContext *ctx = txContextIfAny();
    if (ctx == nullptr || ctx->txnSeq != seq)
        return Status::make(StatusCode::kMisuse,
                            "db: rollback on a foreign or stale "
                            "transaction handle");
    if (!ctx->explicitTx) {
        if (ctx->aborted) {
            ctx->aborted = false;
            return Status::ok(); // already rolled back, as requested
        }
        return Status::make(StatusCode::kMisuse,
                            "db: transaction already finished");
    }
    ctx->explicitTx = false;
    rollbackTx(*ctx, TxOutcome::kRolledBack);
    return Status::ok();
}

bool
Database::handleActive(std::uint64_t seq) const
{
    TxContext *ctx = txContextIfAny();
    return ctx != nullptr && ctx->explicitTx && ctx->txnSeq == seq;
}

void
Database::beginWith(Isolation iso, Word bracket_snapshot)
{
    TxContext &ctx = txContext();
    if (ctx.explicitTx)
        fatal("db: nested transactions are not supported");
    ctx.aborted = false;
    ctx.abortCode = StatusCode::kOk;
    beginTx(ctx, iso, bracket_snapshot);
    ctx.explicitTx = true;
}

bool
Database::beginWithTry(Isolation iso, Word bracket_snapshot)
{
    TxContext &ctx = txContext();
    if (ctx.explicitTx)
        fatal("db: nested transactions are not supported");
    ctx.aborted = false;
    ctx.abortCode = StatusCode::kOk;
    if (!beginTx(ctx, iso, bracket_snapshot, /*nowait=*/true))
        return false;
    ctx.explicitTx = true;
    return true;
}

Status
Database::beginDetached(const TxnOptions &opts, std::uint64_t *id_out)
{
    *id_out = 0;
    auto ctx = std::make_unique<TxContext>();
    ctx->shardId = nextShard_.fetch_add(1, std::memory_order_relaxed) %
                   wal_->shardCount();
    ctx->rowTx.token = ctx->shardId + 1;
    if (!beginTx(*ctx, opts.isolation, kNoSnapshot, /*nowait=*/true))
        return Status::make(StatusCode::kBusy,
                            "db: every undo-log shard is carrying a "
                            "transaction; retry");
    ctx->explicitTx = true;

    std::uint64_t id =
        detachedIdCounter_.fetch_add(1, std::memory_order_relaxed);
    SpinGuard g(ctxMu_);
    DetachedSession &s = detached_[id];
    s.ctx = std::move(ctx);
    *id_out = id;
    return Status::ok();
}

bool
Database::bindDetached(std::uint64_t id)
{
    SpinGuard g(ctxMu_);
    auto it = detached_.find(id);
    if (it == detached_.end() || it->second.boundToken != 0)
        return false;
    auto &slot = ctxs_[threadToken()];
    if (slot && slot->explicitTx)
        return false; // binder has its own open transaction
    it->second.stash = std::move(slot);
    slot = std::move(it->second.ctx);
    it->second.boundToken = threadToken();
    g_ctxCache = CtxCache{};
    return true;
}

void
Database::unbindDetached(std::uint64_t id)
{
    SpinGuard g(ctxMu_);
    auto it = detached_.find(id);
    if (it == detached_.end() || it->second.boundToken != threadToken())
        fatal("db: unbind of a session not bound to this thread");
    auto &slot = ctxs_[threadToken()];
    it->second.ctx = std::move(slot);
    slot = std::move(it->second.stash);
    it->second.boundToken = 0;
    g_ctxCache = CtxCache{};
}

std::uint64_t
Database::detachCurrentTx()
{
    SpinGuard g(ctxMu_);
    auto it = ctxs_.find(threadToken());
    if (it == ctxs_.end() || !it->second || !it->second->explicitTx)
        fatal("db: detach without an open transaction");
    std::uint64_t id =
        detachedIdCounter_.fetch_add(1, std::memory_order_relaxed);
    DetachedSession &s = detached_[id];
    s.ctx = std::move(it->second);
    g_ctxCache = CtxCache{};
    return id;
}

std::unique_ptr<Database::TxContext>
Database::takeDetached(std::uint64_t id)
{
    SpinGuard g(ctxMu_);
    auto it = detached_.find(id);
    if (it == detached_.end())
        fatal("db: unknown detached session");
    if (it->second.boundToken != 0)
        fatal("db: finishing a detached session while it is bound");
    std::unique_ptr<TxContext> ctx = std::move(it->second.ctx);
    detached_.erase(it);
    return ctx;
}

Status
Database::commitDetached(std::uint64_t id)
{
    std::unique_ptr<TxContext> ctx = takeDetached(id);
    if (!ctx->explicitTx) {
        if (ctx->aborted) {
            StatusCode code = ctx->abortCode == StatusCode::kOk
                                  ? StatusCode::kAborted
                                  : ctx->abortCode;
            return Status::make(
                code, "db: transaction was rolled back by the engine");
        }
        return Status::make(StatusCode::kMisuse,
                            "db: transaction already finished");
    }
    ctx->explicitTx = false;
    commitTx(*ctx);
    return Status::ok();
}

Status
Database::rollbackDetached(std::uint64_t id)
{
    std::unique_ptr<TxContext> ctx = takeDetached(id);
    if (!ctx->explicitTx) {
        if (ctx->aborted)
            return Status::ok(); // already rolled back, as requested
        return Status::make(StatusCode::kMisuse,
                            "db: transaction already finished");
    }
    ctx->explicitTx = false;
    rollbackTx(*ctx, TxOutcome::kRolledBack);
    return Status::ok();
}

void
Database::commitDetachedAsync(std::uint64_t id,
                              std::function<void(Status)> done)
{
    std::unique_ptr<TxContext> ctx = takeDetached(id);
    if (!ctx->explicitTx) {
        if (ctx->aborted) {
            StatusCode code = ctx->abortCode == StatusCode::kOk
                                  ? StatusCode::kAborted
                                  : ctx->abortCode;
            done(Status::make(
                code, "db: transaction was rolled back by the engine"));
        } else {
            done(Status::make(StatusCode::kMisuse,
                              "db: transaction already finished"));
        }
        return;
    }
    ctx->explicitTx = false;
    WalShard &shard = wal_->shard(ctx->shardId);
    if (shard.entryCount() == 0) {
        // Nothing written: no fences, no batch — complete inline.
        shard.retireEmpty();
        finishCommitLocal(*ctx);
        ctx->lastOutcome = TxOutcome::kCommitted;
        done(Status::ok());
        return;
    }
    TxContext *raw = ctx.release();
    coordinator_->commitAsync(
        shard, [this, raw, done](std::exception_ptr err) {
            std::unique_ptr<TxContext> reclaim(raw);
            if (err) {
                // The drain died of a simulated power failure; the
                // session's durability is whatever recovery decides.
                done(Status::make(StatusCode::kAborted,
                                  "db: commit drain failed"));
                return;
            }
            finishCommitLocal(*reclaim);
            reclaim->lastOutcome = TxOutcome::kCommitted;
            done(Status::ok());
        });
}

std::size_t
Database::detachedCount() const
{
    SpinGuard g(ctxMu_);
    return detached_.size();
}

unsigned
Database::busyWalShards() const
{
    unsigned n = 0;
    for (unsigned i = 0; i < wal_->shardCount(); ++i)
        if (wal_->shard(i).txHeld())
            ++n;
    return n;
}

bool
Database::prepareTx2pc(Word txn_id)
{
    TxContext &ctx = txContext();
    if (!ctx.explicitTx)
        fatal("db: prepare without an open transaction");
    WalShard &shard = wal_->shard(ctx.shardId);
    if (shard.entryCount() == 0)
        return false; // nothing logged: yes-vote, no prepared state
    shard.prepare(txn_id);
    return true;
}

void
Database::publishCommitTsLocked(Word ts)
{
    TxContext &ctx = txContext();
    ctrls_[ctx.shardId].commitTs.store(ts, std::memory_order_release);
}

void
Database::finishPreparedTx(Word ts, bool prepared)
{
    TxContext &ctx = txContext();
    if (!ctx.explicitTx)
        fatal("db: finishPrepared without an open transaction");
    ctx.explicitTx = false;
    WalShard &shard = wal_->shard(ctx.shardId);
    if (prepared)
        shard.finishPrepared();
    else
        shard.retireEmpty();
    rows_->finishCommit(ctx.rowTx, ctx.rowTx.saveImages ? ts : 0);
    endTxCommon(ctx);
    ctx.lastOutcome = TxOutcome::kCommitted;
}

void
Database::begin()
{
    TxContext &ctx = txContext();
    if (ctx.explicitTx)
        fatal("db: nested transactions are not supported");
    ctx.aborted = false;
    ctx.abortCode = StatusCode::kOk;
    beginTx(ctx);
    ctx.explicitTx = true;
}

void
Database::commit()
{
    TxContext &ctx = txContext();
    if (!ctx.explicitTx) {
        if (ctx.aborted) {
            ctx.aborted = false;
            fatal("db: transaction was already rolled back "
                  "(undo log full)");
        }
        fatal("db: commit without begin");
    }
    ctx.explicitTx = false;
    commitTx(ctx);
}

void
Database::rollback()
{
    TxContext &ctx = txContext();
    if (!ctx.explicitTx) {
        if (ctx.aborted) {
            ctx.aborted = false; // already rolled back by the engine
            return;
        }
        fatal("db: rollback without begin");
    }
    ctx.explicitTx = false;
    rollbackTx(ctx, TxOutcome::kRolledBack);
}

bool
Database::inTransaction() const
{
    TxContext *ctx = txContextIfAny();
    return ctx && ctx->explicitTx;
}

TxOutcome
Database::lastTxOutcome() const
{
    TxContext *ctx = txContextIfAny();
    return ctx ? ctx->lastOutcome : TxOutcome::kNone;
}

unsigned
Database::currentTxShard()
{
    return txContext().shardId;
}

Word
Database::currentSnapshot() const
{
    TxContext *ctx = txContextIfAny();
    return (ctx != nullptr && ctx->explicitTx) ? ctx->snapshot
                                               : kNoSnapshot;
}

std::size_t
Database::tableIndexOrDie(const std::string &table)
{
    std::size_t idx = catalog_.tableIndex(table);
    if (idx == static_cast<std::size_t>(-1))
        fatal("db: no such table " + table);
    return idx;
}

ResultSet
Database::executeCreateTable(const TableSchema &schema)
{
    std::lock_guard<std::mutex> g(ddlMu_);
    catalog_.createTable(schema);
    rows_->ensureRegions();
    return ResultSet{};
}

void
Database::createTable(const TableSchema &schema)
{
    PhaseScope scope(timer_, "database");
    executeCreateTable(schema);
}

void
Database::persistRecord(const std::string &table, const DbRecord &record)
{
    PhaseScope scope(timer_, "database");
    std::size_t t = tableIndexOrDie(table);
    const TableSchema &schema = catalog_.tables()[t];
    if (record.values.size() != schema.columns.size())
        fatal("db: record shape mismatch for " + table);
    mutate([&](TxContext &ctx) {
        WalShard &shard = wal_->shard(ctx.shardId);
        std::int64_t pk = record.values[schema.pkColumn].i;
        if (!rows_->update(t, pk, record.values, record.dirtyMask,
                           shard, ctx.rowTx))
            if (!rows_->insert(t, record.values, shard, ctx.rowTx))
                fatal("db: persistRecord failed for " + table);
        return ResultSet{};
    });
}

bool
Database::updateRecord(const std::string &table,
                       const DbRecord &record)
{
    PhaseScope scope(timer_, "database");
    std::size_t t = tableIndexOrDie(table);
    const TableSchema &schema = catalog_.tables()[t];
    if (record.values.size() != schema.columns.size())
        fatal("db: record shape mismatch for " + table);
    bool updated = false;
    mutate([&](TxContext &ctx) {
        std::int64_t pk = record.values[schema.pkColumn].i;
        updated = rows_->update(t, pk, record.values,
                                record.dirtyMask,
                                wal_->shard(ctx.shardId), ctx.rowTx);
        return ResultSet{};
    });
    return updated;
}

bool
Database::fetchRecord(const std::string &table, std::int64_t pk,
                      DbRecord *out)
{
    PhaseScope scope(timer_, "database");
    std::size_t t = tableIndexOrDie(table);
    return rows_->fetch(t, pk, &out->values, currentSnapshot());
}

bool
Database::fetchForUpdate(const std::string &table, std::int64_t pk,
                         DbRecord *out)
{
    PhaseScope scope(timer_, "database");
    std::size_t t = tableIndexOrDie(table);
    bool found = false;
    mutate([&](TxContext &ctx) {
        found = rows_->fetchOwned(t, pk, &out->values, ctx.rowTx);
        return ResultSet{};
    });
    if (found)
        out->dirtyMask = ~0ull;
    return found;
}

void
Database::forEachPk(const std::string &table,
                    const std::function<void(std::int64_t)> &fn)
{
    PhaseScope scope(timer_, "database");
    std::size_t t = tableIndexOrDie(table);
    std::size_t pk_col = catalog_.tables()[t].pkColumn;
    rows_->scanAll(t, [&](const std::vector<DbValue> &row) {
        fn(row[pk_col].i);
    });
}

std::size_t
Database::versionChainDepth(const std::string &table, std::int64_t pk)
{
    return rows_->versionChainDepth(tableIndexOrDie(table), pk);
}

bool
Database::deleteRecord(const std::string &table, std::int64_t pk)
{
    PhaseScope scope(timer_, "database");
    std::size_t t = tableIndexOrDie(table);
    bool erased = false;
    mutate([&](TxContext &ctx) {
        erased = rows_->erase(t, pk, wal_->shard(ctx.shardId),
                              ctx.rowTx);
        return ResultSet{};
    });
    return erased;
}

void
Database::scanEq(const std::string &table, const std::string &column,
                 const DbValue &v,
                 const std::function<void(const std::vector<DbValue> &)>
                     &fn)
{
    PhaseScope scope(timer_, "database");
    std::size_t t = tableIndexOrDie(table);
    std::size_t c = catalog_.tables()[t].columnIndex(column);
    if (c == static_cast<std::size_t>(-1))
        fatal("db: no such column " + column);
    rows_->scanEq(t, c, v, fn, currentSnapshot());
}

bool
Database::fetchRecordAt(const std::string &table, std::int64_t pk,
                        DbRecord *out, Word snapshot)
{
    PhaseScope scope(timer_, "database");
    std::size_t t = tableIndexOrDie(table);
    return rows_->fetch(t, pk, &out->values, snapshot);
}

void
Database::scanEqAt(const std::string &table, const std::string &column,
                   const DbValue &v,
                   const std::function<void(const std::vector<DbValue> &)>
                       &fn,
                   Word snapshot)
{
    PhaseScope scope(timer_, "database");
    std::size_t t = tableIndexOrDie(table);
    std::size_t c = catalog_.tables()[t].columnIndex(column);
    if (c == static_cast<std::size_t>(-1))
        fatal("db: no such column " + column);
    rows_->scanEq(t, c, v, fn, snapshot);
}

std::size_t
Database::rowCount(const std::string &table)
{
    return rows_->rowCount(tableIndexOrDie(table));
}

ResultSet
Database::executeSql(const std::string &sql)
{
    // The JDBC path: text -> tokens -> AST -> typed execution.
    SqlStatement stmt;
    {
        PhaseScope scope(timer_, "transformation");
        stmt = parseSql(sql);
    }
    PhaseScope scope(timer_, "database");
    return execute(stmt);
}

ResultSet
Database::execute(const SqlStatement &stmt)
{
    ResultSet rs;
    switch (stmt.kind) {
      case SqlStatement::Kind::kCreateTable:
        return executeCreateTable(stmt.schema);
      case SqlStatement::Kind::kInsert: {
        std::size_t t = tableIndexOrDie(stmt.table);
        const TableSchema &schema = catalog_.tables()[t];
        std::vector<DbValue> row(schema.columns.size());
        for (std::size_t i = 0; i < stmt.insertColumns.size(); ++i) {
            std::size_t c = schema.columnIndex(stmt.insertColumns[i]);
            if (c == static_cast<std::size_t>(-1))
                fatal("db: no such column " + stmt.insertColumns[i]);
            row[c] = stmt.insertValues[i];
        }
        return mutate([&](TxContext &ctx) {
            ResultSet out;
            if (!rows_->insert(t, row, wal_->shard(ctx.shardId),
                               ctx.rowTx))
                fatal("db: duplicate primary key inserting into " +
                      stmt.table);
            out.affected = 1;
            return out;
        });
      }
      case SqlStatement::Kind::kSelect: {
        std::size_t t = tableIndexOrDie(stmt.table);
        const TableSchema &schema = catalog_.tables()[t];
        Word snap = currentSnapshot();
        std::vector<std::size_t> cols;
        if (stmt.selectAll) {
            for (std::size_t c = 0; c < schema.columns.size(); ++c)
                cols.push_back(c);
        } else {
            for (const std::string &name : stmt.selectColumns) {
                std::size_t c = schema.columnIndex(name);
                if (c == static_cast<std::size_t>(-1))
                    fatal("db: no such column " + name);
                cols.push_back(c);
            }
        }
        for (std::size_t c : cols)
            rs.columns.push_back(schema.columns[c].name);

        auto emit = [&](const std::vector<DbValue> &row) {
            std::vector<DbValue> projected;
            projected.reserve(cols.size());
            for (std::size_t c : cols)
                projected.push_back(row[c]);
            rs.rows.push_back(std::move(projected));
        };

        if (stmt.hasWhere) {
            std::size_t wc = schema.columnIndex(stmt.whereColumn);
            if (wc == static_cast<std::size_t>(-1))
                fatal("db: no such column " + stmt.whereColumn);
            if (wc == schema.pkColumn &&
                stmt.whereValue.type == DbType::kI64) {
                std::vector<DbValue> row;
                if (rows_->fetch(t, stmt.whereValue.i, &row, snap))
                    emit(row);
            } else {
                rows_->scanEq(t, wc, stmt.whereValue, emit, snap);
            }
        } else {
            rows_->scanAll(t, emit, snap);
        }
        return rs;
      }
      case SqlStatement::Kind::kUpdate: {
        std::size_t t = tableIndexOrDie(stmt.table);
        const TableSchema &schema = catalog_.tables()[t];
        if (schema.columnIndex(stmt.whereColumn) != schema.pkColumn)
            fatal("db: UPDATE supports pk predicates only");
        std::vector<DbValue> row(schema.columns.size());
        std::uint64_t mask = 0;
        for (const auto &[col, val] : stmt.assignments) {
            std::size_t c = schema.columnIndex(col);
            if (c == static_cast<std::size_t>(-1))
                fatal("db: no such column " + col);
            row[c] = val;
            mask |= 1ull << c;
        }
        return mutate([&](TxContext &ctx) {
            ResultSet out;
            out.affected = rows_->update(t, stmt.whereValue.i, row,
                                         mask, wal_->shard(ctx.shardId),
                                         ctx.rowTx)
                               ? 1
                               : 0;
            return out;
        });
      }
      case SqlStatement::Kind::kDelete: {
        std::size_t t = tableIndexOrDie(stmt.table);
        const TableSchema &schema = catalog_.tables()[t];
        std::size_t wc = schema.columnIndex(stmt.whereColumn);
        return mutate([&](TxContext &ctx) {
            ResultSet out;
            WalShard &shard = wal_->shard(ctx.shardId);
            if (wc == schema.pkColumn &&
                stmt.whereValue.type == DbType::kI64) {
                out.affected = rows_->erase(t, stmt.whereValue.i, shard,
                                            ctx.rowTx)
                                   ? 1
                                   : 0;
            } else {
                // Non-pk delete: collect pks then erase.
                std::vector<std::int64_t> pks;
                rows_->scanEq(t, wc, stmt.whereValue,
                              [&](const std::vector<DbValue> &row) {
                                  pks.push_back(row[schema.pkColumn].i);
                              });
                for (std::int64_t pk : pks)
                    out.affected +=
                        rows_->erase(t, pk, shard, ctx.rowTx) ? 1 : 0;
            }
            return out;
        });
      }
    }
    panic("db: unhandled statement kind");
}

void
Database::crash(CrashMode mode, std::uint64_t seed,
                const WalShard::ResolveFn &is_committed)
{
    {
        SpinGuard g(ctxMu_);
        ctxs_.clear();
        // Parked sessions died with the power; their shard tokens
        // are re-zeroed by recovery below.
        detached_.clear();
        generation_.fetch_add(1, std::memory_order_release);
    }
    coordinator_->resetAfterCrash();
    // Shared clocks are reset once per member — idempotent, and the
    // quiesced-caller contract makes the repeats harmless. The clock
    // value itself ratchets back up from recovered row versions.
    clock_->resetAfterCrash();
    for (unsigned i = 0; i < wal_->shardCount(); ++i) {
        ctrls_[i].seq.store(0, std::memory_order_relaxed);
        ctrls_[i].commitTs.store(0, std::memory_order_relaxed);
        ctrls_[i].waitingFor.store(0, std::memory_order_relaxed);
    }
    dev_->crash(mode, seed);
    wal_->recover(is_committed);
    catalog_.reload();
    rows_ = std::make_unique<RowStore>(
        dev_.get(), reinterpret_cast<Addr>(dev_->base()) + rowsOff_,
        cfg_.rowRegionSize, &catalog_, cfg_.rowsPerTable, ctrls_.get(),
        wal_->shardCount(), clock_);
    rows_->syncWithCatalog();
}

} // namespace db
} // namespace espresso
