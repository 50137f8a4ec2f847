#include "db/database.hh"

#include "nvm/crash_injector.hh"
#include "util/logging.hh"

namespace espresso {
namespace db {

namespace {

/** Row-lock wait bound for nowait (wire) transactions: this many
 * 256-spin rounds, then abort kBusy. Long enough to ride out a
 * committing holder, short enough that an event-loop worker stalls
 * for microseconds, not milliseconds. */
constexpr std::uint32_t kNetLockSpinRounds = 16;

} // namespace

/** One Database transaction: owned by a Txn, or on the stack of an
 * auto-committed statement. */
struct Database::TxContext final : TxnState
{
    explicit TxContext(Database *d)
        : db(d), gen(d->generation_.load(std::memory_order_acquire))
    {
        owner = d;
    }

    bool
    active() const override
    {
        return phase == Phase::kOpen &&
               gen == db->generation_.load(std::memory_order_acquire);
    }

    Status finish(bool commit) override { return db->finishTx(*this, commit); }

    void
    commitAsync(std::unique_ptr<TxnState> self,
                std::function<void(Status)> done) override
    {
        self.release();
        db->commitTxAsync(std::unique_ptr<TxContext>(this), std::move(done));
    }

    void lose() override { phase = Phase::kLost; }

    Database *db;
    /** The engine's crash generation at begin. */
    std::uint64_t gen;
    enum class Phase
    {
        kOpen,
        kAborted, ///< rolled back by the engine mid-statement
        kLost,    ///< a power failure took it
    } phase = Phase::kOpen;
    StatusCode abortCode = StatusCode::kOk;
    unsigned shardId = 0;
    /** False when a sharded bracket registered the snapshot. */
    bool ownsSnapshot = false;
    RowTxState rowTx;
};

Database::Database(const DatabaseConfig &cfg, NvmConfig nvm_cfg,
                   SnapshotClock *shared_clock)
    : cfg_(cfg)
{
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
    coordinator_ = std::make_unique<CommitCoordinator>(dev_.get());
}

Database::~Database() = default;

Database::TxContext *
Database::boundTx() const
{
    return static_cast<TxContext *>(boundTxn(this));
}

unsigned
Database::homeShard()
{
    SpinGuard g(homesMu_);
    auto [it, fresh] = homes_.try_emplace(currentThreadToken(), 0u);
    if (fresh)
        it->second = nextShard_++ % wal_->shardCount();
    return it->second;
}

bool
Database::beginTx(TxContext &ctx, Isolation iso, Word bracket_snapshot,
                  bool nowait)
{
    unsigned n = wal_->shardCount();
    unsigned home = homeShard();
    unsigned chosen = home;
    if (nowait) {
        // Admission control: claim any free shard token (starting at
        // the home shard) or decline — never queue. This naturally
        // caps concurrent wire write sessions at the shard count.
        chosen = n;
        for (unsigned i = 0; i < n; ++i) {
            unsigned cand = (home + i) % n;
            if (wal_->shard(cand).tryAcquireTx()) {
                chosen = cand;
                break;
            }
        }
        if (chosen == n)
            return false;
    } else {
        // One transaction per shard: extra threads mapped to the
        // same shard queue here.
        wal_->shard(chosen).acquireTx();
    }
    ctx.shardId = chosen;
    ctx.rowTx.token = chosen + 1;
    WalShard &shard = wal_->shard(chosen);
    ctx.rowTx.maxSpinRounds = nowait ? kNetLockSpinRounds : 0;

    if (iso == Isolation::kSnapshot) {
        // A sharded bracket registered one snapshot for every member;
        // re-registering here would read a different clock value.
        ctx.ownsSnapshot = bracket_snapshot == kNoSnapshot;
        ctx.snapshot = ctx.ownsSnapshot ? clock_->beginSnapshot()
                                        : bracket_snapshot;
    }
    ctx.rowTx.snapshot = ctx.snapshot;

    // Fresh control-block state before any marker can reference it.
    TxnCtrl &c = ctrls_[chosen];
    c.commitTs.store(0, std::memory_order_relaxed);
    c.waitingFor.store(0, std::memory_order_relaxed);
    c.seq.store(txnSeqCounter_.fetch_add(1, std::memory_order_relaxed),
                std::memory_order_release);

    shard.begin();
    return true;
}

void
Database::finishCommitLocal(TxContext &ctx)
{
    Word ts;
    {
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
    if (ctx.ownsSnapshot)
        clock_->endSnapshot(ctx.snapshot);
    // Shard release comes after row stamping (finishCommit /
    // finishRollback): no new transaction reuses this token while
    // its markers are still being resolved away.
    wal_->shard(ctx.shardId).releaseTx();
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
}

void
Database::rollbackTx(TxContext &ctx)
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
}

template <typename Fn>
ResultSet
Database::mutate(Fn &&fn)
{
    if (TxContext *ctx = boundTx()) {
        try {
            return fn(*ctx);
        } catch (const WalFullError &e) {
            // Recoverable: undo what the transaction already wrote;
            // the database stays usable. Rethrown as WalFullError so
            // callers can tell "transaction too big" from genuine
            // engine failures by type.
            rollbackTx(*ctx);
            ctx->phase = TxContext::Phase::kAborted;
            ctx->abortCode = StatusCode::kWalFull;
            throw WalFullError(
                strCat("db: transaction rolled back: ", e.what()));
        } catch (const TxnAbortError &e) {
            // Deadlock victim, snapshot conflict or bounded-wait
            // timeout: the write locks must drop, so the whole
            // transaction rolls back.
            rollbackTx(*ctx);
            ctx->phase = TxContext::Phase::kAborted;
            ctx->abortCode = e.code();
            throw;
        } catch (const SimulatedCrash &) {
            ctx->lose(); // power failed mid-statement; recovery owns it
            throw;
        }
        // Any other failure (bad column, dup pk, full table) died
        // before mutating rows: the transaction stays open for the
        // caller to decide.
    }
    TxContext ctx(this);
    beginTx(ctx, Isolation::kReadUncommitted, kNoSnapshot, false);
    ResultSet rs;
    try {
        rs = fn(ctx);
    } catch (const WalFullError &e) {
        rollbackTx(ctx);
        throw WalFullError(
            strCat("db: transaction rolled back: ", e.what()));
    } catch (const SimulatedCrash &) {
        throw;
    } catch (...) {
        rollbackTx(ctx);
        throw;
    }
    commitTx(ctx);
    return rs;
}

Txn
Database::beginTxn(const TxnOptions &opts)
{
    return openTxn(opts.isolation, kNoSnapshot, false);
}

Status
Database::tryBeginTxn(const TxnOptions &opts, Txn *out)
{
    Txn t = openTxn(opts.isolation, kNoSnapshot, true);
    if (t.state_ == nullptr)
        return Status::make(StatusCode::kBusy,
                            "db: every undo-log shard is carrying a "
                            "transaction; retry");
    *out = std::move(t);
    return Status::ok();
}

Txn
Database::openTxn(Isolation iso, Word bracket_snapshot, bool nowait)
{
    if (boundTx() != nullptr)
        fatal("db: nested transactions are not supported");
    auto ctx = std::make_unique<TxContext>(this);
    if (!beginTx(*ctx, iso, bracket_snapshot, nowait))
        return Txn();
    (void)ctx->bind();
    return Txn(std::move(ctx));
}

Status
Database::finishTx(TxContext &ctx, bool commit)
{
    if (ctx.boundTo != 0)
        ctx.unbind();
    if (ctx.phase == TxContext::Phase::kAborted)
        return commit ? Status::make(ctx.abortCode,
                                     "db: transaction was rolled back "
                                     "by the engine")
                      : Status::ok();
    if (!ctx.active()) {
        // Lost to a power failure: recovery rolled it back.
        return commit ? Status::make(StatusCode::kAborted,
                                     "db: transaction was lost to a "
                                     "power failure")
                      : Status::ok();
    }
    try {
        if (commit)
            commitTx(ctx);
        else
            rollbackTx(ctx);
    } catch (const SimulatedCrash &) {
        ctx.lose();
        throw;
    }
    return Status::ok();
}

void
Database::commitTxAsync(std::unique_ptr<TxContext> ctx,
                        std::function<void(Status)> done)
{
    if (!ctx->active() || wal_->shard(ctx->shardId).entryCount() == 0) {
        // Aborted, lost, or nothing written (no fences, no batch):
        // complete inline.
        done(finishTx(*ctx, true));
        return;
    }
    if (ctx->boundTo != 0)
        ctx->unbind();
    WalShard &shard = wal_->shard(ctx->shardId);
    std::shared_ptr<TxContext> held(std::move(ctx));
    coordinator_->commitAsync(
        shard, [this, held, done](std::exception_ptr err) {
            if (err) {
                // The drain died of a simulated power failure; the
                // durability is whatever recovery decides.
                done(Status::make(StatusCode::kAborted,
                                  "db: commit drain failed"));
                return;
            }
            finishCommitLocal(*held);
            done(Status::ok());
        });
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
Database::prepareTx2pc(Txn &member, Word txn_id)
{
    auto &ctx = static_cast<TxContext &>(*member.state_);
    WalShard &shard = wal_->shard(ctx.shardId);
    if (shard.entryCount() == 0)
        return false; // nothing logged: yes-vote, no prepared state
    shard.prepare(txn_id);
    return true;
}

void
Database::publishCommitTsLocked(Txn &member, Word ts)
{
    auto &ctx = static_cast<TxContext &>(*member.state_);
    ctrls_[ctx.shardId].commitTs.store(ts, std::memory_order_release);
}

void
Database::finishPreparedTx(Txn &member, Word ts, bool prepared)
{
    std::unique_ptr<TxnState> state = std::move(member.state_);
    auto &ctx = static_cast<TxContext &>(*state);
    WalShard &shard = wal_->shard(ctx.shardId);
    if (prepared)
        shard.finishPrepared();
    else
        shard.retireEmpty();
    rows_->finishCommit(ctx.rowTx, ts);
    endTxCommon(ctx);
}

unsigned
Database::currentTxShard()
{
    TxContext *ctx = boundTx();
    return ctx != nullptr ? ctx->shardId : homeShard();
}

Word
Database::currentSnapshot() const
{
    TxContext *ctx = boundTx();
    return ctx != nullptr ? ctx->snapshot : kNoSnapshot;
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
    // Open transactions died with the power: their Txns go inert, and
    // recovery below re-zeroes their shard tokens.
    generation_.fetch_add(1, std::memory_order_release);
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
