#include "db/row_store.hh"

#include <algorithm>
#include <cstring>
#include <thread>

#include "nvm/nvm_device.hh"
#include "runtime/oop.hh"
#include "util/logging.hh"

namespace espresso {
namespace db {

namespace {
constexpr Word kRowFree = 0;
constexpr Word kRowLive = 1;
constexpr std::size_t kRowHeader = 16;
constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
} // namespace

RowStore::RowStore(NvmDevice *device, Addr base, std::size_t size,
                   Catalog *catalog, std::size_t rows_per_table,
                   TxnCtrl *ctrls, unsigned ctrl_count,
                   SnapshotClock *clock)
    : device_(device), base_(base), size_(size), catalog_(catalog),
      rowsPerTable_(rows_per_table), ctrls_(ctrls),
      ctrlCount_(ctrl_count), clock_(clock)
{}

void
RowStore::initRegion(TableRegion &region, std::size_t table)
{
    const TableSchema &schema = catalog_->tables()[table];
    std::size_t need = schema.rowBytes() * rowsPerTable_;
    if (allocated_ + need > size_)
        fatal("db: row region exhausted creating " + schema.name);
    region.base = base_ + allocated_;
    region.capacity = rowsPerTable_;
    allocated_ += alignUp(need, kCacheLineSize);
    region.rowOwner =
        std::make_unique<std::atomic<Word>[]>(region.capacity);
    // Allocate low indexes first so scans stay short.
    region.freeRows.reserve(region.capacity);
    for (std::size_t i = region.capacity; i-- > 0;)
        region.freeRows.push_back(i);
    region.highWater = 0;
}

void
RowStore::ensureRegions()
{
    const auto &tables = catalog_->tables();
    for (std::size_t t = 0; t < tables.size(); ++t) {
        if (t < regions_.size() && regions_[t].base != 0)
            continue;
        while (regions_.size() <= t)
            regions_.emplace_back();
        initRegion(regions_[t], t);
    }
}

void
RowStore::syncWithCatalog()
{
    ensureRegions();

    // Rebuild volatile indexes from row state words. Dirty version
    // markers belong to transactions that died with the crash (their
    // effects were just rolled back, or rolled forward and left
    // unstamped) — scrub them to "committed at time zero", and
    // ratchet the commit clock past every surviving clean timestamp
    // so new transactions stay in their future.
    Word max_ts = 0;
    const auto &tables = catalog_->tables();
    for (std::size_t t = 0; t < regions_.size(); ++t) {
        TableRegion &region = regions_[t];
        region.pkIndex.clear();
        region.eqIndex.clear();
        region.freeRows.clear();
        region.highWater = 0;
        region.graveyard.clear();
        {
            SpinGuard vg(region.versionMu);
            region.versions.clear();
        }
        std::size_t row_bytes = tables[t].rowBytes();
        std::size_t pk_col = tables[t].pkColumn;
        std::size_t idx_col = tables[t].indexColumn;
        for (std::size_t i = 0; i < region.capacity; ++i) {
            region.rowOwner[i].store(0, std::memory_order_relaxed);
            Addr row = rowAddr(region, i, row_bytes);
            Word v = loadWord(row + kWordSize);
            if (versionIsDirty(v))
                storeWord(row + kWordSize, 0);
            else if (v > max_ts)
                max_ts = v;
            if (loadWord(row) == kRowLive) {
                DbValue pk = decodeValueSlot(
                    reinterpret_cast<const std::uint8_t *>(
                        row + kRowHeader + pk_col * kValueSlotBytes));
                region.pkIndex[pk.i] = i;
                if (idx_col != TableSchema::kNoIndex) {
                    region.eqIndex.emplace(
                        cellAt(region, i, row_bytes, idx_col).i, i);
                }
                region.highWater = i + 1;
            } else {
                region.freeRows.push_back(i);
            }
        }
        std::reverse(region.freeRows.begin(), region.freeRows.end());
    }
    if (clock_ != nullptr)
        clock_->noteRecoveredVersion(max_ts);
}

DbValue
RowStore::cellAt(const TableRegion &region, std::size_t idx,
                 std::size_t row_bytes, std::size_t col) const
{
    Addr addr = rowAddr(region, idx, row_bytes);
    return decodeValueSlot(reinterpret_cast<const std::uint8_t *>(
        addr + kRowHeader + col * kValueSlotBytes));
}

void
RowStore::eqIndexErase(TableRegion &region, std::int64_t key,
                       std::size_t idx)
{
    auto [lo, hi] = region.eqIndex.equal_range(key);
    for (auto it = lo; it != hi; ++it) {
        if (it->second == idx) {
            region.eqIndex.erase(it);
            return;
        }
    }
}

void
RowStore::eqIndexEraseAllFor(TableRegion &region, std::size_t idx)
{
    for (auto it = region.eqIndex.begin(); it != region.eqIndex.end();) {
        if (it->second == idx)
            it = region.eqIndex.erase(it);
        else
            ++it;
    }
}

bool
RowStore::detectDeadlock(Word self) const
{
    // Walk the waits-for edges out of self; returning to self is a
    // cycle. Edges carry the begin sequence of the transaction they
    // point at (same packing as dirty version markers), so an edge
    // recorded against a holder that has since finished — its token
    // reused by a successor transaction on the same WAL shard —
    // reads as stale and breaks the walk: token reuse cannot stitch
    // a resolved wait into a phantom cycle. Only the youngest member
    // (largest begin seq) aborts, so exactly one victim breaks each
    // cycle and no one aborts for a wait that merely looks long.
    std::vector<Word> path;
    Word cur = self;
    for (unsigned hop = 0; hop < ctrlCount_ + 1; ++hop) {
        Word edge =
            ctrls_[cur - 1].waitingFor.load(std::memory_order_acquire);
        if (edge == 0)
            return false;
        Word next = dirtyVersionToken(edge);
        if (next == 0 || next > ctrlCount_)
            return false;
        if ((ctrls_[next - 1].seq.load(std::memory_order_acquire) &
             kVersionSeqMask) != dirtyVersionSeq(edge))
            return false; // stale edge: that transaction finished
        if (next == self) {
            Word self_seq =
                ctrls_[self - 1].seq.load(std::memory_order_acquire);
            for (Word t : path) {
                if (ctrls_[t - 1].seq.load(std::memory_order_acquire) >
                    self_seq)
                    return false; // a younger member will yield
            }
            return true;
        }
        path.push_back(next);
        cur = next;
    }
    return false;
}

bool
RowStore::acquireRow(std::size_t table, TableRegion &region,
                     std::size_t idx, RowTxState &tx)
{
    std::atomic<Word> &owner = region.rowOwner[idx];
    if (owner.load(std::memory_order_acquire) == tx.token)
        return false; // already write-locked by this transaction
    TxnCtrl *self = (ctrls_ != nullptr && tx.token >= 1 &&
                     tx.token <= ctrlCount_)
                        ? &ctrls_[tx.token - 1]
                        : nullptr;
    Word expect = 0;
    std::uint32_t spins = 0;
    std::uint32_t rounds = 0;
    while (!owner.compare_exchange_weak(expect, tx.token,
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
        expect = 0;
        if (++spins >= 256) {
            spins = 0;
            if (tx.maxSpinRounds != 0 && ++rounds > tx.maxSpinRounds) {
                if (self != nullptr)
                    self->waitingFor.store(0, std::memory_order_release);
                throw TxnAbortError(
                    StatusCode::kBusy,
                    "db: bounded lock wait expired; no-wait "
                    "transaction rolled back");
            }
            // The holder may have died of a simulated power failure;
            // die with it rather than spin on a lock nobody releases.
            CrashInjector *inj = device_->injector();
            if (inj && inj->tripped()) {
                if (self != nullptr)
                    self->waitingFor.store(0, std::memory_order_release);
                throw SimulatedCrash();
            }
            if (self != nullptr) {
                Word holder = owner.load(std::memory_order_acquire);
                if (holder == 0 || holder > ctrlCount_) {
                    self->waitingFor.store(0,
                                           std::memory_order_release);
                } else {
                    Word hseq = ctrls_[holder - 1].seq.load(
                        std::memory_order_acquire);
                    self->waitingFor.store(
                        makeDirtyVersion(holder, hseq),
                        std::memory_order_release);
                    // Detect only while the sampled holder still owns
                    // the row: a release between the owner and seq
                    // reads could stamp the successor transaction's
                    // seq onto a row it never held, and that edge
                    // must not feed a cycle.
                    if (owner.load(std::memory_order_acquire) ==
                            holder &&
                        detectDeadlock(tx.token)) {
                        self->waitingFor.store(
                            0, std::memory_order_release);
                        throw TxnAbortError(
                            StatusCode::kDeadlock,
                            "db: deadlock detected; this transaction "
                            "was chosen as the victim");
                    }
                }
            }
            std::this_thread::yield();
        }
    }
    if (self != nullptr)
        self->waitingFor.store(0, std::memory_order_release);
    tx.ownedRows.emplace_back(table, idx);
    return true;
}

bool
RowStore::tryAcquireRow(std::size_t table, TableRegion &region,
                        std::size_t idx, RowTxState &tx)
{
    std::atomic<Word> &owner = region.rowOwner[idx];
    if (owner.load(std::memory_order_acquire) == tx.token)
        return true; // already write-locked by this transaction
    Word expect = 0;
    if (!owner.compare_exchange_strong(expect, tx.token,
                                       std::memory_order_acq_rel,
                                       std::memory_order_relaxed))
        return false;
    tx.ownedRows.emplace_back(table, idx);
    return true;
}

void
RowStore::undoAcquire(TableRegion &region, std::size_t idx,
                      RowTxState &tx)
{
    region.rowOwner[idx].store(0, std::memory_order_release);
    tx.ownedRows.pop_back();
}

std::size_t
RowStore::lockRowForWrite(std::size_t table, TableRegion &region,
                          std::int64_t pk, RowTxState &tx)
{
    for (;;) {
        std::size_t idx;
        {
            SpinGuard g(region.indexMu);
            auto it = region.pkIndex.find(pk);
            if (it == region.pkIndex.end())
                return kNpos;
            idx = it->second;
        }
        bool newly = acquireRow(table, region, idx, tx);
        {
            SpinGuard g(region.indexMu);
            auto it = region.pkIndex.find(pk);
            if (it != region.pkIndex.end() && it->second == idx)
                return idx;
        }
        // The slot was recycled while we waited for its owner.
        if (newly)
            undoAcquire(region, idx, tx);
    }
}

bool
RowStore::fetchOwned(std::size_t table, std::int64_t pk,
                     std::vector<DbValue> *out, RowTxState &tx)
{
    TableRegion &region = regions_[table];
    const TableSchema &schema = catalog_->tables()[table];
    std::size_t row_bytes = schema.rowBytes();
    std::size_t idx = lockRowForWrite(table, region, pk, tx);
    if (idx == kNpos)
        return false;
    // SI first-committer-wins applies: claiming the row is the first
    // step of writing it.
    Addr addr = rowAddr(region, idx, row_bytes);
    checkWriteConflict(addr, tx);
    SpinGuard rl(rowLatch(region, idx));
    if (loadWord(addr) != kRowLive)
        return false; // committed-dead (gravestoned for snapshots)
    out->clear();
    for (std::size_t c = 0; c < schema.columns.size(); ++c)
        out->push_back(decodeValueSlot(
            reinterpret_cast<const std::uint8_t *>(
                addr + kRowHeader + c * kValueSlotBytes)));
    return true;
}

std::size_t
RowStore::versionChainDepth(std::size_t table, std::int64_t pk) const
{
    const TableRegion &region = regions_[table];
    std::size_t idx;
    {
        SpinGuard g(region.indexMu);
        auto it = region.pkIndex.find(pk);
        if (it == region.pkIndex.end())
            return 0;
        idx = it->second;
    }
    SpinGuard vg(region.versionMu);
    auto it = region.versions.find(idx);
    return it == region.versions.end() ? 0 : it->second.size();
}

void
RowStore::checkWriteConflict(Addr addr, RowTxState &tx) const
{
    if (tx.snapshot == kNoSnapshot)
        return;
    // The row is owned by tx, so its version word is stable: a dirty
    // marker can only be tx's own. First committer wins — a clean
    // timestamp past our snapshot means someone else got there first.
    Word v = loadWord(addr + kWordSize);
    if (!versionIsDirty(v) && v > tx.snapshot)
        throw TxnAbortError(
            StatusCode::kConflict,
            "db: snapshot write conflict: row version is newer than "
            "this transaction's snapshot");
}

void
RowStore::markRowWrite(const TableRegion &region, std::size_t idx,
                       Addr addr, std::size_t row_bytes, RowTxState &tx)
{
    if (ctrls_ == nullptr)
        return; // no MVCC without control blocks
    Word v = loadWord(addr + kWordSize);
    if (versionIsDirty(v))
        return; // tx owns the row, so the marker is already its own
    {
        SpinGuard vg(region.versionMu);
        auto &chain = region.versions[idx];
        RowVersion rv;
        rv.version = v;
        rv.image.assign(
            reinterpret_cast<const std::uint8_t *>(addr),
            reinterpret_cast<const std::uint8_t *>(addr) + row_bytes);
        chain.push_back(std::move(rv));
    }
    Word seq = ctrls_[tx.token - 1].seq.load(std::memory_order_relaxed);
    storeWord(addr + kWordSize, makeDirtyVersion(tx.token, seq));
}

bool
RowStore::resolveRowLocked(const TableRegion &region, std::size_t idx,
                           Addr addr, const TableSchema &schema,
                           Word snapshot, std::int64_t want_pk,
                           bool filter_pk,
                           std::vector<DbValue> *out) const
{
    Word v = loadWord(addr + kWordSize);
    bool use_current = false;
    if (!versionIsDirty(v)) {
        use_current = v <= snapshot;
    } else {
        // In-flight marker: the row is current for this snapshot iff
        // its writer already committed (at or before the snapshot)
        // but has not stamped the row yet. The writer's control
        // block answers; a stale marker (seq mismatch) means the
        // writer finished long ago and cannot be resolved here, so
        // fall through to the chain.
        Word token = dirtyVersionToken(v);
        if (ctrls_ != nullptr && token >= 1 && token <= ctrlCount_) {
            const TxnCtrl &c = ctrls_[token - 1];
            if (c.seq.load(std::memory_order_acquire) ==
                dirtyVersionSeq(v)) {
                Word ts = c.commitTs.load(std::memory_order_acquire);
                use_current = ts != 0 && ts <= snapshot;
            }
        }
    }
    auto decode = [&](const std::uint8_t *bytes) {
        DbValue pk_cell = decodeValueSlot(
            bytes + kRowHeader + schema.pkColumn * kValueSlotBytes);
        if (filter_pk &&
            (pk_cell.type != DbType::kI64 || pk_cell.i != want_pk))
            return false; // slot recycled to a different key
        out->clear();
        for (std::size_t c = 0; c < schema.columns.size(); ++c) {
            out->push_back(decodeValueSlot(
                bytes + kRowHeader + c * kValueSlotBytes));
        }
        return true;
    };
    if (use_current) {
        if (loadWord(addr) != kRowLive)
            return false; // deleted at or before the snapshot
        return decode(reinterpret_cast<const std::uint8_t *>(addr));
    }
    // The current bytes postdate the snapshot (or belong to a
    // running writer): reconstruct from the newest chain image
    // committed at or before it.
    SpinGuard vg(region.versionMu);
    auto it = region.versions.find(idx);
    if (it == region.versions.end())
        return false; // the row was born after the snapshot
    const auto &chain = it->second;
    for (auto e = chain.rbegin(); e != chain.rend(); ++e) {
        if (e->version > snapshot)
            continue;
        const std::uint8_t *img = e->image.data();
        Word state;
        std::memcpy(&state, img, sizeof(Word));
        if (state != kRowLive)
            return false; // dead at the snapshot
        return decode(img);
    }
    return false;
}

void
RowStore::pruneChain(const TableRegion &region, std::size_t idx,
                     const std::vector<Word> &active) const
{
    SpinGuard vg(region.versionMu);
    auto it = region.versions.find(idx);
    if (it == region.versions.end())
        return;
    if (active.empty()) {
        region.versions.erase(it);
        return;
    }
    auto &chain = it->second;
    // Each active snapshot can resolve to exactly one image: the
    // newest at or below it. Everything else — images shadowed by a
    // newer one that still fits the same snapshot, and images newer
    // than the newest active snapshot (those readers use the current
    // row bytes) — is unreachable and goes. Without this, a single
    // long-lived snapshot pins every later update's pre-image and
    // the chain grows without bound. Both lists are sorted
    // ascending, so one merge pass finds the kept set.
    std::vector<RowVersion> kept;
    const std::size_t none = chain.size();
    std::size_t best = none;
    std::size_t last = none;
    std::size_t ci = 0;
    for (Word t : active) {
        while (ci < chain.size() && chain[ci].version <= t) {
            best = ci;
            ++ci;
        }
        if (best != none && best != last) {
            kept.push_back(std::move(chain[best]));
            last = best;
        }
    }
    if (kept.empty()) {
        region.versions.erase(it);
        return;
    }
    chain = std::move(kept);
}

bool
RowStore::graveyardHolds(const TableRegion &region,
                         std::size_t idx) const
{
    for (const Gravestone &g : region.graveyard) {
        if (g.idx == idx)
            return true;
    }
    return false;
}

void
RowStore::pruneGraveyardLocked(TableRegion &region, std::size_t t,
                               Word min_active)
{
    if (region.graveyard.empty())
        return;
    std::size_t row_bytes = catalog_->tables()[t].rowBytes();
    auto keep = region.graveyard.begin();
    for (auto it = region.graveyard.begin();
         it != region.graveyard.end(); ++it) {
        Addr addr = rowAddr(region, it->idx, row_bytes);
        if (loadWord(addr) == kRowLive)
            continue; // re-inserted in place; the entry is obsolete
        if (min_active < it->ts) {
            *keep++ = *it;
            continue; // some snapshot still predates this delete
        }
        // Reap: the mapping, eq entries, chain, and slot go.
        auto pit = region.pkIndex.find(it->pk);
        if (pit != region.pkIndex.end() && pit->second == it->idx)
            region.pkIndex.erase(pit);
        eqIndexEraseAllFor(region, it->idx);
        {
            SpinGuard vg(region.versionMu);
            region.versions.erase(it->idx);
        }
        region.freeRows.push_back(it->idx);
    }
    region.graveyard.erase(keep, region.graveyard.end());
}

bool
RowStore::insert(std::size_t table, const std::vector<DbValue> &row,
                 WalShard &wal, RowTxState &tx)
{
    const TableSchema &schema = catalog_->tables()[table];
    if (row.size() != schema.columns.size())
        fatal("db: column count mismatch inserting into " + schema.name);
    TableRegion &region = regions_[table];
    std::size_t row_bytes = schema.rowBytes();
    std::int64_t pk = row[schema.pkColumn].i;
    std::size_t icol = schema.indexColumn;

    std::size_t idx;
    std::size_t prev_idx = kNpos;
    bool reused = false;
    for (;;) {
        bool claimed = false;
        {
            SpinGuard g(region.indexMu);
            if (!region.graveyard.empty()) {
                Word min_active =
                    clock_ != nullptr
                        ? clock_->minActive()
                        : SnapshotClock::kNoActiveSnapshots;
                pruneGraveyardLocked(region, table, min_active);
            }
            prev_idx = kNpos;
            reused = false;
            auto it = region.pkIndex.find(pk);
            if (it != region.pkIndex.end()) {
                // The pk is taken — unless this very transaction
                // deleted it (owner is ours and the header reads
                // free), in which case the re-insert takes a fresh
                // slot and the deferred index erase will see the
                // moved mapping and skip. A committed-dead slot kept
                // for snapshots (gravestone) is re-inserted in
                // place, so the slot's chain keeps the pk's history.
                prev_idx = it->second;
                Addr paddr = rowAddr(region, prev_idx, row_bytes);
                bool mine_deleted =
                    region.rowOwner[prev_idx].load(
                        std::memory_order_acquire) == tx.token &&
                    loadWord(paddr) != kRowLive;
                if (!mine_deleted) {
                    if (loadWord(paddr) != kRowLive &&
                        graveyardHolds(region, prev_idx) &&
                        tryAcquireRow(table, region, prev_idx, tx)) {
                        idx = prev_idx;
                        claimed = true;
                        reused = true;
                        eqIndexEraseAllFor(region, idx);
                        if (icol != TableSchema::kNoIndex)
                            region.eqIndex.emplace(row[icol].i, idx);
                        if (idx >= region.highWater)
                            region.highWater = idx + 1;
                    } else {
                        return false;
                    }
                }
            }
            if (!claimed && !reused) {
                if (region.freeRows.empty())
                    fatal("db: table " + schema.name + " is full");
                idx = region.freeRows.back();
                region.freeRows.pop_back();
                // Claim the owner before the mapping is visible, so
                // no other transaction can write-lock the half-born
                // row. The claim must not spin under indexMu: a
                // racing lockRowForWrite can transiently own a
                // just-free-listed slot (its stale claim is undone
                // after a recheck that itself needs indexMu), so a
                // failed claim puts the slot back and retries
                // outside the lock.
                if (tryAcquireRow(table, region, idx, tx)) {
                    claimed = true;
                    region.pkIndex[pk] = idx;
                    if (icol != TableSchema::kNoIndex)
                        region.eqIndex.emplace(row[icol].i, idx);
                    if (idx >= region.highWater)
                        region.highWater = idx + 1;
                } else {
                    region.freeRows.push_back(idx);
                }
            }
        }
        if (claimed)
            break;
        {
            CrashInjector *inj = device_->injector();
            if (inj && inj->tripped())
                throw SimulatedCrash();
        }
        std::this_thread::yield();
    }

    Addr addr = rowAddr(region, idx, row_bytes);
    if (reused)
        checkWriteConflict(addr, tx);
    try {
        // Log the full header (state + version words) so rollback
        // both un-publishes the row and restores its version.
        wal.logRange(addr, kRowHeader);
    } catch (const WalFullError &) {
        // Nothing persistent changed; take back the reservation — or
        // restore the pk reservation of this transaction's own
        // uncommitted delete (or of the gravestone), which must hold
        // until rollback. The slot stays owned; finishRollback
        // returns it to the free list after the owner drops.
        SpinGuard g(region.indexMu);
        if (prev_idx != kNpos)
            region.pkIndex[pk] = prev_idx;
        else
            region.pkIndex.erase(pk);
        if (icol != TableSchema::kNoIndex)
            eqIndexErase(region, row[icol].i, idx);
        throw;
    }
    {
        SpinGuard rl(rowLatch(region, idx));
        markRowWrite(region, idx, addr, row_bytes, tx);
        for (std::size_t c = 0; c < schema.columns.size(); ++c) {
            encodeValueSlot(reinterpret_cast<std::uint8_t *>(
                                addr + kRowHeader + c * kValueSlotBytes),
                            row[c]);
        }
    }
    device_->flush(addr, row_bytes);
    // Payload durable before the row can appear live.
    device_->fence();
    {
        SpinGuard rl(rowLatch(region, idx));
        storeWord(addr, kRowLive);
    }
    // The live bit rides the commit drain's fence: its line is part
    // of the logged header-word range re-flushed by stageCommit.
    device_->flush(addr, kWordSize);
    return true;
}

bool
RowStore::update(std::size_t table, std::int64_t pk,
                 const std::vector<DbValue> &row,
                 std::uint64_t dirty_mask, WalShard &wal, RowTxState &tx)
{
    TableRegion &region = regions_[table];
    const TableSchema &schema = catalog_->tables()[table];
    std::size_t row_bytes = schema.rowBytes();
    std::size_t idx = lockRowForWrite(table, region, pk, tx);
    if (idx == kNpos)
        return false;
    dirty_mask &= ~(1ull << schema.pkColumn);
    Addr addr = rowAddr(region, idx, row_bytes);
    // A non-live owned row is this transaction's own uncommitted
    // delete: the pk is reserved but the row is gone.
    if (loadWord(addr) != kRowLive)
        return false;
    checkWriteConflict(addr, tx);
    // Owner is held: the bytes are stable, so the old image can be
    // logged (and fenced) without blocking readers.
    wal.logRange(addr, row_bytes);

    std::size_t icol = schema.indexColumn;
    bool eq_dirty =
        icol != TableSchema::kNoIndex && (dirty_mask & (1ull << icol));
    std::int64_t old_eq = 0;
    {
        SpinGuard rl(rowLatch(region, idx));
        markRowWrite(region, idx, addr, row_bytes, tx);
        if (eq_dirty)
            old_eq = cellAt(region, idx, row_bytes, icol).i;
        for (std::size_t c = 0; c < schema.columns.size(); ++c) {
            if (!(dirty_mask & (1ull << c)))
                continue;
            encodeValueSlot(reinterpret_cast<std::uint8_t *>(
                                addr + kRowHeader + c * kValueSlotBytes),
                            row[c]);
        }
    }
    // New images become durable at the commit drain's fence.
    device_->flush(addr, row_bytes);
    if (eq_dirty && old_eq != row[icol].i) {
        SpinGuard g(region.indexMu);
        eqIndexErase(region, old_eq, idx);
        region.eqIndex.emplace(row[icol].i, idx);
    }
    return true;
}

bool
RowStore::erase(std::size_t table, std::int64_t pk, WalShard &wal,
                RowTxState &tx)
{
    TableRegion &region = regions_[table];
    const TableSchema &schema = catalog_->tables()[table];
    std::size_t row_bytes = schema.rowBytes();
    std::size_t idx = lockRowForWrite(table, region, pk, tx);
    if (idx == kNpos)
        return false;
    Addr addr = rowAddr(region, idx, row_bytes);
    if (loadWord(addr) != kRowLive)
        return false; // already deleted by this transaction
    checkWriteConflict(addr, tx);
    // Log the full header so rollback restores the version word too.
    wal.logRange(addr, kRowHeader);
    std::size_t icol = schema.indexColumn;
    std::int64_t eq_val = 0;
    {
        SpinGuard rl(rowLatch(region, idx));
        markRowWrite(region, idx, addr, row_bytes, tx);
        if (icol != TableSchema::kNoIndex)
            eq_val = cellAt(region, idx, row_bytes, icol).i;
        storeWord(addr, kRowFree);
    }
    // Durable at the commit drain (the undo entry covers a crash).
    device_->flush(addr, kWordSize);
    // Slot free AND index removals wait for commit: the pk stays
    // reserved (a concurrent same-pk insert reports duplicate) so a
    // rollback can resurrect the row without colliding with anyone.
    tx.deferredFree.emplace_back(table, idx);
    tx.deferredPkErase.emplace_back(table, pk, idx);
    if (icol != TableSchema::kNoIndex)
        tx.deferredEqErase.emplace_back(table, eq_val, idx);
    return true;
}

bool
RowStore::fetch(std::size_t table, std::int64_t pk,
                std::vector<DbValue> *out, Word snapshot) const
{
    const TableRegion &region = regions_[table];
    const TableSchema &schema = catalog_->tables()[table];
    std::size_t row_bytes = schema.rowBytes();
    if (snapshot != kNoSnapshot) {
        std::size_t idx;
        {
            SpinGuard g(region.indexMu);
            auto it = region.pkIndex.find(pk);
            if (it == region.pkIndex.end())
                return false; // gravestones keep visible pks mapped
            idx = it->second;
        }
        Addr addr = rowAddr(region, idx, row_bytes);
        SpinGuard rl(rowLatch(region, idx));
        return resolveRowLocked(region, idx, addr, schema, snapshot, pk,
                                true, out);
    }
    for (int attempt = 0; attempt < 3; ++attempt) {
        std::size_t idx;
        {
            SpinGuard g(region.indexMu);
            auto it = region.pkIndex.find(pk);
            if (it == region.pkIndex.end())
                return false;
            idx = it->second;
        }
        Addr addr = rowAddr(region, idx, row_bytes);
        SpinGuard rl(rowLatch(region, idx));
        if (loadWord(addr) != kRowLive)
            continue; // in-flight insert or recycled slot; retry
        DbValue pk_cell = cellAt(region, idx, row_bytes, schema.pkColumn);
        if (pk_cell.type != DbType::kI64 || pk_cell.i != pk)
            continue; // slot recycled under us; retry
        out->clear();
        for (std::size_t c = 0; c < schema.columns.size(); ++c) {
            out->push_back(decodeValueSlot(
                reinterpret_cast<const std::uint8_t *>(
                    addr + kRowHeader + c * kValueSlotBytes)));
        }
        return true;
    }
    return false;
}

void
RowStore::scanEq(
    std::size_t table, std::size_t col, const DbValue &v,
    const std::function<void(const std::vector<DbValue> &)> &fn,
    Word snapshot) const
{
    const TableRegion &region = regions_[table];
    const TableSchema &schema = catalog_->tables()[table];
    std::size_t row_bytes = schema.rowBytes();
    std::vector<DbValue> row;

    if (snapshot != kNoSnapshot) {
        // Snapshot scans always walk the region: the eq index tracks
        // current rows, not the snapshot's versions (a gravestoned
        // or since-updated row may match at the snapshot and not
        // now, or vice versa).
        std::size_t hw;
        {
            SpinGuard g(region.indexMu);
            hw = region.highWater;
        }
        for (std::size_t i = 0; i < hw; ++i) {
            Addr addr = rowAddr(region, i, row_bytes);
            bool vis;
            {
                SpinGuard rl(rowLatch(region, i));
                vis = resolveRowLocked(region, i, addr, schema,
                                       snapshot, 0, false, &row);
            }
            if (vis && row[col] == v)
                fn(row);
        }
        return;
    }

    // Copy one live matching row under its latch; emit outside.
    auto copy_if_match = [&](std::size_t i) {
        Addr addr = rowAddr(region, i, row_bytes);
        SpinGuard rl(rowLatch(region, i));
        if (loadWord(addr) != kRowLive)
            return false;
        DbValue cell = decodeValueSlot(
            reinterpret_cast<const std::uint8_t *>(
                addr + kRowHeader + col * kValueSlotBytes));
        if (!(cell == v))
            return false;
        row.clear();
        for (std::size_t c = 0; c < schema.columns.size(); ++c) {
            row.push_back(decodeValueSlot(
                reinterpret_cast<const std::uint8_t *>(
                    addr + kRowHeader + c * kValueSlotBytes)));
        }
        return true;
    };

    // Use the secondary index when it covers this predicate.
    if (col == schema.indexColumn && v.type == DbType::kI64) {
        std::vector<std::size_t> hits;
        {
            SpinGuard g(region.indexMu);
            auto [lo, hi] = region.eqIndex.equal_range(v.i);
            for (auto it = lo; it != hi; ++it)
                hits.push_back(it->second);
        }
        for (std::size_t i : hits) {
            if (copy_if_match(i))
                fn(row);
        }
        return;
    }

    std::size_t hw;
    {
        SpinGuard g(region.indexMu);
        hw = region.highWater;
    }
    for (std::size_t i = 0; i < hw; ++i) {
        if (copy_if_match(i))
            fn(row);
    }
}

void
RowStore::scanAll(
    std::size_t table,
    const std::function<void(const std::vector<DbValue> &)> &fn,
    Word snapshot) const
{
    const TableRegion &region = regions_[table];
    const TableSchema &schema = catalog_->tables()[table];
    std::size_t row_bytes = schema.rowBytes();
    std::vector<DbValue> row;
    std::size_t hw;
    {
        SpinGuard g(region.indexMu);
        hw = region.highWater;
    }
    for (std::size_t i = 0; i < hw; ++i) {
        Addr addr = rowAddr(region, i, row_bytes);
        bool live = false;
        {
            SpinGuard rl(rowLatch(region, i));
            if (snapshot != kNoSnapshot) {
                live = resolveRowLocked(region, i, addr, schema,
                                        snapshot, 0, false, &row);
            } else if (loadWord(addr) == kRowLive) {
                live = true;
                row.clear();
                for (std::size_t c = 0; c < schema.columns.size(); ++c) {
                    row.push_back(decodeValueSlot(
                        reinterpret_cast<const std::uint8_t *>(
                            addr + kRowHeader + c * kValueSlotBytes)));
                }
            }
        }
        if (live)
            fn(row);
    }
}

std::size_t
RowStore::rowCount(std::size_t table)
{
    TableRegion &region = regions_[table];
    Word min_active = clock_ != nullptr
                          ? clock_->minActive()
                          : SnapshotClock::kNoActiveSnapshots;
    SpinGuard g(region.indexMu);
    pruneGraveyardLocked(region, table, min_active);
    // Gravestoned pks are committed-dead — mapped only for the sake
    // of old snapshots.
    return region.pkIndex.size() - region.graveyard.size();
}

void
RowStore::finishCommit(RowTxState &tx, Word commit_ts)
{
    if (commit_ts != 0) {
        // Stamp every row this transaction dirtied: the marker
        // becomes a clean commit timestamp. Under the row latch so
        // chain walks order against the stamp.
        for (const auto &[t, idx] : tx.ownedRows) {
            TableRegion &region = regions_[t];
            std::size_t row_bytes = catalog_->tables()[t].rowBytes();
            Addr addr = rowAddr(region, idx, row_bytes);
            SpinGuard rl(rowLatch(region, idx));
            Word v = loadWord(addr + kWordSize);
            if (versionIsDirty(v) && dirtyVersionToken(v) == tx.token)
                storeWord(addr + kWordSize, commit_ts);
        }
    }
    std::vector<Word> active = clock_ != nullptr
                                   ? clock_->activeSnapshots()
                                   : std::vector<Word>{};
    Word min_active = active.empty()
                          ? SnapshotClock::kNoActiveSnapshots
                          : active.front();
    bool keep_dead = commit_ts != 0 && min_active < commit_ts;
    std::vector<std::pair<std::size_t, std::size_t>> gravestoned;
    for (const auto &[t, pk, idx] : tx.deferredPkErase) {
        TableRegion &region = regions_[t];
        SpinGuard g(region.indexMu);
        auto it = region.pkIndex.find(pk);
        // Skip when this transaction re-inserted the pk elsewhere.
        if (it == region.pkIndex.end() || it->second != idx)
            continue;
        if (keep_dead) {
            // Some active snapshot predates this delete: gravestone
            // — the mapping, eq entries, chain, and slot stay until
            // no snapshot needs them.
            region.graveyard.push_back(Gravestone{pk, idx, commit_ts});
            gravestoned.emplace_back(t, idx);
        } else {
            region.pkIndex.erase(it);
        }
    }
    auto is_gravestoned = [&gravestoned](std::size_t t,
                                         std::size_t idx) {
        return std::find(gravestoned.begin(), gravestoned.end(),
                         std::make_pair(t, idx)) != gravestoned.end();
    };
    for (const auto &[t, key, idx] : tx.deferredEqErase) {
        if (is_gravestoned(t, idx))
            continue;
        TableRegion &region = regions_[t];
        SpinGuard g(region.indexMu);
        eqIndexErase(region, key, idx);
    }
    // Chain upkeep for every written row, before owners drop (the
    // chains are this transaction's pre-images plus older history).
    for (const auto &[t, idx] : tx.ownedRows)
        pruneChain(regions_[t], idx, active);
    // Owners release before the slots hit the free list: a slot
    // visible in freeRows is therefore always unowned, so insert's
    // in-lock owner claim cannot spin on a committing delete (which
    // would deadlock against its remaining indexMu acquisitions).
    // The freed rows are unreachable either way — their pk mappings
    // died above.
    for (const auto &[t, idx] : tx.ownedRows)
        regions_[t].rowOwner[idx].store(0, std::memory_order_release);
    for (const auto &[t, idx] : tx.deferredFree) {
        if (is_gravestoned(t, idx))
            continue;
        TableRegion &region = regions_[t];
        SpinGuard g(region.indexMu);
        region.freeRows.push_back(idx);
    }
    tx.deferredPkErase.clear();
    tx.deferredEqErase.clear();
    tx.deferredFree.clear();
    tx.ownedRows.clear();
}

void
RowStore::finishRollback(RowTxState &tx)
{
    // Deferred frees and index erases belong to rolled-back deletes:
    // the undo restore re-published those rows, so their slots stay
    // allocated and their index entries stand.
    tx.deferredPkErase.clear();
    tx.deferredEqErase.clear();
    tx.deferredFree.clear();
    // The rollback restored pre-images, so the chains' newest
    // entries duplicate the current rows; prune what no snapshot
    // needs.
    std::vector<Word> active = clock_ != nullptr
                                   ? clock_->activeSnapshots()
                                   : std::vector<Word>{};
    for (const auto &[t, idx] : tx.ownedRows)
        pruneChain(regions_[t], idx, active);
    // Rows that end the rollback unpublished are this transaction's
    // own (rolled-back or wal-full) inserts; their slots return to
    // the free list. Liveness is read while the owner is still held
    // (bytes stable), owners drop, and only then do the slots become
    // visible — freeRows never holds an owned slot. Gravestoned
    // slots (a rolled-back in-place re-insert) stay allocated for
    // their snapshots.
    std::vector<std::pair<std::size_t, std::size_t>> to_free;
    for (const auto &[t, idx] : tx.ownedRows) {
        const TableSchema &schema = catalog_->tables()[t];
        if (loadWord(rowAddr(regions_[t], idx, schema.rowBytes())) !=
            kRowLive)
            to_free.emplace_back(t, idx);
    }
    for (const auto &[t, idx] : tx.ownedRows)
        regions_[t].rowOwner[idx].store(0, std::memory_order_release);
    tx.ownedRows.clear();
    for (const auto &[t, idx] : to_free) {
        TableRegion &region = regions_[t];
        SpinGuard g(region.indexMu);
        if (graveyardHolds(region, idx))
            continue;
        if (std::find(region.freeRows.begin(), region.freeRows.end(),
                      idx) == region.freeRows.end())
            region.freeRows.push_back(idx);
    }
}

void
RowStore::restoreRange(Addr dst, const std::uint8_t *src,
                       std::size_t len)
{
    const auto &tables = catalog_->tables();
    for (std::size_t t = 0; t < regions_.size(); ++t) {
        TableRegion &region = regions_[t];
        if (region.base == 0)
            continue;
        std::size_t row_bytes = tables[t].rowBytes();
        Addr end = region.base + region.capacity * row_bytes;
        if (dst < region.base || dst >= end)
            continue;
        std::size_t idx = (dst - region.base) / row_bytes;
        // Under the row latch: a snapshot reader never sees a
        // half-restored row.
        SpinGuard rl(rowLatch(region, idx));
        std::memcpy(reinterpret_cast<void *>(dst), src, len);
        return;
    }
    std::memcpy(reinterpret_cast<void *>(dst), src, len);
}

void
RowStore::reconcileRange(Addr addr, std::size_t len)
{
    (void)len;
    const auto &tables = catalog_->tables();
    for (std::size_t t = 0; t < regions_.size(); ++t) {
        TableRegion &region = regions_[t];
        if (region.base == 0)
            continue;
        std::size_t row_bytes = tables[t].rowBytes();
        Addr end = region.base + region.capacity * row_bytes;
        if (addr < region.base || addr >= end)
            continue;
        std::size_t idx = (addr - region.base) / row_bytes;
        std::size_t icol = tables[t].indexColumn;
        Addr row = rowAddr(region, idx, row_bytes);
        bool live;
        std::int64_t pk_val, eq_val = 0;
        {
            SpinGuard rl(rowLatch(region, idx));
            live = loadWord(row) == kRowLive;
            pk_val = cellAt(region, idx, row_bytes, tables[t].pkColumn).i;
            if (icol != TableSchema::kNoIndex)
                eq_val = cellAt(region, idx, row_bytes, icol).i;
        }
        SpinGuard g(region.indexMu);
        // Full multimap scan: the stale eq key is unknowable from
        // the restored bytes. Rollback-only cost, O(index) per
        // undone row of an indexed table.
        eqIndexEraseAllFor(region, idx);
        if (live) {
            region.pkIndex[pk_val] = idx;
            if (icol != TableSchema::kNoIndex)
                region.eqIndex.emplace(eq_val, idx);
            if (idx >= region.highWater)
                region.highWater = idx + 1;
            auto free_it = std::find(region.freeRows.begin(),
                                     region.freeRows.end(), idx);
            if (free_it != region.freeRows.end())
                region.freeRows.erase(free_it);
        } else if (!graveyardHolds(region, idx)) {
            auto it = region.pkIndex.find(pk_val);
            if (it != region.pkIndex.end() && it->second == idx)
                region.pkIndex.erase(it);
            // The slot stays off the free list until finishRollback
            // drops its owner — freeRows never holds an owned slot
            // (an insert spinning on it inside indexMu would
            // deadlock against this very rollback's next
            // reconcileRange).
        }
        // A gravestoned slot keeps its pk mapping: the rolled-back
        // write was an in-place re-insert, and old snapshots still
        // resolve the dead row's history through the mapping.
        return;
    }
}

} // namespace db
} // namespace espresso
