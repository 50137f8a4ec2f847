#include "net/connection.hh"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include "db/catalog.hh"
#include "db/database.hh"
#include "db/sharded_database.hh"
#include "db/wal.hh"
#include "util/logging.hh"

namespace espresso {
namespace net {

namespace {

WireStatus
mapCode(db::StatusCode c)
{
    switch (c) {
    case db::StatusCode::kOk:
        return WireStatus::kOk;
    case db::StatusCode::kWalFull:
        return WireStatus::kWalFull;
    case db::StatusCode::kDeadlock:
        return WireStatus::kDeadlock;
    case db::StatusCode::kConflict:
        return WireStatus::kConflict;
    case db::StatusCode::kMisuse:
        return WireStatus::kMisuse;
    case db::StatusCode::kAborted:
        return WireStatus::kAborted;
    case db::StatusCode::kBusy:
        return WireStatus::kBusy;
    }
    return WireStatus::kError;
}

bool
opHasFlag(WireOp op)
{
    return op == WireOp::kUpdate || op == WireOp::kDel;
}

} // namespace

Connection::Connection(Server *srv, EventLoop *loop, unsigned worker,
                       UniqueFd fd, std::uint64_t id)
    : srv_(srv), db_(srv->db_), loop_(loop), worker_(worker),
      fd_(std::move(fd)), id_(id),
      // A full-size response frame must fit an *empty* ring or it
      // could never drain; a slow reader still overflows on the
      // second one.
      wbuf_(std::max(srv->cfg_.writeBufBytes,
                     kMaxPayload + kWireHeaderBytes + 4096))
{}

Connection::~Connection() = default;

void
Connection::start()
{
    interest_ = EPOLLIN;
    auto self = shared_from_this();
    loop_->add(fd_.get(), interest_, [self](std::uint32_t ev) {
        self->onEvents(ev);
    });
}

void
Connection::onEvents(std::uint32_t ev)
{
    if (closed_)
        return;
    if (ev & (EPOLLERR | EPOLLHUP)) {
        close();
        return;
    }
    if (ev & EPOLLOUT) {
        flushWrite();
        if (!closed_)
            updateInterest();
    }
    if (closed_)
        return;
    if (ev & EPOLLIN)
        readable();
}

void
Connection::readable()
{
    const std::size_t chunk = srv_->cfg_.readBufBytes;
    for (;;) {
        std::size_t old = rbuf_.size();
        rbuf_.resize(old + chunk);
        ssize_t n = ::read(fd_.get(), rbuf_.data() + old, chunk);
        if (n > 0) {
            rbuf_.resize(old + static_cast<std::size_t>(n));
            if (static_cast<std::size_t>(n) < chunk)
                break;
            // Bound the unparsed backlog; level-triggered epoll
            // re-delivers what we leave in the kernel.
            if (rbuf_.size() - rhead_ >
                kMaxPayload + kWireHeaderBytes + chunk)
                break;
            continue;
        }
        rbuf_.resize(old);
        if (n == 0) {
            close();
            return;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        if (errno == EINTR)
            continue;
        close();
        return;
    }
    processBuffer();
}

void
Connection::processBuffer()
{
    while (!closed_ && !paused_) {
        FrameView f;
        ParseResult pr = tryParseFrame(rbuf_.data() + rhead_,
                                       rbuf_.size() - rhead_, &f);
        if (pr == ParseResult::kNeedMore)
            break;
        if (pr != ParseResult::kFrame) {
            // Corrupt framing: the stream can't be resynchronized.
            srv_->stats_.protocolErrors.fetch_add(
                1, std::memory_order_relaxed);
            close();
            return;
        }
        srv_->stats_.frames.fetch_add(1, std::memory_order_relaxed);
        execFrame(f);
        if (closed_)
            return;
        rhead_ += f.frameBytes();
    }
    if (rhead_ > 0 &&
        (rhead_ == rbuf_.size() || rhead_ >= srv_->cfg_.readBufBytes)) {
        rbuf_.erase(rbuf_.begin(),
                    rbuf_.begin() +
                        static_cast<std::ptrdiff_t>(rhead_));
        rhead_ = 0;
    }
    updateInterest();
}

void
Connection::execFrame(const FrameView &f)
{
    SlotPtr slot = pushSlot();
    WireReader r(f);
    switch (f.op) {
    case WireOp::kPing:
        fillSimple(slot, f.op, WireStatus::kOk);
        return;
    case WireOp::kCreateTable:
        opCreateTable(r, slot);
        return;
    case WireOp::kGet:
    case WireOp::kScanEq:
    case WireOp::kRowCount:
        opRead(f.op, r, slot);
        return;
    case WireOp::kPut:
    case WireOp::kInsert:
    case WireOp::kUpdate:
    case WireOp::kDel:
        opWrite(f.op, r, slot);
        return;
    case WireOp::kBegin:
        opBegin(r, slot);
        return;
    case WireOp::kCommit:
    case WireOp::kRollback:
        opFinishTxn(f.op, slot);
        return;
    }
    // Unknown opcode in a well-formed frame: answer, keep the
    // stream.
    fillSimple(slot, f.op, WireStatus::kBadRequest);
}

void
Connection::opCreateTable(WireReader &r, const SlotPtr &slot)
{
    db::TableSchema schema;
    schema.name = r.getStr();
    std::uint16_t pk_col = r.getU16();
    std::uint16_t idx_col = r.getU16();
    std::uint16_t ncols = r.getU16();
    if (!r.ok() || ncols == 0 || ncols > db::Catalog::kMaxColumns) {
        fillSimple(slot, WireOp::kCreateTable, WireStatus::kBadRequest);
        return;
    }
    for (std::uint16_t i = 0; i < ncols; ++i) {
        db::ColumnDef col;
        col.name = r.getStr();
        std::uint8_t type = r.getU8();
        if (!r.ok() || type > static_cast<std::uint8_t>(
                                  db::DbType::kStr)) {
            fillSimple(slot, WireOp::kCreateTable,
                       WireStatus::kBadRequest);
            return;
        }
        col.type = static_cast<db::DbType>(type);
        schema.columns.push_back(std::move(col));
    }
    if (!r.atEnd() || pk_col >= ncols) {
        fillSimple(slot, WireOp::kCreateTable, WireStatus::kBadRequest);
        return;
    }
    schema.pkColumn = pk_col;
    schema.indexColumn = idx_col == 0xffff
                             ? db::TableSchema::kNoIndex
                             : idx_col;
    try {
        db_->createTable(schema);
        fillSimple(slot, WireOp::kCreateTable, WireStatus::kOk);
    } catch (const std::exception &) {
        fillSimple(slot, WireOp::kCreateTable, WireStatus::kError);
    }
}

void
Connection::opRead(WireOp op, WireReader &r, const SlotPtr &slot)
{
    std::string table = r.getStr();
    std::int64_t pk = 0;
    std::string column;
    db::DbValue needle;
    if (op == WireOp::kGet)
        pk = r.getI64();
    else if (op == WireOp::kScanEq) {
        column = r.getStr();
        needle = r.getValue();
    }
    if (!r.ok() || !r.atEnd()) {
        fillSimple(slot, op, WireStatus::kBadRequest);
        return;
    }
    if (txn_ != nullptr) {
        if (txnDead_) {
            fillSimple(slot, op, WireStatus::kAborted);
            return;
        }
        if (!txn_->bind().isOk()) {
            fillSimple(slot, op, WireStatus::kMisuse);
            return;
        }
    }
    WireWriter w;
    WireStatus st = WireStatus::kOk;
    bool have_payload = false;
    try {
        switch (op) {
        case WireOp::kGet: {
            db::DbRecord rec;
            if (db_->fetchRecord(table, pk, &rec)) {
                w.begin(op, static_cast<std::uint16_t>(WireStatus::kOk));
                w.putRow(rec.values);
                w.finish();
                have_payload = true;
            } else {
                st = WireStatus::kNotFound;
            }
            break;
        }
        case WireOp::kScanEq: {
            w.begin(op, static_cast<std::uint16_t>(WireStatus::kOk));
            std::size_t count_at = w.size();
            w.putU32(0);
            std::uint32_t n = 0;
            db_->scanEq(table, column, needle,
                        [&](const std::vector<db::DbValue> &row) {
                            w.putRow(row);
                            ++n;
                        });
            w.patchU32(count_at, n);
            w.finish();
            if (w.size() > kMaxPayload + kWireHeaderBytes) {
                st = WireStatus::kError; // result exceeds a frame
            } else {
                have_payload = true;
            }
            break;
        }
        default: { // kRowCount
            std::size_t rows = db_->rowCount(table);
            w.begin(op, static_cast<std::uint16_t>(WireStatus::kOk));
            w.putU64(rows);
            w.finish();
            have_payload = true;
            break;
        }
        }
    } catch (const db::TxnAbortError &e) {
        st = mapCode(e.code());
        if (txn_ != nullptr)
            txnDead_ = true;
    } catch (const std::exception &) {
        st = WireStatus::kError;
    }
    if (txn_ != nullptr)
        (void)txn_->unbind();
    if (have_payload)
        fillPayload(slot, std::move(w));
    else
        fillSimple(slot, op, st);
}

std::uint8_t
Connection::execWriteStmt(db::Database *member, WireOp op,
                          const std::string &table,
                          const db::DbRecord &rec, std::int64_t pk)
{
    switch (op) {
    case WireOp::kPut:
    case WireOp::kInsert:
        if (member != nullptr)
            member->persistRecord(table, rec);
        else
            db_->persistRecord(table, rec);
        return 1;
    case WireOp::kUpdate:
        if (member != nullptr)
            return member->updateRecord(table, rec) ? 1 : 0;
        return db_->updateRecord(table, rec) ? 1 : 0;
    default: // kDel
        if (member != nullptr)
            return member->deleteRecord(table, pk) ? 1 : 0;
        return db_->deleteRecord(table, pk) ? 1 : 0;
    }
}

void
Connection::opWrite(WireOp op, WireReader &r, const SlotPtr &slot)
{
    std::string table = r.getStr();
    db::DbRecord rec;
    std::int64_t pk = 0;
    if (op == WireOp::kDel) {
        pk = r.getI64();
    } else {
        rec.dirtyMask = r.getU64();
        rec.values = r.getRow();
    }
    if (!r.ok() || !r.atEnd()) {
        fillSimple(slot, op, WireStatus::kBadRequest);
        return;
    }

    if (txn_ != nullptr) {
        // Explicit bracket: bind, execute through the routed sharded
        // path, unbind. The response is immediate — durability is
        // the commit's contract.
        if (txnDead_) {
            fillSimple(slot, op, WireStatus::kAborted);
            return;
        }
        if (!txn_->bind().isOk()) {
            fillSimple(slot, op, WireStatus::kMisuse);
            return;
        }
        WireStatus st = WireStatus::kOk;
        std::uint8_t flag = 0;
        try {
            flag = execWriteStmt(nullptr, op, table, rec, pk);
        } catch (const db::TxnAbortError &e) {
            st = mapCode(e.code());
            txnDead_ = true;
        } catch (const db::WalFullError &) {
            st = WireStatus::kWalFull;
            txnDead_ = true;
        } catch (const std::exception &) {
            st = WireStatus::kError; // statement failed; bracket lives
        }
        (void)txn_->unbind();
        if (st == WireStatus::kOk && opHasFlag(op)) {
            WireWriter w;
            w.begin(op, static_cast<std::uint16_t>(st));
            w.putU8(flag);
            w.finish();
            fillPayload(slot, std::move(w));
        } else {
            fillSimple(slot, op, st);
        }
        return;
    }

    // Auto-commit. Resolve the routing pk first.
    if (op != WireOp::kDel) {
        const db::TableSchema *schema =
            db_->shard(0).catalog().find(table);
        if (schema == nullptr) {
            fillSimple(slot, op, WireStatus::kError);
            return;
        }
        if (rec.values.size() != schema->columns.size() ||
            rec.values[schema->pkColumn].type != db::DbType::kI64) {
            fillSimple(slot, op, WireStatus::kBadRequest);
            return;
        }
        pk = rec.values[schema->pkColumn].i;
    }

    if (db_->migrating()) {
        // Mid-repartition a write may probe two member homes inside
        // a 2PC bracket; that path may block, so it runs on the
        // committer pool.
        auto db = db_;
        runOnPool(
            op, slot,
            [db, op, table = std::move(table), rec = std::move(rec),
             pk]() {
                PoolResult out;
                out.hasFlag = opHasFlag(op);
                try {
                    std::uint8_t flag = 0;
                    switch (op) {
                    case WireOp::kPut:
                    case WireOp::kInsert:
                        db->persistRecord(table, rec);
                        flag = 1;
                        break;
                    case WireOp::kUpdate:
                        flag = db->updateRecord(table, rec) ? 1 : 0;
                        break;
                    default:
                        flag = db->deleteRecord(table, pk) ? 1 : 0;
                        break;
                    }
                    out.flag = flag;
                } catch (const db::TxnAbortError &e) {
                    out.status = mapCode(e.code());
                } catch (const db::WalFullError &) {
                    out.status = WireStatus::kWalFull;
                } catch (const std::exception &) {
                    out.status = WireStatus::kError;
                }
                return out;
            },
            false);
        return;
    }

    // The pipelining fast path: execute the row mutation now on the
    // worker (so this connection's next frame sees it), and let the
    // group-commit drainer make it durable — concurrent connections'
    // fences coalesce there. The response completes from the drainer
    // callback, in slot order.
    if (!srv_->admit(worker_)) {
        srv_->stats_.admissionRejects.fetch_add(
            1, std::memory_order_relaxed);
        fillSimple(slot, op, WireStatus::kBusy);
        return;
    }
    db::Database &member = db_->shardForPk(pk);
    db::Txn t;
    db::Status bst = member.tryBeginTxn({}, &t);
    if (!bst.isOk()) {
        srv_->noteWorkDone(worker_);
        srv_->stats_.admissionRejects.fetch_add(
            1, std::memory_order_relaxed);
        fillSimple(slot, op, mapCode(bst.code()));
        return;
    }
    WireStatus st = WireStatus::kOk;
    std::uint8_t flag = 0;
    try {
        flag = execWriteStmt(&member, op, table, rec, pk);
    } catch (const db::TxnAbortError &e) {
        st = mapCode(e.code());
    } catch (const db::WalFullError &) {
        st = WireStatus::kWalFull;
    } catch (const std::exception &) {
        st = WireStatus::kError;
    }
    if (st != WireStatus::kOk) {
        (void)t.rollback();
        srv_->noteWorkDone(worker_);
        fillSimple(slot, op, st);
        return;
    }
    auto self = shared_from_this();
    t.commitAsync([this, self, slot, op, flag](db::Status s) {
        loop_->post([this, self, slot, op, flag, s] {
            srv_->noteWorkDone(worker_);
            if (closed_)
                return;
            if (s.isOk())
                srv_->stats_.txnsCommitted.fetch_add(
                    1, std::memory_order_relaxed);
            if (s.isOk() && opHasFlag(op)) {
                WireWriter w;
                w.begin(op, static_cast<std::uint16_t>(WireStatus::kOk));
                w.putU8(flag);
                w.finish();
                fillPayload(slot, std::move(w));
            } else {
                fillSimple(slot, op, mapCode(s.code()));
            }
            updateInterest();
        });
    });
}

void
Connection::opBegin(WireReader &r, const SlotPtr &slot)
{
    std::uint8_t iso = r.getU8();
    if (!r.ok() || !r.atEnd() || iso > 1) {
        fillSimple(slot, WireOp::kBegin, WireStatus::kBadRequest);
        return;
    }
    if (txn_ != nullptr) {
        fillSimple(slot, WireOp::kBegin, WireStatus::kMisuse);
        return;
    }
    db::TxnOptions opts;
    opts.isolation = iso == 1 ? db::Isolation::kSnapshot
                              : db::Isolation::kReadUncommitted;
    auto txn = std::make_shared<db::Txn>();
    db::Status s = db_->tryBeginTxn(opts, txn.get());
    if (!s.isOk()) {
        srv_->stats_.admissionRejects.fetch_add(
            1, std::memory_order_relaxed);
        fillSimple(slot, WireOp::kBegin, mapCode(s.code()));
        return;
    }
    (void)txn->unbind();
    txn_ = std::move(txn);
    txnDead_ = false;
    WireWriter w;
    w.begin(WireOp::kBegin,
            static_cast<std::uint16_t>(WireStatus::kOk));
    w.putU64(++txnCount_);
    w.finish();
    fillPayload(slot, std::move(w));
}

void
Connection::opFinishTxn(WireOp op, const SlotPtr &slot)
{
    if (txn_ == nullptr) {
        fillSimple(slot, op, WireStatus::kMisuse);
        return;
    }
    bool commit = op == WireOp::kCommit;
    auto *srv = srv_;
    runOnPool(
        op, slot,
        [txn = txn_, srv, commit]() {
            PoolResult out;
            db::Status s = commit ? txn->commit() : txn->rollback();
            out.status = mapCode(s.code());
            if (commit && s.isOk())
                srv->stats_.txnsCommitted.fetch_add(
                    1, std::memory_order_relaxed);
            else
                srv->stats_.txnsAborted.fetch_add(
                    1, std::memory_order_relaxed);
            return out;
        },
        true);
}

void
Connection::runOnPool(WireOp op, const SlotPtr &slot,
                      std::function<PoolResult()> job, bool ends_txn)
{
    if (!srv_->admit(worker_)) {
        srv_->stats_.admissionRejects.fetch_add(
            1, std::memory_order_relaxed);
        fillSimple(slot, op, WireStatus::kBusy);
        return;
    }
    if (ends_txn)
        txn_.reset(); // the job owns the bracket now
    paused_ = true;
    updateInterest();
    auto self = shared_from_this();
    srv_->submitJob([this, self, op, slot, job = std::move(job)]() {
        PoolResult pr;
        try {
            pr = job();
        } catch (const std::exception &) {
            pr = PoolResult{};
            pr.status = WireStatus::kError;
        }
        loop_->post([this, self, op, slot, pr] {
            srv_->noteWorkDone(worker_);
            if (closed_)
                return;
            paused_ = false;
            if (pr.status == WireStatus::kOk && pr.hasFlag) {
                WireWriter w;
                w.begin(op, static_cast<std::uint16_t>(pr.status));
                w.putU8(pr.flag);
                w.finish();
                fillPayload(slot, std::move(w));
            } else {
                fillSimple(slot, op, pr.status);
            }
            if (closed_)
                return;
            processBuffer(); // resume the pipeline
        });
    });
}

Connection::SlotPtr
Connection::pushSlot()
{
    SlotPtr slot = std::make_shared<Slot>();
    slots_.push_back(slot);
    return slot;
}

void
Connection::fillSimple(const SlotPtr &slot, WireOp op, WireStatus st)
{
    WireWriter w;
    w.begin(op, static_cast<std::uint16_t>(st));
    w.finish();
    fillPayload(slot, std::move(w));
}

void
Connection::fillPayload(const SlotPtr &slot, WireWriter &&w)
{
    slot->bytes = w.bytes();
    slot->ready = true;
    flushSlots();
}

void
Connection::flushSlots()
{
    if (closed_)
        return;
    while (!slots_.empty() && slots_.front()->ready) {
        Slot &s = *slots_.front();
        if (!wbuf_.write(s.bytes.data(), s.bytes.size())) {
            flushWrite();
            if (closed_)
                return;
            if (!wbuf_.write(s.bytes.data(), s.bytes.size())) {
                // Slow reader: bounded buffering, then hang up.
                close(true);
                return;
            }
        }
        slots_.pop_front();
    }
    flushWrite();
}

void
Connection::flushWrite()
{
    while (!closed_ && !wbuf_.empty()) {
        std::pair<const std::uint8_t *, std::size_t> span =
            wbuf_.peek();
        // MSG_NOSIGNAL: a hung-up peer is a close, not a SIGPIPE.
        ssize_t n = ::send(fd_.get(), span.first, span.second,
                           MSG_NOSIGNAL);
        if (n > 0) {
            wbuf_.consume(static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        if (n < 0 && errno == EINTR)
            continue;
        close();
        return;
    }
    updateInterest();
}

void
Connection::updateInterest()
{
    if (closed_)
        return;
    std::uint32_t want = 0;
    if (!paused_ && slots_.size() < srv_->cfg_.queueDepth)
        want |= EPOLLIN;
    if (!wbuf_.empty())
        want |= EPOLLOUT;
    if (want != interest_) {
        loop_->mod(fd_.get(), want);
        interest_ = want;
    }
}

void
Connection::close(bool overflow)
{
    if (closed_)
        return;
    closed_ = true;
    if (overflow)
        srv_->stats_.overflowDisconnects.fetch_add(
            1, std::memory_order_relaxed);
    srv_->stats_.closed.fetch_add(1, std::memory_order_relaxed);
    if (fd_.valid()) {
        loop_->del(fd_.get());
        fd_.reset();
    }
    slots_.clear();
    rbuf_.clear();
    rhead_ = 0;
    if (txn_ != nullptr) {
        // Mid-transaction disconnect: roll the parked bracket back
        // on the pool so its WAL shard tokens and row locks free
        // even though the client is gone.
        srv_->forceAdmit(worker_);
        auto *srv = srv_;
        unsigned worker = worker_;
        srv_->submitJob([srv, txn = std::move(txn_), worker]() {
            (void)txn->rollback();
            srv->stats_.txnsAborted.fetch_add(
                1, std::memory_order_relaxed);
            srv->noteWorkDone(worker);
        });
    }
    srv_->connectionClosed(id_);
}

} // namespace net
} // namespace espresso
