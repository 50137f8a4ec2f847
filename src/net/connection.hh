/**
 * @file
 * One wire connection, owned by one worker EventLoop.
 *
 * Frames execute strictly in arrival order and respond strictly in
 * arrival order, but responding is decoupled from executing: each
 * frame claims a response slot up front, and a deferred op (an
 * async auto-commit, a pool-side transaction commit) fills its slot
 * when it completes — later frames' responses queue behind it. That
 * is what makes pipelining profitable: a client streaming K
 * auto-commit writes gets K row mutations executed back-to-back on
 * the worker while their K durability fences coalesce in the
 * group-commit drainer.
 *
 * Statement execution maps onto db::Txn:
 *
 *  - auto-commit write: route by pk, tryBeginTxn on the owning
 *    member, execute, Txn::commitAsync — the response fires from the
 *    group-commit drainer's completion;
 *  - explicit transaction: kBegin opens a sharded bracket with
 *    tryBeginTxn and parks it; each op binds it, executes, unbinds;
 *    kCommit/kRollback finish the parked bracket on the committer
 *    pool (2PC may fence several times) with the connection paused
 *    so in-order semantics hold;
 *  - reads execute inline on the worker (lock-free row probes).
 *
 * Failure containment: an engine abort (WAL-full, deadlock victim,
 * bounded-wait kBusy, snapshot conflict) kills the enclosing
 * transaction; the connection answers the mapped status and rejects
 * further ops in that bracket with kAborted until the client sends
 * kCommit/kRollback (which reports the original abort reason).
 * A malformed stream (bad magic/version, oversize length) hangs up;
 * a disconnect with an open bracket rolls it back on the pool so no
 * WAL shard token or row lock outlives the connection.
 */

#ifndef ESPRESSO_NET_CONNECTION_HH
#define ESPRESSO_NET_CONNECTION_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "db/txn.hh"
#include "net/server.hh"
#include "net/wire_protocol.hh"
#include "util/fd.hh"
#include "util/ring_buffer.hh"

namespace espresso {

namespace db {
class Database;
struct DbRecord;
}

namespace net {

/** One accepted socket and its in-order pipeline state. All methods
 * run on the owning worker loop thread. */
class Connection : public std::enable_shared_from_this<Connection>
{
  public:
    Connection(Server *srv, EventLoop *loop, unsigned worker,
               UniqueFd fd, std::uint64_t id);
    ~Connection();

    /** Register with the loop (loop thread). */
    void start();

    /** Tear down: deregister, roll back an open bracket, unregister
     * from the server (idempotent; loop thread). */
    void close(bool overflow = false);

    std::uint64_t id() const { return id_; }

    /** The owning worker loop (close() must be posted there). */
    EventLoop *loop() const { return loop_; }

  private:
    /** One in-order response: claimed when the request frame is
     * executed, filled when its (possibly deferred) result is
     * known. shared_ptr so a completion outliving the connection's
     * slot queue never dangles. */
    struct Slot
    {
        bool ready = false;
        std::vector<std::uint8_t> bytes;
    };
    using SlotPtr = std::shared_ptr<Slot>;

    /** A pool-delegated op's result. */
    struct PoolResult
    {
        WireStatus status = WireStatus::kOk;
        std::uint8_t flag = 0; ///< updated/erased marker ops
        bool hasFlag = false;
    };

    void onEvents(std::uint32_t ev);
    void readable();

    /** Parse + execute every complete frame in rbuf_ (stops while
     * paused). */
    void processBuffer();
    void execFrame(const FrameView &f);

    /** @name Op handlers */
    /// @{
    void opCreateTable(WireReader &r, const SlotPtr &slot);
    void opRead(WireOp op, WireReader &r, const SlotPtr &slot);
    void opWrite(WireOp op, WireReader &r, const SlotPtr &slot);
    void opBegin(WireReader &r, const SlotPtr &slot);
    void opFinishTxn(WireOp op, const SlotPtr &slot);
    /// @}

    /** Execute one write statement against the bound engine; throws
     * the engine's abort errors through. */
    std::uint8_t execWriteStmt(db::Database *member, WireOp op,
                               const std::string &table,
                               const db::DbRecord &rec,
                               std::int64_t pk);

    /** Run @p job on the committer pool with the connection paused;
     * @p ends_txn hands the bracket over to the job. */
    void runOnPool(WireOp op, const SlotPtr &slot,
                   std::function<PoolResult()> job, bool ends_txn);

    /** @name Response plumbing */
    /// @{
    SlotPtr pushSlot();
    void fillSimple(const SlotPtr &slot, WireOp op, WireStatus st);
    void fillPayload(const SlotPtr &slot, WireWriter &&w);
    void flushSlots();
    void flushWrite();
    void updateInterest();
    /// @}

    Server *srv_;
    db::ShardedDatabase *db_;
    EventLoop *loop_;
    unsigned worker_;
    UniqueFd fd_;
    std::uint64_t id_;

    std::vector<std::uint8_t> rbuf_;
    std::size_t rhead_ = 0;
    RingBuffer wbuf_;
    std::deque<SlotPtr> slots_;

    std::uint32_t interest_ = 0;
    bool closed_ = false;
    /** A pool op is in flight; no further frames execute until its
     * completion (read interest is dropped). */
    bool paused_ = false;

    /** The parked explicit bracket (null = auto-commit mode); shared
     * so a pool job can own it. */
    std::shared_ptr<db::Txn> txn_;
    /** Brackets begun on this connection (the kBegin reply's id). */
    std::uint64_t txnCount_ = 0;
    /** The engine killed the bracket mid-statement; ops answer
     * kAborted until the client closes the bracket. */
    bool txnDead_ = false;
};

} // namespace net
} // namespace espresso

#endif // ESPRESSO_NET_CONNECTION_HH
