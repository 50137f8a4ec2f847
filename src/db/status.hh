/**
 * @file
 * Transaction status codes for the database API surface.
 *
 * Txn::commit() (and rollback(), bind(), tryBeginTxn()) report every
 * way a transaction can end as one Status: WAL overflow, deadlock
 * victim, snapshot conflict, bounded-wait timeout, misuse. Inside the
 * engine, WalFullError and TxnAbortError stay exceptions so a failing
 * statement unwinds; the Txn layer turns them into codes.
 */

#ifndef ESPRESSO_DB_STATUS_HH
#define ESPRESSO_DB_STATUS_HH

#include <string>

#include "util/logging.hh"

namespace espresso {
namespace db {

/** Why a transaction (or statement) finished the way it did. */
enum class StatusCode
{
    kOk = 0,

    /** The transaction outgrew its undo segment and was rolled
     * back. */
    kWalFull,

    /** The transaction was chosen as the deadlock victim and rolled
     * back; retry it. */
    kDeadlock,

    /** First-committer-wins: a snapshot transaction tried to write a
     * row committed after its snapshot was taken. Rolled back. */
    kConflict,

    /** API misuse (an empty or finished handle, a transaction bound
     * to another thread). */
    kMisuse,

    /** The transaction was rolled back: a statement inside it failed,
     * or a power failure took it. */
    kAborted,

    /** The engine is saturated and declined the work. On begin: no
     * WAL shard token was free, nothing was opened — retry later. On
     * a statement inside a no-wait transaction: a bounded lock wait
     * expired and the whole transaction was rolled back (the net
     * front door's workers must never park on another session's
     * row lock). */
    kBusy,
};

/** Value-type result of Txn::commit() and friends. */
class Status
{
  public:
    Status() = default;

    static Status
    ok()
    {
        return Status();
    }

    static Status
    make(StatusCode code, std::string msg)
    {
        Status s;
        s.code_ = code;
        s.message_ = std::move(msg);
        return s;
    }

    bool isOk() const { return code_ == StatusCode::kOk; }
    StatusCode code() const { return code_; }
    const std::string &message() const { return message_; }

    const char *
    codeName() const
    {
        switch (code_) {
        case StatusCode::kOk:
            return "ok";
        case StatusCode::kWalFull:
            return "wal-full";
        case StatusCode::kDeadlock:
            return "deadlock";
        case StatusCode::kConflict:
            return "conflict";
        case StatusCode::kMisuse:
            return "misuse";
        case StatusCode::kAborted:
            return "aborted";
        case StatusCode::kBusy:
            return "busy";
        }
        return "unknown";
    }

  private:
    StatusCode code_ = StatusCode::kOk;
    std::string message_;
};

/**
 * Thrown by the row layer when a transaction must abort mid-flight
 * (deadlock victim, snapshot write conflict, bounded-wait timeout).
 * The engine catches it, rolls the transaction back, rethrows it to
 * the statement's caller (a FatalError, so catch(FatalError) paths
 * see it), and reports it again from Txn::commit().
 */
class TxnAbortError : public FatalError
{
  public:
    TxnAbortError(StatusCode code, const std::string &msg)
        : FatalError(msg), code_(code)
    {}

    StatusCode code() const { return code_; }

  private:
    StatusCode code_;
};

} // namespace db
} // namespace espresso

#endif // ESPRESSO_DB_STATUS_HH
