/**
 * @file
 * The wire front door: a reactor TCP server over ShardedDatabase.
 *
 * Thread architecture:
 *
 *  - one acceptor thread blocks in accept() and deals connections to
 *    the worker loops round-robin;
 *  - N worker EventLoops (ESPRESSO_NET_WORKERS) own the connections:
 *    parse frames, execute statements, and never block on another
 *    session — transactions open through tryBeginTxn (kBusy when
 *    the engine is saturated), row-lock waits are bounded, and
 *    commit durability is handed off;
 *  - auto-commit write durability parks in the group-commit
 *    coordinator via Txn::commitAsync (the drainer thread batches
 *    concurrent connections' fences and completes the responses);
 *  - a small committer pool runs the operations that may legally
 *    block: explicit-transaction commit/rollback (2PC fences) and
 *    mid-migration routed writes. A connection is paused while a
 *    pool op of its runs, preserving its in-order semantics.
 *
 * Overload degrades instead of collapsing: per-worker in-flight work
 * above ServerConfig::queueDepth answers kBusy without executing
 * (admission control), and a slow reader whose response bytes
 * overflow the bounded write buffer is disconnected.
 */

#ifndef ESPRESSO_NET_SERVER_HH
#define ESPRESSO_NET_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/event_loop.hh"
#include "util/fd.hh"

namespace espresso {

namespace db {
class ShardedDatabase;
}

namespace net {

class Connection;

/** Wire server sizing and knobs. */
struct ServerConfig
{
    std::string host = "127.0.0.1";

    /** 0 binds an ephemeral port; Server::port() reports it. */
    std::uint16_t port = 0;

    /** Worker event loops; 0 resolves ESPRESSO_NET_WORKERS, then
     * 2. */
    unsigned workers = 0;

    /** Committer-pool threads (blocking commit/rollback, migration
     * fallbacks). */
    unsigned committers = 2;

    /** Per-worker in-flight op ceiling before admission answers
     * kBusy; 0 resolves ESPRESSO_NET_QUEUE_DEPTH, then 128. */
    unsigned queueDepth = 0;

    /** Per-connection response buffer cap; overflowing it (slow
     * reader) disconnects. */
    std::size_t writeBufBytes = 1u << 20;

    /** Per-connection read chunk size. */
    std::size_t readBufBytes = 64u << 10;
};

/** Monotonic server counters (relaxed; read via Server::stats). */
struct ServerStats
{
    std::uint64_t accepted = 0;
    std::uint64_t closed = 0;
    std::uint64_t frames = 0;
    std::uint64_t admissionRejects = 0;  ///< kBusy without executing
    std::uint64_t overflowDisconnects = 0;
    std::uint64_t protocolErrors = 0; ///< bad magic/version/length
    std::uint64_t txnsCommitted = 0;
    std::uint64_t txnsAborted = 0;
};

/** One listening wire endpoint over a ShardedDatabase. */
class Server
{
  public:
    Server(db::ShardedDatabase *db, const ServerConfig &cfg = {});
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind, listen, spawn loops + acceptor + committers. */
    void start();

    /** Stop accepting, close every connection, drain in-flight work,
     * join every thread (idempotent). */
    void stop();

    /** The bound port (after start()). */
    std::uint16_t port() const { return port_; }

    unsigned workers() const
    {
        return static_cast<unsigned>(loops_.size());
    }

    ServerStats stats() const;

    /** Open connection count. */
    std::size_t connectionCount() const;

  private:
    friend class Connection;

    void acceptLoop();
    void adoptConnection(UniqueFd fd);

    /** Run @p job on the committer pool. */
    void submitJob(std::function<void()> job);
    void committerLoop();

    /** @name Per-worker admission accounting */
    /// @{
    /** Claim one in-flight op slot; false (nothing claimed) above
     * the queue-depth watermark. */
    bool admit(unsigned worker);
    /** Claim unconditionally (cleanup work that must run). */
    void forceAdmit(unsigned worker);
    void noteWorkDone(unsigned worker);
    /// @}

    void connectionClosed(std::uint64_t id);

    db::ShardedDatabase *db_;
    ServerConfig cfg_;

    UniqueFd listenFd_;
    std::uint16_t port_ = 0;
    std::thread acceptor_;
    std::atomic<bool> stopping_{false};
    bool started_ = false;

    std::vector<std::unique_ptr<EventLoop>> loops_;
    std::atomic<unsigned> nextLoop_{0};

    /** In-flight deferred ops per worker (async commits + pool
     * jobs), the admission-control watermark. */
    std::unique_ptr<std::atomic<unsigned>[]> workerLoad_;
    /** Total in-flight deferred ops (stop() drains this to zero
     * before the loops die). */
    std::atomic<unsigned> totalLoad_{0};

    mutable std::mutex connMu_;
    std::unordered_map<std::uint64_t, std::shared_ptr<Connection>>
        conns_;
    std::atomic<std::uint64_t> connIds_{1};

    std::mutex jobMu_;
    std::condition_variable jobCv_;
    std::deque<std::function<void()>> jobs_;
    bool jobStop_ = false;
    std::vector<std::thread> committers_;

    struct StatsCells
    {
        std::atomic<std::uint64_t> accepted{0};
        std::atomic<std::uint64_t> closed{0};
        std::atomic<std::uint64_t> frames{0};
        std::atomic<std::uint64_t> admissionRejects{0};
        std::atomic<std::uint64_t> overflowDisconnects{0};
        std::atomic<std::uint64_t> protocolErrors{0};
        std::atomic<std::uint64_t> txnsCommitted{0};
        std::atomic<std::uint64_t> txnsAborted{0};
    };
    StatsCells stats_;
};

} // namespace net
} // namespace espresso

#endif // ESPRESSO_NET_SERVER_HH
