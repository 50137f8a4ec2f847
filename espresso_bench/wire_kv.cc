/**
 * @file
 * wire_kv — YCSB-A (50/50 get/put, uniform keys) over 65,536 preloaded
 * rows of a 4-member ShardedDatabase behind the wire front door
 * (net::Server, auto group commit), driven by net::WireClient over
 * loopback TCP.
 *
 * Fixed-rate phase: two connections, each with a sender thread on a
 * fixed schedule and a receiver thread; latency counts from each op's
 * scheduled send time. Saturation phase: four connections, each one
 * thread keeping eight requests in flight.
 *
 * The server and its clients get disjoint halves of the CPUs, as they
 * would on separate machines. On shared CPUs the scheduler would stack
 * a client thread beside a server thread for seconds at a time, and
 * put p50 flipped between two levels (~43 and ~55 us) with it.
 * Within the client half, each fixed-rate sender has a CPU of its own
 * and its receiver sits on the other one: left to the scheduler, the
 * put p50 of half-second windows jumped between ~58 and ~85 us as the
 * four client threads moved, and ten runs spread 0.10-0.23 (IQR over
 * median); placed like this, the windows hold steady and runs spread
 * about 0.065 (README, "Workloads").
 *
 * Each connection owns the keys congruent to its index, so it knows
 * the value every get must return (read-your-writes through the
 * pipeline) and the final value of each row it wrote. A connection
 * never has two requests on one key in flight: a wire put waits for
 * the row lock only briefly before answering kBusy, so a same-key
 * successor of a still-committing put would fail by design.
 *
 * The only path through net and the async group commit; pjh does
 * nothing here.
 */

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <memory>
#include <thread>
#include <unordered_set>
#include <utility>

#include "db/sharded_database.hh"
#include "net/server.hh"
#include "net/wire_client.hh"
#include "trace.hh"
#include "workloads.hh"

namespace espresso {
namespace bench {

namespace {

using namespace db;
using namespace net;

/** Every auto-committed wire put holds a WAL shard token until its
 * batched commit is durable, and the server answers kBusy when none is
 * free; 512 per member covers the puts a fixed-rate connection piles
 * up during a host stall of tens of milliseconds. */
constexpr DbShape kShape{4, 64, 512, 24576, 8u << 20, 8u << 20};
constexpr std::int64_t kRows = 65536;
constexpr unsigned kServerWorkers = 2;
constexpr unsigned kCommitters = 1;
/** Per-worker in-flight ceiling before admission answers kBusy; far
 * above what the offered load keeps in flight. */
constexpr unsigned kQueueDepth = 4096;
constexpr std::size_t kWriteBufBytes = 1u << 20;
constexpr std::size_t kReadBufBytes = 64u << 10;
constexpr unsigned kPreloadThreads = 4;
constexpr unsigned kOpenConns = 2;
constexpr unsigned kClosedConns = 4;
constexpr unsigned kClosedDepth = 8;

/** A fixed-rate connection never reuses one of its last this-many
 * keys, which keeps same-key requests out of its pipeline unless the
 * server stalls for this many send intervals (~90 ms). */
constexpr std::size_t kNoRepeatWindow = 2048;

/** Fixed offered rate (ops/s, both connections together): 50–60% of
 * the saturation throughput measured on a 4-vCPU Xeon VM when this
 * benchmark was defined. Never recalibrated at run time. */
constexpr double kOpenRate = 45000;

const char *const kTable = "KV";

std::int64_t
initialValue(std::int64_t key)
{
    return key * 7 + 1;
}

/** One scheduled or in-flight request. */
struct Req
{
    std::uint64_t due = 0; ///< scheduled send (fixed rate) or send start
    std::int64_t key = 0;
    bool put = false;
    std::int64_t value = 0; ///< put: value written; get: value expected
    std::uint64_t sendStart = 0;
    std::uint64_t sendEnd = 0;
};

/** What one connection measured. */
struct ConnResult
{
    PhaseResult phase;
    std::vector<std::uint64_t> rttNs; ///< send start to response
};

class KvServer
{
  public:
    explicit KvServer(Report &rep) : rep_(rep)
    {
        // The database, its preload and the server's threads (which
        // inherit this thread's CPUs) live on the server half.
        CpuHalfScope pin(CpuHalf::kServer);
        db_ = kShape.build();
        db_->createTable(TableSchema{kTable,
                                     {{"ID", DbType::kI64},
                                      {"V", DbType::kI64}},
                                     0,
                                     TableSchema::kNoIndex});
        expect_.resize(kRows);
        uncertain_.assign(kRows, 0);
        std::vector<std::thread> loaders;
        for (unsigned t = 0; t < kPreloadThreads; ++t) {
            loaders.emplace_back([this, t] {
                for (std::int64_t k = t; k < kRows; k += kPreloadThreads) {
                    DbRecord r;
                    r.values = {DbValue::ofI64(k),
                                DbValue::ofI64(initialValue(k))};
                    db_->persistRecord(kTable, r);
                    expect_[static_cast<std::size_t>(k)] = initialValue(k);
                }
            });
        }
        for (auto &t : loaders)
            t.join();
        ServerConfig scfg;
        scfg.workers = kServerWorkers;
        scfg.committers = kCommitters;
        scfg.queueDepth = kQueueDepth;
        scfg.writeBufBytes = kWriteBufBytes;
        scfg.readBufBytes = kReadBufBytes;
        server_ = std::make_unique<Server>(db_.get(), scfg);
        server_->start();
    }

    ~KvServer() { server_->stop(); }

    KvServer(const KvServer &) = delete;
    KvServer &operator=(const KvServer &) = delete;

    ShardedDatabase &db() { return *db_; }
    Server &server() { return *server_; }
    std::uint64_t userBytes() const { return userBytes_.load(); }

    /** Round trips of the phases since the last call. */
    std::vector<std::uint64_t>
    takeRtts()
    {
        return std::exchange(rtt_, {});
    }

    /** Fixed rate: @p conns connections sharing @p rate for @p seconds. */
    PhaseResult
    openLoop(unsigned conns, double rate, double seconds, std::uint64_t seed)
    {
        std::uint64_t interval =
            static_cast<std::uint64_t>(1e9 * conns / rate);
        std::uint64_t span = static_cast<std::uint64_t>(seconds * 1e9);
        // Every schedule is built before the clock starts, so building
        // it never makes the first requests late.
        std::vector<std::vector<Req>> reqs(conns);
        for (unsigned c = 0; c < conns; ++c)
            reqs[c] = schedule(c, conns, interval * c / conns, interval, span,
                               threadSeed(seed, c, 0x0F3E));
        std::uint64_t start = nowNs() + 5'000'000;
        std::vector<ConnResult> parts(conns);
        std::vector<std::thread> ts;
        for (unsigned c = 0; c < conns; ++c) {
            for (Req &r : reqs[c])
                r.due += start;
            ts.emplace_back([&, c] {
                pinThread(CpuHalf::kClients, c + 1);
                parts[c] = openConn(reqs[c], c);
            });
        }
        for (auto &t : ts)
            t.join();
        PhaseResult all = collect(parts);
        all.startNs = start;
        all.endNs = std::max(all.endNs, start + span);
        return all;
    }

    /** Saturation: @p conns connections, @p depth requests in flight
     * each. */
    PhaseResult
    closedLoop(unsigned conns, unsigned depth, double seconds,
               std::uint64_t seed)
    {
        std::uint64_t start = nowNs();
        std::uint64_t end = start + static_cast<std::uint64_t>(seconds * 1e9);
        std::vector<ConnResult> parts(conns);
        std::vector<std::thread> ts;
        for (unsigned c = 0; c < conns; ++c)
            ts.emplace_back([&, c] {
                pinThread(CpuHalf::kClients);
                parts[c] = closedConn(c, conns, depth, end,
                                      threadSeed(seed, c, 0xC105ED));
            });
        for (auto &t : ts)
            t.join();
        PhaseResult all = collect(parts);
        all.startNs = start;
        return all;
    }

    /** Every row against the last acknowledged value. */
    void
    verifyAll(const char *when)
    {
        std::size_t bad = 0;
        for (std::int64_t k = 0; k < kRows; ++k) {
            std::size_t i = static_cast<std::size_t>(k);
            DbRecord r;
            bool found = db_->fetchRecord(kTable, k, &r);
            if (!found || (!uncertain_[i] && r.values[1].i != expect_[i]))
                ++bad;
        }
        rep_.check(bad == 0, std::string(when) + ": " +
                                 std::to_string(bad) +
                                 " rows lost an acknowledged put");
        rep_.check(db_->rowCount(kTable) == static_cast<std::size_t>(kRows),
                   std::string(when) + ": row count changed");
    }

  private:
    PhaseResult
    collect(std::vector<ConnResult> &parts)
    {
        PhaseResult all;
        for (ConnResult &p : parts) {
            all.merge(p.phase);
            rtt_.insert(rtt_.end(), p.rttNs.begin(), p.rttNs.end());
        }
        return all;
    }

    /** A key owned by connection @p c of @p conns. */
    static std::int64_t
    keyFor(unsigned c, unsigned conns, Rng &rng)
    {
        return c + conns * static_cast<std::int64_t>(
                               rng.nextBelow(kRows / conns));
    }

    /** The next request for key @p key: a put of a fresh value, or a
     * get expecting the connection's latest write. */
    Req
    nextReq(std::int64_t key, Rng &rng)
    {
        Req r;
        r.key = key;
        r.put = rng.nextBool();
        std::size_t i = static_cast<std::size_t>(key);
        if (r.put) {
            r.value = valueSeq_.fetch_add(1, std::memory_order_relaxed);
            expect_[i] = r.value;
        } else {
            r.value = expect_[i];
        }
        return r;
    }

    static void
    encode(WireWriter &w, const Req &r)
    {
        if (r.put)
            encodePut(w, kTable,
                      {DbValue::ofI64(r.key), DbValue::ofI64(r.value)});
        else
            encodeGet(w, kTable, r.key);
    }

    /** Check one response against its request; false when the op
     * failed (counted, not a correctness failure). */
    bool
    settle(const Req &r, const FrameView &f)
    {
        std::size_t i = static_cast<std::size_t>(r.key);
        if (static_cast<WireStatus>(f.status) != WireStatus::kOk) {
            // The put may or may not have landed: stop checking the key.
            if (r.put)
                uncertain_[i] = 1;
            return false;
        }
        if (r.put) {
            userBytes_.fetch_add(2 * sizeof(std::int64_t),
                                 std::memory_order_relaxed);
            return true;
        }
        WireReader rd(f);
        std::vector<DbValue> row = rd.getRow();
        if (!rep_.check(rd.ok() && row.size() == 2 && row[0].i == r.key,
                        "wire get: malformed row"))
            return true;
        if (!uncertain_[i] && row[1].i != r.value)
            rep_.fail("wire get: key " + std::to_string(r.key) + " read " +
                      std::to_string(row[1].i) + ", wrote " +
                      std::to_string(r.value));
        return true;
    }

    /** Record the request's spans (receiver thread) and its sample. */
    static void
    complete(const Req &r, std::uint64_t done, bool ok, ConnResult *c)
    {
        std::uint64_t sent = std::min(r.sendEnd, done);
        {
            Span root("bench.op", r.due, Trace::newRequest());
            Trace::record("gen.lag", r.due, r.sendStart);
            Trace::record("net.send", r.sendStart, sent);
            Trace::record("net.wait", sent, done);
        }
        c->phase.record(r.put ? OpKind::kWrite : OpKind::kRead, ok,
                        done - r.due);
        c->phase.endNs = done;
        c->rttNs.push_back(done - r.sendStart);
    }

    /** Connection @p c's requests, due at @p first + i * @p interval
     * (relative to the phase start) for @p span nanoseconds. */
    std::vector<Req>
    schedule(unsigned c, unsigned conns, std::uint64_t first,
             std::uint64_t interval, std::uint64_t span, std::uint64_t seed)
    {
        std::vector<Req> reqs;
        Rng rng(seed);
        std::deque<std::int64_t> recent;
        std::unordered_set<std::int64_t> recent_set;
        for (std::uint64_t due = first; due < span; due += interval) {
            std::int64_t key;
            do {
                key = keyFor(c, conns, rng);
            } while (recent_set.count(key));
            recent.push_back(key);
            recent_set.insert(key);
            if (recent.size() > kNoRepeatWindow) {
                recent_set.erase(recent.front());
                recent.pop_front();
            }
            reqs.push_back(nextReq(key, rng));
            reqs.back().due = due;
        }
        return reqs;
    }

    /** Connection @p conn's sender runs on client CPU slot @p conn and
     * its receiver (the calling thread) on slot conn + 1. */
    ConnResult
    openConn(std::vector<Req> &reqs, unsigned conn)
    {
        ConnResult c;
        PhaseResult &p = c.phase;
        WireClient client;
        if (!rep_.check(client.connect("127.0.0.1", server_->port()),
                        "wire: connect failed")) {
            p.attempted = p.failed = reqs.size();
            return c;
        }
        std::atomic<std::size_t> sent{0};
        std::thread sender([&] {
            pinThread(CpuHalf::kClients, conn);
            for (std::size_t i = 0; i < reqs.size(); ++i) {
                Req &r = reqs[i];
                waitUntil(r.due);
                r.sendStart = nowNs();
                WireWriter w;
                encode(w, r);
                bool ok = client.sendFrames(w);
                r.sendEnd = nowNs();
                sent.store(i + 1, std::memory_order_release);
                if (!ok) {
                    // Wake the receiver out of its read.
                    ::shutdown(client.fd(), SHUT_RDWR);
                    return;
                }
            }
        });
        std::size_t i = 0;
        for (; i < reqs.size(); ++i) {
            std::vector<std::uint8_t> frame;
            FrameView f;
            if (!client.recvFrame(&frame, &f))
                break;
            std::uint64_t done = nowNs();
            while (sent.load(std::memory_order_acquire) <= i)
                std::this_thread::yield();
            const Req &r = reqs[i];
            p.lagNs.push_back(r.sendStart - r.due);
            complete(r, done, settle(r, f), &c);
        }
        if (i < reqs.size()) {
            rep_.fail("wire: connection lost mid-phase");
            ::shutdown(client.fd(), SHUT_RDWR);
            p.attempted += reqs.size() - i;
            p.failed += reqs.size() - i;
        }
        sender.join();
        return c;
    }

    ConnResult
    closedConn(unsigned conn, unsigned conns, unsigned depth,
               std::uint64_t end, std::uint64_t seed)
    {
        ConnResult c;
        WireClient client;
        if (!rep_.check(client.connect("127.0.0.1", server_->port()),
                        "wire: connect failed"))
            return c;
        Rng rng(seed);
        std::deque<Req> inflight;
        for (;;) {
            while (inflight.size() < depth && nowNs() < end) {
                std::int64_t key;
                bool busy;
                do {
                    key = keyFor(conn, conns, rng);
                    busy = std::any_of(inflight.begin(), inflight.end(),
                                       [key](const Req &q) {
                                           return q.key == key;
                                       });
                } while (busy);
                Req r = nextReq(key, rng);
                r.due = r.sendStart = nowNs();
                WireWriter w;
                encode(w, r);
                if (!rep_.check(client.sendFrames(w), "wire: send failed"))
                    return c;
                r.sendEnd = nowNs();
                inflight.push_back(r);
            }
            if (inflight.empty())
                break;
            std::vector<std::uint8_t> frame;
            FrameView f;
            if (!rep_.check(client.recvFrame(&frame, &f),
                            "wire: connection lost mid-phase"))
                return c;
            std::uint64_t done = nowNs();
            Req r = inflight.front();
            inflight.pop_front();
            complete(r, done, settle(r, f), &c);
        }
        c.phase.endNs = nowNs();
        return c;
    }

    Report &rep_;
    std::unique_ptr<ShardedDatabase> db_;
    std::unique_ptr<Server> server_;
    /** Last acknowledged-or-pending value per key; each key is touched
     * only by the connection that owns it in the current phase. */
    std::vector<std::int64_t> expect_;
    std::vector<std::uint8_t> uncertain_;
    std::atomic<std::int64_t> valueSeq_{1'000'000'000};
    std::atomic<std::uint64_t> userBytes_{0};
    std::vector<std::uint64_t> rtt_; ///< merged after each phase
};

void
pinConfig(Report &rep)
{
    kShape.record(rep, "wire_kv.");
    rep.config("wire_kv.rows", static_cast<double>(kRows));
    rep.config("wire_kv.server_workers", kServerWorkers);
    rep.config("wire_kv.server_committers", kCommitters);
    rep.config("wire_kv.server_queue_depth", kQueueDepth);
    rep.config("wire_kv.open_conns", kOpenConns);
    rep.config("wire_kv.closed_conns", kClosedConns);
    rep.config("wire_kv.closed_depth", kClosedDepth);
    rep.config("wire_kv.open_rate_ops_per_s", kOpenRate);
    rep.config("wire_kv.server_cpus", cpuList(CpuHalf::kServer));
    rep.config("wire_kv.client_cpus", cpuList(CpuHalf::kClients));
}

} // namespace

void
runWireKv(const RunOptions &opt, Report &rep)
{
    pinConfig(rep);
    std::unique_ptr<KvServer> kv = timedSetUp<KvServer>(
        opt, rep, [&] { return std::make_unique<KvServer>(rep); });

    PhaseFn phase = [&](double seconds, bool open) {
        return open ? kv->openLoop(kOpenConns, kOpenRate, seconds, opt.seed)
                    : kv->closedLoop(kClosedConns, kClosedDepth, seconds,
                                     opt.seed + 1);
    };
    NvmCounts nvm0, coord0;
    ServerStats ss0;
    CommitCoordinator::Stats cs0;
    std::uint64_t user0 = 0;
    ServiceRun m = measureService(opt, phase, [&] {
        kv->takeRtts();
        nvm0 = NvmCounts::of(dbDevices(kv->db()));
        coord0 = NvmCounts::of({&kv->db().coordinatorDevice()});
        ss0 = kv->server().stats();
        cs0 = commitStats(kv->db());
        user0 = kv->userBytes();
    });
    NvmCounts nvm = NvmCounts::of(dbDevices(kv->db())) - nvm0;
    NvmCounts coord = NvmCounts::of({&kv->db().coordinatorDevice()}) - coord0;
    ServerStats ss = kv->server().stats();

    PhaseResult all = m.all();
    double ops = static_cast<double>(all.attempted);
    emitService(rep, m.open, m.closed, all);
    emitNvm(rep, nvm, all.attempted, kv->userBytes() - user0, all.seconds());
    rep.set("nvm.coord_fences_per_txn",
            ratio(static_cast<double>(coord.fences),
                  static_cast<double>(ss.txnsCommitted - ss0.txnsCommitted)),
            "fences/txn");
    emitCommit(rep, cs0, commitStats(kv->db()));
    std::vector<std::uint64_t> rtt = kv->takeRtts();
    std::sort(rtt.begin(), rtt.end());
    rep.set("net.client_rtt_us_p50", nearestRank(rtt, 50) / 1e3, "us");
    rep.set("net.client_rtt_us_p99", nearestRank(rtt, 99) / 1e3, "us");
    rep.set("net.frames_per_op",
            ratio(static_cast<double>(ss.frames - ss0.frames), ops),
            "frames/op");
    rep.set("net.admission_reject_frac",
            ratio(static_cast<double>(ss.admissionRejects -
                                      ss0.admissionRejects),
                  ops),
            "ratio");
    double proto = static_cast<double>(ss.protocolErrors - ss0.protocolErrors);
    double overflow = static_cast<double>(ss.overflowDisconnects -
                                          ss0.overflowDisconnects);
    rep.set("net.protocol_errors", proto, "count");
    rep.set("net.overflow_disconnects", overflow, "count");
    rep.check(proto == 0 && overflow == 0,
              "wire: protocol errors or overflow disconnects");
    if (opt.trace)
        emitTrace(rep, all.attempted, throughput(m.closed), m.untracedPeak);

    kv->server().stop();
    kv->verifyAll("after run");
    kv->db().crash();
    kv->verifyAll("after crash");
}

Counters
countersWireKv(Report &rep)
{
    KvServer kv(rep);
    NvmCounts n0 = NvmCounts::of(dbDevices(kv.db()));
    WireClient client;
    if (!rep.check(client.connect("127.0.0.1", kv.server().port()),
                   "wire: connect failed"))
        return {};
    Rng rng(42);
    constexpr std::uint64_t kOps = 4000;
    for (std::uint64_t i = 0; i < kOps; ++i) {
        std::int64_t key = static_cast<std::int64_t>(rng.nextBelow(kRows));
        WireStatus st;
        if (rng.nextBool()) {
            st = client.put(kTable, {DbValue::ofI64(key), DbValue::ofI64(1)});
        } else {
            std::vector<DbValue> row;
            st = client.get(kTable, key, &row);
        }
        rep.check(st == WireStatus::kOk, "wire counter pass: op failed");
    }
    NvmCounts n = NvmCounts::of(dbDevices(kv.db())) - n0;
    return {{"nvm.fences_per_op", static_cast<double>(n.fences) / kOps},
            {"nvm.lines_flushed_per_op", static_cast<double>(n.lines) / kOps},
            {"pjh.allocs_per_write", 0.0}};
}

} // namespace bench
} // namespace espresso
