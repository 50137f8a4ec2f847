/**
 * @file
 * embedded_tpcc — NewOrder 45% / Payment 45% / OrderStatus 10% over a
 * 4-member ShardedDatabase through db::Txn handles, no sockets.
 *
 * The schema and lock order follow bench/tpcc_lite (warehouse <
 * district < customer < stock ascending < fresh inserts; the YTD and
 * NEXT_O_ID read-modify-writes hold application locks in that order, a
 * stand-in for SELECT FOR UPDATE). Orders live in a ring of
 * kOrderSlots per district so the tables stay bounded however long a
 * run lasts. OrderStatus is a read-only Isolation::kSnapshot
 * transaction that checks its snapshot is atomic across members: the
 * district's latest order and all its lines are visible with it.
 *
 * Multi-row writes, row locks, 2PC decision records, WAL dedup and
 * MVCC reads all live in db; net does nothing here, and writes sit
 * beside snapshot reads.
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <set>

#include "db/sharded_database.hh"
#include "trace.hh"
#include "workloads.hh"

namespace espresso {
namespace bench {

namespace {

using namespace db;

constexpr unsigned kThreads = 4;
constexpr DbShape kShape{4, 64, 8, 8192, 16u << 20, 4u << 20};

constexpr std::int64_t kWarehouses = 2;
constexpr std::int64_t kDistrictsPerW = 4;
constexpr std::int64_t kDistricts = kWarehouses * kDistrictsPerW;
constexpr std::int64_t kCustomersPerD = 30;
constexpr std::int64_t kItems = 256;
constexpr std::int64_t kOrderSlots = 256;

/** A deadlock victim is retried this many times before it counts as
 * a failed op. */
constexpr int kMaxRetries = 8;

/** Fixed offered rate (txn/s): about 40% of the saturation throughput
 * measured on a 4-vCPU Xeon VM when this benchmark was defined. Never
 * recalibrated at run time. */
constexpr double kOpenRate = 7500;

std::int64_t
districtPk(std::int64_t w, std::int64_t d)
{
    return w * 100 + d;
}

std::int64_t
customerPk(std::int64_t w, std::int64_t d, std::int64_t c)
{
    return districtPk(w, d) * 1000 + c;
}

std::int64_t
stockPk(std::int64_t w, std::int64_t i)
{
    return w * 100000 + i;
}

std::int64_t
orderPk(std::int64_t w, std::int64_t d, std::int64_t o_id)
{
    return districtPk(w, d) * 1000000 + o_id % kOrderSlots;
}

std::int64_t
linePk(std::int64_t order_pk, std::int64_t line)
{
    return order_pk * 16 + line;
}

DbRecord
rec(std::vector<DbValue> v, std::uint64_t mask = ~0ull)
{
    DbRecord r;
    r.values = std::move(v);
    r.dirtyMask = mask;
    return r;
}

DbValue
i64(std::int64_t v)
{
    return DbValue::ofI64(v);
}

class Tpcc
{
  public:
    explicit Tpcc(Report &rep) : rep_(rep), db_(kShape.build())
    {
        load();
        // Take the first snapshot while no writer is in flight. The
        // first snapshot flips every member into version-stamping mode,
        // and one taken while a cross-shard writer straddles the flip
        // can see that writer's unstamped half without its stamped
        // half (README, "Findings").
        TxnOptions snap;
        snap.isolation = Isolation::kSnapshot;
        db_->beginTxn(snap).commit();
    }

    OpOutcome
    op(Rng &rng)
    {
        std::uint64_t pick = rng.nextBelow(100);
        if (pick < 10)
            return {OpKind::kRead, orderStatus(rng)};
        bool ok = pick < 55 ? retry([&] { return newOrder(rng); })
                            : retry([&] { return payment(rng); });
        return {OpKind::kWrite, ok};
    }

    /** The invariants every acknowledged transaction preserves. */
    void
    verify(const char *when)
    {
        std::string w_ = std::string(when) + ": ";
        for (std::int64_t w = 0; w < kWarehouses; ++w) {
            DbRecord wh;
            if (!rep_.check(db_->fetchRecord("WAREHOUSE", w, &wh),
                            w_ + "warehouse missing"))
                continue;
            rep_.check(wh.values[1].i == ytdW_[w].load(),
                       w_ + "warehouse YTD " +
                           std::to_string(wh.values[1].i) + " != paid " +
                           std::to_string(ytdW_[w].load()));
            for (std::int64_t d = 0; d < kDistrictsPerW; ++d)
                verifyDistrict(w, d, w_);
        }
    }

    ShardedDatabase &db() { return *db_; }
    std::uint64_t userBytes() const { return userBytes_.load(); }
    std::uint64_t committed() const { return committed_.load(); }
    std::uint64_t crossShard() const { return crossShard_.load(); }

    /** Aborted attempts by status code. */
    std::map<std::string, std::uint64_t>
    aborts() const
    {
        std::lock_guard<std::mutex> g(abortMu_);
        return aborts_;
    }

  private:
    struct Aborted
    {
        std::string code;
    };

    void
    load()
    {
        db_->createTable({"WAREHOUSE", {{"W_ID", DbType::kI64},
                                        {"YTD", DbType::kI64}}});
        db_->createTable({"DISTRICT", {{"D_ID", DbType::kI64},
                                       {"YTD", DbType::kI64},
                                       {"NEXT_O_ID", DbType::kI64}}});
        db_->createTable({"CUSTOMER", {{"C_ID", DbType::kI64},
                                       {"BALANCE", DbType::kI64},
                                       {"YTD", DbType::kI64}}});
        db_->createTable({"ITEM", {{"I_ID", DbType::kI64},
                                   {"PRICE", DbType::kI64}}});
        db_->createTable({"STOCK", {{"S_ID", DbType::kI64},
                                    {"QTY", DbType::kI64}}});
        db_->createTable({"OORDER", {{"O_PK", DbType::kI64},
                                     {"O_ID", DbType::kI64},
                                     {"C_ID", DbType::kI64},
                                     {"OL_CNT", DbType::kI64}}});
        db_->createTable({"ORDER_LINE", {{"OL_PK", DbType::kI64},
                                         {"O_ID", DbType::kI64},
                                         {"I_ID", DbType::kI64},
                                         {"AMOUNT", DbType::kI64}}});
        for (std::int64_t w = 0; w < kWarehouses; ++w) {
            db_->persistRecord("WAREHOUSE", rec({i64(w), i64(0)}));
            for (std::int64_t d = 0; d < kDistrictsPerW; ++d) {
                db_->persistRecord("DISTRICT", rec({i64(districtPk(w, d)),
                                                    i64(0), i64(1)}));
                for (std::int64_t c = 0; c < kCustomersPerD; ++c)
                    db_->persistRecord(
                        "CUSTOMER",
                        rec({i64(customerPk(w, d, c)), i64(0), i64(0)}));
            }
            for (std::int64_t i = 0; i < kItems; ++i)
                db_->persistRecord("STOCK",
                                   rec({i64(stockPk(w, i)), i64(100)}));
        }
        for (std::int64_t i = 0; i < kItems; ++i)
            db_->persistRecord("ITEM", rec({i64(i), i64(10 + i % 90)}));
    }

    /** Run @p txn until it commits, retrying engine aborts. */
    template <typename Fn>
    bool
    retry(Fn &&txn)
    {
        for (int attempt = 0; attempt <= kMaxRetries; ++attempt) {
            try {
                txn();
                return true;
            } catch (const Aborted &a) {
                noteAbort(a.code);
            } catch (const TxnAbortError &e) {
                noteAbort(Status::make(e.code(), "").codeName());
            }
        }
        return false;
    }

    void
    noteAbort(const std::string &code)
    {
        std::lock_guard<std::mutex> g(abortMu_);
        ++aborts_[code];
    }

    bool
    fetch(const char *table, std::int64_t pk, DbRecord *out)
    {
        Span s("db.fetch");
        return db_->fetchRecord(table, pk, out);
    }

    /** A row the schema guarantees: its absence is a correctness
     * failure, and aborts the transaction. */
    void
    fetchRow(const char *table, std::int64_t pk, DbRecord *out)
    {
        if (!fetch(table, pk, out)) {
            rep_.fail(std::string("missing ") + table + " row " +
                      std::to_string(pk));
            throw Aborted{"missing-row"};
        }
    }

    void
    persist(const char *table, const DbRecord &r, std::set<unsigned> *members)
    {
        {
            Span s("db.persist");
            db_->persistRecord(table, r);
        }
        members->insert(db_->shardIndexForPk(r.values[0].i));
        std::uint64_t bytes = 0;
        for (std::size_t c = 0; c < r.values.size(); ++c)
            bytes += (r.dirtyMask >> c) & 1 ? sizeof(std::int64_t) : 0;
        userBytes_.fetch_add(bytes, std::memory_order_relaxed);
    }

    Txn
    begin(Isolation iso = Isolation::kReadUncommitted)
    {
        Span s("db.begin");
        TxnOptions o;
        o.isolation = iso;
        return db_->beginTxn(o);
    }

    void
    commit(Txn &t, const std::set<unsigned> &members)
    {
        Status st;
        {
            Span s("db.commit");
            st = t.commit();
        }
        if (!st.isOk())
            throw Aborted{st.codeName()};
        committed_.fetch_add(1, std::memory_order_relaxed);
        crossShard_.fetch_add(members.size() > 1 ? 1 : 0,
                              std::memory_order_relaxed);
    }

    std::unique_lock<std::mutex>
    lockRow(std::mutex &m)
    {
        Span s("bench.rmw_lock");
        return std::unique_lock<std::mutex>(m);
    }

    void
    newOrder(Rng &rng)
    {
        std::int64_t w = static_cast<std::int64_t>(rng.nextBelow(kWarehouses));
        std::int64_t d =
            static_cast<std::int64_t>(rng.nextBelow(kDistrictsPerW));
        std::int64_t c =
            static_cast<std::int64_t>(rng.nextBelow(kCustomersPerD));
        int n_lines = 5 + static_cast<int>(rng.nextBelow(6));
        std::vector<std::int64_t> items;
        for (int l = 0; l < n_lines; ++l)
            items.push_back(static_cast<std::int64_t>(rng.nextBelow(kItems)));
        // Ascending stock pk: the engine's lock-order contract.
        std::sort(items.begin(), items.end());
        items.erase(std::unique(items.begin(), items.end()), items.end());

        std::set<unsigned> members;
        Txn t = begin();
        std::int64_t o_id;
        {
            auto g = lockRow(district_[static_cast<std::size_t>(
                w * kDistrictsPerW + d)]);
            DbRecord dist;
            fetchRow("DISTRICT", districtPk(w, d), &dist);
            o_id = dist.values[2].i;
            persist("DISTRICT",
                    rec({i64(districtPk(w, d)), DbValue::null(),
                         i64(o_id + 1)},
                        1ull << 2),
                    &members);
        }
        std::int64_t total = 0;
        for (std::int64_t i : items) {
            DbRecord item, stock;
            fetchRow("ITEM", i, &item);
            fetchRow("STOCK", stockPk(w, i), &stock);
            std::int64_t qty = stock.values[1].i;
            qty = qty > 10 ? qty - 1 : qty + 91;
            persist("STOCK", rec({i64(stockPk(w, i)), i64(qty)}, 1ull << 1),
                    &members);
            total += item.values[1].i;
        }
        std::int64_t o_pk = orderPk(w, d, o_id);
        for (std::size_t l = 0; l < items.size(); ++l)
            persist("ORDER_LINE",
                    rec({i64(linePk(o_pk, static_cast<std::int64_t>(l))),
                         i64(o_id), i64(items[l]), i64(total)}),
                    &members);
        persist("OORDER",
                rec({i64(o_pk), i64(o_id), i64(customerPk(w, d, c)),
                     i64(static_cast<std::int64_t>(items.size()))}),
                &members);
        commit(t, members);
        newOrders_[static_cast<std::size_t>(w * kDistrictsPerW + d)]
            .fetch_add(1);
    }

    void
    payment(Rng &rng)
    {
        std::int64_t w = static_cast<std::int64_t>(rng.nextBelow(kWarehouses));
        std::int64_t d =
            static_cast<std::int64_t>(rng.nextBelow(kDistrictsPerW));
        std::int64_t c =
            static_cast<std::int64_t>(rng.nextBelow(kCustomersPerD));
        std::int64_t amount = 1 + static_cast<std::int64_t>(rng.nextBelow(500));

        std::set<unsigned> members;
        Txn t = begin();
        {
            auto g = lockRow(warehouse_[static_cast<std::size_t>(w)]);
            DbRecord wh;
            fetchRow("WAREHOUSE", w, &wh);
            persist("WAREHOUSE", rec({i64(w), i64(wh.values[1].i + amount)},
                                     1ull << 1),
                    &members);
        }
        {
            // One lock covers the district and its customer.
            auto g = lockRow(district_[static_cast<std::size_t>(
                w * kDistrictsPerW + d)]);
            DbRecord dist, cust;
            fetchRow("DISTRICT", districtPk(w, d), &dist);
            persist("DISTRICT",
                    rec({i64(districtPk(w, d)),
                         i64(dist.values[1].i + amount), DbValue::null()},
                        1ull << 1),
                    &members);
            fetchRow("CUSTOMER", customerPk(w, d, c), &cust);
            persist("CUSTOMER",
                    rec({i64(customerPk(w, d, c)),
                         i64(cust.values[1].i - amount),
                         i64(cust.values[2].i + amount)},
                        (1ull << 1) | (1ull << 2)),
                    &members);
        }
        commit(t, members);
        ytdW_[static_cast<std::size_t>(w)].fetch_add(amount);
        ytdD_[static_cast<std::size_t>(w * kDistrictsPerW + d)].fetch_add(
            amount);
    }

    /** Read-only snapshot: the district's latest order and its lines
     * must be visible together with the NEXT_O_ID bump that made it. */
    bool
    orderStatus(Rng &rng)
    {
        std::int64_t w = static_cast<std::int64_t>(rng.nextBelow(kWarehouses));
        std::int64_t d =
            static_cast<std::int64_t>(rng.nextBelow(kDistrictsPerW));
        std::int64_t c =
            static_cast<std::int64_t>(rng.nextBelow(kCustomersPerD));
        Txn t = begin(Isolation::kSnapshot);
        DbRecord dist, cust;
        bool ok = fetch("DISTRICT", districtPk(w, d), &dist) &&
                  fetch("CUSTOMER", customerPk(w, d, c), &cust);
        rep_.check(ok, "order-status: district or customer missing");
        std::int64_t last = ok ? dist.values[2].i - 1 : 0;
        if (last >= 1) {
            DbRecord order;
            std::int64_t o_pk = orderPk(w, d, last);
            if (!fetch("OORDER", o_pk, &order) || order.values[1].i != last) {
                rep_.fail("order-status: snapshot shows NEXT_O_ID " +
                          std::to_string(last + 1) + " without its order");
            } else {
                for (std::int64_t l = 0; l < order.values[3].i; ++l) {
                    DbRecord line;
                    if (!fetch("ORDER_LINE", linePk(o_pk, l), &line) ||
                        line.values[1].i != last) {
                        rep_.fail("order-status: order " +
                                  std::to_string(last) +
                                  " missing a line in its snapshot");
                        break;
                    }
                }
            }
        }
        Status st;
        {
            Span s("db.commit");
            st = t.commit();
        }
        if (!st.isOk()) {
            noteAbort(st.codeName());
            return false;
        }
        return true;
    }

    void
    verifyDistrict(std::int64_t w, std::int64_t d, const std::string &when)
    {
        std::size_t di = static_cast<std::size_t>(w * kDistrictsPerW + d);
        DbRecord dist;
        if (!rep_.check(db_->fetchRecord("DISTRICT", districtPk(w, d), &dist),
                        when + "district missing"))
            return;
        std::int64_t next = dist.values[2].i;
        rep_.check(next - 1 == static_cast<std::int64_t>(newOrders_[di].load()),
                   when + "district " + std::to_string(districtPk(w, d)) +
                       " NEXT_O_ID " + std::to_string(next) + " after " +
                       std::to_string(newOrders_[di].load()) +
                       " acknowledged NewOrders");
        rep_.check(dist.values[1].i == ytdD_[di].load(),
                   when + "district YTD != acknowledged payments");
        std::int64_t cust_ytd = 0;
        for (std::int64_t c = 0; c < kCustomersPerD; ++c) {
            DbRecord cust;
            if (!rep_.check(db_->fetchRecord("CUSTOMER", customerPk(w, d, c),
                                             &cust),
                            when + "customer missing"))
                return;
            rep_.check(cust.values[1].i == -cust.values[2].i,
                       when + "customer BALANCE != -YTD");
            cust_ytd += cust.values[2].i;
        }
        rep_.check(cust_ytd == dist.values[1].i,
                   when + "customers' YTD do not sum to the district's");
        for (std::int64_t o = std::max<std::int64_t>(1, next - kOrderSlots);
             o < next; ++o) {
            DbRecord order;
            std::int64_t o_pk = orderPk(w, d, o);
            if (!rep_.check(db_->fetchRecord("OORDER", o_pk, &order) &&
                                order.values[1].i == o,
                            when + "order " + std::to_string(o) +
                                " lost"))
                return;
            for (std::int64_t l = 0; l < order.values[3].i; ++l) {
                DbRecord line;
                if (!rep_.check(db_->fetchRecord("ORDER_LINE", linePk(o_pk, l),
                                                 &line) &&
                                    line.values[1].i == o,
                                when + "order line lost"))
                    return;
            }
        }
    }

    Report &rep_;
    std::unique_ptr<ShardedDatabase> db_;
    std::array<std::mutex, kWarehouses> warehouse_;
    std::array<std::mutex, kDistricts> district_;
    /** Acknowledged effects, the reference the verifier checks. */
    std::array<std::atomic<std::int64_t>, kWarehouses> ytdW_{};
    std::array<std::atomic<std::int64_t>, kDistricts> ytdD_{};
    std::array<std::atomic<std::uint64_t>, kDistricts> newOrders_{};
    std::atomic<std::uint64_t> committed_{0};
    std::atomic<std::uint64_t> crossShard_{0};
    std::atomic<std::uint64_t> userBytes_{0};
    mutable std::mutex abortMu_;
    std::map<std::string, std::uint64_t> aborts_;
};

void
pinConfig(Report &rep)
{
    kShape.record(rep, "embedded_tpcc.");
    rep.config("embedded_tpcc.threads", kThreads);
    rep.config("embedded_tpcc.warehouses", static_cast<double>(kWarehouses));
    rep.config("embedded_tpcc.order_slots", static_cast<double>(kOrderSlots));
    rep.config("embedded_tpcc.open_rate_txn_per_s", kOpenRate);
}

} // namespace

void
runEmbeddedTpcc(const RunOptions &opt, Report &rep)
{
    pinConfig(rep);
    std::unique_ptr<Tpcc> tp = timedSetUp<Tpcc>(
        opt, rep, [&] { return std::make_unique<Tpcc>(rep); });

    OpFn op = [&](unsigned, Rng &rng) { return tp->op(rng); };
    PhaseFn phase = [&](double seconds, bool open) {
        return open ? runOpenLoop(kThreads, kOpenRate, seconds, opt.seed, op)
                    : runClosedLoop(kThreads, seconds, opt.seed, op);
    };
    NvmCounts nvm0, coord0;
    CommitCoordinator::Stats cs0;
    std::uint64_t user0 = 0, committed0 = 0, cross0 = 0;
    std::map<std::string, std::uint64_t> aborts0;
    ServiceRun m = measureService(opt, phase, [&] {
        nvm0 = NvmCounts::of(dbDevices(tp->db()));
        coord0 = NvmCounts::of({&tp->db().coordinatorDevice()});
        cs0 = commitStats(tp->db());
        user0 = tp->userBytes();
        committed0 = tp->committed();
        cross0 = tp->crossShard();
        aborts0 = tp->aborts();
    });
    NvmCounts nvm = NvmCounts::of(dbDevices(tp->db())) - nvm0;
    NvmCounts coord = NvmCounts::of({&tp->db().coordinatorDevice()}) - coord0;
    double committed = static_cast<double>(tp->committed() - committed0);

    PhaseResult all = m.all();
    emitService(rep, m.open, m.closed, all);
    emitNvm(rep, nvm, all.attempted, tp->userBytes() - user0, all.seconds());
    rep.set("nvm.coord_fences_per_txn",
            ratio(static_cast<double>(coord.fences), committed),
            "fences/txn");
    emitCommit(rep, cs0, commitStats(tp->db()));

    double attempts = committed;
    double deadlock = 0, conflict = 0, other = 0;
    for (const auto &[code, n] : tp->aborts()) {
        double d = static_cast<double>(n - aborts0[code]);
        attempts += d;
        (code == "deadlock" ? deadlock : code == "conflict" ? conflict : other) +=
            d;
    }
    rep.set("db.txn.abort_frac", ratio(deadlock + conflict + other, attempts),
            "ratio");
    rep.set("db.txn.abort_frac.deadlock", ratio(deadlock, attempts), "ratio");
    rep.set("db.txn.abort_frac.conflict", ratio(conflict, attempts), "ratio");
    rep.set("db.txn.abort_frac.other", ratio(other, attempts), "ratio");
    rep.set("db.txn.cross_shard_frac",
            ratio(static_cast<double>(tp->crossShard() - cross0), committed),
            "ratio");
    if (opt.trace)
        emitTrace(rep, all.attempted, throughput(m.closed), m.untracedPeak);

    tp->verify("after run");
    tp->db().crash();
    tp->verify("after crash");
}

Counters
countersEmbeddedTpcc(Report &rep)
{
    Tpcc tp(rep);
    NvmCounts n0 = NvmCounts::of(dbDevices(tp.db()));
    Rng rng(42);
    constexpr std::uint64_t kOps = 600;
    for (std::uint64_t i = 0; i < kOps; ++i)
        tp.op(rng);
    NvmCounts n = NvmCounts::of(dbDevices(tp.db())) - n0;
    tp.verify("counter pass");
    return {{"nvm.fences_per_op", static_cast<double>(n.fences) / kOps},
            {"nvm.lines_flushed_per_op", static_cast<double>(n.lines) / kOps},
            {"pjh.allocs_per_write", 0.0}};
}

} // namespace bench
} // namespace espresso
