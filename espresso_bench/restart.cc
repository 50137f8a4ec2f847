/**
 * @file
 * restart — getting the data back after a power failure, two ways.
 *
 *  (a) PJH: a 1M-object, 20-Klass persistent heap (the paper's Fig. 18
 *      shape). Each iteration publishes an acknowledged root, power-
 *      fails the heap (HeapManager::crashHeap), reloads it with
 *      user-guaranteed safety and reads the root back; every
 *      kZeroingEvery-th iteration also reloads it with zeroing safety,
 *      which scans every object. The "read" latency is reload plus
 *      first root read.
 *  (b) DB: four threads each commit a transaction and then leave a
 *      second one open; ShardedDatabase::crash() power-fails and
 *      recovers every member. The "write" latency runs from the crash
 *      until the first acknowledged commit after it.
 *
 * After every restart the acknowledged writes must be there and the
 * in-flight ones gone. Tail repair, WAL undo and 2PC decision recovery
 * run only here.
 */

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "core/espresso.hh"
#include "db/sharded_database.hh"
#include "trace.hh"
#include "util/logging.hh"
#include "workloads.hh"

namespace espresso {
namespace bench {

namespace {

using namespace db;

constexpr std::size_t kObjects = 1'000'000;
constexpr unsigned kKlasses = 20;
constexpr unsigned kBuilders = 4;
/** Small TLABs: every reload retires the previous chunks, and each
 * iteration's acknowledged root carves a fresh one. */
constexpr std::size_t kTlabBytes = 4u << 10;
/** Restarts one set-up can take before its heap runs out of room for
 * acknowledged roots; a run stops early when it reaches this. */
constexpr std::int64_t kMaxRestarts = 6000;
constexpr std::size_t kDataBytes =
    kObjects * 32 + (kMaxRestarts + 144) * kTlabBytes;
constexpr unsigned kZeroingEvery = 4;

constexpr unsigned kDbThreads = 4;
constexpr std::int64_t kKeysPerThread = 4;
constexpr std::int64_t kProbeKey = 1'000'000;
constexpr DbShape kShape{4, 64, 8, 256, 1u << 20, 1u << 20};

const char *const kHeapName = "restart";
const char *const kTable = "ACCT";

/** A chain's objects carry their position, head = highest. */
constexpr std::size_t kPerChain = kObjects / kBuilders;

/** Sampled chain walk per reload; the whole heap is walked once at
 * the end. */
constexpr std::size_t kSampledLinks = 256;

/** The persistent heap side. */
class HeapSide
{
  public:
    explicit HeapSide(Report &rep) : rep_(rep), rt_(config())
    {
        for (unsigned k = 0; k < kKlasses; ++k) {
            klassNames_.push_back("Load" + std::to_string(k));
            rt_.define({klassNames_.back(),
                        "",
                        {{"a", FieldType::kI64}, {"b", FieldType::kRef}},
                        false});
        }
        rt_.define({"Ack", "", {{"v", FieldType::kI64}}, false});
        aOff_ = rt_.fieldOffset("Load0", "a");
        bOff_ = rt_.fieldOffset("Load0", "b");
        vOff_ = rt_.fieldOffset("Ack", "v");
        PjhConfig cfg;
        cfg.dataSize = kDataBytes;
        cfg.tlabSize = kTlabBytes;
        heap_ = rt_.heaps().createHeap(kHeapName, cfg);
        std::vector<std::thread> builders;
        for (unsigned t = 0; t < kBuilders; ++t)
            builders.emplace_back([this, t] { build(t); });
        for (auto &b : builders)
            b.join();
        // Clean shutdown makes the populated heap durable (msync);
        // every later restart starts from a power failure.
        rt_.heaps().detachHeap(kHeapName);
        heap_ = rt_.heaps().loadHeap(kHeapName, SafetyLevel::kUserGuaranteed);
    }

    static EspressoConfig
    config()
    {
        EspressoConfig c;
        c.nvm = pinnedNvm();
        return c;
    }

    /** Acknowledge a write of @p v under the root "ack". */
    void
    acknowledge(std::int64_t v)
    {
        Oop o;
        std::uint64_t a0 = heap_->stats().allocations.load();
        std::uint64_t b0 = heap_->stats().bytesAllocated.load();
        {
            Span s("core.pnew");
            o = rt_.pnewInstance(heap_, "Ack");
        }
        allocs_ += heap_->stats().allocations.load() - a0;
        allocBytes_ += heap_->stats().bytesAllocated.load() - b0;
        o.setI64(vOff_, v);
        {
            Span s("pjh.flush_object");
            heap_->flushObject(o);
        }
        {
            Span s("pjh.set_root");
            heap_->setRoot("ack", o);
        }
        ++acks_;
    }

    /** Power-fail, reload at @p safety, read the acknowledged root. */
    std::uint64_t
    restart(SafetyLevel safety, std::int64_t want)
    {
        {
            Span s("pjh.crash_heap");
            rt_.heaps().crashHeap(kHeapName);
        }
        std::uint64_t t0 = nowNs();
        {
            Span s("pjh.load");
            heap_ = rt_.heaps().loadHeap(kHeapName, safety);
        }
        Oop ack;
        {
            Span s("pjh.get_root");
            ack = heap_->getRoot("ack");
        }
        std::uint64_t ns = nowNs() - t0;
        rep_.check(!ack.isNull() && ack.getI64(vOff_) == want,
                   "pjh restart: acknowledged root lost");
        const PjhStats &st = heap_->stats();
        ++loads_;
        bindNs_ += st.lastLoadBindNs;
        tailRepairs_ += st.tailRepairs;
        if (safety == SafetyLevel::kZeroing) {
            ++zeroLoads_;
            zeroNs_ += st.lastLoadNs;
            safetyNs_ += st.lastLoadSafetyNs;
        } else {
            ugNs_ += st.lastLoadNs;
        }
        return ns;
    }

    /** Walk @p links of every chain (all of them when 0). */
    void
    verifyChains(std::size_t links)
    {
        for (unsigned t = 0; t < kBuilders; ++t) {
            Oop o = heap_->getRoot("chain" + std::to_string(t));
            std::size_t n = links ? links : kPerChain;
            for (std::size_t i = 0; i < n; ++i) {
                std::int64_t want = static_cast<std::int64_t>(kPerChain - 1 - i);
                if (o.isNull() || o.getI64(aOff_) != want) {
                    rep_.fail("pjh restart: chain " + std::to_string(t) +
                              " broken at link " + std::to_string(i));
                    return;
                }
                o = Oop(o.getRef(bOff_));
            }
            if (links == 0)
                rep_.check(o.isNull(), "pjh restart: chain too long");
        }
    }

    void
    emit(Report &rep) const
    {
        auto ms_per = [](std::uint64_t ns, std::uint64_t n) {
            return ratio(static_cast<double>(ns) / 1e6, static_cast<double>(n));
        };
        std::uint64_t ug_loads = loads_ - zeroLoads_;
        rep.set("pjh.load.ug_ms", ms_per(ugNs_, ug_loads), "ms/load");
        rep.set("pjh.load.zeroing_ms", ms_per(zeroNs_, zeroLoads_), "ms/load");
        rep.set("pjh.load.bind_ms", ms_per(bindNs_, loads_), "ms/load");
        rep.set("pjh.load.safety_ms", ms_per(safetyNs_, zeroLoads_),
                "ms/load");
        rep.set("pjh.load.tail_repairs",
                ratio(static_cast<double>(tailRepairs_),
                      static_cast<double>(loads_)),
                "repairs/load");
    }

    void
    resetStats()
    {
        loads_ = zeroLoads_ = ugNs_ = zeroNs_ = bindNs_ = safetyNs_ = 0;
        tailRepairs_ = acks_ = allocs_ = allocBytes_ = 0;
    }

    PjhHeap &heap() { return *heap_; }
    std::uint64_t acks() const { return acks_; }
    /** Allocations (and bytes) made by acknowledge(): a reload starts
     * a fresh PjhStats, so the deltas are summed here. */
    std::uint64_t allocs() const { return allocs_; }
    std::uint64_t allocBytes() const { return allocBytes_; }

  private:
    void
    build(unsigned t)
    {
        Oop prev;
        for (std::size_t i = 0; i < kPerChain; ++i) {
            Oop o = rt_.pnewInstance(
                heap_, klassNames_[(t + i * kBuilders) % kKlasses]);
            o.setI64(aOff_, static_cast<std::int64_t>(i));
            o.setRef(bOff_, prev);
            prev = o;
        }
        heap_->setRoot("chain" + std::to_string(t), prev);
    }

    Report &rep_;
    EspressoRuntime rt_;
    PjhHeap *heap_ = nullptr;
    std::uint32_t aOff_ = 0, bOff_ = 0, vOff_ = 0;
    std::uint64_t loads_ = 0, zeroLoads_ = 0, ugNs_ = 0, zeroNs_ = 0;
    std::uint64_t bindNs_ = 0, safetyNs_ = 0, tailRepairs_ = 0, acks_ = 0;
    std::uint64_t allocs_ = 0, allocBytes_ = 0;
    std::vector<std::string> klassNames_;
};

/** The database side: kDbThreads workers that each commit a
 * transaction and then hold a second one open across the crash. */
class DbSide
{
  public:
    DbSide(Report &rep, unsigned threads)
        : rep_(rep), threads_(threads), db_(kShape.build())
    {
        db_->createTable({kTable, {{"ID", DbType::kI64}, {"V", DbType::kI64}}});
        for (std::int64_t k = 0; k < kDbThreads * kKeysPerThread; ++k)
            put(k, 0);
        put(kProbeKey, 0);
    }

    ~DbSide() { stopWorkers(); }

    DbSide(const DbSide &) = delete;
    DbSide &operator=(const DbSide &) = delete;

    void
    startWorkers()
    {
        for (unsigned t = 0; t < threads_; ++t)
            workers_.emplace_back([this, t] { worker(t); });
    }

    void
    stopWorkers()
    {
        {
            std::lock_guard<std::mutex> g(mu_);
            quit_ = true;
        }
        cv_.notify_all();
        for (auto &w : workers_)
            w.join();
        workers_.clear();
    }

    /** One iteration: workers commit @p iter and leave a transaction
     * open; crash; first commit; check. Returns crash-to-first-commit
     * nanoseconds. */
    std::uint64_t
    restart(std::int64_t iter)
    {
        std::unique_lock<std::mutex> lk(mu_);
        iter_ = iter;
        ready_ = 0;
        cv_.notify_all();
        cv_.wait(lk, [this] { return ready_ == threads_; });

        std::uint64_t t0 = nowNs();
        {
            Span s("db.crash");
            db_->crash();
        }
        std::uint64_t t1 = nowNs();
        {
            Txn t;
            {
                Span s("db.begin");
                t = db_->beginTxn();
            }
            {
                Span s("db.persist");
                db_->persistRecord(kTable, row(kProbeKey, iter));
            }
            Status st;
            {
                Span s("db.commit");
                st = t.commit();
            }
            rep_.check(st.isOk(), "db restart: first commit failed");
        }
        std::uint64_t t2 = nowNs();
        crashNs_ += t1 - t0;
        firstCommitNs_ += t2 - t1;
        ++restarts_;

        for (std::int64_t k = 0; k < threads_ * kKeysPerThread; ++k)
            if (std::int64_t v = value(k); v != iter)
                rep_.fail("db restart: key " + std::to_string(k) + " holds " +
                          std::to_string(v) + " after acknowledged " +
                          std::to_string(iter));
        rep_.check(value(kProbeKey) == iter, "db restart: probe lost");
        released_ = iter;
        cv_.notify_all();
        return t2 - t0;
    }

    void
    emit(Report &rep) const
    {
        double n = static_cast<double>(restarts_);
        rep.set("db.recover.crash_call_ms",
                ratio(static_cast<double>(crashNs_) / 1e6, n), "ms/restart");
        rep.set("db.recover.first_commit_ms",
                ratio(static_cast<double>(firstCommitNs_) / 1e6, n),
                "ms/restart");
    }

    void resetStats() { crashNs_ = firstCommitNs_ = restarts_ = 0; }

    ShardedDatabase &db() { return *db_; }

  private:
    static DbRecord
    row(std::int64_t k, std::int64_t v)
    {
        DbRecord r;
        r.values = {DbValue::ofI64(k), DbValue::ofI64(v)};
        return r;
    }

    void put(std::int64_t k, std::int64_t v) { db_->persistRecord(kTable, row(k, v)); }

    std::int64_t
    value(std::int64_t k)
    {
        DbRecord r;
        return db_->fetchRecord(kTable, k, &r) ? r.values[1].i : -1;
    }

    void
    worker(unsigned t)
    {
        std::int64_t done = -1;
        for (;;) {
            std::int64_t iter;
            {
                std::unique_lock<std::mutex> lk(mu_);
                cv_.wait(lk, [&] { return quit_ || iter_ != done; });
                if (quit_)
                    return;
                iter = iter_;
            }
            Txn committed = db_->beginTxn();
            for (std::int64_t k = 0; k < kKeysPerThread; ++k)
                db_->persistRecord(kTable, row(t * kKeysPerThread + k, iter));
            rep_.check(committed.commit().isOk(),
                       "db restart: worker commit failed");
            // Left open across the power failure: must roll back.
            Txn open = db_->beginTxn();
            for (std::int64_t k = 0; k < kKeysPerThread; ++k)
                db_->persistRecord(kTable, row(t * kKeysPerThread + k, -iter));
            std::unique_lock<std::mutex> lk(mu_);
            ++ready_;
            cv_.notify_all();
            cv_.wait(lk, [&] { return quit_ || released_ == iter; });
            done = iter;
            // `open` dies with a stale handle here: the crash already
            // rolled its transaction back.
        }
    }

    Report &rep_;
    unsigned threads_;
    std::unique_ptr<ShardedDatabase> db_;
    std::mutex mu_;
    std::condition_variable cv_;
    std::int64_t iter_ = -1;
    unsigned ready_ = 0;
    /** The iteration whose checks are done (workers may drop their
     * open transactions). */
    std::int64_t released_ = -1;
    bool quit_ = false;
    std::vector<std::thread> workers_;
    std::uint64_t crashNs_ = 0, firstCommitNs_ = 0, restarts_ = 0;
};

struct Sides
{
    Sides(Report &rep, unsigned db_threads)
        : heap(std::make_unique<HeapSide>(rep)),
          db(std::make_unique<DbSide>(rep, db_threads))
    {}

    std::vector<NvmDevice *>
    devices()
    {
        std::vector<NvmDevice *> d = dbDevices(db->db());
        d.push_back(&heap->heap().device());
        return d;
    }

    std::unique_ptr<HeapSide> heap;
    std::unique_ptr<DbSide> db;
};

/** Restart both sides back to back until @p seconds or @p max_iters
 * pass (or the set-up's kMaxRestarts); reads are PJH reloads, writes
 * DB recoveries. */
PhaseResult
restartLoop(Sides &s, double seconds, std::uint64_t max_iters,
            std::int64_t *iter)
{
    PhaseResult p;
    p.startNs = nowNs();
    std::uint64_t end = p.startNs + static_cast<std::uint64_t>(seconds * 1e9);
    for (std::uint64_t n = 0;
         n < max_iters && *iter < kMaxRestarts && nowNs() < end; ++n) {
        std::int64_t i = ++*iter;
        {
            Span root("bench.op", nowNs(), Trace::newRequest());
            s.heap->acknowledge(i);
            p.record(OpKind::kRead, true,
                     s.heap->restart(SafetyLevel::kUserGuaranteed, i));
        }
        s.heap->verifyChains(kSampledLinks);
        if (i % kZeroingEvery == 0) {
            Span root("bench.op", nowNs(), Trace::newRequest());
            s.heap->restart(SafetyLevel::kZeroing, i);
        }
        {
            Span root("bench.op", nowNs(), Trace::newRequest());
            p.record(OpKind::kWrite, true, s.db->restart(i));
        }
    }
    p.endNs = nowNs();
    return p;
}

void
pinConfig(Report &rep)
{
    kShape.record(rep, "restart.");
    rep.config("restart.objects", static_cast<double>(kObjects));
    rep.config("restart.klasses", kKlasses);
    rep.config("restart.data_bytes", static_cast<double>(kDataBytes));
    rep.config("restart.tlab_bytes", static_cast<double>(kTlabBytes));
    rep.config("restart.zeroing_every", kZeroingEvery);
    rep.config("restart.db_threads", kDbThreads);
}

} // namespace

void
runRestart(const RunOptions &opt, Report &rep)
{
    // Recovery narrates what it repairs; that is expected here.
    setWarningsEnabled(false);
    pinConfig(rep);
    std::unique_ptr<Sides> s = timedSetUp<Sides>(
        opt, rep, [&] { return std::make_unique<Sides>(rep, kDbThreads); });
    s->db->startWorkers();

    // The restart loop is its own saturation phase: no warm-up or
    // fixed rate, and both latency families come from it.
    std::int64_t iter = 0;
    double untraced = 0;
    if (opt.trace)
        untraced = throughput(restartLoop(*s, 0.4 * opt.seconds, ~0ull, &iter));
    s->heap->resetStats();
    s->db->resetStats();
    NvmCounts nvm0 = NvmCounts::of(s->devices());
    NvmCounts coord0 = NvmCounts::of({&s->db->db().coordinatorDevice()});
    CommitCoordinator::Stats cs0 = commitStats(s->db->db());
    Trace::reset();
    Trace::setEnabled(opt.trace);
    PhaseResult p = restartLoop(*s, opt.seconds, ~0ull, &iter);
    Trace::setEnabled(false);
    NvmCounts nvm = NvmCounts::of(s->devices()) - nvm0;
    NvmCounts coord =
        NvmCounts::of({&s->db->db().coordinatorDevice()}) - coord0;
    CommitCoordinator::Stats cs = commitStats(s->db->db());

    emitService(rep, p, p, p);
    double acks = static_cast<double>(s->heap->acks());
    emitNvm(rep, nvm, p.attempted, s->heap->acks() * 2 * sizeof(std::int64_t),
            p.seconds());
    rep.set("pjh.allocs_per_write",
            ratio(static_cast<double>(s->heap->allocs()), acks),
            "allocs/write");
    rep.set("pjh.bytes_allocated_per_write",
            ratio(static_cast<double>(s->heap->allocBytes()), acks),
            "B/write");
    rep.set("nvm.coord_fences_per_txn",
            ratio(static_cast<double>(coord.fences),
                  static_cast<double>(cs.txns - cs0.txns)),
            "fences/txn");
    emitCommit(rep, cs0, cs);
    s->heap->emit(rep);
    s->db->emit(rep);
    if (opt.trace)
        emitTrace(rep, p.attempted, throughput(p), untraced);
    s->db->stopWorkers();
    s->heap->verifyChains(0);
    setWarningsEnabled(true);
}

Counters
countersRestart(Report &rep)
{
    setWarningsEnabled(false);
    Sides s(rep, 1);
    s.db->startWorkers();
    std::int64_t iter = 0;
    NvmCounts n0 = NvmCounts::of(s.devices());
    PhaseResult p = restartLoop(s, 1e9, 16, &iter);
    NvmCounts n = NvmCounts::of(s.devices()) - n0;
    double ops = static_cast<double>(p.attempted);
    s.db->stopWorkers();
    setWarningsEnabled(true);
    return {{"nvm.fences_per_op", static_cast<double>(n.fences) / ops},
            {"nvm.lines_flushed_per_op", static_cast<double>(n.lines) / ops},
            {"pjh.allocs_per_write", static_cast<double>(s.heap->allocs()) /
                                         static_cast<double>(s.heap->acks())}};
}

} // namespace bench
} // namespace espresso
