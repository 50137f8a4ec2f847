/**
 * @file
 * shard_scaling: HeapFabric and ShardedDatabase throughput vs member
 * count — the horizontal-scaling figure of the sharded runtime.
 *
 * The NVM model runs with a serialized per-device fence drain
 * (NvmConfig::fenceDrainSerialized): every fence holds its device's
 * write-queue token for the modeled drain latency, so one device's
 * bandwidth bounds everything funneled through it — exactly the
 * single-PJH bottleneck the fabric shards away. Drains sleep, so
 * drains on different member devices overlap regardless of host core
 * count, and the scaling column is meaningful even on a 1-core
 * container.
 *
 *  - Part 1: T threads pnew+flush Nodes through a fabric, route keys
 *    spread by the consistent-hash ring, members ∈ {1, 2, 4, 8}.
 *  - Part 2: T threads run YCSB-A (50% read / 50% single-row update
 *    transactions, uniform keys) over a pk-partitioned
 *    ShardedDatabase, members ∈ {1, 2, 4, 8}.
 *  - Part 3: elastic grow 2 → 4 members *under* YCSB-A load: the
 *    epoch-pair membership change streams remapped rows while the
 *    workers keep hammering, and throughput staircases from the
 *    2-member plateau to the 4-member one with bounded p99. The
 *    phase hard-checks exactly-once row survival (no lost, no
 *    duplicated pk across the epoch change) and fails the run on a
 *    violation, so the smoke target doubles as a correctness gate.
 *
 * Expected shape: ≥2.5x at 4 members over the 1-member baseline in
 * parts 1-2 (ideal is 4x; routing skew, the shared volatile side,
 * and scheduler noise eat some of it); post-grow ≥ 2x the pre-grow
 * plateau in part 3 at full op counts.
 *
 * Alongside the tables the run writes BENCH_shard_scaling.json (see
 * bench::JsonReport).
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hh"
#include "core/espresso.hh"
#include "db/sharded_database.hh"
#include "util/rng.hh"

using namespace espresso;

namespace {

constexpr int kThreads = 8;
constexpr std::uint64_t kDrainNs = 20000; // one modeled DIMM drain

NvmConfig
drainBoundNvm()
{
    NvmConfig nvm;
    nvm.fenceLatencyNs = kDrainNs;
    nvm.fenceDrainSerialized = true;
    return nvm;
}

double
runPnew(unsigned shards, int ops_per_thread)
{
    EspressoConfig cfg;
    cfg.nvm = drainBoundNvm();
    EspressoRuntime rt(cfg);
    rt.define({"Node",
               "",
               {{"value", FieldType::kI64}, {"next", FieldType::kRef}},
               false});
    std::uint32_t value_off = rt.fieldOffset("Node", "value");

    PjhConfig shard_cfg;
    shard_cfg.dataSize = 8u << 20;
    HeapFabric *fabric =
        rt.heaps().createFabric("fab", shard_cfg, shards);

    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> workers;
    for (int w = 0; w < kThreads; ++w) {
        workers.emplace_back([&, w]() {
            ready.fetch_add(1);
            while (!go.load(std::memory_order_acquire)) {
            }
            for (int i = 0; i < ops_per_thread; ++i) {
                std::string key =
                    "t" + std::to_string(w) + "." + std::to_string(i);
                Oop node = rt.pnewInstance(fabric, key, "Node");
                node.setI64(value_off, w * 1000000 + i);
                fabric->shardFor(key)->flushObject(node);
            }
        });
    }
    while (ready.load() != kThreads) {
    }
    std::uint64_t t0 = bench::nowNs();
    go.store(true, std::memory_order_release);
    for (auto &t : workers)
        t.join();
    std::uint64_t wall = bench::nowNs() - t0;
    return static_cast<double>(kThreads) * ops_per_thread /
           (static_cast<double>(wall) / 1e9);
}

double
runYcsbA(unsigned shards, int ops_per_thread)
{
    const std::int64_t records = 2048;
    db::ShardedDatabaseConfig cfg;
    cfg.shards = shards;
    cfg.shard.rowRegionSize = 4u << 20;
    cfg.shard.rowsPerTable = records;
    cfg.shard.walShards = 16;
    db::ShardedDatabase database(cfg, drainBoundNvm());

    db::TableSchema schema;
    schema.name = "USERTABLE";
    schema.columns = {{"K", db::DbType::kI64},
                      {"F0", db::DbType::kStr},
                      {"F1", db::DbType::kI64}};
    database.createTable(schema);
    for (std::int64_t k = 0; k < records; ++k) {
        db::DbRecord rec;
        rec.values = {db::DbValue::ofI64(k), db::DbValue::ofStr("init"),
                      db::DbValue::ofI64(0)};
        database.persistRecord("USERTABLE", rec);
    }

    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> workers;
    for (int w = 0; w < kThreads; ++w) {
        workers.emplace_back([&, w]() {
            Rng rng(0xABCDEFull + 7919 * w);
            ready.fetch_add(1);
            while (!go.load(std::memory_order_acquire)) {
            }
            db::DbRecord out;
            for (int i = 0; i < ops_per_thread; ++i) {
                std::int64_t key = static_cast<std::int64_t>(
                    rng.nextBelow(records));
                if (rng.nextBool()) {
                    database.fetchRecord("USERTABLE", key, &out);
                } else {
                    db::DbRecord up;
                    up.values = {db::DbValue::ofI64(key),
                                 db::DbValue::null(),
                                 db::DbValue::ofI64(w * 1000000 + i)};
                    up.dirtyMask = 1ull << 2; // F1 only
                    database.persistRecord("USERTABLE", up);
                }
            }
        });
    }
    while (ready.load() != kThreads) {
    }
    std::uint64_t t0 = bench::nowNs();
    go.store(true, std::memory_order_release);
    for (auto &t : workers)
        t.join();
    std::uint64_t wall = bench::nowNs() - t0;
    return static_cast<double>(kThreads) * ops_per_thread /
           (static_cast<double>(wall) / 1e9) / 1e3;
}

/** One YCSB-A window of the grow-under-load phase. */
struct GrowWindow
{
    double ktxns = 0;
    double p99Us = 0;
};

struct GrowResult
{
    GrowWindow pre, during, post;
    bool consistent = false;
};

/**
 * Part 3: grow 2 → 4 under load. Three measured windows — the
 * 2-member plateau, the migration itself, and the 4-member plateau —
 * then an exactly-once audit of the whole key space.
 */
GrowResult
runGrowUnderLoad(int ops_per_thread)
{
    const std::int64_t records = 2048;
    db::ShardedDatabaseConfig cfg;
    cfg.shards = 2;
    cfg.shard.rowRegionSize = 4u << 20;
    cfg.shard.rowsPerTable = records;
    cfg.shard.walShards = 16;
    db::ShardedDatabase database(cfg, drainBoundNvm());

    db::TableSchema schema;
    schema.name = "USERTABLE";
    schema.columns = {{"K", db::DbType::kI64},
                      {"F0", db::DbType::kStr},
                      {"F1", db::DbType::kI64}};
    database.createTable(schema);
    for (std::int64_t k = 0; k < records; ++k) {
        db::DbRecord rec;
        rec.values = {db::DbValue::ofI64(k), db::DbValue::ofStr("init"),
                      db::DbValue::ofI64(0)};
        database.persistRecord("USERTABLE", rec);
    }

    // Window 0 = 2-member plateau, 1 = during grow, 2 = 4-member
    // plateau. Workers tag each op with the window they saw when it
    // started; the main thread flips the window around the grow call.
    std::atomic<int> window{0};
    std::atomic<bool> stop{false};
    std::array<std::atomic<std::uint64_t>, 3> opsDone{};
    std::vector<std::array<std::vector<std::uint64_t>, 3>> lat(
        kThreads);
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> workers;
    for (int w = 0; w < kThreads; ++w) {
        workers.emplace_back([&, w]() {
            Rng rng(0xE1A571Cull + 7919 * w);
            ready.fetch_add(1);
            while (!go.load(std::memory_order_acquire)) {
            }
            db::DbRecord out;
            while (!stop.load(std::memory_order_acquire)) {
                int ph = window.load(std::memory_order_acquire);
                std::int64_t key = static_cast<std::int64_t>(
                    rng.nextBelow(records));
                std::uint64_t t0 = bench::nowNs();
                if (rng.nextBool()) {
                    database.fetchRecord("USERTABLE", key, &out);
                } else {
                    db::DbRecord up;
                    up.values = {db::DbValue::ofI64(key),
                                 db::DbValue::null(),
                                 db::DbValue::ofI64(w * 1000000 + 1)};
                    up.dirtyMask = 1ull << 2; // F1 only
                    database.persistRecord("USERTABLE", up);
                }
                lat[w][ph].push_back(bench::nowNs() - t0);
                opsDone[ph].fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    while (ready.load() != kThreads) {
    }
    std::uint64_t target =
        static_cast<std::uint64_t>(kThreads) * ops_per_thread;
    std::uint64_t t0 = bench::nowNs();
    go.store(true, std::memory_order_release);
    while (opsDone[0].load(std::memory_order_relaxed) < target)
        std::this_thread::yield();
    std::uint64_t t1 = bench::nowNs();
    window.store(1, std::memory_order_release);
    database.grow(2);
    window.store(2, std::memory_order_release);
    std::uint64_t t2 = bench::nowNs();
    while (opsDone[2].load(std::memory_order_relaxed) < target)
        std::this_thread::yield();
    stop.store(true, std::memory_order_release);
    std::uint64_t t3 = bench::nowNs();
    for (auto &t : workers)
        t.join();

    GrowResult r;
    std::uint64_t walls[3] = {t1 - t0, t2 - t1, t3 - t2};
    GrowWindow *wins[3] = {&r.pre, &r.during, &r.post};
    for (int ph = 0; ph < 3; ++ph) {
        std::vector<std::uint64_t> all;
        for (int w = 0; w < kThreads; ++w)
            all.insert(all.end(), lat[w][ph].begin(),
                       lat[w][ph].end());
        if (walls[ph] > 0)
            wins[ph]->ktxns =
                static_cast<double>(all.size()) /
                (static_cast<double>(walls[ph]) / 1e9) / 1e3;
        if (!all.empty()) {
            std::sort(all.begin(), all.end());
            wins[ph]->p99Us = all[all.size() * 99 / 100] / 1e3;
        }
    }

    // Exactly-once audit: the epoch change must not lose or
    // duplicate a single row.
    r.consistent = database.shardCount() == 4 &&
                   !database.migrating() &&
                   database.rowCount("USERTABLE") ==
                       static_cast<std::size_t>(records);
    db::DbRecord out;
    for (std::int64_t k = 0; r.consistent && k < records; ++k)
        if (!database.fetchRecord("USERTABLE", k, &out))
            r.consistent = false;
    return r;
}

} // namespace

int
main()
{
    int ops = bench::opsFromEnv(600);
    bench::JsonReport json("shard_scaling");
    bench::printHeader(
        "shard_scaling — fabric throughput vs member count",
        "Per-device serialized fence drains (" +
            std::to_string(kDrainNs / 1000) +
            " us); " + std::to_string(kThreads) +
            " threads; route keys spread by the consistent-hash "
            "ring. Expect >=2.5x at 4 members.");

    std::printf("-- pnew + flushObject through a HeapFabric --\n");
    std::printf("%8s %12s %12s\n", "members", "pnew/s", "vs 1");
    double base = 0;
    for (unsigned shards : {1u, 2u, 4u, 8u}) {
        double rate = runPnew(shards, ops);
        if (shards == 1)
            base = rate;
        double speedup = base > 0 ? rate / base : 0.0;
        std::printf("%8u %12.0f %11.2fx\n", shards, rate, speedup);
        json.beginRow()
            .field("part", std::string("pnew"))
            .field("members", static_cast<std::uint64_t>(shards))
            .field("rate_per_s", rate)
            .field("speedup_vs_1", speedup);
    }

    std::printf("\n-- YCSB-A over a pk-partitioned ShardedDatabase --\n");
    std::printf("%8s %12s %12s\n", "members", "ktxn/s", "vs 1");
    base = 0;
    for (unsigned shards : {1u, 2u, 4u, 8u}) {
        double rate = runYcsbA(shards, ops);
        if (shards == 1)
            base = rate;
        double speedup = base > 0 ? rate / base : 0.0;
        std::printf("%8u %12.1f %11.2fx\n", shards, rate, speedup);
        json.beginRow()
            .field("part", std::string("ycsb_a"))
            .field("members", static_cast<std::uint64_t>(shards))
            .field("ktxn_per_s", rate)
            .field("speedup_vs_1", speedup);
    }

    std::printf("\n-- elastic grow 2 -> 4 under YCSB-A load --\n");
    GrowResult g = runGrowUnderLoad(ops);
    std::printf("%10s %10s %10s %12s\n", "window", "ktxn/s",
                "p99(us)", "vs pre-grow");
    struct
    {
        const char *name;
        const GrowWindow *w;
    } wins[] = {{"pre", &g.pre}, {"migrate", &g.during},
                {"post", &g.post}};
    for (const auto &win : wins) {
        double vs = g.pre.ktxns > 0 ? win.w->ktxns / g.pre.ktxns : 0.0;
        std::printf("%10s %10.1f %10.1f %11.2fx\n", win.name,
                    win.w->ktxns, win.w->p99Us, vs);
        json.beginRow()
            .field("part", std::string("grow_under_load"))
            .field("window", std::string(win.name))
            .field("ktxn_per_s", win.w->ktxns)
            .field("p99_us", win.w->p99Us)
            .field("vs_pre", vs);
    }
    json.beginRow()
        .field("part", std::string("grow_under_load"))
        .field("window", std::string("audit"))
        .field("consistent",
               static_cast<std::uint64_t>(g.consistent ? 1 : 0));
    std::printf("exactly-once audit: %s\n",
                g.consistent ? "OK (no lost or duplicated rows)"
                             : "FAILED");
    json.write();
    if (!g.consistent) {
        std::fprintf(stderr,
                     "shard_scaling: grow-under-load lost or "
                     "duplicated rows\n");
        return 1;
    }
    return 0;
}
