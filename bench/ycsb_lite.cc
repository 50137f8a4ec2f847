/**
 * @file
 * YCSB-lite: the classic A/B/C mixes driven through the transaction
 * engine's direct (DBPersistable) path over one persistent_kv-style
 * table, reporting transaction throughput and p99 update-commit
 * latency per thread count.
 *
 *  - A: 50% reads / 50% single-row update transactions
 *  - B: 95% reads /  5% updates
 *  - C: 100% reads
 *
 * Keys are uniform (lite); every update is its own auto-committed
 * transaction, the YCSB convention. The NVM model runs with a fence
 * drain latency and yielding fence waits, so concurrent transactions
 * overlap their persistence stalls the way they would across real
 * cores — the scaling column is the point: workload A at 4 threads
 * should clear 2x the 1-thread baseline. Every commit here is a sync
 * commit, which commits eagerly on its own thread (two fences).
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_common.hh"
#include "db/database.hh"
#include "util/rng.hh"

using namespace espresso;
using namespace espresso::db;

namespace {

/** Key-space size; shrinks with ESPRESSO_BENCH_OPS so the smoke run
 * doesn't pay a full preload per matrix cell. */
std::int64_t
recordCount(int ops)
{
    return ops < 1000 ? 256 : 2048;
}

struct Mix
{
    const char *name;
    double readFrac;
};

constexpr Mix kMixes[] = {
    {"A", 0.50},
    {"B", 0.95},
    {"C", 1.00},
};

struct RunResult
{
    double ktxns = 0;  ///< thousand txns per second
    double p99Us = 0;  ///< p99 update-commit latency, microseconds
    double fencesPerUpdate = 0; ///< persistence-drain economy
};

RunResult
runOnce(const Mix &mix, int threads, int ops)
{
    const std::int64_t records = recordCount(ops);
    DatabaseConfig cfg;
    cfg.rowRegionSize = 4u << 20;
    cfg.rowsPerTable = records;
    cfg.walShards = 16;
    NvmConfig nvm;
    nvm.fenceLatencyNs = 25000; // one modeled NVDIMM write drain
    nvm.fenceWaitYields = true;
    Database database(cfg, nvm);

    TableSchema schema;
    schema.name = "USERTABLE";
    schema.columns = {{"K", DbType::kI64},
                      {"F0", DbType::kStr},
                      {"F1", DbType::kI64}};
    database.createTable(schema);
    for (std::int64_t k = 0; k < records; ++k) {
        DbRecord rec;
        rec.values = {DbValue::ofI64(k), DbValue::ofStr("init"),
                      DbValue::ofI64(0)};
        database.persistRecord("USERTABLE", rec);
    }

    database.device().resetStats();
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::vector<std::uint64_t>> lat(threads);
    std::vector<std::thread> workers;
    for (int w = 0; w < threads; ++w) {
        workers.emplace_back([&, w]() {
            Rng rng(0xC0FFEEull + 7919 * w +
                    static_cast<std::uint64_t>(mix.readFrac * 1000));
            lat[w].reserve(ops);
            ready.fetch_add(1);
            while (!go.load(std::memory_order_acquire)) {
            }
            DbRecord out;
            for (int i = 0; i < ops; ++i) {
                std::int64_t key =
                    static_cast<std::int64_t>(rng.nextBelow(records));
                if (rng.nextDouble() < mix.readFrac) {
                    database.fetchRecord("USERTABLE", key, &out);
                } else {
                    DbRecord up;
                    up.values = {DbValue::ofI64(key), DbValue::null(),
                                 DbValue::ofI64(w * 1000000 + i)};
                    up.dirtyMask = 1ull << 2; // F1 only
                    std::uint64_t t0 = bench::nowNs();
                    database.persistRecord("USERTABLE", up);
                    lat[w].push_back(bench::nowNs() - t0);
                }
            }
        });
    }
    while (ready.load() != threads) {
    }
    std::uint64_t t0 = bench::nowNs();
    go.store(true, std::memory_order_release);
    for (auto &t : workers)
        t.join();
    std::uint64_t wall = bench::nowNs() - t0;

    RunResult r;
    double total_ops = static_cast<double>(threads) * ops;
    r.ktxns = total_ops / (static_cast<double>(wall) / 1e9) / 1e3;
    std::vector<std::uint64_t> all;
    for (auto &v : lat)
        all.insert(all.end(), v.begin(), v.end());
    if (!all.empty()) {
        std::sort(all.begin(), all.end());
        r.p99Us = all[all.size() * 99 / 100] / 1e3;
    }
    if (!all.empty()) {
        r.fencesPerUpdate =
            static_cast<double>(
                database.device().stats().fences.load()) /
            static_cast<double>(all.size());
    }
    return r;
}

} // namespace

int
main()
{
    int ops = bench::opsFromEnv(10000);
    bench::printHeader(
        "ycsb_lite — YCSB A/B/C over the transaction engine",
        "Uniform keys over " + std::to_string(recordCount(ops)) +
            " rows; every update is one auto-committed transaction "
            "(hardware threads here: " +
            std::to_string(std::thread::hardware_concurrency()) + ")");

    bench::JsonReport json("ycsb_lite");
    std::printf("%4s %8s %10s %10s %10s %9s\n", "mix", "threads",
                "ktxn/s", "p99(us)", "fences/up", "vs 1T");
    for (const Mix &mix : kMixes) {
        double base = 0;
        for (int threads : {1, 2, 4, 8}) {
            RunResult r = runOnce(mix, threads, ops);
            if (threads == 1)
                base = r.ktxns;
            double vs = base > 0 ? r.ktxns / base : 0.0;
            std::printf("%4s %8d %10.1f %10.1f %10.2f %8.2fx\n",
                        mix.name, threads, r.ktxns, r.p99Us,
                        r.fencesPerUpdate, vs);
            json.beginRow()
                .field("mix", std::string(mix.name))
                .field("threads", static_cast<std::uint64_t>(threads))
                .field("ktxn_per_s", r.ktxns)
                .field("p99_us", r.p99Us)
                .field("fences_per_update", r.fencesPerUpdate)
                .field("vs_1t", vs);
        }
        std::printf("\n");
    }
    json.write();
    return 0;
}
