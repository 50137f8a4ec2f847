/**
 * @file
 * Multi-threaded pnew scaling: T threads bump-allocate into one PJH
 * through TLAB slots (one per thread up to 64, each with its own
 * chunk carved from the shared top under the heap lock) and the
 * figure reports allocation throughput per thread count against the
 * single-threaded baseline.
 *
 * Expected shape: near-linear scaling while cores last — each pnew
 * takes only its own slot's uncontended lock, the only shared work
 * per TLAB refill is one short critical section, and every
 * allocation's flush/fence traffic stays thread-local. On a
 * single-core host the sweep still runs but reports ~1x.
 */

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_common.hh"
#include "core/espresso.hh"

using namespace espresso;

namespace {

constexpr const char *kBenchKlass = "BenchNode";

/** One timed run: @p threads workers, @p ops allocations each.
 * Returns wall nanoseconds. */
std::uint64_t
runOnce(int threads, int ops)
{
    EspressoRuntime rt;
    rt.define(KlassDef{kBenchKlass,
                       "",
                       {{"a", FieldType::kI64},
                        {"b", FieldType::kI64},
                        {"c", FieldType::kI64}},
                       false});
    std::uint32_t off = rt.fieldOffset(kBenchKlass, "a");

    // Size the heap so the sweep never triggers a (stop-the-world)
    // collection mid-run: ~40B per object plus TLAB tails.
    std::size_t need = static_cast<std::size_t>(threads) * ops * 64 +
                       (threads + 4) * (64u << 10);
    if (need < (16u << 20))
        need = 16u << 20;
    PjhHeap *heap = rt.heaps().createHeap("mt", need);

    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> workers;
    for (int w = 0; w < threads; ++w) {
        workers.emplace_back([&, w]() {
            ready.fetch_add(1);
            while (!go.load(std::memory_order_acquire)) {
            }
            for (int i = 0; i < ops; ++i) {
                Oop o = rt.pnewInstance(heap, kBenchKlass);
                o.setI64(off, w * 1000000 + i);
                heap->flushObject(o);
            }
        });
    }
    while (ready.load() != threads) {
    }
    std::uint64_t t0 = bench::nowNs();
    go.store(true, std::memory_order_release);
    for (auto &t : workers)
        t.join();
    return bench::nowNs() - t0;
}

} // namespace

int
main()
{
    int ops = bench::opsFromEnv(200000);
    bench::printHeader(
        "mt_alloc — TLAB allocation scaling",
        "T threads pnew+flush into one PJH; throughput should scale "
        "near-linearly in cores (hardware threads here: " +
            std::to_string(std::thread::hardware_concurrency()) + ")");

    bench::JsonReport json("mt_alloc");
    std::printf("%8s %12s %14s %10s\n", "threads", "ops", "Mops/s",
                "scaling");
    double base_mops = 0;
    for (int threads : {1, 2, 4, 8}) {
        std::uint64_t ns = runOnce(threads, ops);
        double total_ops = static_cast<double>(threads) * ops;
        double mops = total_ops / (static_cast<double>(ns) / 1e9) / 1e6;
        if (threads == 1)
            base_mops = mops;
        double scaling = base_mops > 0 ? mops / base_mops : 0.0;
        std::printf("%8d %12.0f %14.2f %9.2fx\n", threads, total_ops,
                    mops, scaling);
        json.beginRow()
            .field("threads", static_cast<std::uint64_t>(threads))
            .field("ops", total_ops)
            .field("mops_per_s", mops)
            .field("scaling_vs_1t", scaling);
    }
    json.write();
    return 0;
}
