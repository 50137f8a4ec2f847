/**
 * @file
 * google-benchmark microbenchmarks of the substrate primitives:
 * NVM flush/fence and power cut, crash-consistent pnew allocation vs
 * volatile new,
 * the §3.5 flush APIs, and undo-log transactions. These calibrate
 * the cost model behind the figure benchmarks.
 */

#include <benchmark/benchmark.h>

#include "collections/pbox.hh"
#include "core/espresso.hh"
#include "util/rng.hh"

using namespace espresso;

namespace {

struct Fixture
{
    Fixture()
    {
        rt.define({"Node", "",
                   {{"value", FieldType::kI64},
                    {"next", FieldType::kRef}},
                   false});
        PjhConfig cfg;
        cfg.dataSize = 512u << 20;
        heap = rt.heaps().createHeap("bench", cfg);
        valueOff = rt.fieldOffset("Node", "value");
    }

    EspressoRuntime rt;
    PjhHeap *heap = nullptr;
    std::uint32_t valueOff = 0;
};

Fixture &
fixture()
{
    static Fixture f;
    return f;
}

void
BM_NvmFlushFence(benchmark::State &state)
{
    NvmDevice dev(1u << 20);
    std::uint64_t off = 0;
    for (auto _ : state) {
        dev.base()[off % (1u << 20)] = 1;
        dev.persist(dev.toAddr(off % (1u << 20)), 8);
        off += 64;
    }
    state.SetItemsProcessed(state.iterations());
}

/**
 * One power cut of a device whose every page was written once, with
 * 16 lines written since the previous cut. Args: device MiB, then
 * crash mode (0 discard unflushed, 1 evict random lines).
 */
void
BM_NvmCrash(benchmark::State &state)
{
    const std::size_t size = static_cast<std::size_t>(state.range(0)) << 20;
    const CrashMode mode = state.range(1) ? CrashMode::kEvictRandomLines
                                          : CrashMode::kDiscardUnflushed;
    NvmDevice dev(size);
    for (std::size_t off = 0; off < size; off += 4096)
        dev.base()[off] = 1;
    dev.shutdownClean();
    Rng rng(1);
    std::uint64_t seed = 0;
    for (auto _ : state) {
        state.PauseTiming();
        for (int i = 0; i < 16; ++i) {
            std::size_t line = rng.nextBelow(size / kCacheLineSize);
            dev.base()[line * kCacheLineSize] += 1;
        }
        state.ResumeTiming();
        dev.crash(mode, ++seed);
        benchmark::DoNotOptimize(dev.base());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_VolatileNew(benchmark::State &state)
{
    Fixture &f = fixture();
    for (auto _ : state) {
        Oop o = f.rt.newInstance("Node");
        benchmark::DoNotOptimize(o);
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_PersistentPnew(benchmark::State &state)
{
    Fixture &f = fixture();
    for (auto _ : state) {
        Oop o = f.rt.pnewInstance(f.heap, "Node");
        benchmark::DoNotOptimize(o);
        if (f.heap->dataUsed() + (1u << 20) > f.heap->dataCapacity()) {
            state.PauseTiming();
            f.heap->collect(&f.rt.heap());
            state.ResumeTiming();
        }
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_FlushField(benchmark::State &state)
{
    Fixture &f = fixture();
    Oop o = f.rt.pnewInstance(f.heap, "Node");
    std::int64_t v = 0;
    for (auto _ : state) {
        o.setI64(f.valueOff, ++v);
        f.heap->flushField(o, f.valueOff);
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_UndoLogTransaction(benchmark::State &state)
{
    Fixture &f = fixture();
    PBox box = PBox::create(f.heap, 0);
    std::int64_t v = 0;
    for (auto _ : state)
        box.set(++v);
    state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_NvmFlushFence);
BENCHMARK(BM_NvmCrash)->ArgsProduct({{1, 64, 256}, {0, 1}});
BENCHMARK(BM_VolatileNew);
BENCHMARK(BM_PersistentPnew);
BENCHMARK(BM_FlushField);
BENCHMARK(BM_UndoLogTransaction);

} // namespace

BENCHMARK_MAIN();
