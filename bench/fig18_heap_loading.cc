/**
 * @file
 * Figure 18: heap loading time vs object count under user-guaranteed
 * (UG) and zeroing safety.
 *
 * Paper: heaps holding 0.2M..2M objects of 20 different Klasses.
 * UG loading stays flat (it reinitializes Klass images in place, so
 * cost tracks #Klasses); zeroing grows linearly (it scans every
 * object to nullify out-pointers). At 2M objects the paper measures
 * ~72.76 ms for zeroing — trivial next to JVM warm-up.
 *
 * The "unclean UG" column loads after a power failure instead of a
 * clean detach: the heap was attached and allocating when it was
 * crashed, so the load also repairs the registered TLAB chunks. It
 * must stay flat too, since repair never reads outside them.
 */

#include <algorithm>

#include "bench/bench_common.hh"
#include "core/espresso.hh"

using namespace espresso;

namespace {
constexpr int kKlasses = 20;
} // namespace

int
main()
{
    bench::printHeader(
        "Figure 18",
        "Heap loading time vs object count (20 Klasses).\nPaper "
        "shape: UG flat (O(#Klasses)), also after a power failure;\n"
        "Zeroing linear (O(#objects)).");

    std::printf("%12s %16s %20s %18s\n", "objects", "UG load (ms)",
                "unclean UG load (ms)", "Zeroing load (ms)");

    // ESPRESSO_BENCH_OPS (bench-smoke) caps the per-point object count.
    const std::size_t max_objects =
        static_cast<std::size_t>(bench::opsFromEnv(2000000));
    for (int millions = 2; millions <= 20; millions += 3) {
        std::size_t objects =
            std::min<std::size_t>(millions * 100000ull, max_objects);
        EspressoRuntime rt;
        for (int k = 0; k < kKlasses; ++k) {
            rt.define({"Load" + std::to_string(k),
                       "",
                       {{"a", FieldType::kI64},
                        {"b", FieldType::kRef}},
                       false});
        }
        PjhConfig cfg;
        cfg.dataSize = alignUp(objects * 32 + (8u << 20), 64u << 10);
        PjhHeap *heap = rt.heaps().createHeap("fig18", cfg);

        // Populate, chaining objects so the zeroing scan must walk
        // real reference fields.
        Oop prev;
        std::uint32_t b_off = rt.fieldOffset("Load0", "b");
        for (std::size_t i = 0; i < objects; ++i) {
            Oop o = rt.pnewInstance(
                heap, "Load" + std::to_string(i % kKlasses));
            o.setRef(b_off, prev);
            prev = o;
        }
        heap->setRoot("chain", prev);

        rt.heaps().detachHeap("fig18");
        PjhHeap *ug = rt.heaps().loadHeap(
            "fig18", SafetyLevel::kUserGuaranteed);
        std::uint64_t ug_ns = ug->stats().lastLoadNs;

        // Resume the workload for one object per Klass (registering a
        // TLAB chunk), then lose power.
        for (int k = 0; k < kKlasses; ++k) {
            Oop o = rt.pnewInstance(ug, "Load" + std::to_string(k));
            o.setRef(b_off, prev);
            ug->flushObject(o);
            prev = o;
        }
        ug->setRoot("chain", prev);
        rt.heaps().crashHeap("fig18");
        PjhHeap *unclean = rt.heaps().loadHeap(
            "fig18", SafetyLevel::kUserGuaranteed);
        std::uint64_t unclean_ns = unclean->stats().lastLoadNs;

        rt.heaps().detachHeap("fig18");
        PjhHeap *zero =
            rt.heaps().loadHeap("fig18", SafetyLevel::kZeroing);
        std::uint64_t zero_ns = zero->stats().lastLoadNs;

        std::printf("%12zu %16.3f %20.3f %18.2f\n", objects, ug_ns / 1e6,
                    unclean_ns / 1e6, zero_ns / 1e6);
    }
    return 0;
}
