/**
 * @file
 * pjh_kv — Persistent Java Objects on one PJH, the paper's own path.
 *
 * 8,192 named roots ("k<i>"), each an Entry{key, ver, payload} whose
 * payload is a persistent long[8]. Three mutator threads run 50/50
 * operations inside a MutatorSection:
 *   read:  getRoot + field reads, checking key, version and payload;
 *   write: pnewI64Array(8) + pnewInstance, two flushObject, setRoot.
 * Keys are partitioned by thread (key % 3), so each thread knows the
 * version every read must see. A fourth thread runs a concurrent
 * (SATB) collection every kGcEveryBytes of allocation, counted from
 * PjhStats::bytesAllocated — a trigger that depends on the work done,
 * not on how full the heap happens to look.
 *
 * Drives core (pnew), pjh allocation/roots/flush and pjh GC; db and net
 * do nothing here.
 */

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <thread>

#include "core/espresso.hh"
#include "trace.hh"
#include "workloads.hh"

namespace espresso {
namespace bench {

namespace {

constexpr unsigned kMutators = 3;
/** One GC worker. With two, compaction cuts the heap into two slices
 * and packs each inside its own span; here the live set (each key's
 * newest version) sits near the top, so the upper slice barely moves,
 * the gap below it is plugged with a filler that bump allocation never
 * reuses, and the heap fills after about twelve cycles. */
constexpr unsigned kGcThreads = 1;
constexpr std::uint64_t kKeys = 8192;
constexpr std::uint64_t kPayloadWords = 8;
constexpr std::size_t kDataBytes = 128u << 20;
constexpr std::size_t kNameTableEntries = 16384;
constexpr std::size_t kTlabBytes = 64u << 10;
constexpr std::uint64_t kGcEveryBytes = 32u << 20;

/** Fixed offered rate (ops/s): about 40% of the saturation throughput
 * measured on a 4-vCPU Xeon VM when this benchmark was defined. Never
 * recalibrated at run time. */
constexpr double kOpenRate = 135000;

const char *const kHeapName = "pjh_kv";

std::int64_t
payloadWord(std::uint64_t key, std::int64_t ver, std::uint64_t j)
{
    std::uint64_t z = key * 0x9e3779b97f4a7c15ull +
                      static_cast<std::uint64_t>(ver) * 0xbf58476d1ce4e5b9ull +
                      j;
    z ^= z >> 31;
    return static_cast<std::int64_t>(z * 0x94d049bb133111ebull);
}

/** One collection's stats, as the collecting thread saw them. */
struct GcCycle
{
    std::uint64_t endNs;
    double pauseMs, concMarkMs, remarkMs, compactMs;
    std::uint64_t marked, floating, shaded;
    double reclaimedBytes;
    double spaceAmp; ///< heap used before / after the cycle
};

class KvHeap
{
  public:
    explicit KvHeap(Report &rep) : rep_(rep), rt_(runtimeConfig())
    {
        rt_.define({"Entry",
                    "",
                    {{"key", FieldType::kI64},
                     {"ver", FieldType::kI64},
                     {"payload", FieldType::kRef}},
                    false});
        keyOff_ = rt_.fieldOffset("Entry", "key");
        verOff_ = rt_.fieldOffset("Entry", "ver");
        payloadOff_ = rt_.fieldOffset("Entry", "payload");
        PjhConfig cfg;
        cfg.dataSize = kDataBytes;
        cfg.nameTableCapacity = kNameTableEntries;
        cfg.tlabSize = kTlabBytes;
        heap_ = rt_.heaps().createHeap(kHeapName, cfg);
        heap_->setGcThreads(kGcThreads);
        heap_->setGcConcurrent(true);
        ver_.assign(kKeys, 0);
        for (std::uint64_t k = 0; k < kKeys; ++k) {
            names_.push_back("k" + std::to_string(k));
            write(k);
        }
    }

    static EspressoConfig
    runtimeConfig()
    {
        EspressoConfig c;
        c.nvm = pinnedNvm();
        return c;
    }

    /** A key owned by mutator @p t, uniform over its share. */
    static std::uint64_t
    keyFor(unsigned t, unsigned mutators, Rng &rng)
    {
        std::uint64_t share = (kKeys - t + mutators - 1) / mutators;
        return t + mutators * rng.nextBelow(share);
    }

    OpOutcome
    op(unsigned t, unsigned mutators, Rng &rng)
    {
        std::uint64_t key = keyFor(t, mutators, rng);
        if (rng.nextBool()) {
            read(key);
            return {OpKind::kRead, true};
        }
        write(key);
        return {OpKind::kWrite, true};
    }

    void
    read(std::uint64_t key)
    {
        std::optional<PjhHeap::MutatorSection> section;
        {
            Span s("pjh.section_enter");
            section.emplace(*heap_);
        }
        Oop o;
        {
            Span s("pjh.get_root");
            o = heap_->getRoot(names_[key]);
        }
        checkEntry(key, o, ver_[key]);
    }

    void
    write(std::uint64_t key)
    {
        std::int64_t ver = ver_[key] + 1;
        {
            std::optional<PjhHeap::MutatorSection> section;
            {
                Span s("pjh.section_enter");
                section.emplace(*heap_);
            }
            Oop arr, o;
            {
                Span s("core.pnew");
                arr = rt_.pnewI64Array(heap_, kPayloadWords);
            }
            for (std::uint64_t j = 0; j < kPayloadWords; ++j)
                storeWord(arr.elemAddr(j, kWordSize),
                          static_cast<Word>(payloadWord(key, ver, j)));
            {
                Span s("core.pnew");
                o = rt_.pnewInstance(heap_, "Entry");
            }
            o.setI64(keyOff_, static_cast<std::int64_t>(key));
            o.setI64(verOff_, ver);
            {
                Span s("pjh.store_ref");
                heap_->storeRef(o, payloadOff_, arr);
            }
            {
                Span s("pjh.flush_object");
                heap_->flushObject(arr);
            }
            {
                Span s("pjh.flush_object");
                heap_->flushObject(o);
            }
            {
                Span s("pjh.set_root");
                heap_->setRoot(names_[key], o);
            }
        }
        ver_[key] = ver;
        userBytes_.fetch_add((kPayloadWords + 2) * kWordSize,
                             std::memory_order_relaxed);
    }

    /** Every root against the versions the owners acknowledged. */
    void
    verifyAll(const char *when)
    {
        for (std::uint64_t k = 0; k < kKeys; ++k) {
            PjhHeap::MutatorSection section(*heap_);
            checkEntry(k, heap_->getRoot(names_[k]), ver_[k], when);
        }
    }

    /** Power-fail the heap and reload it (user-guaranteed safety). */
    void
    crashAndReload()
    {
        rt_.heaps().crashHeap(kHeapName);
        heap_ = rt_.heaps().loadHeap(kHeapName, SafetyLevel::kUserGuaranteed);
    }

    /** One collection from the calling thread. */
    GcCycle
    collect()
    {
        double before = static_cast<double>(heap_->dataUsed());
        {
            Span s("pjh.gc.collect");
            heap_->collect(&rt_.heap());
        }
        double after = static_cast<double>(heap_->dataUsed());
        const PjhStats &st = heap_->stats();
        GcCycle c;
        c.endNs = nowNs();
        c.pauseMs = static_cast<double>(st.lastGcPauseNs) / 1e6;
        c.concMarkMs = static_cast<double>(st.lastGcConcMarkNs) / 1e6;
        c.remarkMs = static_cast<double>(st.lastGcRemarkNs) / 1e6;
        c.compactMs = static_cast<double>(st.lastGcCompactNs) / 1e6;
        c.marked = st.lastGcMarked;
        c.floating = st.lastGcFloating;
        c.shaded = st.lastGcShaded;
        c.reclaimedBytes = std::max(0.0, before - after);
        c.spaceAmp = after > 0 ? before / after : 0;
        return c;
    }

    PjhHeap &heap() { return *heap_; }
    std::uint64_t userBytes() const { return userBytes_.load(); }

  private:
    void
    checkEntry(std::uint64_t key, Oop o, std::int64_t want_ver,
               const char *when = "read")
    {
        const char *bad = entryFault(key, o, want_ver);
        if (bad != nullptr)
            rep_.fail(std::string(when) + ": root " + names_[key] + " " + bad +
                      " (acknowledged version " + std::to_string(want_ver) +
                      ")");
    }

    /** What is wrong with root @p key's entry @p o, or null. */
    const char *
    entryFault(std::uint64_t key, Oop o, std::int64_t want_ver) const
    {
        if (o.isNull())
            return "missing";
        if (o.getI64(keyOff_) != static_cast<std::int64_t>(key))
            return "holds another key";
        std::int64_t ver = o.getI64(verOff_);
        if (ver != want_ver)
            return "holds another version";
        Oop arr(o.getRef(payloadOff_));
        if (arr.isNull() || arr.arrayLength() != kPayloadWords)
            return "lost its payload";
        for (std::uint64_t j = 0; j < kPayloadWords; ++j)
            if (static_cast<std::int64_t>(loadWord(arr.elemAddr(
                    j, kWordSize))) != payloadWord(key, ver, j))
                return "has a corrupt payload";
        return nullptr;
    }

    Report &rep_;
    EspressoRuntime rt_;
    PjhHeap *heap_ = nullptr;
    std::uint32_t keyOff_ = 0, verOff_ = 0, payloadOff_ = 0;
    std::vector<std::string> names_;
    /** Acknowledged version per key; written only by the key's owner
     * thread (or the main thread while no mutator runs). */
    std::vector<std::int64_t> ver_;
    std::atomic<std::uint64_t> userBytes_{0};
};

/** The background collector: one concurrent cycle per kGcEveryBytes
 * allocated. */
class Collector
{
  public:
    explicit Collector(KvHeap &kv) : kv_(kv)
    {
        thread_ = std::thread([this] { loop(); });
    }

    ~Collector() { stop(); }

    Collector(const Collector &) = delete;
    Collector &operator=(const Collector &) = delete;

    void
    stop()
    {
        stop_.store(true);
        if (thread_.joinable())
            thread_.join();
    }

    /** Cycles that ended at or after @p since (call after stop()). */
    std::vector<GcCycle>
    cyclesSince(std::uint64_t since) const
    {
        std::vector<GcCycle> out;
        for (const GcCycle &c : cycles_)
            if (c.endNs >= since)
                out.push_back(c);
        return out;
    }

  private:
    void
    loop()
    {
        const auto &allocated = kv_.heap().stats().bytesAllocated;
        std::uint64_t last = allocated.load();
        while (!stop_.load()) {
            std::uint64_t now = allocated.load();
            if (now - last >= kGcEveryBytes) {
                last = now;
                cycles_.push_back(kv_.collect());
            } else {
                std::this_thread::sleep_for(std::chrono::microseconds(100));
            }
        }
    }

    KvHeap &kv_;
    std::vector<GcCycle> cycles_; ///< written by thread_ only
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

void
emitGc(Report &rep, const std::vector<GcCycle> &cycles)
{
    double n = static_cast<double>(cycles.size());
    double conc = 0, remark = 0, compact = 0, reclaimed = 0, amp = 0;
    double marked = 0, floating = 0, shaded = 0;
    std::vector<double> pauses;
    for (const GcCycle &c : cycles) {
        conc += c.concMarkMs;
        remark += c.remarkMs;
        compact += c.compactMs;
        reclaimed += c.reclaimedBytes;
        amp += c.spaceAmp;
        marked += static_cast<double>(c.marked);
        floating += static_cast<double>(c.floating);
        shaded += static_cast<double>(c.shaded);
        pauses.push_back(c.pauseMs);
    }
    rep.set("pjh.gc.cycles", n, "count");
    rep.set("pjh.gc.pause_ms_p50", median(pauses), "ms");
    rep.set("pjh.gc.pause_ms_max",
            pauses.empty() ? 0 : *std::max_element(pauses.begin(), pauses.end()),
            "ms");
    rep.set("pjh.gc.conc_mark_ms", ratio(conc, n), "ms/cycle");
    rep.set("pjh.gc.remark_ms", ratio(remark, n), "ms/cycle");
    rep.set("pjh.gc.compact_ms", ratio(compact, n), "ms/cycle");
    rep.set("pjh.gc.marked", ratio(marked, n), "objects/cycle");
    rep.set("pjh.gc.floating", ratio(floating, n), "objects/cycle");
    rep.set("pjh.gc.shaded", ratio(shaded, n), "objects/cycle");
    rep.set("pjh.gc.reclaimed_bytes", ratio(reclaimed, n), "B/cycle");
    rep.set("pjh.gc.space_amp", ratio(amp, n), "ratio");
}

void
pinConfig(Report &rep)
{
    rep.config("pjh_kv.mutators", kMutators);
    rep.config("pjh_kv.keys", static_cast<double>(kKeys));
    rep.config("pjh_kv.payload_words", static_cast<double>(kPayloadWords));
    rep.config("pjh_kv.data_bytes", static_cast<double>(kDataBytes));
    rep.config("pjh_kv.name_table_entries",
               static_cast<double>(kNameTableEntries));
    rep.config("pjh_kv.tlab_bytes", static_cast<double>(kTlabBytes));
    rep.config("pjh_kv.gc_threads", kGcThreads);
    rep.config("pjh_kv.gc_concurrent", "true");
    rep.config("pjh_kv.gc_every_bytes", static_cast<double>(kGcEveryBytes));
    rep.config("pjh_kv.open_rate_ops_per_s", kOpenRate);
}

} // namespace

void
runPjhKv(const RunOptions &opt, Report &rep)
{
    pinConfig(rep);
    std::unique_ptr<KvHeap> kv = timedSetUp<KvHeap>(
        opt, rep, [&] { return std::make_unique<KvHeap>(rep); });

    Collector gc(*kv);
    OpFn op = [&](unsigned t, Rng &rng) {
        return kv->op(t, kMutators, rng);
    };
    PhaseFn phase = [&](double seconds, bool open) {
        return open ? runOpenLoop(kMutators, kOpenRate, seconds, opt.seed, op)
                    : runClosedLoop(kMutators, seconds, opt.seed, op);
    };
    std::uint64_t allocs0 = 0, bytes0 = 0, user0 = 0, measure_start = 0;
    NvmCounts nvm0;
    ServiceRun m = measureService(opt, phase, [&] {
        measure_start = nowNs();
        allocs0 = kv->heap().stats().allocations.load();
        bytes0 = kv->heap().stats().bytesAllocated.load();
        user0 = kv->userBytes();
        nvm0 = NvmCounts::of({&kv->heap().device()});
    });
    gc.stop();
    NvmCounts nvm = NvmCounts::of({&kv->heap().device()}) - nvm0;
    std::uint64_t allocs = kv->heap().stats().allocations.load() - allocs0;
    std::uint64_t bytes = kv->heap().stats().bytesAllocated.load() - bytes0;

    PhaseResult all = m.all();
    double writes = static_cast<double>(all.completed(OpKind::kWrite));

    emitService(rep, m.open, m.closed, all);
    emitNvm(rep, nvm, all.attempted, kv->userBytes() - user0, all.seconds());
    rep.set("pjh.allocs_per_write", ratio(static_cast<double>(allocs), writes),
            "allocs/write");
    rep.set("pjh.bytes_allocated_per_write",
            ratio(static_cast<double>(bytes), writes), "B/write");
    emitGc(rep, gc.cyclesSince(measure_start));
    if (opt.trace)
        emitTrace(rep, all.attempted, throughput(m.closed), m.untracedPeak);

    // One more cycle with the mutators stopped: its fence count is a
    // property of the live set, free of mutator interleaving.
    NvmCounts f0 = NvmCounts::of({&kv->heap().device()});
    kv->collect();
    rep.set("pjh.gc.fences_per_cycle",
            static_cast<double>(
                (NvmCounts::of({&kv->heap().device()}) - f0).fences),
            "fences/cycle");

    kv->verifyAll("after run");
    kv->crashAndReload();
    kv->verifyAll("after crash");
}

Counters
countersPjhKv(Report &rep)
{
    KvHeap kv(rep);
    NvmCounts n0 = NvmCounts::of({&kv.heap().device()});
    std::uint64_t a0 = kv.heap().stats().allocations.load();
    Rng rng(42);
    constexpr std::uint64_t kOps = 4000;
    std::uint64_t writes = 0;
    for (std::uint64_t i = 0; i < kOps; ++i)
        writes += kv.op(0, 1, rng).kind == OpKind::kWrite ? 1 : 0;
    NvmCounts n = NvmCounts::of({&kv.heap().device()}) - n0;
    kv.verifyAll("counter pass");
    return {{"nvm.fences_per_op", static_cast<double>(n.fences) / kOps},
            {"nvm.lines_flushed_per_op", static_cast<double>(n.lines) / kOps},
            {"pjh.allocs_per_write",
             static_cast<double>(kv.heap().stats().allocations.load() - a0) /
                 static_cast<double>(writes)}};
}

} // namespace bench
} // namespace espresso
