#include "pjh/pjh_heap.hh"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>
#include <unordered_map>
#include <utility>

#include "pjh/pjh_gc.hh"
#include "pjh/pjh_recovery.hh"
#include "util/env.hh"
#include "util/logging.hh"

namespace espresso {

namespace {

/** Zero-field class used to plug sub-array-sized allocation holes. */
constexpr const char *kFillerClassName = "espresso.Filler";

/** Variable-length filler covering TLAB tails and repaired gaps.
 * Deliberately non-canonical so heap walks can tell it apart from
 * user "[J" arrays. */
constexpr const char *kFillerArrayClassName = "espresso.Filler[]";

// Every allocation covers at least an instance header, which is what
// lets tail repair assume any gap it must plug can hold a filler
// header (see plugFillerGap).
static_assert(ObjectLayout::kHeaderSize >= 2 * kWordSize,
              "filler headers need mark + klass words");
static_assert(ObjectLayout::kArrayHeaderSize ==
                  ObjectLayout::kHeaderSize + kWordSize,
              "gap classification below assumes one length word");

std::atomic<std::uint64_t> g_heapSerial{1};

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

unsigned
gcThreadsFromEnv()
{
    return envUnsigned("ESPRESSO_GC_THREADS", 1);
}

/** RAII allocation-epoch bracket (see allocGuardEnter). */
struct AllocGuard
{
    explicit AllocGuard(PjhHeap &h) : h_(h) { h_.allocGuardEnter(); }
    ~AllocGuard() { h_.allocGuardExit(); }
    AllocGuard(const AllocGuard &) = delete;
    AllocGuard &operator=(const AllocGuard &) = delete;

    PjhHeap &h_;
};

/**
 * Per-thread re-entrancy depths for the allocation-epoch guard,
 * keyed by heap. A thread already inside its own epoch (a
 * MutatorSection, or a guarded op calling another) must not back out
 * at a safepoint request: the collector's drain is waiting for *this*
 * thread, so backing out and spinning would deadlock. A slot is live
 * only while its depth is non-zero, so a destroyed heap can never be
 * observed through a stale slot.
 */
struct GuardTls
{
    static constexpr int kSlots = 8;
    const void *heap[kSlots] = {};
    unsigned depth[kSlots] = {};
};
thread_local GuardTls t_guardTls;

unsigned *
guardDepthFind(const void *h)
{
    for (int i = 0; i < GuardTls::kSlots; ++i)
        if (t_guardTls.heap[i] == h && t_guardTls.depth[i] > 0)
            return &t_guardTls.depth[i];
    return nullptr;
}

unsigned &
guardDepthClaim(const void *h)
{
    for (int i = 0; i < GuardTls::kSlots; ++i)
        if (t_guardTls.heap[i] == h && t_guardTls.depth[i] > 0)
            return t_guardTls.depth[i];
    for (int i = 0; i < GuardTls::kSlots; ++i) {
        if (t_guardTls.depth[i] == 0) {
            t_guardTls.heap[i] = h;
            return t_guardTls.depth[i];
        }
    }
    panic("PJH: guard sections nested across too many heaps");
}

/**
 * Header validation for heap walks: the Klass segment, the remap
 * delta (stored addresses + delta = current ones; 0 once attached)
 * and the limit no object may reach past.
 */
struct ObjectParser
{
    Addr segBase;
    std::size_t segSize;
    std::ptrdiff_t delta;
    Addr limit;

    /** Footprint of the object at @p a, or 0 when it does not parse:
     * a bad header, or a size of 0 or one reaching past limit. */
    std::size_t
    sizeAt(Addr a) const
    {
        const std::size_t room = a < limit ? limit - a : 0;
        Oop o(a);
        if (room < ObjectLayout::kHeaderSize ||
            !pjhRawHeaderValid(o, segBase, segSize, delta))
            return 0;
        // Bound an array's length before its size is computed, so a
        // garbage one cannot wrap into a small size.
        const KlassImage *img = pjhRawImage(o, delta);
        if (img->isArray() &&
            (room < ObjectLayout::kArrayHeaderSize ||
             o.arrayLength() > (room - ObjectLayout::kArrayHeaderSize) /
                                   elementSize(img->elemType())))
            return 0;
        std::size_t size = pjhRawObjectSize(o, delta);
        return size <= room ? size : 0;
    }
};

/** Where a walk stopped: the first object boundary at or past its
 * stop address, or (parsed false) the object that did not parse. */
struct WalkEnd
{
    Addr at = kNullAddr;
    bool parsed = false;
};

/**
 * The heap loop: from @p a, a proven or guessed object start, call
 * @p fn on each object up to the first boundary at or past @p stop.
 * An object's size is read before @p fn runs, so @p fn may rewrite
 * its header.
 */
template <typename Fn>
WalkEnd
walkObjects(const ObjectParser &p, Addr a, Addr stop, Fn &&fn)
{
    while (a < stop) {
        std::size_t size = p.sizeAt(a);
        if (size == 0)
            return {a, false};
        fn(Oop(a));
        a += size;
    }
    return {a, true};
}

/** One range of a zeroing load's walk, as a worker left it. */
struct RangeScan
{
    Addr start = kNullAddr; ///< guessed first object; kNullAddr: none
    WalkEnd end;
    std::vector<Addr> slots; ///< out-of-heap reference slots, ascending
};

/** CPUs the calling thread may run on; threads it starts inherit
 * the mask. */
unsigned
usableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return 1;
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

} // namespace

PjhHeap::PjhHeap(NvmDevice *device, KlassRegistry *registry)
    : dev_(device), registry_(registry),
      serial_(g_heapSerial.fetch_add(1, std::memory_order_relaxed))
{
    gcThreads_.store(gcThreadsFromEnv(), std::memory_order_relaxed);
    gcConcurrent_.store(envFlag("ESPRESSO_GC_CONCURRENT", false),
                        std::memory_order_relaxed);
}

void
PjhHeap::setGcThreads(unsigned n)
{
    if (n == 0)
        n = gcThreadsFromEnv(); // restore the default
    if (n > PjhMetadata::kMaxGcSlices)
        n = static_cast<unsigned>(PjhMetadata::kMaxGcSlices);
    gcThreads_.store(n, std::memory_order_relaxed);
}

void
PjhHeap::enterBracket(std::atomic<std::uint32_t> &in_flight,
                      bool reentrant) const
{
    for (;;) {
        in_flight.fetch_add(1, std::memory_order_seq_cst);
        if (reentrant || gcPhase_.load(std::memory_order_seq_cst) !=
                             static_cast<unsigned>(GcPhase::kPaused))
            return;
        // A safepoint is in force: back out so the collector's drain
        // completes, wait it out, retry.
        in_flight.fetch_sub(1, std::memory_order_seq_cst);
        waitWhilePaused();
    }
}

void
PjhHeap::allocGuardEnter()
{
    unsigned &depth = guardDepthClaim(this);
    // Re-entrant: this thread already holds the epoch, so a pending
    // safepoint is waiting on *us* — proceed even while kPaused.
    enterBracket(allocsInFlight_, depth > 0);
    ++depth;
}

void
PjhHeap::allocGuardExit()
{
    if (unsigned *depth = guardDepthFind(this))
        --*depth;
    allocsInFlight_.fetch_sub(1, std::memory_order_seq_cst);
}

void
PjhHeap::waitWhilePaused() const
{
    while (gcPhase_.load(std::memory_order_acquire) ==
           static_cast<unsigned>(GcPhase::kPaused)) {
        // Die with a simulated power failure instead of spinning on a
        // safepoint whose collector was killed by one.
        CrashInjector *inj = dev_->injector();
        if (inj && inj->tripped())
            throw SimulatedCrash();
        std::this_thread::yield();
    }
}

void
PjhHeap::rootOpGuardEnter() const
{
    // Inside this thread's own allocation epoch (a MutatorSection
    // bracketing a compound op) a pending safepoint waits for us, so
    // the root op proceeds even while kPaused — see allocGuardEnter.
    enterBracket(rootOpsInFlight_, guardDepthFind(this) != nullptr);
}

void
PjhHeap::rootOpGuardExit() const
{
    rootOpsInFlight_.fetch_sub(1, std::memory_order_seq_cst);
}

void
PjhHeap::pauseMutators()
{
    gcPhase_.store(static_cast<unsigned>(GcPhase::kPaused),
                   std::memory_order_seq_cst);
    // Drain to the calling thread's own bracket depth, not to zero: a
    // collection run inside this thread's MutatorSection (directly,
    // or triggered by allocation pressure) must not wait for that
    // section to exit.
    const unsigned *own = guardDepthFind(this);
    const std::uint32_t mine = own ? *own : 0;
    while (allocsInFlight_.load(std::memory_order_seq_cst) != mine ||
           rootOpsInFlight_.load(std::memory_order_seq_cst) != 0) {
        // Die as the simulated power cut rather than wait for a
        // mutator the injector already killed mid-bracket.
        CrashInjector *inj = dev_->injector();
        if (inj && inj->tripped())
            throw SimulatedCrash();
        std::this_thread::yield();
    }
}

void
PjhHeap::shade(Addr ref) const
{
    if (gcPhase_.load(std::memory_order_acquire) !=
        static_cast<unsigned>(GcPhase::kMarking))
        return;
    if (ref == kNullAddr || !containsData(ref))
        return;
    // Marked-test *before* the header reads: a ref published during
    // the cycle points at an already-marked object (born black or
    // shaded on store) whose header may still be in flight from this
    // thread's perspective; an unmarked object is pre-snapshot and
    // fully visible (initial-safepoint happens-before).
    if (marks_.isMarkedAtomic(ref))
        return;
    Oop obj(ref);
    Addr img = obj.klassImage();
    if (img == fillerInstanceImage_ || img == fillerArrayImage_)
        return;
    // The claim CAS is shared with the markers: whoever wins owns the
    // push, so the object lands on exactly one scan queue.
    auto &self = const_cast<PjhHeap &>(*this);
    if (!self.marks_.tryMarkObject(ref, pjhRawObjectSize(obj)))
        return;
    shadeCount_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> g(satbMu_);
    satbBuffer_.push_back(ref);
}

void
PjhHeap::shadeFieldIfRef(Oop obj, std::uint32_t offset) const
{
    if (gcPhase_.load(std::memory_order_acquire) !=
        static_cast<unsigned>(GcPhase::kMarking))
        return;
    // flushField can't observe the overwritten value — shade the
    // stored one, but only when the Klass image declares a reference
    // field at this offset (shading a primitive word that happens to
    // alias a heap address would dereference a non-header).
    auto *img = reinterpret_cast<const KlassImage *>(obj.klassImage());
    if (img->isArray())
        return;
    const FieldImage *fields = img->fields();
    for (Word i = 0; i < img->fieldCount; ++i) {
        if (fields[i].offset == offset) {
            if (static_cast<FieldType>(fields[i].type) == FieldType::kRef)
                shade(loadWord(obj.addr() + offset));
            return;
        }
    }
}

PjhHeap::~PjhHeap() = default;

void
PjhHeap::setupViews()
{
    Addr base = reinterpret_cast<Addr>(dev_->base());
    meta_ = reinterpret_cast<PjhMetadata *>(base);
    names_ = NameTable(dev_, base + meta_->nameTableOff,
                       meta_->nameTableCapacity);
    klasses_ = KlassSegment(dev_, base + meta_->klassSegOff,
                            meta_->klassSegSize, meta_, &names_);
    dataBase_ = base + meta_->dataOff;
    top_ = dataBase_ + meta_->topOffset;
    marks_ = MarkBitmap(
        dataBase_, meta_->dataSize,
        reinterpret_cast<Word *>(base + meta_->markStartOff),
        reinterpret_cast<Word *>(base + meta_->markLiveOff));
    regionBits_ = BitmapView(
        reinterpret_cast<Word *>(base + meta_->regionBitmapOff),
        meta_->dataSize / meta_->regionSize);
    undoLog_ = UndoLog(dev_, base + meta_->undoLogOff,
                       meta_->undoLogSize, dataBase_);
    tlabBytes_ = alignUp(envUnsigned("ESPRESSO_TLAB_BYTES",
                                     static_cast<unsigned>(meta_->tlabBytes)),
                         kWordSize);
    if (tlabBytes_ < ObjectLayout::kArrayHeaderSize)
        tlabBytes_ = PjhConfig().tlabSize;
}

void
PjhHeap::cacheFillerImages()
{
    NameEntry *inst = names_.find(kFillerClassName, NameKind::kKlass);
    NameEntry *arr = names_.find(kFillerArrayClassName, NameKind::kKlass);
    if (!inst || !arr)
        panic("PJH: filler Klass images missing");
    Addr seg = reinterpret_cast<Addr>(dev_->base()) + meta_->klassSegOff;
    fillerInstanceImage_ = seg + inst->value;
    fillerArrayImage_ = seg + arr->value;
}

std::unique_ptr<PjhHeap>
PjhHeap::create(NvmDevice *device, const PjhConfig &cfg,
                KlassRegistry *registry)
{
    PjhMetadata scratch{};
    std::size_t total = computeLayout(cfg, scratch);
    if (device->size() < total)
        fatal(strCat("PJH create: device too small (", device->size(),
                     " < ", total, " bytes)"));

    auto heap = std::unique_ptr<PjhHeap>(new PjhHeap(device, registry));
    auto *meta = reinterpret_cast<PjhMetadata *>(device->base());
    std::memset(meta, 0, sizeof(PjhMetadata));
    *meta = scratch;
    meta->magic = PjhMetadata::kMagic;
    meta->version = PjhMetadata::kVersion;
    meta->heapSize = device->size();
    meta->cleanShutdown = 0;
    meta->topOffset = 0;
    meta->klassSegTopOffset = 0;
    meta->globalTimestamp = 1;
    meta->gcInProgress = 0;
    meta->bounceOwnerOffset = kNoneWord;
    meta->rootJournalCount = 0;
    meta->tlabBytes = alignUp(
        std::max(cfg.tlabSize,
                 static_cast<std::size_t>(ObjectLayout::kArrayHeaderSize)),
        kWordSize);

    heap->setupViews();
    meta->addressHint = heap->dataBase_;
    device->persist(reinterpret_cast<Addr>(meta), sizeof(PjhMetadata));

    // Pre-publish the filler Klasses used for TLAB tails and tail
    // repair so a recovery never needs to create metadata.
    registry->define(KlassDef{kFillerClassName, "", {}, false});
    heap->klasses_.ensureImage(
        registry->resolve(kFillerClassName, MemKind::kPersistent),
        *registry);
    heap->klasses_.ensureImage(
        registry->arrayOfNamed(kFillerArrayClassName, FieldType::kI64,
                               MemKind::kPersistent),
        *registry);
    heap->cacheFillerImages();
    return heap;
}

std::unique_ptr<PjhHeap>
PjhHeap::attach(NvmDevice *device, KlassRegistry *registry,
                SafetyLevel safety)
{
    std::uint64_t t0 = nowNs();
    auto heap = std::unique_ptr<PjhHeap>(new PjhHeap(device, registry));
    auto *meta = reinterpret_cast<PjhMetadata *>(device->base());
    if (meta->magic != PjhMetadata::kMagic)
        fatal("PJH attach: no heap on this device (bad magic)");
    if (meta->version != PjhMetadata::kVersion)
        fatal("PJH attach: version mismatch");
    if (meta->heapSize != device->size())
        fatal("PJH attach: device size changed");

    heap->safety_ = safety;
    heap->setupViews();
    heap->cacheFillerImages();

    // The remap delta: stored addresses + delta = current addresses.
    std::ptrdiff_t delta =
        static_cast<std::ptrdiff_t>(heap->dataBase_) -
        static_cast<std::ptrdiff_t>(meta->addressHint);
    if (delta % static_cast<std::ptrdiff_t>(kWordSize) != 0)
        panic("PJH attach: misaligned remap delta");

    if (meta->gcInProgress) {
        PjhRecovery recovery(*heap, delta);
        recovery.run();
        ++heap->stats_.recoveries;
    } else if (meta->gcMarkingActive) {
        // The crash hit mutator/marker overlap: the cycle's snapshot
        // never committed (gcInProgress was still down, so the mark
        // bitmap may be torn on media). Discard the cycle cleanly —
        // the heap itself is untouched by marking.
        PjhRecovery recovery(*heap, delta);
        recovery.discardMarkingCycle();
        ++heap->stats_.recoveries;
    }
    // Application-level rollback happens while pointer values are
    // still expressed in the stored address space.
    heap->undoLog_.recover();
    if (!meta->cleanShutdown) {
        heap->repairAllocationTail(delta);
    }
    if (delta != 0) {
        heap->rebase(delta);
        ++heap->stats_.rebases;
    }
    // The chunks described by the slot table belong to the previous
    // attach; they are fully parseable now, so retire them all.
    heap->clearTlabSlots();

    std::uint64_t t_bind = nowNs();
    heap->klasses_.bindAll(*registry);
    heap->stats_.lastLoadBindNs = nowNs() - t_bind;

    std::uint64_t t_safety = nowNs();
    if (safety == SafetyLevel::kZeroing)
        heap->zeroingScan();
    heap->stats_.lastLoadSafetyNs = nowNs() - t_safety;

    meta->cleanShutdown = 0;
    device->persist(reinterpret_cast<Addr>(&meta->cleanShutdown),
                    sizeof(Word));
    // GC statistics live in the metadata area (persisted with the
    // usual flush+fence discipline at the end of every collection);
    // seed the volatile mirror so post-crash readers see them.
    heap->stats_.collections = meta->gcCollections;
    heap->stats_.lastGcMarked = meta->gcLastMarked;
    heap->stats_.lastGcConcMarkNs = meta->gcLastConcMarkNs;
    heap->stats_.lastGcRemarkNs = meta->gcLastRemarkNs;
    heap->stats_.lastGcShaded = meta->gcLastShaded;
    heap->stats_.lastGcFloating = meta->gcLastFloating;
    heap->stats_.markDiscards = meta->gcMarkDiscards;
    heap->stats_.lastLoadNs = nowNs() - t0;
    return heap;
}

void
PjhHeap::detach()
{
    meta_->cleanShutdown = 1;
    // An orderly power-down drains the caches (ADR); model it as a
    // device-level clean shutdown.
    dev_->shutdownClean();
}

void
PjhHeap::setGcTrigger(std::function<void()> trigger)
{
    gcTrigger_ = std::move(trigger);
}

// ---------------------------------------------------------------------
// Allocation: slot-locked TLABs over a locked shared top (§4.1)
// ---------------------------------------------------------------------

PjhHeap::ThreadTlab &
PjhHeap::threadTlab()
{
    // Keyed by heap serial: serials are never reused, so entries of
    // destroyed heaps can never alias a live one.
    thread_local std::unordered_map<std::uint64_t, ThreadTlab> tlabs;
    auto [it, fresh] = tlabs.try_emplace(serial_);
    if (fresh) {
        it->second.slot =
            nextOrdinal_.fetch_add(1, std::memory_order_relaxed) %
            PjhMetadata::kMaxTlabSlots;
    }
    return it->second;
}

void
PjhHeap::writeFillerHeader(Addr a, std::size_t gap, Addr instance_image,
                           Addr array_image)
{
    // Unreachable by construction: every allocation and chunk
    // remainder is at least kHeaderSize (see the static_asserts at
    // the top of this file and the fit rules in allocInSlot /
    // carveChunk), and repair only plugs allocation boundaries.
    if (gap < ObjectLayout::kHeaderSize)
        panic("PJH: filler gap below the minimum allocation size");
    if (instance_image == 0) {
        instance_image = fillerInstanceImage_;
        array_image = fillerArrayImage_;
    }
    Oop f(a);
    f.setMarkWord(0);
    f.setGcTimestamp(static_cast<std::uint16_t>(meta_->globalTimestamp));
    if (gap >= ObjectLayout::kArrayHeaderSize) {
        f.setKlassImage(array_image);
        f.setArrayLength(
            (gap - ObjectLayout::kArrayHeaderSize) / kWordSize);
    } else {
        // gap == kHeaderSize: the zero-field filler instance.
        f.setKlassImage(instance_image);
    }
}

bool
PjhHeap::carveChunk(std::size_t slot, std::size_t min_size)
{
    std::size_t want = alignUp(std::max(min_size, tlabBytes_), kWordSize);
    // The first allocation must leave a coverable remainder (0 or at
    // least a filler header).
    if (want - min_size == kWordSize)
        want += kWordSize;

    std::lock_guard<std::mutex> g(topMu_);
    Addr a = top_.load(std::memory_order_relaxed);
    std::size_t avail = dataBase_ + meta_->dataSize - a;
    std::size_t chunk = std::min(want, avail);
    if (chunk >= min_size && chunk - min_size == kWordSize)
        chunk -= kWordSize; // keep the remainder coverable
    if (chunk < min_size)
        return false;

    // Crash-consistent handoff: the whole chunk becomes one durable
    // filler before the top replica (and then the slot registration)
    // publishes it, so the heap parses end to end at every step.
    std::memset(reinterpret_cast<void *>(a), 0, chunk);
    writeFillerHeader(a, chunk);
    dev_->flush(a, chunk);
    dev_->fence();

    meta_->topOffset = a + chunk - dataBase_;
    dev_->persist(reinterpret_cast<Addr>(&meta_->topOffset), sizeof(Word));
    top_.store(a + chunk, std::memory_order_release);

    meta_->setTlabSlot(slot, a - dataBase_, a + chunk - dataBase_);
    dev_->persist(reinterpret_cast<Addr>(
                      &meta_->tlabSlots[slot * PjhMetadata::kTlabSlotWords]),
                  2 * kWordSize);

    TlabSlot &s = slots_[slot];
    s.bump = a;
    s.end = a + chunk;
    s.epoch = tlabEpoch_.load(std::memory_order_relaxed);
    return true;
}

Addr
PjhHeap::allocInSlot(std::size_t slot, Addr image, bool array,
                     std::uint64_t length, std::size_t size)
{
    TlabSlot &s = slots_[slot];
    // One allocation in flight per slot is what confines torn state
    // to the last allocation of each registered chunk. RAII: a
    // SimulatedCrash thrown from a persist below releases the lock.
    std::lock_guard<std::mutex> lock(s.mu);
    if (s.epoch != tlabEpoch_.load(std::memory_order_relaxed))
        s.bump = s.end = 0; // a collection retired the chunk
    std::size_t avail = s.end - s.bump;
    if (avail < size ||
        (avail != size && avail - size < ObjectLayout::kHeaderSize)) {
        // Unusable chunk (none yet, too small, or an uncoverable
        // 8-byte tail would remain): abandon it — the previous
        // allocation's fence made its trailing filler durable — and
        // carve afresh.
        if (!carveChunk(slot, size))
            return kNullAddr;
    }

    // Phase 2: reserve, and stage the new trailing filler only: the
    // header persist below makes both durable under one fence.
    Addr a = s.bump;
    std::size_t rem = s.end - a - size;
    if (rem > 0) {
        writeFillerHeader(a + size, rem);
        dev_->flush(a + size,
                    std::min(rem, static_cast<std::size_t>(
                                      ObjectLayout::kArrayHeaderSize)));
    }
    s.bump = a + size;

    // Phase 3: initialize and persist the header over the old filler
    // header; the Klass-pointer persist is the publication point.
    // Bytes beyond the old filler header are durably zero from the
    // carve-time fill. The same fence makes the staged trailing
    // filler durable, so a crash tears at most this allocation —
    // inside its registered chunk, where repairAllocationTail plugs
    // it:
    //  - header durable, filler lost: the object parses, and the
    //    klass word at a+size is still the carve-time zero, so
    //    repair plugs [a+size, chunk end);
    //  - filler durable, header lost: the old filler at a still
    //    covers [a, chunk end);
    //  - torn header: it parses as either that filler or the object.
    // The fence stays here rather than at the caller's next flush: an
    // evicted raw setRef could otherwise leave a durable reference to
    // an address that still parses as filler.
    Oop o(a);
    o.setMarkWord(0);
    o.setGcTimestamp(static_cast<std::uint16_t>(meta_->globalTimestamp));
    o.setKlassImage(image);
    std::size_t header = ObjectLayout::kHeaderSize;
    if (array) {
        o.setArrayLength(length);
        header = ObjectLayout::kArrayHeaderSize;
    } else if (size > ObjectLayout::kHeaderSize) {
        // Clear the old filler's length word, now the first field.
        storeWord(a + ObjectLayout::kHeaderSize, 0);
        header = ObjectLayout::kArrayHeaderSize;
    }
    dev_->persist(a, header);
    return a;
}

Oop
PjhHeap::allocRaw(const Klass *k, std::uint64_t length)
{
    AllocGuard quiescence_guard(*this);
    ThreadTlab &t = threadTlab();

    // Phase 1 (§4.1): resolve the Klass / Klass image.
    const Klass *pk;
    Addr image;
    if (t.cachedKlass == k) {
        pk = t.cachedPk;
        image = t.cachedImage;
    } else {
        pk = registry_->physicalFor(k, MemKind::kPersistent);
        image = klasses_.ensureImage(pk, *registry_);
        t.cachedKlass = k;
        t.cachedPk = pk;
        t.cachedImage = image;
    }

    std::size_t size = Oop::sizeFor(pk, length);
    if (size > meta_->bounceSize)
        fatal(strCat("PJH: object of ", size,
                     " bytes exceeds the bounce-buffer bound (",
                     meta_->bounceSize, ")"));

    // Phases 2 and 3 run under the slot lock.
    Addr a = allocInSlot(t.slot, image, pk->isArray(), length, size);
    if (a == kNullAddr && gcTrigger_) {
        // The heap is full. The slot lock is released, so the
        // collection never waits on it; retry once on the collected
        // heap.
        gcTrigger_();
        a = allocInSlot(t.slot, image, pk->isArray(), length, size);
    }
    if (a == kNullAddr)
        fatal("PJH: out of persistent memory");
    bornBlackIfMarking(a, size);

    stats_.allocations.fetch_add(1, std::memory_order_relaxed);
    stats_.bytesAllocated.fetch_add(size, std::memory_order_relaxed);
    return Oop(a);
}

void
PjhHeap::bornBlackIfMarking(Addr a, std::size_t size)
{
    // Objects allocated during a concurrent cycle are born black:
    // they survive the cycle unconditionally and markers never scan
    // them (their outgoing references are covered by the store
    // barrier and the remark root rescan). The phase is stable here —
    // the allocation guard is held, so the cycle cannot reach a
    // safepoint mid-allocation. Marked per object, not per chunk, so
    // the live bits stay object-granular for liveSizeAt.
    if (gcPhase_.load(std::memory_order_acquire) ==
        static_cast<unsigned>(GcPhase::kMarking)) {
        marks_.tryMarkObject(a, size);
        bornBlack_.fetch_add(1, std::memory_order_relaxed);
    }
}

Oop
PjhHeap::allocInstance(const Klass *k)
{
    if (!k || k->isArray())
        panic("PJH allocInstance: not an instance klass");
    return allocRaw(k, 0);
}

Oop
PjhHeap::allocArray(const Klass *k, std::uint64_t length)
{
    if (!k || !k->isArray())
        panic("PJH allocArray: not an array klass");
    return allocRaw(k, length);
}

void
PjhHeap::setRoot(const std::string &name, Oop obj)
{
    if (obj && !containsData(obj.addr()))
        fatal("setRoot: object is not in this persistent heap");
    RootOpGuard guard(*this);
    // SATB deletion barrier: the overwritten referent may be the last
    // snapshot path to its subgraph. (Shading the value we observed
    // is enough even if another setRoot interleaves: a value stored
    // *during* the cycle is either born black or covered by the
    // shading of its own snapshot paths.)
    if (markingConcurrently()) {
        if (NameEntry *e = names_.find(name, NameKind::kRoot))
            shade(NameTable::readValue(e));
        shade(obj.addr());
    }
    names_.upsert(name, NameKind::kRoot, obj.addr());
}

Oop
PjhHeap::getRoot(const std::string &name) const
{
    RootOpGuard guard(*this);
    NameEntry *e = names_.find(name, NameKind::kRoot);
    Oop obj = e ? Oop(NameTable::readValue(e)) : Oop();
    // Load barrier: the caller may delete the root next and keep the
    // only reference in a local, which no marker can see.
    if (obj)
        shade(obj.addr());
    return obj;
}

bool
PjhHeap::hasRoot(const std::string &name) const
{
    RootOpGuard guard(*this);
    return names_.find(name, NameKind::kRoot) != nullptr;
}

void
PjhHeap::flushField(Oop obj, std::uint32_t offset)
{
    RootOpGuard guard(*this);
    // Write barrier half for raw setRef users: the overwritten value
    // is gone by flush time, so shade the stored one (see the
    // concurrent-mode contract in the header).
    shadeFieldIfRef(obj, offset);
    // Work set is bounded to 8 bytes to preserve atomicity (§3.5).
    dev_->persist(obj.addr() + offset, kWordSize);
}

void
PjhHeap::flushArrayElement(Oop obj, std::uint64_t index)
{
    RootOpGuard guard(*this);
    const Klass *k = obj.klass();
    std::size_t esz = elementSize(k->elemType());
    if (k->elemType() == FieldType::kRef && markingConcurrently())
        shade(loadWord(obj.elemAddr(index, kWordSize)));
    dev_->persist(obj.elemAddr(index, esz), esz);
}

void
PjhHeap::flushObject(Oop obj)
{
    RootOpGuard guard(*this);
    if (markingConcurrently())
        pjhRawForEachRefSlot(obj,
                             [this](Addr slot) { shade(loadWord(slot)); });
    // All fields, one trailing fence (§3.5 coarse-grained flush).
    dev_->flush(obj.addr(), obj.sizeInBytes());
    dev_->fence();
}

void
PjhHeap::checkRefStore(Oop obj, Oop value) const
{
    if (!value)
        return;
    const Klass *k = obj.klass();
    bool restricted =
        k->persistentOnly() || safety_ == SafetyLevel::kTypeBased;
    if (restricted && !containsData(value.addr())) {
        throw MemorySafetyError(
            strCat("type-based safety: storing a non-persistent "
                   "reference into ",
                   k->name()));
    }
}

void
PjhHeap::storeRef(Oop obj, std::uint32_t offset, Oop value)
{
    checkRefStore(obj, value);
    RootOpGuard guard(*this);
    if (markingConcurrently()) {
        // Deletion barrier (SATB: the overwritten referent may be the
        // last snapshot path to its subgraph) plus an insertion shade
        // of the stored value, which covers references obtained just
        // before the cycle's snapshot and published into an
        // already-scanned object.
        shade(loadWord(obj.addr() + offset));
        shade(value.addr());
    }
    obj.setRef(offset, value);
}

void
PjhHeap::storeRefElement(Oop obj, std::uint64_t index, Oop value)
{
    checkRefStore(obj, value);
    RootOpGuard guard(*this);
    if (markingConcurrently()) {
        shade(loadWord(obj.elemAddr(index, kWordSize)));
        shade(value.addr());
    }
    obj.setRefElem(index, value.addr());
}

void
PjhHeap::forEachObject(const std::function<void(Oop)> &fn) const
{
    // The one-range case of zeroingScan's walk.
    const Addr top = dataTop();
    const ObjectParser p{klasses_.base(), klasses_.size(), 0, top};
    WalkEnd end = walkObjects(p, dataBase_, top, [&](Oop o) {
        Addr img = o.klassImage();
        if (img != fillerInstanceImage_ && img != fillerArrayImage_)
            fn(o);
    });
    if (!end.parsed)
        panic("PJH walk: unparseable object (missing tail repair?)");
}

void
PjhHeap::forEachRefSlot(const std::function<void(Addr)> &fn) const
{
    forEachObject([&fn](Oop o) { pjhRawForEachRefSlot(o, fn); });
}

void
PjhHeap::forEachOutRefSlot(const SlotVisitor &visitor)
{
    forEachRefSlot([this, &visitor](Addr slot) {
        Addr ref = loadWord(slot);
        if (ref != kNullAddr && !dev_->contains(ref))
            visitor(slot);
    });
}

// ---------------------------------------------------------------------
// Recovery: tail repair, at most one torn tail per registered chunk
// ---------------------------------------------------------------------

void
PjhHeap::plugFillerGap(Addr junk, Addr end, std::ptrdiff_t delta)
{
    std::size_t gap = end - junk;
    // The heap is still expressed in stored addresses at this point.
    writeFillerHeader(junk, gap,
                      fillerInstanceImage_ - static_cast<Addr>(delta),
                      fillerArrayImage_ - static_cast<Addr>(delta));
    dev_->persist(junk, gap >= ObjectLayout::kArrayHeaderSize
                            ? ObjectLayout::kArrayHeaderSize
                            : ObjectLayout::kHeaderSize);
    ++stats_.tailRepairs;
}

void
PjhHeap::clearTlabSlots()
{
    bool dirty = false;
    for (std::size_t i = 0; i < PjhMetadata::kMaxTlabSlots; ++i) {
        if (meta_->tlabSlotStart(i) != 0 || meta_->tlabSlotEnd(i) != 0) {
            meta_->setTlabSlot(i, 0, 0);
            dev_->flush(
                reinterpret_cast<Addr>(
                    &meta_->tlabSlots[i * PjhMetadata::kTlabSlotWords]),
                2 * kWordSize);
            dirty = true;
        }
    }
    if (dirty)
        dev_->fence();
}

void
PjhHeap::repairAllocationTail(std::ptrdiff_t delta)
{
    // Every allocation lands in a registered chunk, one at a time per
    // slot, so at most the last allocation of each registered chunk is
    // torn and nothing outside them needs reading: parse each chunk
    // from its start and plug the first torn allocation up to the
    // chunk's end. Slot words are persisted as one cache line, so a
    // slot is either a real chunk or all-zero — but be defensive about
    // garbage anyway.
    for (std::size_t i = 0; i < PjhMetadata::kMaxTlabSlots; ++i) {
        Word s = meta_->tlabSlotStart(i);
        Word e = meta_->tlabSlotEnd(i);
        if (s >= e || e > meta_->dataSize || !isAligned(s, kWordSize) ||
            !isAligned(e, kWordSize))
            continue;
        Addr end = dataBase_ + e;
        const ObjectParser p{klasses_.base(), klasses_.size(), delta, end};
        WalkEnd torn = walkObjects(p, dataBase_ + s, end, [](Oop) {});
        if (!torn.parsed)
            plugFillerGap(torn.at, end, delta);
    }
}

void
PjhHeap::rebase(std::ptrdiff_t delta)
{
    Addr dev_base = reinterpret_cast<Addr>(dev_->base());
    Addr stored_dev_base = dev_base - static_cast<Addr>(delta);
    std::size_t dev_size = dev_->size();
    auto in_stored_device = [&](Addr v) {
        return v >= stored_dev_base && v < stored_dev_base + dev_size;
    };

    const Addr top = top_.load(std::memory_order_relaxed);
    const ObjectParser p{klasses_.base(), klasses_.size(), delta, top};
    WalkEnd end = walkObjects(p, dataBase_, top, [&](Oop o) {
        // Read the layout through the stored klass word before
        // rewriting it.
        pjhRawForEachRefSlotWithDelta(o, delta, [&](Addr slot) {
            Addr v = loadWord(slot);
            if (v != kNullAddr && in_stored_device(v))
                storeWord(slot, v + static_cast<Addr>(delta));
        });
        o.setKlassRefRaw(o.klassRefRaw() + static_cast<Word>(delta));
    });
    if (!end.parsed)
        panic("rebase: unparseable heap");

    // Root entries hold absolute data-heap addresses.
    names_.forEach([&](NameEntry &e) {
        if (e.kind == static_cast<Word>(NameKind::kRoot) &&
            e.value != kNullAddr && in_stored_device(e.value)) {
            e.value += static_cast<Word>(delta);
        }
    });

    meta_->addressHint = dataBase_;
    // The scan touched pointers all over the heap; make the new
    // expression durable in one sweep.
    dev_->flush(dev_base, dev_size);
    dev_->fence();
}

void
PjhHeap::zeroingScan()
{
    const Addr top = dataTop();
    const ObjectParser p{klasses_.base(), klasses_.size(), 0, top};
    const std::size_t n =
        (top - dataBase_ + kZeroingRangeBytes - 1) / kZeroingRangeBytes;
    auto cut = [&](std::size_t i) {
        return i >= n ? top : dataBase_ + i * kZeroingRangeBytes;
    };
    auto collect = [this](std::vector<Addr> &out) {
        return [this, &out](Oop o) {
            pjhRawForEachRefSlot(o, [&](Addr slot) {
                Addr v = loadWord(slot);
                if (v != kNullAddr && !containsData(v))
                    out.push_back(slot);
            });
        };
    };

    // Speculate. Workers only read; a range whose walk throws is left
    // unscanned, and the proof below re-walks it on this thread.
    std::vector<RangeScan> scans(n);
    std::atomic<std::size_t> next{0};
    auto speculate = [&] {
        for (std::size_t i;
             (i = next.fetch_add(1, std::memory_order_relaxed)) < n;) {
            RangeScan &r = scans[i];
            try {
                Addr a = cut(i);
                while (i > 0 && a < cut(i + 1) && p.sizeAt(a) == 0)
                    a += kWordSize;
                if (a >= cut(i + 1))
                    continue;
                r.start = a;
                r.end = walkObjects(p, a, cut(i + 1), collect(r.slots));
            } catch (...) {
                r.start = kNullAddr;
                r.slots.clear();
            }
        }
    };
    {
        // This thread walks too, so a helper that is slow to start
        // delays nothing: it finds fewer ranges left. The helpers
        // join at the end of the block.
        const std::size_t threads = std::min<std::size_t>(usableCpus(), n);
        std::vector<std::jthread> helpers;
        for (std::size_t t = 1; t < threads; ++t)
            helpers.emplace_back(speculate);
        speculate();
    }

    // Prove: each range must begin exactly where the walk before it
    // ended.
    Addr proven = dataBase_;
    for (std::size_t i = 0; i < n; ++i) {
        RangeScan &r = scans[i];
        if (proven >= cut(i + 1)) {
            r.slots.clear(); // an object spans the whole range
            continue;
        }
        if (r.start != proven) {
            r.slots.clear();
            r.end = walkObjects(p, proven, cut(i + 1), collect(r.slots));
        }
        if (!r.end.parsed)
            panic("PJH zeroing: unparseable object (missing tail repair?)");
        proven = r.end.at;
    }

    // Write, on this thread and in address order.
    bool dirty = false;
    for (const RangeScan &r : scans) {
        for (Addr slot : r.slots) {
            storeWord(slot, kNullAddr);
            dev_->flush(slot, kWordSize);
            dirty = true;
        }
    }
    names_.forEach([&](NameEntry &e) {
        if (e.kind == static_cast<Word>(NameKind::kRoot) &&
            e.value != kNullAddr && !containsData(e.value)) {
            e.value = kNullAddr;
            dev_->flush(reinterpret_cast<Addr>(&e.value), kWordSize);
            dirty = true;
        }
    });
    if (dirty)
        dev_->fence();
}

void
PjhHeap::collect(VolatileHeap *volatile_heap)
{
    // Whole cycles are serialized: a second caller blocks here, then
    // runs its own cycle against the freshly compacted heap. While it
    // waits it steps out of its own brackets (a MutatorSection, or the
    // allocation that triggered it) — the running cycle's drain would
    // otherwise wait for this thread while this thread waits for it.
    std::unique_lock<std::mutex> cycle(gcCycleMu_, std::try_to_lock);
    if (!cycle.owns_lock()) {
        unsigned *depth = guardDepthFind(this);
        const unsigned held = depth ? std::exchange(*depth, 0u) : 0;
        allocsInFlight_.fetch_sub(held, std::memory_order_seq_cst);
        cycle.lock();
        // No cycle runs while the lock is held: re-enter without
        // waiting.
        if (held > 0)
            guardDepthClaim(this) = held;
        allocsInFlight_.fetch_add(held, std::memory_order_seq_cst);
    }
    PjhGc(*this, volatile_heap).collect(gcConcurrent());
    ++stats_.collections;
}

} // namespace espresso
