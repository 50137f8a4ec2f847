/**
 * @file
 * Persistent Java Heap — the paper's core contribution (§3, §4).
 *
 * A PjhHeap lives inside one NvmDevice and provides:
 *  - pnew-style allocation of managed objects in NVM with the
 *    crash-consistent protocol of §4.1 (top replica persisted before
 *    the header, header persisted before the object is usable);
 *  - the name table (setRoot/getRoot) and Klass segment;
 *  - field/array/object flush APIs (§3.5);
 *  - the three loadable memory-safety levels (§3.4);
 *  - attach-time recovery, allocation-tail repair, and the
 *    remap rebase scan (§3.3) when the heap cannot be mapped at its
 *    address hint;
 *  - root scanning glue so the volatile collectors see NVM→DRAM
 *    references (flexible cross-heap pointers, §3.2).
 *
 * Garbage collection lives in PjhGc; crash recovery in PjhRecovery.
 */

#ifndef ESPRESSO_PJH_PJH_HEAP_HH
#define ESPRESSO_PJH_PJH_HEAP_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "heap/mark_bitmap.hh"
#include "heap/volatile_heap.hh"
#include "nvm/nvm_device.hh"
#include "pjh/klass_segment.hh"
#include "pjh/name_table.hh"
#include "pjh/pjh_layout.hh"
#include "pjh/undo_log.hh"
#include "runtime/klass_registry.hh"
#include "runtime/oop.hh"
#include "util/worker_pool.hh"

namespace espresso {

/** Memory-safety level applied when a heap is loaded (§3.4). */
enum class SafetyLevel
{
    /** Volatile out-pointers are the user's problem; O(#Klasses)
     * loading. */
    kUserGuaranteed,

    /** Loading scans the whole heap and nullifies out-pointers;
     * stale accesses become null dereferences. O(#objects), walked
     * by the loading thread and helper threads made for the load
     * (see zeroingScan); the writes stay on the loading thread. */
    kZeroing,

    /** Stores of non-persistent references into persistentOnly
     * classes are refused by the write barrier. */
    kTypeBased,
};

/** Thrown by the type-based write barrier. */
class MemorySafetyError : public std::runtime_error
{
  public:
    explicit MemorySafetyError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

/** Counters and load-phase timings. The allocation counters are
 * atomic (pnew runs concurrently); the rest are written from
 * single-threaded phases (attach, GC, recovery). */
struct PjhStats
{
    std::atomic<std::uint64_t> allocations{0};
    std::atomic<std::uint64_t> bytesAllocated{0};
    std::uint64_t collections = 0;
    std::uint64_t recoveries = 0;
    std::uint64_t tailRepairs = 0;
    std::uint64_t rebases = 0;
    std::uint64_t lastLoadNs = 0;
    std::uint64_t lastLoadBindNs = 0;
    std::uint64_t lastLoadSafetyNs = 0;
    /** Mutator-visible stop time: the whole collection when STW, the
     * initial + remark/compact pauses when concurrent. */
    std::uint64_t lastGcPauseNs = 0;
    /** Cycle start to persisted mark bitmaps (both traces). */
    std::uint64_t lastGcMarkNs = 0;
    std::uint64_t lastGcCompactNs = 0;
    std::uint64_t lastGcMarked = 0;
    /** @name Concurrent-cycle observability (0 after an STW cycle) */
    /// @{
    std::uint64_t lastGcConcMarkNs = 0; ///< marking overlapped with mutators
    std::uint64_t lastGcRemarkNs = 0;   ///< final remark pause alone
    std::uint64_t lastGcShaded = 0;     ///< write-barrier shades
    std::uint64_t lastGcFloating = 0;   ///< floating-garbage upper bound
    std::uint64_t markDiscards = 0;     ///< cycles discarded by recovery
    /// @}
};

/**
 * Collection phase a mutator can observe.
 *
 *  - kIdle: no cycle.
 *  - kMarking: a concurrent cycle's first trace overlaps mutators;
 *    allocation, root, flush and ref-store APIs proceed under the
 *    write barrier.
 *  - kPaused: the safepoint — a whole STW cycle, or a concurrent
 *    cycle's root snapshot and its remark + sliced compaction.
 *    Mutator APIs block until it lifts, except inside the collecting
 *    thread's own MutatorSection.
 */
enum class GcPhase : unsigned
{
    kIdle = 0,
    kMarking = 1,
    kPaused = 2,
};

/** One attached PJH instance. */
class PjhHeap : public ExternalSpace
{
  public:
    /**
     * Format @p device as a fresh PJH and attach it.
     * @param device backing NVM (must be at least computeLayout()'s
     *        total for @p cfg).
     * @param cfg creation-time sizing.
     * @param registry the runtime's class directory.
     */
    static std::unique_ptr<PjhHeap> create(NvmDevice *device,
                                           const PjhConfig &cfg,
                                           KlassRegistry *registry);

    /**
     * Attach an existing PJH (the loadHeap analog): run recovery if
     * a collection was interrupted, repair the allocation tail after
     * an unclean shutdown, rebase if the mapping moved away from the
     * address hint, reinitialize Klass images in place, and apply
     * @p safety.
     */
    static std::unique_ptr<PjhHeap> attach(NvmDevice *device,
                                           KlassRegistry *registry,
                                           SafetyLevel safety);

    ~PjhHeap() override;

    /** Clean shutdown: everything durable, cleanShutdown flag set. */
    void detach();

    /**
     * @name Allocation (the pnew bytecodes, §3.2 / §4.1)
     *
     * Thread-safe: every allocation bumps the TLAB chunk of one of
     * the metadata's PjhMetadata::kMaxTlabSlots slots. A thread uses
     * slot (ordinal % kMaxTlabSlots), its ordinal being the order in
     * which it first allocated on this heap, so threads past the
     * 64th share slots; a per-slot lock admits one allocation at a
     * time. Chunks are carved from the shared top under the heap
     * lock. Chunk handoff is crash-consistent — a chunk is formatted
     * as one durable filler object before the top replica publishes
     * it and is then registered in its slot, and every allocation
     * stages a trailing filler over the chunk's unused tail that the
     * object header's fence makes durable with it. With one
     * allocation in flight per slot, at most the last allocation of
     * each registered chunk is torn, and recovery plugs it up to the
     * chunk's end. Allocation waits out a collection's safepoint: the
     * whole of an STW cycle, or a concurrent cycle's two brief pauses
     * (in between, objects are born black).
     */
    /// @{
    Oop allocInstance(const Klass *k);
    Oop allocArray(const Klass *k, std::uint64_t length);

    /** Invoked when the data heap is full; should trigger a
     * collection. Unset → allocation failure is fatal. */
    void setGcTrigger(std::function<void()> trigger);
    /// @}

    /**
     * @name Roots (Table 1)
     *
     * Thread-safe: backed by the striped name table. Lookups are
     * lock-free; publication takes one bucket-range spinlock.
     * Over-long names are never stored, so lookups of them simply
     * miss (setRoot of one is still fatal).
     */
    /// @{
    void setRoot(const std::string &name, Oop obj);
    Oop getRoot(const std::string &name) const;
    bool hasRoot(const std::string &name) const;
    /// @}

    /** @name Persistence guarantee APIs (§3.5) */
    /// @{
    /** Persist one 8-byte field (Field.flush analog). */
    void flushField(Oop obj, std::uint32_t offset);

    /** Persist one array element (Array.flush analog). */
    void flushArrayElement(Oop obj, std::uint64_t index);

    /** Persist all data words of @p obj with a single fence. */
    void flushObject(Oop obj);
    /// @}

    /**
     * Reference store with the write barrier: enforces type-based
     * safety and keeps the NVM→DRAM remembered behaviour observable.
     */
    void storeRef(Oop obj, std::uint32_t offset, Oop value);

    /** Type-based-checked array-element store. */
    void storeRefElement(Oop obj, std::uint64_t index, Oop value);

    /** @name Geometry */
    /// @{
    bool
    containsData(Addr a) const
    {
        return a >= dataBase_ && a < dataBase_ + meta_->dataSize;
    }

    Addr dataBase() const { return dataBase_; }
    Addr dataTop() const { return top_.load(std::memory_order_acquire); }

    /** Bytes below the shared top, including carved-but-unused TLAB
     * chunk tails (they are reclaimed by the next collection). */
    std::size_t dataUsed() const { return dataTop() - dataBase_; }

    std::size_t dataCapacity() const { return meta_->dataSize; }
    /// @}

    /** Walk every live-or-dead user object in allocation order.
     * Filler objects (TLAB tails, repaired gaps) are skipped. Panics
     * on an object that does not parse: a bad header, or a size of 0
     * or one reaching past the top. */
    void forEachObject(const std::function<void(Oop)> &fn) const;

    /** Heap bytes per range of a zeroing load's parallel walk (see
     * zeroingScan). */
    static constexpr std::size_t kZeroingRangeBytes = 1u << 20;

    /** Walk every reference slot of every object. */
    void forEachRefSlot(const std::function<void(Addr)> &fn) const;

    /** ExternalSpace: slots referencing DRAM (for the volatile GC). */
    void forEachOutRefSlot(const SlotVisitor &visitor) override;

    /** ExternalSpace: DRAM-side SATB deletion barrier — a volatile
     * root slot (handle) dropped @p ref, which may be the last
     * snapshot path into this heap. No-op unless a concurrent cycle
     * is marking and @p ref lands in our data space. */
    void shadeOverwrittenRef(Addr ref) override { shade(ref); }

    /**
     * Full persistent-space collection (System.gc() analog);
     * @p volatile_heap supplies DRAM→NVM roots (may be null).
     *
     * The cycle holds the mutator safepoint: allocation, root, flush
     * and ref-store calls on this heap wait until it lifts — for the
     * whole cycle in STW mode, for the root snapshot and the
     * remark+compact window in concurrent mode (setGcConcurrent). The
     * safepoint drains every MutatorSection but the caller's own, so
     * collect() may run inside one; references that section holds
     * are not roots and may move. Cycles are serialized; a second
     * caller steps out of its own section while it blocks, then runs
     * its own full cycle.
     */
    void collect(VolatileHeap *volatile_heap);

    /**
     * @name GC parallelism knob
     *
     * Worker threads used by the persistent mark and compact phases.
     * 1 (the default) traces on a pool of one and compacts one global
     * sliding slice; higher values fan mark work and compaction
     * slices out across threads, bounded by
     * PjhMetadata::kMaxGcSlices. Defaults to ESPRESSO_GC_THREADS when
     * set; passing 0 restores that default.
     */
    /// @{
    unsigned
    gcThreads() const
    {
        return gcThreads_.load(std::memory_order_relaxed);
    }

    void setGcThreads(unsigned n);
    /// @}

    /**
     * @name Concurrent (SATB) collection mode
     *
     * The one setting is whether collect() releases mutators
     * (kMarking) during its first trace. Off (the default), the cycle
     * holds the safepoint throughout. On, marking is
     * snapshot-at-the-beginning: marker threads race mutators under
     * the deletion/insertion write barrier (see storeRef / setRoot /
     * flushField), objects allocated during the cycle are born black,
     * and only the root snapshot and the remark plus the sliced
     * compaction stop mutators. Defaults to ESPRESSO_GC_CONCURRENT
     * ("0" or "1") when set.
     *
     * Contract while a concurrent cycle is marking:
     *  - reference mutations must go through storeRef /
     *    storeRefElement / setRoot (the barrier shades both the
     *    overwritten and the stored referent); a raw Oop::setRef is
     *    only safe when followed by flushField of the same slot
     *    before the cycle's remark;
     *  - a reference obtained before the cycle began (pnew result,
     *    getRoot) must be stored into a scannable location — or the
     *    compound op wrapped in a MutatorSection, which holds off the
     *    cycle's safepoints — before the thread yields for a full
     *    cycle, since there is no stack scanning.
     */
    /// @{
    bool
    gcConcurrent() const
    {
        return gcConcurrent_.load(std::memory_order_relaxed);
    }

    void
    setGcConcurrent(bool on)
    {
        gcConcurrent_.store(on, std::memory_order_relaxed);
    }

    /** Phase observed by mutators: kPaused for a whole STW cycle,
     * kPaused / kMarking / kPaused for a concurrent one. */
    GcPhase
    gcPhase() const
    {
        return static_cast<GcPhase>(
            gcPhase_.load(std::memory_order_acquire));
    }

    /** True while marking overlaps mutators (root/alloc/flush ops
     * proceed under the barrier instead of blocking). */
    bool
    markingConcurrently() const
    {
        return gcPhase() == GcPhase::kMarking;
    }

    /** Test seam: @p hook runs on the collecting thread after a
     * concurrent cycle's first trace, while the phase is still
     * kMarking and before the remark safepoint, so a test can hold
     * the marking window open until its own ops have landed. Set it
     * only while no cycle runs; null clears it. STW cycles never
     * call it. */
    void
    setMarkingHook(std::function<void()> hook)
    {
        markingHook_ = std::move(hook);
    }

    /**
     * RAII mutator section: while held, another thread's collection
     * cannot reach a safepoint (the collector's pause drains all
     * other sections first), so raw references stay valid across the
     * bracketed compound operation. Cheap (one atomic inc/dec); may
     * block at entry while a safepoint is in force. Nests with
     * itself and with the allocation guard: guarded ops (pnew,
     * setRoot, flushField, storeRef, ...) called inside a section
     * proceed even as a safepoint is being requested — the collector
     * waits for the outermost bracket to exit. A collection this
     * thread runs inside its own section (directly, or triggered by
     * allocation pressure) does not wait for it, so references held
     * across that call may move.
     */
    class MutatorSection
    {
      public:
        explicit MutatorSection(PjhHeap &h) : h_(h)
        {
            h_.allocGuardEnter();
        }
        ~MutatorSection() { h_.allocGuardExit(); }
        MutatorSection(const MutatorSection &) = delete;
        MutatorSection &operator=(const MutatorSection &) = delete;

      private:
        PjhHeap &h_;
    };
    /// @}

    /**
     * @name Allocation-epoch guard (the safepoint drain)
     *
     * Every allocation brackets its heap-mutating window with
     * enter/exit. Entry spins while the phase is kPaused; the
     * collector's pause flips the phase, then waits for the in-flight
     * count to fall to its own thread's bracket depth. Both sides use
     * seq_cst so a racing (mutator, collector) pair cannot both miss
     * each other. Public for the internal RAII bracket; not part of
     * the user API.
     */
    /// @{
    void allocGuardEnter();
    void allocGuardExit();

    /** True while a collect() owns this heap — lets a fabric
     * coordinator (or a test) observe a shard-local pause without
     * racing on the persistent in-collection flag. */
    bool collecting() const { return gcPhase() != GcPhase::kIdle; }
    /// @}

    NvmDevice &device() { return *dev_; }
    PjhMetadata &meta() { return *meta_; }
    UndoLog &undoLog() { return undoLog_; }
    NameTable &names() { return names_; }
    KlassSegment &klasses() { return klasses_; }
    KlassRegistry &registry() { return *registry_; }
    SafetyLevel safety() const { return safety_; }
    const PjhStats &stats() const { return stats_; }
    PjhStats &mutableStats() { return stats_; }

  private:
    friend class PjhGc;
    friend class PjhCompactor;
    friend class PjhRecovery;

    PjhHeap(NvmDevice *device, KlassRegistry *registry);

    /** The volatile side of one metadata TLAB slot: the open chunk
     * it registers, and the lock that admits one allocation at a time
     * into it. */
    struct alignas(64) TlabSlot
    {
        std::mutex mu;
        Addr bump = 0;           ///< next free byte
        Addr end = 0;            ///< chunk end (exclusive)
        std::uint64_t epoch = 0; ///< tlabEpoch_ at carve time
    };

    /** One thread's allocation state for this heap. */
    struct ThreadTlab
    {
        std::size_t slot = 0; ///< slots_ index: ordinal % kMaxTlabSlots
        /** One-entry pnew resolution cache (klass -> persistent
         * alias + image); hit on ~every allocation of a hot class,
         * skipping two mutexes on the fast path. */
        const Klass *cachedKlass = nullptr;
        const Klass *cachedPk = nullptr;
        Addr cachedImage = 0;
    };

    void setupViews();
    void cacheFillerImages();
    Oop allocRaw(const Klass *k, std::uint64_t length);

    /** This thread's allocation state for this heap instance; the
     * first call takes the thread's ordinal. */
    ThreadTlab &threadTlab();

    /**
     * Allocate @p size bytes in @p slot's chunk under the slot lock:
     * reserve them, stage (flush, no fence) the chunk's new trailing
     * filler past them, and write and persist the object header
     * (@p image, and @p length when @p array), whose fence also makes
     * the staged filler durable. Carves a new chunk when the open one
     * cannot serve the request. Returns kNullAddr when the heap is
     * full; it never triggers a collection.
     */
    Addr allocInSlot(std::size_t slot, Addr image, bool array,
                     std::uint64_t length, std::size_t size);

    /** Carve a fresh chunk of at least @p min_size and register it in
     * @p slot (caller holds the slot lock). False when the heap is
     * full. */
    bool carveChunk(std::size_t slot, std::size_t min_size);

    /** Born-black marking for objects allocated while a concurrent
     * cycle is tracing (caller holds the allocation guard). */
    void bornBlackIfMarking(Addr a, std::size_t size);

    /**
     * Write a filler header covering [a, a+gap) (working image only;
     * the caller persists). The image addresses default to the
     * cached physical ones; repair passes them re-expressed in the
     * stored address space.
     */
    void writeFillerHeader(Addr a, std::size_t gap,
                           Addr instance_image = 0, Addr array_image = 0);

    /** Unclean attach: parse each registered TLAB chunk and plug its
     * torn last allocation, if any. O(#slots + registered chunk
     * bytes); nothing outside the registered chunks is read. */
    void repairAllocationTail(std::ptrdiff_t delta);

    /** Overwrite [junk, end) with a filler parseable in the stored
     * address space (repair helper). */
    void plugFillerGap(Addr junk, Addr end, std::ptrdiff_t delta);

    /** Clear and persist every TLAB slot (attach / post-GC). */
    void clearTlabSlots();

    /**
     * @name Collection internals (write barrier + safepoint)
     */
    /// @{
    /** Root/flush-op bracket: like the allocation guard, but tracks
     * no re-entrancy depth of its own (it proceeds while kPaused only
     * inside this thread's allocation epoch). Const: called from
     * const read paths. */
    void rootOpGuardEnter() const;
    void rootOpGuardExit() const;

    /** Count one bracket into @p in_flight, first waiting out a
     * safepoint unless @p reentrant (the collector is waiting for
     * this thread's outer bracket, so backing out would deadlock). */
    void enterBracket(std::atomic<std::uint32_t> &in_flight,
                      bool reentrant) const;

    /** Spin until the collector lifts the safepoint. */
    void waitWhilePaused() const;

    /** Collector side: flip to kPaused, then wait until every bracket
     * but the calling thread's own has exited. */
    void pauseMutators();

    /**
     * SATB shade: claim @p ref in the mark bitmap and queue it for
     * the markers to scan. No-op unless the phase is kMarking and
     * @p ref is a non-filler data-heap object start. Must be called
     * with an alloc/root-op guard held (the safepoint drain is what
     * keeps a shade from racing the remark's bitmap fixpoint).
     */
    void shade(Addr ref) const;

    /** Shade the current value of @p obj's slot at @p offset iff the
     * Klass image declares a reference field there (flushField can't
     * see the overwritten value, so it shades the stored one). */
    void shadeFieldIfRef(Oop obj, std::uint32_t offset) const;

    /** RAII root-op bracket. */
    struct RootOpGuard
    {
        explicit RootOpGuard(const PjhHeap &h) : h_(h)
        {
            h_.rootOpGuardEnter();
        }
        ~RootOpGuard() { h_.rootOpGuardExit(); }
        RootOpGuard(const RootOpGuard &) = delete;
        RootOpGuard &operator=(const RootOpGuard &) = delete;
        const PjhHeap &h_;
    };
    /// @}

    void rebase(std::ptrdiff_t delta);

    /**
     * Zeroing safety (§3.4): null every reference slot and root
     * holding a non-null address outside the data heap.
     *
     * Speculate, prove, then write. [dataBase_, top) is cut into
     * kZeroingRangeBytes ranges by bytes alone, which this thread
     * walks with helper threads made for this call (at most one
     * thread per CPU the caller may run on; the helpers are joined
     * before it returns). Each later range starts at the first word
     * past its cut whose header parses — a guess, since a payload
     * word can look like a header. The walk only reads: it collects
     * each range's out-of-heap slots and the first object boundary
     * past the range's end. The caller then chains from
     * dataBase_: a range whose start equals the previous range's end
     * is proven, a wrong guess is re-walked serially from that end,
     * and an object that does not parse inside a proven range
     * panics. Only then does it null and flush the collected slots
     * and the roots on its own thread in address order, fencing once
     * if it nulled anything — the persist sequence of a serial scan.
     */
    void zeroingScan();
    void checkRefStore(Oop obj, Oop value) const;

    NvmDevice *dev_;
    KlassRegistry *registry_;
    PjhMetadata *meta_ = nullptr;
    NameTable names_;
    KlassSegment klasses_;
    Addr dataBase_ = 0;
    std::atomic<Addr> top_{0};
    MarkBitmap marks_;
    BitmapView regionBits_;
    UndoLog undoLog_;
    SafetyLevel safety_ = SafetyLevel::kUserGuaranteed;
    std::function<void()> gcTrigger_;
    /** See setMarkingHook(). */
    std::function<void()> markingHook_;
    PjhStats stats_;

    /** Serializes chunk carving and the shared-top publication. */
    std::mutex topMu_;
    /** Heap identity for the thread-local TLAB map; never reused. */
    std::uint64_t serial_;
    /** Bumped whenever a collection invalidates every TLAB. */
    std::atomic<std::uint64_t> tlabEpoch_{1};
    /** One per metadata TLAB slot; see allocInSlot(). */
    std::array<TlabSlot, PjhMetadata::kMaxTlabSlots> slots_;
    /** Next thread ordinal (see threadTlab()). */
    std::atomic<std::uint32_t> nextOrdinal_{0};
    /** Chunk size (bytes); meta_->tlabBytes, or ESPRESSO_TLAB_BYTES. */
    std::size_t tlabBytes_ = 0;
    /** GC worker threads (mark + compact); see setGcThreads(). */
    std::atomic<unsigned> gcThreads_{1};
    /** Persistent worker team for the parallel GC phases: reusing
     * threads across collections bounds the per-thread NVM staging
     * shards the device registers and skips thread-start latency. */
    WorkerPool gcPool_;
    /** Allocations currently inside their heap-mutating window. */
    std::atomic<std::uint32_t> allocsInFlight_{0};
    /** Serializes whole collection cycles (a mutator-triggered
     * collect that lost the race simply runs after the winner). */
    std::mutex gcCycleMu_;
    /** Collection phase (GcPhase). */
    std::atomic<unsigned> gcPhase_{0};
    /** Root/flush ops currently inside their bracket. */
    mutable std::atomic<std::uint32_t> rootOpsInFlight_{0};
    /** Concurrent (SATB) mode knob; ESPRESSO_GC_CONCURRENT default. */
    std::atomic<bool> gcConcurrent_{false};
    /** SATB buffer: shaded (already claimed) objects whose children
     * the markers still have to scan. */
    mutable std::mutex satbMu_;
    mutable std::vector<Addr> satbBuffer_;
    /** Per-cycle barrier counters (reset at each cycle's start). */
    mutable std::atomic<std::uint64_t> shadeCount_{0};
    std::atomic<std::uint64_t> bornBlack_{0};
    /** Cached filler KlassImage addresses for walk skipping. */
    Addr fillerInstanceImage_ = 0;
    Addr fillerArrayImage_ = 0;
};

} // namespace espresso

#endif // ESPRESSO_PJH_PJH_HEAP_HH
