/**
 * @file
 * On-NVM layout of a Persistent Java Heap instance.
 *
 * A PJH occupies one NvmDevice (paper Fig. 7/8):
 *
 *   [metadata area][name table][Klass segment][root journal]
 *   [mark bitmap: start bits][mark bitmap: live bits]
 *   [region bitmap][bounce buffer][data heap]
 *
 * The metadata area holds the address hint, heap size, the persisted
 * replica of the allocation top, the global GC timestamp, the
 * in-collection flag, and the offsets of every other component —
 * everything needed to reload or recover the heap (paper §3.1, Fig 8).
 *
 * All cross-restart state is stored as device offsets except object
 * data itself: object klass refs and reference fields hold absolute
 * virtual addresses, which is why a reload at a different base
 * address needs the thorough rebase scan of §3.3.
 */

#ifndef ESPRESSO_PJH_PJH_LAYOUT_HH
#define ESPRESSO_PJH_PJH_LAYOUT_HH

#include <cstdint>

#include "util/common.hh"

namespace espresso {

/** Marker for "no value" offsets. */
constexpr Word kNoneWord = ~Word(0);

/** Creation-time sizing of a PJH instance. */
struct PjhConfig
{
    /** Data-heap capacity in bytes (rounded to a region multiple). */
    std::size_t dataSize = 16u << 20;

    /** Name table capacity (entries). */
    std::size_t nameTableCapacity = 1024;

    /** Klass segment capacity in bytes. */
    std::size_t klassSegSize = 256u << 10;

    /** GC region granularity. */
    std::size_t regionSize = 64u << 10;

    /**
     * Bounce buffer capacity; also the maximum single-object size the
     * heap accepts, since the crash-consistent GC stages overlapping
     * moves through the bounce buffer.
     */
    std::size_t bounceSize = 1u << 20;

    /** Application undo-log capacity (ACID helper, §6.2). */
    std::size_t undoLogSize = 256u << 10;

    /**
     * TLAB chunk size (bytes). Each TLAB slot carves chunks of this
     * size from the shared top under the heap lock, and the threads
     * using the slot bump inside them under the slot's own lock;
     * larger chunks amortize the carve lock better but waste more
     * tail space on detach. Overridable at runtime with
     * ESPRESSO_TLAB_BYTES.
     */
    std::size_t tlabSize = 64u << 10;
};

/** The persistent metadata area (device offset 0). */
struct PjhMetadata
{
    static constexpr Word kMagic = 0x455350524a480001ull; // "ESPRJH",v1
    static constexpr Word kVersion = 4;

    /** Maximum concurrently registered TLAB chunks. Every allocation
     * goes through a slot: a thread uses slot (ordinal %
     * kMaxTlabSlots), so threads past this many share slots, one
     * allocation at a time per slot. */
    static constexpr std::size_t kMaxTlabSlots = 64;

    /** Words per TLAB slot: {startOffset, endOffset} plus padding to
     * a full cache line so two threads never persist the same line
     * when registering their chunks. */
    static constexpr std::size_t kTlabSlotWords = 8;

    /** Maximum compaction slices of one collection (also the upper
     * bound on useful gcThreads). */
    static constexpr std::size_t kMaxGcSlices = 32;

    /** Words per GC-slice slot: {beginRegion, endRegion,
     * cursorRegion} plus padding to a full cache line so concurrent
     * slice workers never persist the same line when advancing their
     * cursors. */
    static constexpr std::size_t kGcSliceWords = 8;

    Word magic;
    Word version;

    /** Virtual address of the data heap at last save (paper: address
     * hint, used to remap the heap to the same place). */
    Word addressHint;

    /** Total device size in bytes (paper: heap size). */
    Word heapSize;

    /** 1 when the heap was detached cleanly; 0 while attached. An
     * unclean attach repairs the allocation tail before use. */
    Word cleanShutdown;

    /** Persisted replica of the allocation top (data-heap offset). */
    Word topOffset;

    /** Persisted allocation top of the Klass segment. */
    Word klassSegTopOffset;

    /** Current GC epoch (paper §4.2 timestamp). */
    Word globalTimestamp;

    /** 1 between the start of a compaction and its completion. */
    Word gcInProgress;

    /** Data-heap offset of the object staged in the bounce buffer,
     * or kNoneWord. */
    Word bounceOwnerOffset;

    /** Number of valid entries in the root redo journal. */
    Word rootJournalCount;

    /** @name Component placement (device offsets / element counts) */
    /// @{
    Word nameTableOff;
    Word nameTableCapacity;
    Word klassSegOff;
    Word klassSegSize;
    Word rootJournalOff;
    Word rootJournalCapacity;
    Word markStartOff;
    Word markLiveOff;
    Word markBytes;
    Word regionBitmapOff;
    Word regionBitmapBytes;
    Word regionSize;
    Word bounceOff;
    Word bounceSize;
    Word undoLogOff;
    Word undoLogSize;
    Word dataOff;
    Word dataSize;
    /// @}

    /** Persisted TLAB chunk size (bytes); 0 on pre-TLAB images. */
    Word tlabBytes;

    /** Pad so the TLAB slot table below starts cache-line aligned
     * (the metadata area begins at device offset 0). */
    Word tlabPad[10];

    /**
     * The active-TLAB registry (§4.1 extended for concurrency): slot
     * i holds the data-heap offsets [start, end) of the chunk its
     * threads are currently bumping into, or start == end == 0 when
     * free. Every allocation lands in a registered chunk, one at a
     * time per slot. A chunk's filler over [bump, end) is staged with
     * each allocation and made durable by that allocation's header
     * fence, so at most the last allocation of each registered chunk
     * is torn — recovery plugs it up to the chunk's end and reads
     * nothing outside the registered chunks.
     */
    Word tlabSlots[kMaxTlabSlots * kTlabSlotWords];

    Word
    tlabSlotStart(std::size_t i) const
    {
        return tlabSlots[i * kTlabSlotWords];
    }

    Word
    tlabSlotEnd(std::size_t i) const
    {
        return tlabSlots[i * kTlabSlotWords + 1];
    }

    void
    setTlabSlot(std::size_t i, Word start, Word end)
    {
        tlabSlots[i * kTlabSlotWords] = start;
        tlabSlots[i * kTlabSlotWords + 1] = end;
    }

    /** @name Persistent GC statistics (§4.2 bookkeeping)
     *
     * Written with the same flush+fence discipline as the other
     * metadata words at the end of every collection, so post-crash
     * readers never see stale values. */
    /// @{
    Word gcLastMarked;  ///< objects marked by the last collection
    Word gcCollections; ///< completed collections over the heap's life
    /// @}

    /** Number of compaction slices planned for the in-progress (or
     * most recent) collection; persisted before gcInProgress is
     * raised so recovery rebuilds the identical slice-aware summary. */
    Word gcSliceCount;

    /** @name Marking epoch record
     *
     * Every cycle, STW or concurrent, persists gcMarkingActive
     * (flush+fence) *before* it dirties its first mark-bitmap line,
     * and clears it right after it commits its mark state
     * (gcInProgress raised — compaction owns recovery from here). The
     * recovery rule is therefore: gcInProgress set → the snapshot is
     * provably durable, resume the compaction; gcMarkingActive alone →
     * the crash hit marking, the bitmap may be torn, discard the cycle
     * (clear bitmaps, bump gcMarkDiscards). */
    /// @{
    Word gcMarkingActive; ///< 1 while a cycle is marking
    Word gcMarkEpoch;     ///< cycles started (concurrent or STW)
    Word gcMarkDiscards;  ///< cycles discarded by crash recovery
    /// @}

    /** @name Per-cycle pause/overlap stats (persisted with the two
     * words above at the end of every collection) */
    /// @{
    Word gcLastConcMarkNs; ///< concurrent-mark wall time (0 when STW)
    Word gcLastRemarkNs;   ///< final remark pause (0 when STW)
    Word gcLastShaded;     ///< refs shaded by the write barrier
    Word gcLastFloating;   ///< floating-garbage upper bound
                           ///< (shaded + born-black allocations)
    /// @}

    /** Pad so the GC slice table below stays cache-line aligned. */
    Word gcStatsPad[6];

    /**
     * The per-slice compaction progress table (§4.2 extended for
     * region parallelism): slot i holds {beginRegion, endRegion,
     * cursorRegion}. A slice's worker processes regions
     * [beginRegion, endRegion) in ascending order and durably
     * advances cursorRegion past each completed region, so
     * compact(resume=true) recovery replays only the regions at or
     * past each slice's cursor. One cache line per slot: concurrent
     * workers never flush each other's lines.
     */
    Word gcSlices[kMaxGcSlices * kGcSliceWords];

    Word
    gcSliceBegin(std::size_t i) const
    {
        return gcSlices[i * kGcSliceWords];
    }

    Word
    gcSliceEnd(std::size_t i) const
    {
        return gcSlices[i * kGcSliceWords + 1];
    }

    Word
    gcSliceCursor(std::size_t i) const
    {
        return gcSlices[i * kGcSliceWords + 2];
    }

    void
    setGcSlice(std::size_t i, Word begin, Word end, Word cursor)
    {
        gcSlices[i * kGcSliceWords] = begin;
        gcSlices[i * kGcSliceWords + 1] = end;
        gcSlices[i * kGcSliceWords + 2] = cursor;
    }

    void
    setGcSliceCursor(std::size_t i, Word cursor)
    {
        gcSlices[i * kGcSliceWords + 2] = cursor;
    }
};

static_assert(offsetof(PjhMetadata, tlabSlots) % 64 == 0,
              "each TLAB slot must own a whole cache line");
static_assert(sizeof(PjhMetadata::tlabSlots) ==
                  PjhMetadata::kMaxTlabSlots * 64,
              "one cache line per TLAB slot");
static_assert(offsetof(PjhMetadata, gcSlices) % 64 == 0,
              "each GC slice slot must own a whole cache line");
static_assert(sizeof(PjhMetadata::gcSlices) ==
                  PjhMetadata::kMaxGcSlices * 64,
              "one cache line per GC slice slot");

/**
 * Compute component offsets for @p cfg.
 *
 * @return total device bytes required; fills @p meta's placement
 * fields (identity fields are left untouched).
 */
std::size_t computeLayout(const PjhConfig &cfg, PjhMetadata &meta);

} // namespace espresso

#endif // ESPRESSO_PJH_PJH_LAYOUT_HH
