/**
 * @file
 * Crash-consistent collection of the persistent space (paper §4.2).
 *
 * The algorithm is PSGC's old GC (mark / summary / compact) with the
 * persistence protocol layered on:
 *
 *  1. Mark into the NVM-resident bitmaps; persist them, then the
 *     incremented global timestamp (staling every object), then the
 *     compaction-slice plan, the root redo journal (new values for
 *     every root-table entry, computed from the idempotent summary),
 *     and finally the in-collection flag.
 *  2. Apply the journal (idempotent), then slide live objects down
 *     in ascending address order. Each object is copied, its
 *     references rewritten through the summary's pure forwardee
 *     function, its content persisted, and only then its header
 *     timestamp set to the global stamp and persisted — the
 *     timestamp is the "processed" marker recovery inspects.
 *     Self-overlapping moves stage the source in the persistent
 *     bounce buffer (owner tag persisted before the destination is
 *     touched), preserving the undo-by-source property. Fully
 *     evacuated regions are recorded in the region bitmap and in the
 *     owning slice's durable cursor.
 *  3. Persist the new top, retire the TLAB slot table (compaction
 *     subsumed every chunk), clear the in-collection flag, then
 *     repair the volatile side (handles, DRAM objects) — all
 *     recomputable.
 *
 * A cycle is one sequence whatever the mode: pause mutators, arm the
 * durable marking-epoch record, snapshot the root values, trace,
 * remark (fresh roots plus the SATB residue), persist the bitmaps,
 * then commit and compact. Stop-the-world cycles hold the pause
 * throughout; concurrent cycles release mutators for the first trace
 * only (see PjhGc::collect).
 *
 * Both phases are region-parallel (the paper's §4.2 bitmap design
 * permits region-granular compaction):
 *
 *  - **Mark** is one tracer on gcThreads pool workers (a pool of one
 *    when gcThreads == 1). An object is claimed by an atomic CAS on
 *    its start bit, so it lands on exactly one worker's private
 *    stack. The trace and the remark are two calls of it.
 *  - **Compact** partitions the used regions into up to gcThreads
 *    slices balanced by live bytes. Each slice packs its live data
 *    into its own region span (see RegionTable::buildSummary's
 *    slice-aware overload), making slices disjoint in both source
 *    and destination, so workers compact them concurrently; sliding
 *    within a slice stays sequential, preserving the torn-object
 *    repair invariants. Inter-slice gaps are plugged with filler
 *    objects (reclaimed by the next collection). The slice plan is
 *    persisted in PjhMetadata before the in-collection flag, and
 *    each slice durably advances a per-slice region cursor, so
 *    compact(resume=true) recovery rebuilds the identical summary
 *    and replays only unfinished slices.
 *
 * With gcThreads == 1 the plan is a single slice starting at the
 * space base — exactly the classic global sliding compaction.
 *
 * PjhCompactor holds the shared machinery; PjhRecovery (§4.3) drives
 * the same compactor in resume mode with a remap delta.
 */

#ifndef ESPRESSO_PJH_PJH_GC_HH
#define ESPRESSO_PJH_PJH_GC_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "heap/region_table.hh"
#include "pjh/pjh_heap.hh"

namespace espresso {

/** Summary + crash-consistent compaction shared by GC and recovery.
 *
 * All persistent state (slot values, root entries) is expressed in
 * the heap's *stored* address space; @p delta translates stored to
 * physical addresses and is zero during online collection.
 */
class PjhCompactor
{
  public:
    PjhCompactor(PjhHeap &heap, std::ptrdiff_t delta);

    /** Rebuild the region indices from the (persisted) mark bitmap,
     * as one global sliding slice (pre-planning summary). */
    void buildSummary();

    /**
     * Partition the used regions into at most @p threads slices
     * balanced by live bytes, persist the plan (count + per-slice
     * {begin, end, cursor=begin}) into the metadata area, and
     * rebuild the summary slice-aware. Slices whose inter-slice gap
     * would be a single word (too small for a filler header) are
     * merged with their successor. Must run after buildSummary() and
     * before writeRootJournal().
     */
    void planSlices(unsigned threads);

    /** Recovery path: adopt the persisted slice plan and rebuild the
     * slice-aware summary from it. */
    void loadSlices();

    /** Write the root redo journal (new value per root entry). */
    void writeRootJournal();

    /** (Re)apply the journal to the root-table entries. Idempotent. */
    void applyRootJournal();

    /**
     * Process every marked object, slice by slice, with up to
     * @p workers threads claiming whole slices.
     * @param resume skip regions below each slice's durable cursor or
     *        recorded in the region bitmap, and objects whose
     *        destination already carries the current timestamp.
     */
    void compact(bool resume, unsigned workers = 1);

    /** Persist the new top, retire the TLAB slots, and clear the
     * in-collection flag. */
    void finish();

    /** Post-compaction destination of stored-space address @p v. */
    Addr forwardStored(Addr stored) const;

    Addr newTopPhys() const;

  private:
    void processSlice(std::size_t s, bool resume,
                      const std::atomic<bool> *abort);
    void processObject(Addr src_phys, std::size_t size);
    void copyWithFixups(Addr src_phys, Addr dest_phys, std::size_t size);

    /** Cover an inter-slice gap with a durable filler object so the
     * compacted heap parses end to end. */
    void plugSliceGap(Addr gap, std::size_t bytes);

    /** True when no live object straddles region @p r's base — the
     * precondition for cutting a slice boundary there. */
    bool boundaryIsObjectAligned(std::size_t r) const;

    std::size_t usedRegions() const;

    PjhHeap &h_;
    NvmDevice &dev_;
    std::ptrdiff_t delta_; ///< physical = stored + delta
    Addr dataPhys_;
    Addr dataStored_;
    RegionTable regions_;
    std::uint16_t stamp_;
    /** First region index of each planned slice (mirrors the
     * persisted plan; drives the slice-aware summary). */
    std::vector<std::size_t> sliceBegins_;
    /** Serializes the shared bounce buffer across slice workers; the
     * owner-tag protocol keeps single-owner semantics durable. */
    std::mutex bounceMu_;
};

/** One online persistent-space collection. */
class PjhGc
{
  public:
    PjhGc(PjhHeap &heap, VolatileHeap *volatile_heap);

    /**
     * Run one cycle. The safepoint (kPaused) holds from start to
     * finish, except that with @p concurrent mutators are released
     * (kMarking) for the first trace: the write barrier then shades
     * overwritten referents into the SATB buffer and allocations are
     * born black. The epoch record is armed at the first safepoint
     * and retired once gcInProgress commits the snapshot, so a crash
     * before that point discards the cycle on attach and a crash
     * after it resumes the compaction.
     */
    void collect(bool concurrent);

  private:
    /** Current root *values*, non-null: name-table roots and DRAM
     * slots. Values, not slot addresses — the volatile side keeps
     * running under a concurrent trace and may move its slots. */
    std::vector<Addr> snapshotRoots();

    /**
     * Mark everything reachable from the root values @p roots and
     * from the already-claimed (grey) objects in the heap's SATB
     * buffer, on gcThreads() pool workers; returns the objects this
     * call claimed. Each worker keeps a private stack, hands half of
     * it to a shared list only while a peer is idle, and drains the
     * SATB buffer before going idle. Entries the barrier queues after
     * the last worker idles are left for the next call (the remark).
     */
    std::uint64_t trace(const std::vector<Addr> &roots);

    bool isFillerRef(Addr ref) const;
    void visitDramSlots(const SlotVisitor &visitor);
    void fixVolatileSide(const PjhCompactor &compactor);
    /** Stale stamp, summary/plan/journal, gcInProgress, retire the
     * epoch record, compact, finish, volatile fixup. Returns the
     * compact-phase ns. */
    std::uint64_t commitAndCompact(unsigned workers);
    /** Persist the per-cycle stats block (gcLastMarked through
     * gcLastFloating, one flush range + fence) and mirror it into
     * PjhStats. STW cycles pass zeros for the concurrent fields so a
     * post-crash reader never sees a stale overlap figure. */
    void persistCycleStats(std::uint64_t marked, std::uint64_t conc_ns,
                           std::uint64_t remark_ns, std::uint64_t shaded,
                           std::uint64_t floating);

    PjhHeap &h_;
    VolatileHeap *vh_;
};

} // namespace espresso

#endif // ESPRESSO_PJH_PJH_GC_HH
