/**
 * @file
 * The volatile generational heap (Parallel Scavenge analog).
 *
 * Layout: [eden][survivor-from][survivor-to][old]. Objects allocate
 * by bumping eden; young collections copy survivors between the
 * survivor spaces and tenure them into old after kTenureThreshold
 * copies; old collections run the same mark/summary/compact algorithm
 * the PJH extends (paper §3.1: PJH "resembles the old GC in PSGC").
 *
 * Cross-heap references: spaces outside this heap (PJH instances) may
 * hold references into it; they register as ExternalSpace providers
 * whose out-slots are treated as roots and fixed up after moves.
 */

#ifndef ESPRESSO_HEAP_VOLATILE_HEAP_HH
#define ESPRESSO_HEAP_VOLATILE_HEAP_HH

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "runtime/handles.hh"
#include "runtime/klass.hh"
#include "runtime/oop.hh"
#include "util/common.hh"

namespace espresso {

/** Visitor over addresses of reference slots. */
using SlotVisitor = std::function<void(Addr)>;

/** A foreign space that may reference volatile objects. */
class ExternalSpace
{
  public:
    virtual ~ExternalSpace() = default;

    /** Visit every slot that may hold a ref into the volatile heap. */
    virtual void forEachOutRefSlot(const SlotVisitor &visitor) = 0;

    /**
     * SATB deletion-barrier hook for the DRAM side: @p ref is the
     * value a volatile root slot (a handle) is about to stop
     * holding, and may point into this space. A space running a
     * concurrent mark shades it into its SATB buffer; values outside
     * the space — and spaces not marking — ignore the call.
     * Default: no-op.
     */
    virtual void shadeOverwrittenRef(Addr ref) { (void)ref; }
};

/** Sizing knobs for the volatile heap. */
struct VolatileHeapConfig
{
    std::size_t edenSize = 4u << 20;
    std::size_t survivorSize = 1u << 20;
    std::size_t oldSize = 32u << 20;
    unsigned tenureThreshold = 2;
    std::size_t oldRegionSize = 64u << 10;
};

/** GC counters. */
struct GcStats
{
    std::uint64_t youngCollections = 0;
    std::uint64_t oldCollections = 0;
    std::uint64_t bytesPromoted = 0;
    std::uint64_t bytesCopiedYoung = 0;
    std::uint64_t bytesCompactedOld = 0;
};

class YoungGc;
class OldGc;

/** The DRAM heap: allocation plus both collectors. */
class VolatileHeap
{
  public:
    explicit VolatileHeap(const VolatileHeapConfig &cfg = {});
    ~VolatileHeap();

    VolatileHeap(const VolatileHeap &) = delete;
    VolatileHeap &operator=(const VolatileHeap &) = delete;

    /** @name Allocation */
    /// @{
    /**
     * Allocate and zero-initialize an instance of @p k (the `new`
     * analog). Runs GC on demand; throws FatalError when even a full
     * collection cannot satisfy the request.
     */
    Oop allocInstance(const Klass *k);

    /** Allocate and zero an array of @p k (an array class). */
    Oop allocArray(const Klass *k, std::uint64_t length);
    /// @}

    /** @name Roots */
    /// @{
    HandleRegistry &handles() { return handles_; }

    void addExternalSpace(ExternalSpace *space);
    void removeExternalSpace(ExternalSpace *space);

    /** Fan a DRAM-side deletion-barrier event out to every external
     * space (see ExternalSpace::shadeOverwrittenRef); wired into the
     * handle registry's overwrite hook at construction. */
    void shadeExternalRef(Addr ref);

    /** Extra root-slot provider (e.g. PJH root tables). */
    void addRootProvider(std::function<void(const SlotVisitor &)> provider);
    /// @}

    /** @name Collection */
    /// @{
    void collectYoung();
    void collectFull();
    /// @}

    /** @name Geometry */
    /// @{
    bool contains(Addr a) const;
    bool inYoung(Addr a) const;
    bool inOld(Addr a) const;
    std::size_t edenUsed() const { return edenTop_ - edenBase_; }
    std::size_t oldUsed() const { return oldTop_ - oldBase_; }
    /// @}

    const GcStats &stats() const { return stats_; }
    const VolatileHeapConfig &config() const { return cfg_; }

    /** Walk all live objects in the old space (debug/verify). */
    void forEachOldObject(const std::function<void(Oop)> &fn) const;

    /** Walk every object in eden, survivor and old space. */
    void forEachObject(const std::function<void(Oop)> &fn) const;

  private:
    friend class YoungGc;
    friend class OldGc;

    Addr tryBump(Addr &top, Addr limit, std::size_t size);
    Oop allocRaw(const Klass *k, std::uint64_t length, bool allow_gc);
    void initObject(Addr a, const Klass *k, std::uint64_t length,
                    std::size_t size);
    Addr allocInOld(std::size_t size);
    void visitAllRootSlots(const SlotVisitor &visitor);

    struct FreeBytes
    {
        void operator()(std::uint8_t *p) const { std::free(p); }
    };

    VolatileHeapConfig cfg_;
    /** Zeroed by calloc, which leaves memory the kernel hands out
     * already zeroed untouched: a new heap's pages fault in on first
     * use, not all at construction. */
    std::unique_ptr<std::uint8_t[], FreeBytes> storage_;

    Addr edenBase_, edenTop_, edenLimit_;
    Addr fromBase_, fromTop_, fromLimit_;
    Addr toBase_, toLimit_;
    Addr oldBase_, oldTop_, oldLimit_;

    HandleRegistry handles_;
    /** Guards externalSpaces_: fabric/heap creation may wire shards
     * from several threads while a volatile collection walks the
     * list. */
    mutable std::mutex externalMu_;
    std::vector<ExternalSpace *> externalSpaces_;
    std::vector<std::function<void(const SlotVisitor &)>> rootProviders_;
    GcStats stats_;
    bool inGc_ = false;
};

} // namespace espresso

#endif // ESPRESSO_HEAP_VOLATILE_HEAP_HH
