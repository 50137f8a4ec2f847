/**
 * @file
 * The PJH Klass segment (paper §3.1, §3.3).
 *
 * Every Klass used by a persistent object gets a KlassImage in the
 * segment: a self-describing, persistent record of the class's
 * logical identity and layout (name, flags, flattened field table,
 * super link). Object headers point at their image (tagged, see
 * Oop), so the image doubles as a place-holder that is
 * "reinitialized in place" at loadHeap: binding just rewrites the
 * volatile runtimeKlass slot at the front of each image, leaving all
 * class pointers in the data heap valid. This is what makes heap
 * loading proportional to the number of Klasses rather than objects
 * (paper §3.3, Fig. 18).
 *
 * The images are also the heap's type oracle when no binding exists
 * yet: GC recovery and safety scans read layout straight from the
 * image bytes via the pjhRaw* helpers.
 */

#ifndef ESPRESSO_PJH_KLASS_SEGMENT_HH
#define ESPRESSO_PJH_KLASS_SEGMENT_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "pjh/name_table.hh"
#include "pjh/pjh_layout.hh"
#include "runtime/klass_registry.hh"
#include "runtime/oop.hh"

namespace espresso {

class NvmDevice;

/** One field record inside a KlassImage. */
struct FieldImage
{
    static constexpr std::size_t kMaxName = 55;

    char name[kMaxName + 1];
    std::uint32_t type;   ///< FieldType
    std::uint32_t offset; ///< byte offset from object start
};

static_assert(sizeof(FieldImage) == 64, "FieldImage must stay 64 bytes");

/** The persistent image of one Klass. */
struct KlassImage
{
    static constexpr std::size_t kMaxName = 63;
    static constexpr Word kFlagArray = 1u << 0;
    static constexpr Word kFlagPersistentOnly = 1u << 1;
    static constexpr unsigned kElemTypeShift = 8;

    PersistentKlassRef pkr; ///< magic + volatile runtime binding
    Word totalSize;         ///< bytes including field table
    Word flags;
    Word instanceSize;      ///< header-inclusive instance bytes
    Word fieldCount;        ///< flattened (inherited first)
    Word superOff;          ///< segment offset of super image or kNoneWord
    Word reserved;
    char name[kMaxName + 1];
    // FieldImage fields[fieldCount] follows.

    FieldImage *
    fields()
    {
        return reinterpret_cast<FieldImage *>(this + 1);
    }

    const FieldImage *
    fields() const
    {
        return reinterpret_cast<const FieldImage *>(this + 1);
    }

    FieldType
    elemType() const
    {
        return static_cast<FieldType>((flags >> kElemTypeShift) & 0xff);
    }

    bool isArray() const { return flags & kFlagArray; }

    static std::size_t
    sizeFor(std::size_t field_count)
    {
        return sizeof(KlassImage) + field_count * sizeof(FieldImage);
    }
};

static_assert(sizeof(KlassImage) == 128, "KlassImage header is 128 bytes");

/**
 * @name Raw object inspection (no runtime binding required)
 *
 * Each helper takes a delta for a heap whose stored addresses are
 * delta bytes below their current physical location (pre-rebase
 * attach; 0 once attached).
 */
/// @{

/** The KlassImage an object's header points at. */
inline const KlassImage *
pjhRawImage(Oop o, std::ptrdiff_t delta = 0)
{
    return reinterpret_cast<const KlassImage *>(
        static_cast<Addr>(o.klassImage() + delta));
}

/** True when @p o's header points at a plausible image inside the
 * segment at [@p seg_base, @p seg_base + @p seg_size). */
bool pjhRawHeaderValid(Oop o, Addr seg_base, std::size_t seg_size,
                       std::ptrdiff_t delta = 0);

/** Object footprint from image data alone. */
std::size_t pjhRawObjectSize(Oop o, std::ptrdiff_t delta = 0);

/**
 * Visit every reference-slot address of @p o using image layout.
 * Inline so the collector's trace loop calls @p visitor directly.
 */
template <typename Visitor>
void
pjhRawForEachRefSlotWithDelta(Oop o, std::ptrdiff_t delta,
                              Visitor &&visitor)
{
    const KlassImage *img = pjhRawImage(o, delta);
    if (img->isArray()) {
        if (img->elemType() != FieldType::kRef)
            return;
        std::uint64_t n = o.arrayLength();
        for (std::uint64_t i = 0; i < n; ++i)
            visitor(o.elemAddr(i, kWordSize));
        return;
    }
    const FieldImage *fields = img->fields();
    for (Word i = 0; i < img->fieldCount; ++i) {
        if (static_cast<FieldType>(fields[i].type) == FieldType::kRef)
            visitor(o.addr() + fields[i].offset);
    }
}

/** Visit every reference-slot address of @p o using image layout. */
template <typename Visitor>
void
pjhRawForEachRefSlot(Oop o, Visitor &&visitor)
{
    pjhRawForEachRefSlotWithDelta(o, 0, visitor);
}
/// @}

/** Manages the Klass segment of one PJH instance. */
class KlassSegment
{
  public:
    KlassSegment() = default;

    /**
     * @param device owning device.
     * @param base working-image address of the segment.
     * @param size segment capacity in bytes.
     * @param meta metadata area (holds the persisted segment top).
     * @param names the heap's name table (Klass entries live there).
     */
    KlassSegment(NvmDevice *device, Addr base, std::size_t size,
                 PjhMetadata *meta, NameTable *names);

    /**
     * Return the image address for logical class @p k, writing and
     * publishing a new image (crash-consistently) on first use.
     * @p k may be any physical alias. Thread-safe: concurrent calls
     * for the same class publish exactly one image.
     */
    Addr ensureImage(const Klass *k, KlassRegistry &registry);

    /**
     * Class reinitialization at loadHeap: bind every image in the
     * segment to a live (persistent-kind) Klass, defining classes in
     * the registry from image data when the application has not
     * already done so. O(#Klasses).
     */
    void bindAll(KlassRegistry &registry);

    /** Image address for @p k, or kNullAddr when none exists yet. */
    Addr imageFor(const Klass *k) const;

    /** Number of images (== Klass entries in the name table). */
    std::size_t imageCount() const;

    Addr base() const { return base_; }
    std::size_t size() const { return size_; }

    bool
    containsImage(Addr a) const
    {
        return a >= base_ && a < base_ + size_;
    }

  private:
    Addr writeImage(const Klass *k, KlassRegistry &registry);
    Klass *bindImage(Addr image_addr, KlassRegistry &registry);

    NvmDevice *device_ = nullptr;
    Addr base_ = 0;
    std::size_t size_ = 0;
    PjhMetadata *meta_ = nullptr;
    NameTable *names_ = nullptr;
    std::map<std::uint32_t, Addr> imageByLogicalId_;
    /** Serializes image creation/binding and the cache map; writeImage
     * recurses into supers, hence recursive. unique_ptr keeps the
     * segment move-assignable (setupViews rebuilds it). */
    std::unique_ptr<std::recursive_mutex> mu_ =
        std::make_unique<std::recursive_mutex>();
};

} // namespace espresso

#endif // ESPRESSO_PJH_KLASS_SEGMENT_HH
