/**
 * @file
 * Bit vector over an externally supplied word buffer.
 *
 * Both the volatile old GC and the persistent PJH GC use bitmaps with
 * one bit per heap granule. The PJH variant must live inside the
 * persistent space so the mark state survives a crash, so the bitmap
 * does not own its storage: callers hand it a word buffer (volatile or
 * NVM-backed).
 */

#ifndef ESPRESSO_UTIL_BITMAP_HH
#define ESPRESSO_UTIL_BITMAP_HH

#include <atomic>
#include <cstddef>
#include <cstring>
#include <vector>

#include "util/common.hh"

namespace espresso {

/** A fixed-size bit vector viewing caller-owned storage. */
class BitmapView
{
  public:
    BitmapView() : words_(nullptr), numBits_(0) {}

    /**
     * @param words backing buffer, at least wordsFor(num_bits) words.
     * @param num_bits number of addressable bits.
     */
    BitmapView(Word *words, std::size_t num_bits)
        : words_(words), numBits_(num_bits)
    {}

    /** Words needed to back @p num_bits bits. */
    static constexpr std::size_t
    wordsFor(std::size_t num_bits)
    {
        return (num_bits + 63) / 64;
    }

    /** Bytes needed to back @p num_bits bits. */
    static constexpr std::size_t
    bytesFor(std::size_t num_bits)
    {
        return wordsFor(num_bits) * sizeof(Word);
    }

    std::size_t numBits() const { return numBits_; }
    Word *data() { return words_; }
    const Word *data() const { return words_; }
    std::size_t sizeBytes() const { return bytesFor(numBits_); }

    bool
    test(std::size_t bit) const
    {
        return (words_[bit / 64] >> (bit % 64)) & 1;
    }

    void set(std::size_t bit) { words_[bit / 64] |= Word(1) << (bit % 64); }

    /**
     * Atomically set @p bit; safe against concurrent setters sharing
     * the backing word. Returns true when this call flipped the bit
     * (it was previously clear) — the CAS-claim primitive the
     * parallel GC mark uses to push each object exactly once.
     */
    bool
    testAndSetAtomic(std::size_t bit)
    {
        Word mask = Word(1) << (bit % 64);
        Word old = std::atomic_ref<Word>(words_[bit / 64])
                       .fetch_or(mask, std::memory_order_acq_rel);
        return (old & mask) == 0;
    }

    /** Atomic read of @p bit (pre-claim fast path). */
    bool
    testAtomic(std::size_t bit) const
    {
        Word w = std::atomic_ref<Word>(
                     const_cast<Word &>(words_[bit / 64]))
                     .load(std::memory_order_relaxed);
        return (w >> (bit % 64)) & 1;
    }

    /** Atomically set @p bit without reporting the old value. */
    void
    setAtomic(std::size_t bit)
    {
        std::atomic_ref<Word>(words_[bit / 64])
            .fetch_or(Word(1) << (bit % 64), std::memory_order_relaxed);
    }

    /** Set all bits in [begin, end) with word-atomic ORs, safe
     * against concurrent range-setters whose ranges share boundary
     * words (adjacent live-bitmap objects). */
    void setRangeAtomic(std::size_t begin, std::size_t end);

    void
    clear(std::size_t bit)
    {
        words_[bit / 64] &= ~(Word(1) << (bit % 64));
    }

    /** Clear the entire bitmap. An empty view has no buffer, and
     * memset of a null pointer is undefined even for zero bytes. */
    void
    clearAll()
    {
        if (numBits_ != 0)
            std::memset(words_, 0, bytesFor(numBits_));
    }

    /** Set all bits in [begin, end). */
    void setRange(std::size_t begin, std::size_t end);

    /** Count set bits in [begin, end). */
    std::size_t popcount(std::size_t begin, std::size_t end) const;

    /**
     * Find the first set bit at or after @p from, strictly before
     * @p limit. Returns @p limit when none exists.
     */
    std::size_t findNextSet(std::size_t from, std::size_t limit) const;

  private:
    Word *words_;
    std::size_t numBits_;
};

/** A bitmap that owns its storage (volatile-side uses). */
class OwnedBitmap : public BitmapView
{
  public:
    explicit OwnedBitmap(std::size_t num_bits)
        : BitmapView(), storage_(wordsFor(num_bits), 0)
    {
        *static_cast<BitmapView *>(this) =
            BitmapView(storage_.data(), num_bits);
    }

  private:
    std::vector<Word> storage_;
};

} // namespace espresso

#endif // ESPRESSO_UTIL_BITMAP_HH
