#include "heap/volatile_heap.hh"

#include <algorithm>
#include <cstring>
#include <new>

#include "heap/old_gc.hh"
#include "heap/young_gc.hh"
#include "util/logging.hh"

namespace espresso {

namespace {

std::uint8_t *
zeroedBytes(std::size_t n)
{
    void *p = std::calloc(n, 1);
    if (p == nullptr)
        throw std::bad_alloc();
    return static_cast<std::uint8_t *>(p);
}

} // namespace

VolatileHeap::VolatileHeap(const VolatileHeapConfig &cfg)
    : cfg_(cfg),
      storage_(zeroedBytes(cfg.edenSize + 2 * cfg.survivorSize +
                           cfg.oldSize + kWordSize))
{
    Addr base = reinterpret_cast<Addr>(storage_.get());
    base = alignUp(base, kWordSize);

    edenBase_ = edenTop_ = base;
    edenLimit_ = edenBase_ + cfg.edenSize;
    fromBase_ = fromTop_ = edenLimit_;
    fromLimit_ = fromBase_ + cfg.survivorSize;
    toBase_ = fromLimit_;
    toLimit_ = toBase_ + cfg.survivorSize;
    oldBase_ = oldTop_ = toLimit_;
    oldLimit_ = oldBase_ + cfg.oldSize;

    // DRAM-side SATB deletion barrier: handle overwrites/releases
    // report the dropped value to every external space, so a PJH
    // shard in concurrent mark never loses its last snapshot path
    // through a volatile root.
    handles_.setOverwriteHook(
        [this](Addr ref) { shadeExternalRef(ref); });
}

VolatileHeap::~VolatileHeap() = default;

bool
VolatileHeap::contains(Addr a) const
{
    return a >= edenBase_ && a < oldLimit_;
}

bool
VolatileHeap::inYoung(Addr a) const
{
    // Eden plus BOTH survivor spaces: the from/to roles swap every
    // scavenge, but the young generation's footprint is fixed
    // ([eden, old)), and membership must not depend on which
    // survivor space currently plays which role.
    return a >= edenBase_ && a < oldBase_;
}

bool
VolatileHeap::inOld(Addr a) const
{
    return a >= oldBase_ && a < oldLimit_;
}

Addr
VolatileHeap::tryBump(Addr &top, Addr limit, std::size_t size)
{
    if (top + size > limit)
        return kNullAddr;
    Addr a = top;
    top += size;
    return a;
}

void
VolatileHeap::initObject(Addr a, const Klass *k, std::uint64_t length,
                         std::size_t size)
{
    std::memset(reinterpret_cast<void *>(a), 0, size);
    Oop o(a);
    o.setKlass(k);
    if (k->isArray())
        o.setArrayLength(length);
}

Oop
VolatileHeap::allocRaw(const Klass *k, std::uint64_t length, bool allow_gc)
{
    std::size_t size = Oop::sizeFor(k, length);

    // Oversized objects go straight to the old space.
    if (size > cfg_.edenSize / 2) {
        Addr a = allocInOld(size);
        if (a == kNullAddr)
            fatal("volatile heap: cannot fit " + std::to_string(size) +
                  " bytes even in the old space");
        initObject(a, k, length, size);
        return Oop(a);
    }

    Addr a = tryBump(edenTop_, edenLimit_, size);
    if (a == kNullAddr && allow_gc) {
        collectYoung();
        a = tryBump(edenTop_, edenLimit_, size);
        if (a == kNullAddr) {
            collectFull();
            a = tryBump(edenTop_, edenLimit_, size);
        }
    }
    if (a == kNullAddr)
        fatal("volatile heap: out of memory allocating " +
              std::to_string(size) + " bytes");
    initObject(a, k, length, size);
    return Oop(a);
}

Oop
VolatileHeap::allocInstance(const Klass *k)
{
    if (!k || k->isArray())
        panic("allocInstance: not an instance klass");
    return allocRaw(k, 0, !inGc_);
}

Oop
VolatileHeap::allocArray(const Klass *k, std::uint64_t length)
{
    if (!k || !k->isArray())
        panic("allocArray: not an array klass");
    return allocRaw(k, length, !inGc_);
}

Addr
VolatileHeap::allocInOld(std::size_t size)
{
    Addr a = tryBump(oldTop_, oldLimit_, size);
    if (a == kNullAddr && !inGc_) {
        collectFull();
        a = tryBump(oldTop_, oldLimit_, size);
    }
    return a;
}

void
VolatileHeap::addExternalSpace(ExternalSpace *space)
{
    std::lock_guard<std::mutex> g(externalMu_);
    externalSpaces_.push_back(space);
}

void
VolatileHeap::removeExternalSpace(ExternalSpace *space)
{
    std::lock_guard<std::mutex> g(externalMu_);
    std::erase(externalSpaces_, space);
}

void
VolatileHeap::shadeExternalRef(Addr ref)
{
    if (ref == kNullAddr)
        return;
    std::lock_guard<std::mutex> g(externalMu_);
    for (ExternalSpace *space : externalSpaces_)
        space->shadeOverwrittenRef(ref);
}

void
VolatileHeap::addRootProvider(
    std::function<void(const SlotVisitor &)> provider)
{
    rootProviders_.push_back(std::move(provider));
}

void
VolatileHeap::visitAllRootSlots(const SlotVisitor &visitor)
{
    handles_.forEachSlot(visitor);
    for (auto &provider : rootProviders_)
        provider(visitor);
    // Snapshot under the lock: a concurrent fabric create may be
    // wiring new shards while a collection walks the list (the new
    // space is empty until the wiring returns, so either view is
    // consistent).
    std::vector<ExternalSpace *> spaces;
    {
        std::lock_guard<std::mutex> g(externalMu_);
        spaces = externalSpaces_;
    }
    for (ExternalSpace *space : spaces)
        space->forEachOutRefSlot(visitor);
}

void
VolatileHeap::collectYoung()
{
    inGc_ = true;
    YoungGc gc(*this);
    gc.collect();
    inGc_ = false;
    ++stats_.youngCollections;
}

void
VolatileHeap::collectFull()
{
    inGc_ = true;
    {
        YoungGc young(*this);
        young.collect();
    }
    {
        OldGc old(*this);
        old.collect();
    }
    inGc_ = false;
    ++stats_.youngCollections;
    ++stats_.oldCollections;
}

void
VolatileHeap::forEachOldObject(const std::function<void(Oop)> &fn) const
{
    Addr a = oldBase_;
    while (a < oldTop_) {
        Oop o(a);
        fn(o);
        a += o.sizeInBytes();
    }
}

void
VolatileHeap::forEachObject(const std::function<void(Oop)> &fn) const
{
    Addr a = edenBase_;
    while (a < edenTop_) {
        Oop o(a);
        fn(o);
        a += o.sizeInBytes();
    }
    a = fromBase_;
    while (a < fromTop_) {
        Oop o(a);
        fn(o);
        a += o.sizeInBytes();
    }
    forEachOldObject(fn);
}

} // namespace espresso
