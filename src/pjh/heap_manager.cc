#include "pjh/heap_manager.hh"

#include "util/logging.hh"

namespace espresso {

HeapManager::HeapManager(KlassRegistry *registry,
                         VolatileHeap *volatile_heap, NvmConfig nvm_cfg)
    : registry_(registry), volatileHeap_(volatile_heap), nvmCfg_(nvm_cfg)
{}

HeapManager::~HeapManager() = default;

HeapFabric *
HeapManager::findFabric(const std::string &name) const
{
    // A reserved-but-unbuilt entry (mid-createFabric) reads as
    // absent: racing a lookup against an in-flight create of the
    // same name is the caller's coordination problem, and a null
    // here keeps every accessor's not-found path honest.
    auto it = fabrics_.find(name);
    return it == fabrics_.end() ? nullptr : it->second.get();
}

void
HeapManager::setGcThreads(unsigned n)
{
    std::lock_guard<std::mutex> g(mu_);
    gcThreads_ = n;
    // n == 0 restores each heap's own default (PjhHeap::setGcThreads
    // interprets 0 the same way).
    for (auto &kv : fabrics_)
        kv.second->setGcThreads(n);
}

PjhHeap *
HeapManager::createHeap(const std::string &name, std::size_t data_size)
{
    PjhConfig cfg;
    cfg.dataSize = data_size;
    return createHeap(name, cfg);
}

PjhHeap *
HeapManager::createHeap(const std::string &name, const PjhConfig &cfg)
{
    // The classic single-heap surface is exactly a 1-shard fabric.
    return createFabric(name, cfg, 1)->shard(0);
}

HeapFabric *
HeapManager::createFabric(const std::string &name,
                          const PjhConfig &shard_cfg, unsigned shards,
                          unsigned vnodes)
{
    unsigned gc_threads;
    {
        // Reserve the name only; the multi-device format below must
        // not stall unrelated registry lookups. A reserved-but-
        // unbuilt entry reads as "exists" to duplicate creates and
        // as "not found" to lookups until it is published.
        std::lock_guard<std::mutex> g(mu_);
        if (fabrics_.count(name))
            fatal("createHeap: heap '" + name + "' already exists");
        fabrics_[name] = nullptr;
        gc_threads = gcThreads_;
    }

    auto fabric = std::make_unique<HeapFabric>(registry_, volatileHeap_,
                                               nvmCfg_);
    if (gc_threads != 0)
        fabric->setGcThreads(gc_threads);
    FabricConfig fcfg;
    fcfg.shard = shard_cfg;
    fcfg.shards = shards;
    fcfg.vnodes = vnodes;
    try {
        // A simulated power failure mid-create propagates with the
        // reservation released; the crash sweeps re-run creation
        // against a standalone HeapFabric instead, which keeps its
        // devices.
        fabric->create(fcfg);
    } catch (...) {
        std::lock_guard<std::mutex> g(mu_);
        fabrics_.erase(name);
        throw;
    }

    HeapFabric *raw = fabric.get();
    std::lock_guard<std::mutex> g(mu_);
    fabrics_[name] = std::move(fabric);
    return raw;
}

PjhHeap *
HeapManager::loadHeap(const std::string &name, SafetyLevel safety)
{
    return loadFabric(name, safety)->shard(0);
}

HeapFabric *
HeapManager::loadFabric(const std::string &name, SafetyLevel safety)
{
    std::lock_guard<std::mutex> g(mu_);
    HeapFabric *fabric = findFabric(name);
    if (!fabric)
        fatal("loadHeap: no heap named '" + name + "'");
    // Full recovery when the fabric is down, per-member reattach
    // when only some shards were crashed — loadHeap must never
    // return a null member.
    fabric->ensureAttached(safety);
    return fabric;
}

bool
HeapManager::existsHeap(const std::string &name) const
{
    // Count reservations too: a name mid-create already "exists"
    // (a duplicate createHeap of it fails), matching that check.
    std::lock_guard<std::mutex> g(mu_);
    return fabrics_.count(name) != 0;
}

HeapFabric *
HeapManager::fabric(const std::string &name) const
{
    std::lock_guard<std::mutex> g(mu_);
    return findFabric(name);
}

PjhHeap *
HeapManager::heap(const std::string &name) const
{
    std::lock_guard<std::mutex> g(mu_);
    HeapFabric *fabric = findFabric(name);
    return fabric && fabric->attached() ? fabric->shard(0) : nullptr;
}

void
HeapManager::detachHeap(const std::string &name)
{
    std::lock_guard<std::mutex> g(mu_);
    HeapFabric *fabric = findFabric(name);
    if (!fabric || !fabric->attached())
        fatal("detachHeap: heap '" + name + "' is not loaded");
    fabric->detach();
}

void
HeapManager::crashHeap(const std::string &name, CrashMode mode,
                       std::uint64_t seed)
{
    std::lock_guard<std::mutex> g(mu_);
    HeapFabric *fabric = findFabric(name);
    if (!fabric)
        fatal("crashHeap: no heap named '" + name + "'");
    fabric->crashAll(mode, seed);
}

void
HeapManager::migrateHeap(const std::string &name)
{
    std::lock_guard<std::mutex> g(mu_);
    HeapFabric *fabric = findFabric(name);
    if (!fabric)
        fatal("migrateHeap: no heap named '" + name + "'");
    if (fabric->attached())
        fatal("migrateHeap: detach or crash '" + name + "' first");
    fabric->migrate();
}

NvmDevice *
HeapManager::deviceOf(const std::string &name) const
{
    std::lock_guard<std::mutex> g(mu_);
    HeapFabric *fabric = findFabric(name);
    return fabric ? fabric->shardDevice(0) : nullptr;
}

} // namespace espresso
