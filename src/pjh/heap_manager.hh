/**
 * @file
 * The external name manager of §3.3 plus the Table-1 API surface,
 * sharded: every named heap is a HeapFabric.
 *
 * Maps heap names to fabrics (each fabric: a consistent-hash ring of
 * PJH shards, one NvmDevice per shard, plus a durable ring manifest),
 * attaches and detaches them, wires attached shards into the volatile
 * collectors, and — for tests and the crash-recovery example —
 * simulates power failures and reboots, including the "mapped at a
 * different address" reboot that exercises the rebase scan.
 *
 * The classic Table-1 single-heap API (createHeap/loadHeap/heap/...)
 * is unchanged and is implemented as a 1-shard fabric, so existing
 * callers see exactly the old semantics. createFabric/loadFabric/
 * fabric expose the sharded surface.
 *
 * Thread safety: the named-fabric registry is guarded by one mutex —
 * create/load/exists/heap/fabric/detach/crash/migrate may race freely
 * (a duplicate createHeap still fails fatally, but deterministically).
 * Traffic *inside* a fabric (allocation, roots, per-shard GC) never
 * takes the registry lock.
 */

#ifndef ESPRESSO_PJH_HEAP_MANAGER_HH
#define ESPRESSO_PJH_HEAP_MANAGER_HH

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "heap/volatile_heap.hh"
#include "nvm/nvm_device.hh"
#include "pjh/heap_fabric.hh"
#include "pjh/pjh_heap.hh"
#include "runtime/klass_registry.hh"

namespace espresso {

/** Owns all named fabrics (and thus PJH instances) of one runtime. */
class HeapManager
{
  public:
    /**
     * @param registry runtime class directory.
     * @param volatile_heap DRAM heap for cross-heap GC wiring (may be
     *        null for standalone persistent heaps).
     * @param nvm_cfg latency/behaviour knobs applied to new devices.
     */
    HeapManager(KlassRegistry *registry, VolatileHeap *volatile_heap,
                NvmConfig nvm_cfg = {});
    ~HeapManager();

    HeapManager(const HeapManager &) = delete;
    HeapManager &operator=(const HeapManager &) = delete;

    /** @name Table 1 (single-heap surface: a 1-shard fabric) */
    /// @{
    /** Create a PJH instance with @p data_size bytes of object space. */
    PjhHeap *createHeap(const std::string &name, std::size_t data_size);

    /** Create with full sizing control. */
    PjhHeap *createHeap(const std::string &name, const PjhConfig &cfg);

    /** Load (attach) a pre-existing instance into the runtime. */
    PjhHeap *loadHeap(const std::string &name,
                      SafetyLevel safety = SafetyLevel::kUserGuaranteed);

    /** True if a PJH instance with this name exists (loaded or not). */
    bool existsHeap(const std::string &name) const;
    /// @}

    /** @name Fabrics (the sharded surface) */
    /// @{
    /**
     * Create a named fabric of @p shards PJH instances (0 resolves
     * ESPRESSO_SHARDS, then 1), each sized by @p shard_cfg, routed by
     * a consistent-hash ring with @p vnodes points per shard (0:
     * ESPRESSO_SHARD_VNODES, then 64).
     */
    HeapFabric *createFabric(const std::string &name,
                             const PjhConfig &shard_cfg,
                             unsigned shards = 0, unsigned vnodes = 0);

    /** Attach (or crash-recover) an existing fabric. */
    HeapFabric *loadFabric(const std::string &name,
                           SafetyLevel safety =
                               SafetyLevel::kUserGuaranteed);

    /** The named fabric (attached or not), or nullptr. */
    HeapFabric *fabric(const std::string &name) const;
    /// @}

    /** The loaded heap (shard 0 of the fabric), or nullptr. */
    PjhHeap *heap(const std::string &name) const;

    /** Cleanly detach a loaded fabric (clean shutdown semantics). */
    void detachHeap(const std::string &name);

    /**
     * Simulate a power failure on @p name: all volatile state is
     * dropped and every member device reverts to its durable image.
     */
    void crashHeap(const std::string &name,
                   CrashMode mode = CrashMode::kDiscardUnflushed,
                   std::uint64_t seed = 1);

    /**
     * Simulate a reboot in which the OS cannot map the heap at its
     * address hint: the durable images migrate to fresh devices
     * (new virtual addresses), forcing the rebase scan on next load.
     */
    void migrateHeap(const std::string &name);

    /** Device backing shard 0 of @p name (for fault injection), or
     * nullptr. */
    NvmDevice *deviceOf(const std::string &name) const;

    /**
     * GC worker threads for every heap this manager owns: applied to
     * all currently loaded shards and to every fabric created or
     * loaded afterwards. 0 restores each heap's own default
     * (ESPRESSO_GC_THREADS or 1).
     */
    void setGcThreads(unsigned n);

    KlassRegistry &registry() { return *registry_; }

  private:
    /** Registry lookups (callers hold mu_). */
    HeapFabric *findFabric(const std::string &name) const;

    KlassRegistry *registry_;
    VolatileHeap *volatileHeap_;
    NvmConfig nvmCfg_;
    /** Manager-wide GC thread override; 0 = per-heap default. */
    unsigned gcThreads_ = 0;

    /** Guards fabrics_ and gcThreads_ against concurrent
     * create/load/detach/crash/lookup. */
    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<HeapFabric>> fabrics_;
};

} // namespace espresso

#endif // ESPRESSO_PJH_HEAP_MANAGER_HH
