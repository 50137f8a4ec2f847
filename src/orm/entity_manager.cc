#include "orm/entity_manager.hh"

#include "util/logging.hh"

namespace espresso {
namespace orm {

EntityManager::EntityManager(db::Database *database, Provider *provider,
                             const Enhancer *enhancer)
    : db_(database), provider_(provider), enhancer_(enhancer)
{}

void
EntityManager::setPhaseTimer(PhaseTimer *timer)
{
    timer_ = timer;
    db_->setPhaseTimer(timer);
}

void
EntityManager::begin()
{
    if (tx_.active())
        fatal("EntityManager: transaction already open");
    tx_ = db_->beginTxn();
}

Entity *
EntityManager::newEntity(const std::string &entity_name)
{
    owned_.push_back(enhancer_->enhanceNew(entity_name));
    return owned_.back().get();
}

void
EntityManager::persist(Entity *entity)
{
    if (entity->stateManager().state() != EntityState::kTransient)
        fatal("EntityManager::persist: entity is already managed");
    entity->stateManager().setState(EntityState::kManaged);
    pendingNew_.push_back(entity);
}

Entity *
EntityManager::find(const std::string &entity_name, std::int64_t pk)
{
    auto key = std::make_pair(entity_name, pk);
    auto it = cache_.find(key);
    if (it != cache_.end())
        return it->second;

    const EntityDescriptor *desc = enhancer_->descriptor(entity_name);
    if (!desc)
        fatal("EntityManager::find: unknown entity " + entity_name);
    std::unique_ptr<Entity> loaded =
        provider_->readEntity(*db_, *desc, pk, timer_);
    if (!loaded)
        return nullptr;
    loaded->stateManager().setState(EntityState::kManaged);
    Entity *raw = loaded.get();
    owned_.push_back(std::move(loaded));
    cache_[key] = raw;
    return raw;
}

void
EntityManager::remove(Entity *entity)
{
    entity->stateManager().setState(EntityState::kRemoved);
}

void
EntityManager::commit()
{
    if (!tx_.active())
        fatal("EntityManager::commit without begin");

    // New entities first (referential ordering is the app's job, as
    // in JPA without cascade resolution).
    for (Entity *e : pendingNew_) {
        if (e->stateManager().state() == EntityState::kRemoved)
            continue;
        provider_->writeEntity(*db_, *e, /*is_new=*/true, timer_);
        e->stateManager().clearDirty();
        e->stateManager().clearCollectionsDirty();
        cache_[{e->descriptor().name, e->pk()}] = e;
    }

    // Dirty managed entities and removals.
    for (auto &kv : cache_) {
        Entity *e = kv.second;
        StateManager &sm = e->stateManager();
        if (sm.state() == EntityState::kRemoved) {
            provider_->removeEntity(*db_, e->descriptor(), e->pk(),
                                    timer_);
            continue;
        }
        bool pending_new = false;
        for (Entity *n : pendingNew_)
            pending_new |= n == e;
        if (!pending_new && (sm.anyDirty() || sm.collectionsDirty())) {
            provider_->writeEntity(*db_, *e, /*is_new=*/false, timer_);
            sm.clearDirty();
            sm.clearCollectionsDirty();
        }
    }

    db::Status s = tx_.commit();
    if (!s.isOk())
        fatal("EntityManager::commit: " + s.message());

    for (Entity *e : pendingNew_) {
        if (e->stateManager().state() != EntityState::kRemoved)
            provider_->postCommit(*db_, *e);
    }
    pendingNew_.clear();

    // Drop removed entities from the cache.
    for (auto it = cache_.begin(); it != cache_.end();) {
        if (it->second->stateManager().state() == EntityState::kRemoved)
            it = cache_.erase(it);
        else
            ++it;
    }
}

void
EntityManager::clear()
{
    if (tx_.active())
        fatal("EntityManager::clear inside a transaction");
    cache_.clear();
    pendingNew_.clear();
    owned_.clear();
}

} // namespace orm
} // namespace espresso
