/**
 * @file
 * EntityManager and the provider strategy (paper Figs. 1 & 13).
 *
 * The application-facing API is identical for both providers —
 * begin / newEntity / persist / find / remove / commit — which is the
 * paper's backward-compatibility claim: swapping JPA for PJO requires
 * no application changes. What differs is how a provider moves data
 * between managed entities and the backend database:
 *
 *  - JpaProvider: objects → SQL text → (db re-parses) → rows, and
 *    result rows → entities, on every operation;
 *  - PjoProvider: objects are shipped as typed DBPersistable records
 *    with a field-level dirty mask, plus data deduplication after
 *    commit.
 */

#ifndef ESPRESSO_ORM_ENTITY_MANAGER_HH
#define ESPRESSO_ORM_ENTITY_MANAGER_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "db/database.hh"
#include "orm/enhancer.hh"
#include "orm/entity.hh"
#include "util/phase_timer.hh"

namespace espresso {
namespace orm {

/** Data-movement strategy between entities and the database. */
class Provider
{
  public:
    virtual ~Provider() = default;

    virtual const char *name() const = 0;

    /** Ship a new or dirty entity to the backend. */
    virtual void writeEntity(db::Database &database, Entity &entity,
                             bool is_new, PhaseTimer *timer) = 0;

    /** Load an entity by primary key (nullptr when absent). */
    virtual std::unique_ptr<Entity>
    readEntity(db::Database &database, const EntityDescriptor &desc,
               std::int64_t pk, PhaseTimer *timer) = 0;

    /** Delete an entity (and its collection rows). */
    virtual void removeEntity(db::Database &database,
                              const EntityDescriptor &desc,
                              std::int64_t pk, PhaseTimer *timer) = 0;

    /** Post-commit hook (PJO data deduplication). */
    virtual void postCommit(db::Database &, Entity &) {}
};

/** The em of the paper's code snippets. */
class EntityManager
{
  public:
    EntityManager(db::Database *database, Provider *provider,
                  const Enhancer *enhancer);

    /** Attribute time to @p timer (also forwarded to the database). */
    void setPhaseTimer(PhaseTimer *timer);

    /** em.getTransaction().begin() */
    void begin();

    /** Create a managed-to-be entity instance (owned by this em). */
    Entity *newEntity(const std::string &entity_name);

    /** em.persist(p): schedule for insertion at commit. */
    void persist(Entity *entity);

    /** Load (or return the cached managed copy of) an entity. */
    Entity *find(const std::string &entity_name, std::int64_t pk);

    /** Schedule a managed entity for deletion. */
    void remove(Entity *entity);

    /** em.getTransaction().commit(): flush all pending changes. */
    void commit();

    /** Drop the first-level cache (entities become invalid). */
    void clear();

    db::Database &database() { return *db_; }
    Provider &provider() { return *provider_; }

  private:
    db::Database *db_;
    Provider *provider_;
    const Enhancer *enhancer_;
    PhaseTimer *timer_ = nullptr;
    db::Txn tx_;

    std::vector<std::unique_ptr<Entity>> owned_;
    std::vector<Entity *> pendingNew_;
    std::map<std::pair<std::string, std::int64_t>, Entity *> cache_;
};

} // namespace orm
} // namespace espresso

#endif // ESPRESSO_ORM_ENTITY_MANAGER_HH
