/**
 * @file
 * Coarse-grained persistence: a toy bank on the PJO programming
 * model (paper §5) — JPA-style EntityManager API, DBPersistable
 * ingress, field-level tracking, and ACID transfers that survive a
 * crash mid-flight.
 */

#include <cstdio>

#include "orm/entity_manager.hh"
#include "orm/pjo_provider.hh"

using namespace espresso;
using namespace espresso::orm;

int
main()
{
    db::Database database;
    Enhancer enhancer;

    EntityDescriptor account;
    account.name = "ACCOUNT";
    account.fields = {{"ID", db::DbType::kI64, false, ""},
                      {"OWNER", db::DbType::kStr, false, ""},
                      {"BALANCE", db::DbType::kI64, false, ""}};
    enhancer.registerEntity(account);
    enhancer.createTables(database);

    PjoProvider provider(/*enable_dedup=*/false);
    EntityManager em(&database, &provider, &enhancer);

    // Open two accounts.
    em.begin();
    for (int i = 0; i < 2; ++i) {
        Entity *a = em.newEntity("ACCOUNT");
        a->set("ID", db::DbValue::ofI64(i));
        a->set("OWNER", db::DbValue::ofStr(i ? "Haibo" : "Mingyu"));
        a->set("BALANCE", db::DbValue::ofI64(1000));
        em.persist(a);
    }
    em.commit();
    em.clear();

    // A committed transfer.
    em.begin();
    Entity *from = em.find("ACCOUNT", 0);
    Entity *to = em.find("ACCOUNT", 1);
    from->set("BALANCE", db::DbValue::ofI64(from->get("BALANCE").i - 250));
    to->set("BALANCE", db::DbValue::ofI64(to->get("BALANCE").i + 250));
    em.commit();
    em.clear();

    // A transfer that crashes before commit: the database-level WAL
    // rolls it back on reopen — no money is created or destroyed.
    db::Txn half_txn = database.beginTxn();
    db::DbRecord half;
    half.values = {db::DbValue::ofI64(0), db::DbValue::null(),
                   db::DbValue::ofI64(-999999)};
    half.dirtyMask = 1ull << 2;
    database.persistRecord("ACCOUNT", half);
    database.crash(); // power failure mid-transaction: half_txn is inert

    EntityManager em2(&database, &provider, &enhancer);
    em2.begin();
    Entity *a0 = em2.find("ACCOUNT", 0);
    Entity *a1 = em2.find("ACCOUNT", 1);
    std::printf("%s: %ld\n%s: %ld\ntotal: %ld (conserved)\n",
                a0->get("OWNER").s.c_str(),
                static_cast<long>(a0->get("BALANCE").i),
                a1->get("OWNER").s.c_str(),
                static_cast<long>(a1->get("BALANCE").i),
                static_cast<long>(a0->get("BALANCE").i +
                                  a1->get("BALANCE").i));
    em2.commit();
    return 0;
}
