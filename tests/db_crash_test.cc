/**
 * @file
 * Database crash sweeps: a power failure at every persistence event
 * of a multi-statement transaction must leave the database atomic —
 * either the whole transaction or none of it — under both crash
 * modes. Also sweeps DDL (catalog publication), the cross-shard
 * two-phase commit protocol (prepare / decision / finish windows)
 * and pipelined async commits drained by the group-commit drainer.
 * Every transaction runs in a db::Txn that stays in scope while the
 * power fails under it, so its unwinding must leave the engine alone.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "db/database.hh"
#include "db/sharded_database.hh"
#include "nvm/crash_injector.hh"
#include "util/rng.hh"

namespace espresso {
namespace db {
namespace {

std::unique_ptr<Database>
makeDb()
{
    DatabaseConfig cfg;
    cfg.rowRegionSize = 4u << 20;
    cfg.rowsPerTable = 256;
    return std::make_unique<Database>(cfg);
}

/** Commit @p t; a status other than ok is an engine failure, thrown
 * like any other so the sweeps' unexpected-error paths see it. */
void
commitOrThrow(Txn &t)
{
    Status s = t.commit();
    if (!s.isOk())
        throw std::runtime_error("commit failed: " + s.message());
}

void
transferWorkload(Database &db)
{
    Txn t = db.beginTxn();
    db.executeSql("UPDATE ACCT SET BAL = 70 WHERE ID = 1");
    db.executeSql("UPDATE ACCT SET BAL = 130 WHERE ID = 2");
    db.executeSql(
        "INSERT INTO ACCT (ID, BAL) VALUES (3, 0)"); // audit row
    commitOrThrow(t);
}

void
sweep(CrashMode mode)
{
    for (std::uint64_t event = 1;; ++event) {
        auto db = makeDb();
        db->executeSql(
            "CREATE TABLE ACCT (ID BIGINT PRIMARY KEY, BAL BIGINT)");
        db->executeSql("INSERT INTO ACCT (ID, BAL) VALUES (1, 100)");
        db->executeSql("INSERT INTO ACCT (ID, BAL) VALUES (2, 100)");

        CrashInjector inj;
        db->device().setInjector(&inj);
        inj.arm(event);
        bool crashed = false;
        try {
            transferWorkload(*db);
        } catch (const SimulatedCrash &) {
            crashed = true;
        }
        inj.disarm();
        db->device().setInjector(nullptr);
        if (!crashed)
            break;

        db->crash(mode, 77 + event);

        ResultSet a = db->executeSql("SELECT BAL FROM ACCT WHERE ID = 1");
        ResultSet b = db->executeSql("SELECT BAL FROM ACCT WHERE ID = 2");
        ASSERT_EQ(a.rows.size(), 1u);
        ASSERT_EQ(b.rows.size(), 1u);
        std::int64_t a_bal = a.rows[0][0].i;
        std::int64_t b_bal = b.rows[0][0].i;
        std::size_t rows = db->rowCount("ACCT");
        bool before = a_bal == 100 && b_bal == 100 && rows == 2;
        bool after = a_bal == 70 && b_bal == 130 && rows == 3;
        EXPECT_TRUE(before || after)
            << "event " << event << ": a=" << a_bal << " b=" << b_bal
            << " rows=" << rows;
        EXPECT_EQ(a_bal + b_bal, 200) << "event " << event;

        // The recovered database stays fully usable.
        db->executeSql("INSERT INTO ACCT (ID, BAL) VALUES (9, 1)");
        EXPECT_EQ(db->executeSql("SELECT * FROM ACCT WHERE ID = 9")
                      .rows.size(),
                  1u);
    }
}

TEST(DbCrashTest, TransactionSweepConservative)
{
    sweep(CrashMode::kDiscardUnflushed);
}

TEST(DbCrashTest, TransactionSweepWithCacheEviction)
{
    sweep(CrashMode::kEvictRandomLines);
}

// ---------------------------------------------------------------------
// Randomized multi-threaded transaction sweep: T threads run
// multi-row transactions over disjoint key ranges; a power failure
// fires at a randomized persistence event (every other thread then
// dies at its own next event). After recovery every thread's key
// group must be atomic (all rows carry one transaction's value) and
// prefix-consistent: acknowledged commits survive
// (committed-stays-committed), the in-flight transaction is gone
// (in-flight-rolls-back), and a commit that was durable but not yet
// acknowledged may surface as lastCommitted+1.
// ---------------------------------------------------------------------

namespace mt {

constexpr int kThreads = 4;
constexpr int kKeysPerThread = 4;
constexpr int kTxnsPerThread = 25;

std::unique_ptr<Database>
makeMtDb()
{
    DatabaseConfig cfg;
    cfg.rowRegionSize = 4u << 20;
    cfg.rowsPerTable = 256;
    cfg.walShards = 8;
    auto db = std::make_unique<Database>(cfg);
    db->executeSql(
        "CREATE TABLE ACCT (ID BIGINT PRIMARY KEY, VAL BIGINT)");
    for (int t = 0; t < kThreads; ++t) {
        for (int k = 0; k < kKeysPerThread; ++k) {
            db->executeSql("INSERT INTO ACCT (ID, VAL) VALUES (" +
                           std::to_string(t * 100 + k) + ", 0)");
        }
    }
    return db;
}

/** Runs the workload; returns per-thread count of acknowledged
 * commits. Threads stop at the simulated power failure. */
std::array<int, kThreads>
runWorkload(Database &db, std::atomic<bool> *saw_unexpected)
{
    std::array<int, kThreads> committed{};
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t]() {
            ready.fetch_add(1);
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            try {
                for (int i = 1; i <= kTxnsPerThread; ++i) {
                    Txn txn = db.beginTxn();
                    for (int k = 0; k < kKeysPerThread; ++k) {
                        DbRecord rec;
                        rec.values = {
                            DbValue::ofI64(t * 100 + k),
                            DbValue::ofI64(i),
                        };
                        rec.dirtyMask = 1ull << 1;
                        db.persistRecord("ACCT", rec);
                    }
                    commitOrThrow(txn);
                    committed[t] = i;
                }
            } catch (const SimulatedCrash &) {
                // Power is gone; this thread is dead.
            } catch (...) {
                saw_unexpected->store(true);
            }
        });
    }
    while (ready.load() != kThreads)
        std::this_thread::yield();
    go.store(true, std::memory_order_release);
    for (auto &w : workers)
        w.join();
    return committed;
}

void
mtSweep(CrashMode mode)
{
    // Torn-tail rollback warnings are expected output here.
    setWarningsEnabled(false);
    // Dry run: count the workload's persistence events so crash
    // points can be drawn from the real range.
    CrashInjector probe;
    std::uint64_t total_events;
    {
        auto db = makeMtDb();
        db->device().setInjector(&probe);
        probe.resetCount();
        std::atomic<bool> unexpected{false};
        runWorkload(*db, &unexpected);
        ASSERT_FALSE(unexpected.load());
        db->device().setInjector(nullptr);
        total_events = probe.eventCount();
    }
    ASSERT_GT(total_events, 100u);

    Rng rng(0x5EED5EEDull + static_cast<int>(mode) * 31);
    for (int trial = 0; trial < 6; ++trial) {
        auto db = makeMtDb();
        CrashInjector inj;
        db->device().setInjector(&inj);
        std::uint64_t target = 1 + rng.nextBelow(total_events);
        inj.arm(target);
        std::atomic<bool> unexpected{false};
        std::array<int, mt::kThreads> committed =
            runWorkload(*db, &unexpected);
        inj.disarm();
        db->device().setInjector(nullptr);
        EXPECT_FALSE(unexpected.load()) << "trial " << trial;
        bool crashed = inj.eventCount() >= target;
        if (!crashed)
            continue; // target fell beyond this interleaving's run

        db->crash(mode, 1000 + trial * 77 + target);

        for (int t = 0; t < kThreads; ++t) {
            std::int64_t group_val = -1;
            for (int k = 0; k < kKeysPerThread; ++k) {
                ResultSet rs = db->executeSql(
                    "SELECT VAL FROM ACCT WHERE ID = " +
                    std::to_string(t * 100 + k));
                ASSERT_EQ(rs.rows.size(), 1u)
                    << "trial " << trial << " event " << target
                    << ": lost row " << t * 100 + k;
                std::int64_t v = rs.rows[0][0].i;
                if (k == 0)
                    group_val = v;
                // Atomicity: the whole transaction or none of it.
                EXPECT_EQ(v, group_val)
                    << "trial " << trial << " event " << target
                    << ": torn txn for thread " << t;
            }
            // committed-stays-committed / in-flight-rolls-back: the
            // group holds the last acknowledged commit, or one more
            // (durable but unacknowledged).
            EXPECT_TRUE(group_val == committed[t] ||
                        group_val == committed[t] + 1)
                << "trial " << trial << " event " << target
                << ": thread " << t << " expected " << committed[t]
                << " or +1, got " << group_val;
        }
        EXPECT_EQ(db->rowCount("ACCT"),
                  static_cast<std::size_t>(kThreads * kKeysPerThread));

        // The recovered database accepts new concurrent work.
        db->executeSql(
            "INSERT INTO ACCT (ID, VAL) VALUES (9999, 1)");
        EXPECT_EQ(db->executeSql("SELECT * FROM ACCT WHERE ID = 9999")
                      .rows.size(),
                  1u);
    }
    setWarningsEnabled(true);
}

} // namespace mt

TEST(DbCrashTest, MtTransactionSweepConservativeEager)
{
    mt::mtSweep(CrashMode::kDiscardUnflushed);
}

TEST(DbCrashTest, MtTransactionSweepWithCacheEvictionEager)
{
    mt::mtSweep(CrashMode::kEvictRandomLines);
}

// ---------------------------------------------------------------------
// Cross-shard 2PC crash sweep: every transaction writes one group of
// keys spanning all three members, so its commit runs the full
// prepare → decision-publish → finish protocol across the member
// WALs and the coordinator's decision log. A power failure at a
// randomized persistence event — including between a member's
// prepare and the decision record, and between the decision and the
// last member's finish — must recover to all members committed or
// all rolled back, never a mix.
// ---------------------------------------------------------------------

namespace twopc {

constexpr int kShards = 3;
constexpr int kKeysPerShard = 5;
constexpr int kRounds = 12;

DbRecord
kvRow(std::int64_t id, std::int64_t v)
{
    DbRecord rec;
    rec.values = {DbValue::ofI64(id), DbValue::ofI64(v)};
    return rec;
}

/** A deterministic key group that provably spans every member, so
 * each transaction's commit is a genuine multi-member 2PC. */
std::vector<std::int64_t>
pickKeys(ShardedDatabase &db)
{
    std::vector<std::size_t> taken(db.shardCount(), 0);
    std::vector<std::int64_t> keys;
    for (std::int64_t pk = 0; pk < 4096; ++pk) {
        unsigned s = db.shardIndexForPk(pk);
        if (taken[s] < kKeysPerShard) {
            ++taken[s];
            keys.push_back(pk);
        }
    }
    EXPECT_EQ(keys.size(),
              static_cast<std::size_t>(kShards * kKeysPerShard));
    return keys;
}

std::unique_ptr<ShardedDatabase>
makeSdb(const std::vector<std::int64_t> &keys)
{
    ShardedDatabaseConfig cfg;
    cfg.shards = kShards;
    cfg.shard.rowRegionSize = 2u << 20;
    cfg.shard.rowsPerTable = 256;
    cfg.shard.walShards = 4;
    auto db = std::make_unique<ShardedDatabase>(cfg);
    db->createTable(TableSchema{"KV",
                                {{"ID", DbType::kI64},
                                 {"V", DbType::kI64}},
                                0,
                                TableSchema::kNoIndex});
    for (std::int64_t pk : keys)
        db->persistRecord("KV", kvRow(pk, 0));
    return db;
}

/** One shared injector across every member device and the
 * coordinator: the event count covers the whole 2PC protocol. */
void
installInjector(ShardedDatabase &db, CrashInjector *inj)
{
    for (unsigned s = 0; s < db.shardCount(); ++s)
        db.shard(s).device().setInjector(inj);
    db.coordinatorDevice().setInjector(inj);
}

/** Runs the rounds; returns the last acknowledged commit. */
int
runRounds(ShardedDatabase &db, const std::vector<std::int64_t> &keys)
{
    int acked = 0;
    try {
        for (int i = 1; i <= kRounds; ++i) {
            Txn txn = db.beginTxn();
            for (std::int64_t pk : keys) {
                DbRecord rec = kvRow(pk, i);
                rec.dirtyMask = 1ull << 1;
                db.persistRecord("KV", rec);
            }
            commitOrThrow(txn);
            acked = i;
        }
    } catch (const SimulatedCrash &) {
        // Power is gone mid-protocol.
    }
    return acked;
}

void
twopcSweep(CrashMode mode)
{
    setWarningsEnabled(false);
    // Dry run: count the workload's persistence events so crash
    // points can be drawn from the real range.
    CrashInjector probe;
    std::uint64_t total_events;
    std::vector<std::int64_t> keys;
    {
        auto db = makeSdb({});
        keys = pickKeys(*db);
        for (std::int64_t pk : keys)
            db->persistRecord("KV", kvRow(pk, 0));
        // The key group must actually span every member, or the
        // bracket degenerates to a single-shard commit.
        for (unsigned s = 0; s < db->shardCount(); ++s)
            ASSERT_GT(db->shard(s).rowCount("KV"), 0u) << s;
        installInjector(*db, &probe);
        probe.resetCount();
        ASSERT_EQ(runRounds(*db, keys), kRounds);
        installInjector(*db, nullptr);
        total_events = probe.eventCount();
    }
    ASSERT_GT(total_events, 100u);

    Rng rng(0x2BC57ull + static_cast<int>(mode) * 31);
    for (int trial = 0; trial < 10; ++trial) {
        auto db = makeSdb(keys);
        CrashInjector inj;
        installInjector(*db, &inj);
        std::uint64_t target = 1 + rng.nextBelow(total_events);
        inj.arm(target);
        int acked = runRounds(*db, keys);
        inj.disarm();
        installInjector(*db, nullptr);
        if (inj.eventCount() < target)
            continue; // target fell beyond this run

        db->crash(mode, 4000 + trial * 131 + target);

        // All-or-nothing across members: every key carries one
        // round's value, and it is the acknowledged round or one
        // more (decision durable but unacknowledged).
        std::int64_t group_val = -1;
        for (std::int64_t pk : keys) {
            DbRecord out;
            ASSERT_TRUE(db->fetchRecord("KV", pk, &out))
                << "trial " << trial << " event " << target
                << ": lost key " << pk;
            std::int64_t v = out.values[1].i;
            if (pk == keys.front())
                group_val = v;
            EXPECT_EQ(v, group_val)
                << "trial " << trial << " event " << target
                << ": torn cross-shard txn at key " << pk;
        }
        EXPECT_TRUE(group_val == acked || group_val == acked + 1)
            << "trial " << trial << " event " << target
            << ": expected " << acked << " or +1, got " << group_val;
        EXPECT_EQ(db->rowCount("KV"), keys.size());

        // The recovered fabric accepts new cross-shard brackets.
        Txn txn = db->beginTxn();
        for (std::int64_t pk : keys)
            db->persistRecord("KV", kvRow(pk, 99));
        commitOrThrow(txn);
        DbRecord out;
        ASSERT_TRUE(db->fetchRecord("KV", keys.front(), &out));
        EXPECT_EQ(out.values[1].i, 99);
    }
    setWarningsEnabled(true);
}

} // namespace twopc

// ---------------------------------------------------------------------
// Elastic membership: crash mid-repartition, resume, audit
// ---------------------------------------------------------------------

namespace elastic {

constexpr std::int64_t kKeys = 24;

std::unique_ptr<ShardedDatabase>
makeElastic(unsigned shards)
{
    ShardedDatabaseConfig cfg;
    cfg.shards = shards;
    cfg.shard.rowRegionSize = 2u << 20;
    cfg.shard.rowsPerTable = 256;
    cfg.shard.walShards = 4;
    auto db = std::make_unique<ShardedDatabase>(cfg);
    db->createTable(TableSchema{"KV",
                                {{"ID", DbType::kI64},
                                 {"V", DbType::kI64}},
                                0,
                                TableSchema::kNoIndex});
    for (std::int64_t pk = 0; pk < kKeys; ++pk)
        db->persistRecord("KV", twopc::kvRow(pk, pk * 7));
    return db;
}

void
installInjector(ShardedDatabase &db, CrashInjector *inj)
{
    for (unsigned s = 0; s < db.shardCount(); ++s)
        db.shard(s).device().setInjector(inj);
    db.coordinatorDevice().setInjector(inj);
}

/**
 * Crash a membership change at a random persistence event — the
 * per-row cross-shard moves are ordinary 2PC brackets, so the sweep
 * covers prepare/decide/apply of the move protocol plus the routing
 * fences around it — then resume and audit: the change completes,
 * every row exists exactly once with its original value, and new
 * cross-shard brackets commit. (Members joining mid-grow are created
 * inside the change, so their devices cannot pre-arm; the shrink
 * direction covers the destination side with pre-armed survivors.)
 */
void
elasticSweep(CrashMode mode, bool grow_dir, std::uint64_t seed,
             int trials)
{
    setWarningsEnabled(false);
    const unsigned from = grow_dir ? 2 : 4;
    const unsigned target = grow_dir ? 4 : 2;

    // Dry run: how many persistence events does the change emit?
    CrashInjector probe;
    std::uint64_t total_events;
    {
        auto db = makeElastic(from);
        installInjector(*db, &probe);
        probe.resetCount();
        if (grow_dir)
            db->grow(target - from);
        else
            db->shrink(from - target);
        installInjector(*db, nullptr);
        total_events = probe.eventCount();
    }
    ASSERT_GT(total_events, 0u) << "change emitted no events";

    Rng rng(seed);
    for (int trial = 0; trial < trials; ++trial) {
        auto db = makeElastic(from);
        CrashInjector inj;
        installInjector(*db, &inj);
        std::uint64_t event = 1 + rng.nextBelow(total_events);
        inj.arm(event);
        bool crashed = false;
        try {
            if (grow_dir)
                db->grow(target - from);
            else
                db->shrink(from - target);
        } catch (const SimulatedCrash &) {
            crashed = true;
        }
        inj.disarm();
        installInjector(*db, nullptr);
        if (!crashed)
            continue; // event fell beyond this run's stream

        db->crash(mode, 5000 + trial * 97 + event);
        db->resumeMembershipChange();

        EXPECT_FALSE(db->migrating())
            << "trial " << trial << " event " << event;
        EXPECT_EQ(db->shardCount(), target)
            << "trial " << trial << " event " << event;
        EXPECT_EQ(db->rowCount("KV"),
                  static_cast<std::size_t>(kKeys))
            << "trial " << trial << " event " << event
            << ": lost or duplicated rows";
        for (std::int64_t pk = 0; pk < kKeys; ++pk) {
            DbRecord out;
            ASSERT_TRUE(db->fetchRecord("KV", pk, &out))
                << "trial " << trial << " event " << event
                << ": lost pk " << pk;
            EXPECT_EQ(out.values[1].i, pk * 7)
                << "trial " << trial << " event " << event;
        }

        // The resumed membership accepts new cross-shard brackets.
        Txn txn = db->beginTxn();
        for (std::int64_t pk = 0; pk < kKeys; ++pk)
            db->persistRecord("KV", twopc::kvRow(pk, 99));
        commitOrThrow(txn);
        DbRecord out;
        ASSERT_TRUE(db->fetchRecord("KV", 0, &out));
        EXPECT_EQ(out.values[1].i, 99);
        if (testing::Test::HasFatalFailure()) {
            setWarningsEnabled(true);
            return;
        }
    }
    setWarningsEnabled(true);
}

} // namespace elastic

TEST(DbCrashTest, ElasticGrowSweepConservative)
{
    elastic::elasticSweep(CrashMode::kDiscardUnflushed, true, 0xE1A5ull,
                          10);
}

TEST(DbCrashTest, ElasticGrowSweepWithCacheEviction)
{
    elastic::elasticSweep(CrashMode::kEvictRandomLines, true,
                          0xE1A7ull, 10);
}

TEST(DbCrashTest, ElasticShrinkSweepConservative)
{
    elastic::elasticSweep(CrashMode::kDiscardUnflushed, false,
                          0xE1A9ull, 10);
}

TEST(DbCrashTest, ElasticShrinkSweepWithCacheEviction)
{
    elastic::elasticSweep(CrashMode::kEvictRandomLines, false,
                          0xE1ABull, 10);
}

TEST(DbCrashTest, TwoPhaseCommitSweepConservativeEager)
{
    twopc::twopcSweep(CrashMode::kDiscardUnflushed);
}

TEST(DbCrashTest, TwoPhaseCommitSweepWithCacheEvictionEager)
{
    twopc::twopcSweep(CrashMode::kEvictRandomLines);
}

// ---------------------------------------------------------------------
// The Txn power-failure contract: a Txn kept in scope around begin,
// two statements and commit() while the power fails under any of them
// unwinds without touching the engine; recovery leaves the bracket
// whole or absent, with every WAL shard token free.
// ---------------------------------------------------------------------

namespace inscope {

/** Crash @p bracket at every persistence event. @p make builds the
 * engine with @p inj on every device; @p applied reads the bracket's
 * rows back: 0 untouched, 1 applied, anything else torn. */
template <typename Engine>
void
sweep(const std::function<std::unique_ptr<Engine>(CrashInjector *)> &make,
      const std::function<void(Engine &)> &bracket,
      const std::function<int(Engine &)> &applied, CrashMode mode)
{
    setWarningsEnabled(false);
    for (std::uint64_t event = 1;; ++event) {
        CrashInjector inj;
        std::unique_ptr<Engine> db = make(&inj);
        inj.arm(event);
        bool crashed = false;
        try {
            bracket(*db);
        } catch (const SimulatedCrash &) {
            crashed = true;
        }
        inj.disarm();
        if (!crashed) {
            EXPECT_EQ(applied(*db), 1) << "clean run";
            break;
        }
        db->crash(mode, 300 + event);
        int state = applied(*db);
        EXPECT_TRUE(state == 0 || state == 1)
            << "event " << event << ": torn bracket";
        EXPECT_EQ(db->busyWalShards(), 0u) << "event " << event;
        if (testing::Test::HasFailure())
            break;
    }
    setWarningsEnabled(true);
}

std::unique_ptr<Database>
makeAcct(CrashInjector *inj)
{
    auto db = makeDb();
    db->executeSql("CREATE TABLE ACCT (ID BIGINT PRIMARY KEY, BAL BIGINT)");
    db->executeSql("INSERT INTO ACCT (ID, BAL) VALUES (1, 100)");
    db->executeSql("INSERT INTO ACCT (ID, BAL) VALUES (2, 100)");
    db->device().setInjector(inj);
    return db;
}

void
transfer(Database &db)
{
    Txn t = db.beginTxn();
    db.executeSql("UPDATE ACCT SET BAL = 70 WHERE ID = 1");
    db.executeSql("UPDATE ACCT SET BAL = 130 WHERE ID = 2");
    commitOrThrow(t);
}

int
transferApplied(Database &db)
{
    auto bal = [&db](int id) {
        ResultSet rs = db.executeSql("SELECT BAL FROM ACCT WHERE ID = " +
                                     std::to_string(id));
        return rs.rows.size() == 1 ? rs.rows[0][0].i : -1;
    };
    std::int64_t a = bal(1), b = bal(2);
    if (a == 100 && b == 100)
        return 0;
    return a == 70 && b == 130 ? 1 : -1;
}

/** The first pk routed to each of @p db's two members. */
std::array<std::int64_t, 2>
memberKeys(ShardedDatabase &db)
{
    std::array<std::int64_t, 2> keys{-1, -1};
    for (std::int64_t pk = 0; keys[0] < 0 || keys[1] < 0; ++pk)
        if (keys[db.shardIndexForPk(pk)] < 0)
            keys[db.shardIndexForPk(pk)] = pk;
    return keys;
}

std::unique_ptr<ShardedDatabase>
makePair(CrashInjector *inj)
{
    ShardedDatabaseConfig cfg;
    cfg.shards = 2;
    cfg.shard.rowRegionSize = 2u << 20;
    cfg.shard.rowsPerTable = 256;
    cfg.shard.walShards = 4;
    auto db = std::make_unique<ShardedDatabase>(cfg);
    db->createTable(TableSchema{"KV",
                                {{"ID", DbType::kI64},
                                 {"V", DbType::kI64}},
                                0,
                                TableSchema::kNoIndex});
    for (std::int64_t pk : memberKeys(*db))
        db->persistRecord("KV", twopc::kvRow(pk, 0));
    twopc::installInjector(*db, inj);
    return db;
}

void
crossShardWrite(ShardedDatabase &db)
{
    Txn t = db.beginTxn();
    for (std::int64_t pk : memberKeys(db))
        db.persistRecord("KV", twopc::kvRow(pk, 1));
    commitOrThrow(t);
}

int
crossShardApplied(ShardedDatabase &db)
{
    std::array<std::int64_t, 2> v{-1, -1};
    std::array<std::int64_t, 2> keys = memberKeys(db);
    for (int i = 0; i < 2; ++i) {
        DbRecord out;
        if (db.fetchRecord("KV", keys[i], &out))
            v[i] = out.values[1].i;
    }
    return v[0] == v[1] && (v[0] == 0 || v[0] == 1) ? static_cast<int>(v[0])
                                                    : -1;
}

} // namespace inscope

TEST(DbCrashTest, TxnInScopeSweepConservative)
{
    inscope::sweep<Database>(inscope::makeAcct, inscope::transfer,
                             inscope::transferApplied,
                             CrashMode::kDiscardUnflushed);
}

TEST(DbCrashTest, TxnInScopeSweepWithCacheEviction)
{
    inscope::sweep<Database>(inscope::makeAcct, inscope::transfer,
                             inscope::transferApplied,
                             CrashMode::kEvictRandomLines);
}

TEST(DbCrashTest, TxnInScopeTwoPhaseCommitSweepConservative)
{
    inscope::sweep<ShardedDatabase>(inscope::makePair,
                                    inscope::crossShardWrite,
                                    inscope::crossShardApplied,
                                    CrashMode::kDiscardUnflushed);
}

TEST(DbCrashTest, TxnInScopeTwoPhaseCommitSweepWithCacheEviction)
{
    inscope::sweep<ShardedDatabase>(inscope::makePair,
                                    inscope::crossShardWrite,
                                    inscope::crossShardApplied,
                                    CrashMode::kEvictRandomLines);
}

// ---------------------------------------------------------------------
// Async commit sweep: the wire front door's commit path. One thread
// sends pipelined Txn::commitAsync commits, each writing its own two
// rows, without waiting for earlier callbacks; the group-commit
// drainer stages and fences them, so the power fails on the drainer
// thread as well as on the committing one. A commit whose callback
// reported ok must survive; every other commit is whole or absent.
// The batched-drain arm holds the first drain until every commit has
// parked, so the second drain stages and fences five commits at once
// and the sweep cuts the power at each of its events.
// ---------------------------------------------------------------------

namespace async {

/** Fewer commits than WAL shards: tryBeginTxn always finds a free
 * token, even while every earlier commit still holds its own. */
constexpr int kCommits = 6;

std::unique_ptr<Database>
makeAsyncDb()
{
    DatabaseConfig cfg;
    cfg.rowRegionSize = 2u << 20;
    cfg.rowsPerTable = 256;
    cfg.walShards = 8;
    auto db = std::make_unique<Database>(cfg);
    db->executeSql("CREATE TABLE KV (ID BIGINT PRIMARY KEY, V BIGINT)");
    for (int pk = 0; pk < 2 * kCommits; ++pk)
        db->executeSql("INSERT INTO KV (ID, V) VALUES (" +
                       std::to_string(pk) + ", 0)");
    return db;
}

/** What became of one commit. */
enum Fate : int
{
    kNeverSent, ///< the power failed before its commitAsync
    kFailed,    ///< its callback reported an error
    kOk,        ///< its callback reported ok
};

/** One drain the drainer took: the injector's event count when it
 * took the batch, and the batch size. */
struct Drain
{
    std::uint64_t startEvent;
    std::size_t size;
};

struct Run
{
    std::array<std::atomic<int>, kCommits> fate;
    /** The committing thread saw the power fail. */
    bool clientCut = false;
    /** Written by the drain hook on the drainer thread; read once
     * every callback has run. */
    std::vector<Drain> drains;
    std::atomic<bool> firstDrainTaken{false};
    std::atomic<bool> allSent{false};

    Run()
    {
        for (auto &f : fate)
            f.store(kNeverSent);
    }

    /** Size of the drain the power failed in, when it failed on the
     * drainer thread: the last drain taken before the cut. */
    std::size_t
    cutDrainSize(std::uint64_t cut_event) const
    {
        std::size_t size = 0;
        for (const Drain &d : drains)
            if (d.startEvent < cut_event)
                size = d.size;
        return size;
    }
};

/** Commit i writes 100 + i to rows 2i and 2i+1. With
 * @p hold_first_drain the first drain waits on the drainer until
 * the thread has sent every commit, and the thread sends commit 1
 * only once commit 0's drain has been taken. Returns once every sent
 * commit's callback has run: after a power failure the injector
 * kills the drainer's later events too, so each fires. */
void
runPipeline(Database &db, const CrashInjector &inj, bool hold_first_drain,
            Run *run)
{
    CommitCoordinator &coord = db.commitCoordinator();
    coord.setDrainHook([&inj, hold_first_drain, run](std::size_t n) {
        run->drains.push_back(Drain{inj.eventCount(), n});
        if (!hold_first_drain || run->drains.size() != 1)
            return;
        run->firstDrainTaken.store(true, std::memory_order_release);
        while (!run->allSent.load(std::memory_order_acquire))
            std::this_thread::yield();
    });
    std::atomic<int> outstanding{0};
    try {
        for (int i = 0; i < kCommits; ++i) {
            Txn txn;
            Status s = db.tryBeginTxn({}, &txn);
            if (!s.isOk()) {
                ADD_FAILURE() << "commit " << i << ": " << s.message();
                break;
            }
            for (int k = 0; k < 2; ++k) {
                DbRecord rec;
                rec.values = {DbValue::ofI64(2 * i + k),
                              DbValue::ofI64(100 + i)};
                rec.dirtyMask = 1ull << 1;
                db.persistRecord("KV", rec);
            }
            outstanding.fetch_add(1);
            txn.commitAsync([run, i, &outstanding](Status st) {
                run->fate[i].store(st.isOk() ? kOk : kFailed);
                outstanding.fetch_sub(1, std::memory_order_release);
            });
            if (hold_first_drain && i == 0) {
                while (!run->firstDrainTaken.load(
                    std::memory_order_acquire))
                    std::this_thread::yield();
            }
        }
    } catch (const SimulatedCrash &) {
        run->clientCut = true;
    }
    run->allSent.store(true, std::memory_order_release);
    while (outstanding.load(std::memory_order_acquire) != 0)
        std::this_thread::yield();
    coord.setDrainHook(nullptr);
}

std::int64_t
valueOf(Database &db, std::int64_t pk)
{
    DbRecord out;
    return db.fetchRecord("KV", pk, &out) ? out.values[1].i : -1;
}

void
asyncSweep(CrashMode mode, bool hold_first_drain)
{
    setWarningsEnabled(false);
    // Dry run: the clean run's event count. Batching varies with the
    // interleaving, so a trial may run more or fewer events; the
    // sweep continues until a trial past this count finishes clean.
    std::uint64_t clean_events;
    {
        auto db = makeAsyncDb();
        CrashInjector probe;
        db->device().setInjector(&probe);
        Run run;
        runPipeline(*db, probe, hold_first_drain, &run);
        db->device().setInjector(nullptr);
        clean_events = probe.eventCount();
        for (int i = 0; i < kCommits; ++i)
            ASSERT_EQ(run.fate[i].load(), kOk) << "commit " << i;
        if (hold_first_drain) {
            ASSERT_EQ(run.drains.size(), 2u);
            EXPECT_EQ(run.drains[1].size,
                      static_cast<std::size_t>(kCommits - 1));
        }
    }
    ASSERT_GT(clean_events, 0u);

    constexpr std::uint64_t kSeedBase = 500;
    unsigned cuts = 0;
    unsigned drainer_cuts = 0;
    unsigned batched_cuts = 0;
    std::uint64_t event = 1;
    for (;; ++event) {
        auto db = makeAsyncDb();
        CrashInjector inj;
        db->device().setInjector(&inj);
        inj.arm(event);
        Run run;
        runPipeline(*db, inj, hold_first_drain, &run);
        bool cut = inj.tripped();
        inj.disarm();
        db->device().setInjector(nullptr);
        if (!cut) {
            if (event > clean_events)
                break;
            continue; // this interleaving batched into fewer events
        }
        ++cuts;
        // The committing thread finished untouched, so the drainer
        // took the cut.
        if (!run.clientCut) {
            ++drainer_cuts;
            if (run.cutDrainSize(event) >= 2)
                ++batched_cuts;
        }
        db->crash(mode, kSeedBase + event);

        for (int i = 0; i < kCommits; ++i) {
            std::int64_t a = valueOf(*db, 2 * i);
            std::int64_t b = valueOf(*db, 2 * i + 1);
            int fate = run.fate[i].load();
            EXPECT_EQ(a, b) << "event " << event << ": commit " << i
                            << " torn";
            EXPECT_TRUE(a == 0 || a == 100 + i)
                << "event " << event << ": commit " << i << " reads "
                << a;
            if (fate == kOk) {
                EXPECT_EQ(a, 100 + i) << "event " << event << ": commit "
                                      << i << " acknowledged, then lost";
            }
            if (fate == kNeverSent) {
                EXPECT_EQ(a, 0) << "event " << event << ": commit " << i
                                << " never sent, yet visible";
            }
        }
        EXPECT_EQ(db->rowCount("KV"), static_cast<std::size_t>(2 * kCommits));
        EXPECT_EQ(db->busyWalShards(), 0u) << "event " << event;
        if (testing::Test::HasFailure())
            break;
    }
    std::printf("[ async sweep ] %s: %u events clean, %u power cuts (%u "
                "on the drainer thread, %u inside a drain of 2+ "
                "commits), crash seeds %llu..%llu\n",
                hold_first_drain ? "batched drain" : "free drainer",
                static_cast<unsigned>(clean_events), cuts, drainer_cuts,
                batched_cuts,
                static_cast<unsigned long long>(kSeedBase + 1),
                static_cast<unsigned long long>(kSeedBase + event));
    EXPECT_GT(drainer_cuts, 0u);
    if (hold_first_drain) {
        EXPECT_GT(batched_cuts, 0u);
    }
    setWarningsEnabled(true);
}

} // namespace async

TEST(DbCrashTest, AsyncCommitSweepConservative)
{
    async::asyncSweep(CrashMode::kDiscardUnflushed, false);
}

TEST(DbCrashTest, AsyncCommitSweepWithCacheEviction)
{
    async::asyncSweep(CrashMode::kEvictRandomLines, false);
}

TEST(DbCrashTest, AsyncCommitSweepBatchedDrainConservative)
{
    async::asyncSweep(CrashMode::kDiscardUnflushed, true);
}

TEST(DbCrashTest, AsyncCommitSweepBatchedDrainWithCacheEviction)
{
    async::asyncSweep(CrashMode::kEvictRandomLines, true);
}

TEST(DbCrashTest, DdlSweep)
{
    // Crash during CREATE TABLE: the table is either fully visible
    // (with its row region) or absent after reopen.
    for (std::uint64_t event = 1;; ++event) {
        auto db = makeDb();
        CrashInjector inj;
        db->device().setInjector(&inj);
        inj.arm(event);
        bool crashed = false;
        try {
            db->executeSql(
                "CREATE TABLE T (ID BIGINT PRIMARY KEY, V VARCHAR)");
        } catch (const SimulatedCrash &) {
            crashed = true;
        }
        inj.disarm();
        db->device().setInjector(nullptr);
        if (!crashed)
            break;
        db->crash();
        if (db->catalog().find("T")) {
            db->executeSql(
                "INSERT INTO T (ID, V) VALUES (1, 'ok')");
            EXPECT_EQ(db->rowCount("T"), 1u);
        } else {
            db->executeSql(
                "CREATE TABLE T (ID BIGINT PRIMARY KEY, V VARCHAR)");
            db->executeSql("INSERT INTO T (ID, V) VALUES (1, 'ok')");
        }
    }
}

} // namespace
} // namespace db
} // namespace espresso
