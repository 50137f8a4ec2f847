/**
 * @file
 * Mini-H2 tests: value/slot/SQL-literal codecs, lexer and parser,
 * CRUD through both ingress paths, transactions, WAL crash recovery,
 * catalog persistence, and the PR 6 surface — explicit Txn handles
 * with unified Status codes, snapshot isolation (single-engine and
 * cross-shard), first-committer-wins conflicts, and deadlock
 * detection.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "db/database.hh"
#include "db/sharded_database.hh"
#include "db/sql_lexer.hh"
#include "db/sql_parser.hh"
#include "db/wal.hh"
#include "runtime/oop.hh"
#include "util/logging.hh"

namespace espresso {
namespace db {
namespace {

TEST(ValueCodecTest, SlotRoundTrip)
{
    std::uint8_t slot[kValueSlotBytes];
    for (const DbValue &v :
         {DbValue::null(), DbValue::ofI64(-42),
          DbValue::ofF64(3.25), DbValue::ofStr("hello 'world'"),
          DbValue::ofStr("")}) {
        encodeValueSlot(slot, v);
        EXPECT_TRUE(decodeValueSlot(slot) == v);
    }
    EXPECT_THROW(
        encodeValueSlot(slot, DbValue::ofStr(std::string(60, 'x'))),
        FatalError);
}

TEST(ValueCodecTest, SqlLiteralsEscape)
{
    EXPECT_EQ(toSqlLiteral(DbValue::ofI64(7)), "7");
    EXPECT_EQ(toSqlLiteral(DbValue::null()), "NULL");
    EXPECT_EQ(toSqlLiteral(DbValue::ofStr("o'clock")), "'o''clock'");
}

TEST(SqlLexerTest, TokenKinds)
{
    auto toks = tokenizeSql("SELECT a, b FROM t WHERE x = -3.5");
    ASSERT_GE(toks.size(), 10u);
    EXPECT_EQ(toks[0].kind, TokKind::kIdent);
    EXPECT_EQ(toks[0].text, "SELECT");
    EXPECT_EQ(toks[2].punct, ',');
    auto &last = toks[toks.size() - 2];
    EXPECT_EQ(last.kind, TokKind::kFloat);
    EXPECT_DOUBLE_EQ(last.d, -3.5);
    EXPECT_THROW(tokenizeSql("SELECT 'oops"), FatalError);
}

TEST(SqlParserTest, ParsesAllStatements)
{
    SqlStatement create = parseSql(
        "CREATE TABLE T (ID BIGINT PRIMARY KEY, NAME VARCHAR)");
    EXPECT_EQ(create.kind, SqlStatement::Kind::kCreateTable);
    EXPECT_EQ(create.schema.columns.size(), 2u);
    EXPECT_EQ(create.schema.pkColumn, 0u);

    SqlStatement insert = parseSql(
        "INSERT INTO T (ID, NAME) VALUES (1, 'it''s')");
    EXPECT_EQ(insert.insertValues[1].s, "it's");

    SqlStatement select = parseSql("SELECT * FROM T WHERE ID = 1");
    EXPECT_TRUE(select.selectAll);
    EXPECT_TRUE(select.hasWhere);
    EXPECT_EQ(select.whereValue.i, 1);

    SqlStatement update =
        parseSql("UPDATE T SET NAME = 'x' WHERE ID = 2");
    EXPECT_EQ(update.assignments.size(), 1u);

    SqlStatement del = parseSql("DELETE FROM T WHERE ID = 3");
    EXPECT_EQ(del.kind, SqlStatement::Kind::kDelete);

    EXPECT_THROW(parseSql("DROP TABLE T"), FatalError);
    EXPECT_THROW(parseSql("UPDATE T SET NAME = 'x'"), FatalError);
}

class DatabaseTest : public ::testing::Test
{
  protected:
    DatabaseTest()
    {
        DatabaseConfig cfg;
        cfg.rowRegionSize = 8u << 20;
        cfg.rowsPerTable = 512;
        db_ = std::make_unique<Database>(cfg);
        db_->executeSql("CREATE TABLE PERSON (ID BIGINT PRIMARY KEY, "
                        "NAME VARCHAR, AGE BIGINT)");
    }

    std::unique_ptr<Database> db_;
};

TEST_F(DatabaseTest, SqlCrudRoundTrip)
{
    db_->executeSql(
        "INSERT INTO PERSON (ID, NAME, AGE) VALUES (1, 'Ann', 30)");
    db_->executeSql(
        "INSERT INTO PERSON (ID, NAME, AGE) VALUES (2, 'Bob', 40)");

    ResultSet rs = db_->executeSql("SELECT * FROM PERSON WHERE ID = 1");
    ASSERT_EQ(rs.rows.size(), 1u);
    EXPECT_EQ(rs.rows[0][1].s, "Ann");
    EXPECT_EQ(rs.rows[0][2].i, 30);

    db_->executeSql("UPDATE PERSON SET AGE = 31 WHERE ID = 1");
    rs = db_->executeSql("SELECT AGE FROM PERSON WHERE ID = 1");
    EXPECT_EQ(rs.rows[0][0].i, 31);

    ResultSet all = db_->executeSql("SELECT * FROM PERSON");
    EXPECT_EQ(all.rows.size(), 2u);

    db_->executeSql("DELETE FROM PERSON WHERE ID = 2");
    EXPECT_EQ(db_->rowCount("PERSON"), 1u);

    EXPECT_THROW(db_->executeSql(
                     "INSERT INTO PERSON (ID, NAME, AGE) VALUES "
                     "(1, 'dup', 0)"),
                 FatalError);
}

TEST_F(DatabaseTest, DirectRecordPathMatchesSqlPath)
{
    DbRecord rec;
    rec.values = {DbValue::ofI64(5), DbValue::ofStr("Eve"),
                  DbValue::ofI64(25)};
    db_->persistRecord("PERSON", rec);

    ResultSet rs = db_->executeSql("SELECT * FROM PERSON WHERE ID = 5");
    ASSERT_EQ(rs.rows.size(), 1u);
    EXPECT_EQ(rs.rows[0][1].s, "Eve");

    // Masked update: only AGE.
    DbRecord up;
    up.values = {DbValue::ofI64(5), DbValue::ofStr("IGNORED"),
                 DbValue::ofI64(26)};
    up.dirtyMask = 1ull << 2;
    db_->persistRecord("PERSON", up);
    DbRecord out;
    ASSERT_TRUE(db_->fetchRecord("PERSON", 5, &out));
    EXPECT_EQ(out.values[1].s, "Eve"); // untouched
    EXPECT_EQ(out.values[2].i, 26);

    EXPECT_TRUE(db_->deleteRecord("PERSON", 5));
    EXPECT_FALSE(db_->fetchRecord("PERSON", 5, &out));
}

TEST_F(DatabaseTest, ScanEq)
{
    for (int i = 0; i < 20; ++i) {
        DbRecord rec;
        rec.values = {DbValue::ofI64(i),
                      DbValue::ofStr(i % 2 ? "odd" : "even"),
                      DbValue::ofI64(i)};
        db_->persistRecord("PERSON", rec);
    }
    int odd = 0;
    db_->scanEq("PERSON", "NAME", DbValue::ofStr("odd"),
                [&](const std::vector<DbValue> &) { ++odd; });
    EXPECT_EQ(odd, 10);
}

TEST_F(DatabaseTest, ExplicitTransactionRollback)
{
    db_->executeSql(
        "INSERT INTO PERSON (ID, NAME, AGE) VALUES (1, 'Ann', 30)");
    Txn t = db_->beginTxn();
    db_->executeSql("UPDATE PERSON SET AGE = 99 WHERE ID = 1");
    db_->executeSql(
        "INSERT INTO PERSON (ID, NAME, AGE) VALUES (2, 'Tmp', 0)");
    EXPECT_TRUE(t.rollback().isOk());

    ResultSet rs = db_->executeSql("SELECT AGE FROM PERSON WHERE ID = 1");
    EXPECT_EQ(rs.rows[0][0].i, 30);
    EXPECT_EQ(db_->rowCount("PERSON"), 1u);
}

TEST_F(DatabaseTest, CommittedDataSurvivesCrash)
{
    db_->executeSql(
        "INSERT INTO PERSON (ID, NAME, AGE) VALUES (1, 'Ann', 30)");
    db_->crash();
    ResultSet rs = db_->executeSql("SELECT * FROM PERSON WHERE ID = 1");
    ASSERT_EQ(rs.rows.size(), 1u);
    EXPECT_EQ(rs.rows[0][1].s, "Ann");
    // Schema survived too (catalog reload).
    EXPECT_EQ(db_->catalog().tables().size(), 1u);
}

TEST_F(DatabaseTest, OpenTransactionRollsBackAcrossCrash)
{
    db_->executeSql(
        "INSERT INTO PERSON (ID, NAME, AGE) VALUES (1, 'Ann', 30)");
    Txn t = db_->beginTxn();
    db_->executeSql("UPDATE PERSON SET AGE = 99 WHERE ID = 1");
    db_->crash(); // commit never happened; t is inert from here on

    ResultSet rs = db_->executeSql("SELECT AGE FROM PERSON WHERE ID = 1");
    ASSERT_EQ(rs.rows.size(), 1u);
    EXPECT_EQ(rs.rows[0][0].i, 30);
}

TEST_F(DatabaseTest, WalDedupSkipsRepeatedRanges)
{
    db_->executeSql(
        "INSERT INTO PERSON (ID, NAME, AGE) VALUES (1, 'Ann', 30)");
    Txn t = db_->beginTxn();
    db_->executeSql("UPDATE PERSON SET AGE = 1 WHERE ID = 1");
    WalShard &shard = db_->wal().shard(db_->currentTxShard());
    std::size_t used_after_first = shard.bytesUsed();
    std::size_t count_after_first = shard.entryCount();
    ASSERT_GT(used_after_first, 0u);
    for (int i = 2; i <= 50; ++i) {
        db_->executeSql("UPDATE PERSON SET AGE = " + std::to_string(i) +
                        " WHERE ID = 1");
    }
    // Hot-row rewrites must not re-log the same old image.
    EXPECT_EQ(shard.bytesUsed(), used_after_first);
    EXPECT_EQ(shard.entryCount(), count_after_first);
    EXPECT_TRUE(t.commit().isOk());
    ResultSet rs = db_->executeSql("SELECT AGE FROM PERSON WHERE ID = 1");
    EXPECT_EQ(rs.rows[0][0].i, 50);

    // ... and rollback restores the pre-transaction image, not an
    // intermediate one.
    Txn r = db_->beginTxn();
    db_->executeSql("UPDATE PERSON SET AGE = 98 WHERE ID = 1");
    db_->executeSql("UPDATE PERSON SET AGE = 99 WHERE ID = 1");
    EXPECT_TRUE(r.rollback().isOk());
    rs = db_->executeSql("SELECT AGE FROM PERSON WHERE ID = 1");
    EXPECT_EQ(rs.rows[0][0].i, 50);
}

TEST(WalRecoveryTest, LogFullRollsBackRecoverably)
{
    DatabaseConfig cfg;
    cfg.rowRegionSize = 2u << 20;
    cfg.rowsPerTable = 128;
    cfg.walSize = 4096; // tiny: a few row images fill a segment
    cfg.walShards = 1;
    Database db(cfg);
    db.executeSql("CREATE TABLE T (ID BIGINT PRIMARY KEY, V BIGINT)");
    for (int i = 0; i < 64; ++i)
        db.executeSql("INSERT INTO T (ID, V) VALUES (" +
                      std::to_string(i) + ", 0)");

    // A transaction touching more rows than the segment holds must
    // roll back — and the process (and database) must survive.
    Txn t = db.beginTxn();
    bool full = false;
    for (int i = 0; i < 64 && !full; ++i) {
        try {
            db.executeSql("UPDATE T SET V = 1 WHERE ID = " +
                          std::to_string(i));
        } catch (const FatalError &) {
            full = true;
        }
    }
    ASSERT_TRUE(full);
    // commit() of the dead transaction reports the outcome; rollback()
    // after the engine's own rollback is a quiet no-op.
    EXPECT_FALSE(t.active());
    EXPECT_EQ(t.commit().code(), StatusCode::kWalFull);
    Txn u;
    EXPECT_THROW(
        {
            u = db.beginTxn();
            db.executeSql("UPDATE T SET V = 2 WHERE ID = 0");
            // Refill the segment to force another mid-txn abort.
            for (int i = 1; i < 64; ++i)
                db.executeSql("UPDATE T SET V = 2 WHERE ID = " +
                              std::to_string(i));
            (void)u.commit();
        },
        FatalError);
    EXPECT_FALSE(u.active());
    EXPECT_TRUE(u.rollback().isOk());

    // Every update the failed transactions made was undone.
    ResultSet rs = db.executeSql("SELECT * FROM T");
    ASSERT_EQ(rs.rows.size(), 64u);
    for (const auto &row : rs.rows)
        EXPECT_EQ(row[1].i, 0) << "row " << row[0].i;

    // The database stays fully usable.
    db.executeSql("INSERT INTO T (ID, V) VALUES (1000, 7)");
    EXPECT_EQ(db.rowCount("T"), 65u);
    Txn v = db.beginTxn();
    db.executeSql("UPDATE T SET V = 3 WHERE ID = 0");
    EXPECT_TRUE(v.commit().isOk());
    rs = db.executeSql("SELECT V FROM T WHERE ID = 0");
    EXPECT_EQ(rs.rows[0][0].i, 3);
}

TEST(WalRecoveryTest, CorruptHeaderIsDiscardedNotWalked)
{
    setWarningsEnabled(false);
    NvmDevice dev(1u << 20);
    Addr data = dev.toAddr(512 * 1024);
    for (int i = 0; i < 64; ++i)
        *reinterpret_cast<std::uint8_t *>(data + i) = 0xAA;
    dev.persist(data, 64);

    Wal wal(&dev, dev.toAddr(0), 64 * 1024, 4);
    WalShard &shard = wal.shard(0);
    shard.begin();
    shard.logRange(data, 64);
    for (int i = 0; i < 64; ++i)
        *reinterpret_cast<std::uint8_t *>(data + i) = 0xBB;
    dev.persist(data, 64);

    // Scribble garbage over the segment header's count/used words
    // (a torn header line) and persist the damage.
    Addr hb = shard.segmentBase();
    storeWord(hb + 8, ~0ull);  // count
    storeWord(hb + 16, ~0ull); // used
    dev.persist(hb, 64);

    // Recovery must neither crash nor walk the garbage...
    wal.recover();
    EXPECT_FALSE(shard.active());
    // ...and must not have "restored" anything from a bogus walk.
    EXPECT_EQ(*reinterpret_cast<std::uint8_t *>(data), 0xBB);

    // The discarded segment is reusable.
    shard.begin();
    shard.logRange(data, 64);
    shard.commitEager();
    EXPECT_FALSE(shard.active());
    setWarningsEnabled(true);
}

TEST(WalRecoveryTest, TornTailEntryIsSkippedValidPrefixRollsBack)
{
    setWarningsEnabled(false);
    NvmDevice dev(1u << 20);
    Addr r1 = dev.toAddr(512 * 1024);
    Addr r2 = dev.toAddr(512 * 1024 + 4096);
    for (int i = 0; i < 64; ++i) {
        *reinterpret_cast<std::uint8_t *>(r1 + i) = 0x11;
        *reinterpret_cast<std::uint8_t *>(r2 + i) = 0x22;
    }
    dev.persist(r1, 64);
    dev.persist(r2, 64);

    Wal wal(&dev, dev.toAddr(0), 64 * 1024, 1);
    WalShard &shard = wal.shard(0);
    shard.begin();
    shard.logRange(r1, 64);
    shard.logRange(r2, 64);
    for (int i = 0; i < 64; ++i) {
        *reinterpret_cast<std::uint8_t *>(r1 + i) = 0x33;
        *reinterpret_cast<std::uint8_t *>(r2 + i) = 0x44;
    }
    dev.persist(r1, 64);
    dev.persist(r2, 64);

    // Corrupt the tail entry's payload (entry layout: 32-byte fields
    // + 64-byte image; the second entry starts at +96).
    Addr tail_payload = shard.segmentBase() + kCacheLineSize + 96 + 32;
    *reinterpret_cast<std::uint8_t *>(tail_payload + 5) ^= 0xFF;
    dev.persist(tail_payload, 64);

    wal.recover();
    EXPECT_FALSE(shard.active());
    // The valid prefix rolled back; the torn tail was skipped.
    EXPECT_EQ(*reinterpret_cast<std::uint8_t *>(r1), 0x11);
    EXPECT_EQ(*reinterpret_cast<std::uint8_t *>(r2), 0x44);
    setWarningsEnabled(true);
}

TEST_F(DatabaseTest, UncommittedDeleteKeepsPkReserved)
{
    db_->executeSql(
        "INSERT INTO PERSON (ID, NAME, AGE) VALUES (1, 'Ann', 30)");
    Txn t = db_->beginTxn();
    EXPECT_TRUE(db_->deleteRecord("PERSON", 1));
    DbRecord out;
    EXPECT_FALSE(db_->fetchRecord("PERSON", 1, &out));

    // Another thread's insert of the reserved pk must be refused
    // while the delete is uncommitted — otherwise this rollback
    // would resurrect the old row on top of it.
    std::thread intruder([&]() {
        EXPECT_THROW(db_->executeSql("INSERT INTO PERSON (ID, NAME, "
                                     "AGE) VALUES (1, 'Zoe', 1)"),
                     FatalError);
    });
    intruder.join();

    EXPECT_TRUE(t.rollback().isOk());
    ASSERT_TRUE(db_->fetchRecord("PERSON", 1, &out));
    EXPECT_EQ(out.values[1].s, "Ann");
    EXPECT_EQ(db_->rowCount("PERSON"), 1u);
}

TEST_F(DatabaseTest, DeleteThenReinsertSamePkInOneTransaction)
{
    db_->executeSql(
        "INSERT INTO PERSON (ID, NAME, AGE) VALUES (1, 'Ann', 30)");

    Txn t = db_->beginTxn();
    EXPECT_TRUE(db_->deleteRecord("PERSON", 1));
    DbRecord rec;
    rec.values = {DbValue::ofI64(1), DbValue::ofStr("Ann2"),
                  DbValue::ofI64(31)};
    db_->persistRecord("PERSON", rec);
    EXPECT_TRUE(t.commit().isOk());

    DbRecord out;
    ASSERT_TRUE(db_->fetchRecord("PERSON", 1, &out));
    EXPECT_EQ(out.values[1].s, "Ann2");
    EXPECT_EQ(db_->rowCount("PERSON"), 1u);

    // The rolled-back variant restores the original row.
    Txn r = db_->beginTxn();
    EXPECT_TRUE(db_->deleteRecord("PERSON", 1));
    rec.values[1] = DbValue::ofStr("Ann3");
    db_->persistRecord("PERSON", rec);
    EXPECT_TRUE(r.rollback().isOk());
    ASSERT_TRUE(db_->fetchRecord("PERSON", 1, &out));
    EXPECT_EQ(out.values[1].s, "Ann2");
    EXPECT_EQ(db_->rowCount("PERSON"), 1u);

    // Durable too.
    db_->crash();
    ASSERT_TRUE(db_->fetchRecord("PERSON", 1, &out));
    EXPECT_EQ(out.values[1].s, "Ann2");
}

TEST(SamePkContentionTest, ConcurrentWritersOnOneKeyStayConsistent)
{
    DatabaseConfig cfg;
    cfg.rowRegionSize = 2u << 20;
    cfg.rowsPerTable = 64;
    cfg.walShards = 8;
    Database db(cfg);
    db.executeSql("CREATE TABLE T (ID BIGINT PRIMARY KEY, V BIGINT)");
    db.executeSql("INSERT INTO T (ID, V) VALUES (7, 0)");

    constexpr int kThreads = 4;
    constexpr int kIters = 60;
    std::atomic<bool> go{false};
    std::atomic<int> failures{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t]() {
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            for (int i = 0; i < kIters; ++i) {
                try {
                    Txn txn = db.beginTxn();
                    if ((t + i) % 3 == 0) {
                        // delete + re-insert the hot key
                        if (db.deleteRecord("T", 7)) {
                            DbRecord rec;
                            rec.values = {DbValue::ofI64(7),
                                          DbValue::ofI64(t * 1000 + i)};
                            db.persistRecord("T", rec);
                        }
                        EXPECT_TRUE(txn.commit().isOk());
                    } else if ((t + i) % 3 == 1) {
                        DbRecord rec;
                        rec.values = {DbValue::ofI64(7),
                                      DbValue::ofI64(t * 1000 + i)};
                        rec.dirtyMask = 1ull << 1;
                        db.persistRecord("T", rec);
                        EXPECT_TRUE(txn.commit().isOk());
                    } else {
                        DbRecord rec;
                        rec.values = {DbValue::ofI64(7),
                                      DbValue::ofI64(-1)};
                        rec.dirtyMask = 1ull << 1;
                        db.persistRecord("T", rec);
                        EXPECT_TRUE(txn.rollback().isOk());
                    }
                } catch (const FatalError &) {
                    // A racing delete may briefly reserve the pk;
                    // the transaction was rolled back for us, or the
                    // statement refused and dropping txn rolled it
                    // back — both leave the db intact.
                    failures.fetch_add(1);
                }
            }
        });
    }
    go.store(true, std::memory_order_release);
    for (auto &w : workers)
        w.join();

    // Exactly one live row with pk 7, holding one writer's committed
    // value — never a duplicate, never a resurrected ghost.
    EXPECT_EQ(db.rowCount("T"), 1u);
    ResultSet rs = db.executeSql("SELECT * FROM T");
    ASSERT_EQ(rs.rows.size(), 1u);
    EXPECT_EQ(rs.rows[0][0].i, 7);
    db.crash(CrashMode::kEvictRandomLines, 99);
    EXPECT_EQ(db.rowCount("T"), 1u);
    EXPECT_EQ(db.executeSql("SELECT * FROM T").rows.size(), 1u);
}

namespace groupc {

DatabaseConfig
smallConfig()
{
    DatabaseConfig cfg;
    cfg.rowRegionSize = 2u << 20;
    cfg.rowsPerTable = 256;
    cfg.walShards = 8;
    return cfg;
}

DbRecord
row(std::int64_t id, std::int64_t v)
{
    DbRecord rec;
    rec.values = {DbValue::ofI64(id), DbValue::ofI64(v)};
    return rec;
}

} // namespace groupc

TEST(GroupCommitTest, AsyncCommitsParkedDuringADrainShareTheNext)
{
    Database db(groupc::smallConfig());
    db.executeSql("CREATE TABLE T (ID BIGINT PRIMARY KEY, V BIGINT)");
    CommitCoordinator &coord = db.commitCoordinator();
    CommitCoordinator::Stats before = coord.stats();

    // Hold the first drain on the drainer thread until three more
    // commits have parked behind it.
    std::vector<std::size_t> sizes; // drainer thread only
    std::atomic<bool> first_taken{false};
    std::atomic<bool> release{false};
    std::uint64_t fences_at_second = 0; // drainer thread only
    coord.setDrainHook([&](std::size_t n) {
        sizes.push_back(n);
        if (sizes.size() == 1) {
            first_taken.store(true, std::memory_order_release);
            while (!release.load(std::memory_order_acquire))
                std::this_thread::yield();
        } else {
            fences_at_second = db.device().stats().fences.load();
        }
    });

    constexpr int kCommits = 4;
    std::atomic<int> acked{0};
    std::atomic<int> ok{0};
    auto send = [&](int i) {
        Txn txn;
        ASSERT_TRUE(db.tryBeginTxn({}, &txn).isOk()) << "commit " << i;
        db.persistRecord("T", groupc::row(i, 100 + i));
        txn.commitAsync([&](Status s) {
            if (s.isOk())
                ok.fetch_add(1);
            acked.fetch_add(1, std::memory_order_release);
        });
    };
    send(0);
    while (!first_taken.load(std::memory_order_acquire))
        std::this_thread::yield();
    for (int i = 1; i < kCommits; ++i)
        send(i);
    release.store(true, std::memory_order_release);
    while (acked.load(std::memory_order_acquire) != kCommits)
        std::this_thread::yield();
    coord.setDrainHook(nullptr);

    // The three parked commits drained as one batch: two fences
    // (images, then commit records), where eager pays two each.
    EXPECT_EQ(ok.load(), kCommits);
    EXPECT_EQ(sizes, (std::vector<std::size_t>{1, 3}));
    EXPECT_EQ(db.device().stats().fences.load() - fences_at_second, 2u);
    CommitCoordinator::Stats after = coord.stats();
    EXPECT_EQ(after.batches - before.batches, 2u);
    EXPECT_EQ(after.txns - before.txns,
              static_cast<std::uint64_t>(kCommits));
    EXPECT_EQ(after.maxBatch, 3u);

    // ... and every commit is durable.
    db.crash(CrashMode::kDiscardUnflushed);
    for (int i = 0; i < kCommits; ++i) {
        DbRecord out;
        ASSERT_TRUE(db.fetchRecord("T", i, &out)) << "commit " << i
                                                  << " lost";
        EXPECT_EQ(out.values[1].i, 100 + i);
    }
    EXPECT_EQ(db.busyWalShards(), 0u);
}

TEST(GroupCommitTest, SyncCommitsDrainAloneAtAnyConcurrency)
{
    Database db(groupc::smallConfig());
    db.executeSql("CREATE TABLE T (ID BIGINT PRIMARY KEY, V BIGINT)");

    // Phase 1: one committer. Every commit drains alone, at once.
    CommitCoordinator::Stats before = db.commitCoordinator().stats();
    constexpr int kSeq = 8;
    for (int i = 0; i < kSeq; ++i) {
        Txn txn = db.beginTxn();
        db.persistRecord("T", groupc::row(i, i));
        EXPECT_TRUE(txn.commit().isOk());
    }
    CommitCoordinator::Stats mid = db.commitCoordinator().stats();
    EXPECT_EQ(mid.txns - before.txns, static_cast<std::uint64_t>(kSeq));
    EXPECT_EQ(mid.batches - before.batches,
              static_cast<std::uint64_t>(kSeq));
    EXPECT_EQ(mid.maxBatch, 1u);

    // Phase 2: four committers released from a barrier. Each sync
    // commit is still its own drain, on its own thread.
    constexpr int kThreads = 4;
    std::atomic<int> staged{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t]() {
            Txn txn = db.beginTxn();
            db.persistRecord("T", groupc::row(100 + t, t));
            staged.fetch_add(1);
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            EXPECT_TRUE(txn.commit().isOk());
        });
    }
    while (staged.load() != kThreads)
        std::this_thread::yield();
    go.store(true, std::memory_order_release);
    for (auto &w : workers)
        w.join();
    CommitCoordinator::Stats after = db.commitCoordinator().stats();
    EXPECT_EQ(after.txns - mid.txns,
              static_cast<std::uint64_t>(kThreads));
    EXPECT_EQ(after.batches - mid.batches,
              static_cast<std::uint64_t>(kThreads));
    EXPECT_EQ(after.maxBatch, 1u);

    db.crash(CrashMode::kDiscardUnflushed);
    EXPECT_EQ(db.rowCount("T"), static_cast<std::size_t>(kSeq + kThreads));
    for (int t = 0; t < kThreads; ++t) {
        ResultSet rs = db.executeSql("SELECT V FROM T WHERE ID = " +
                                     std::to_string(100 + t));
        ASSERT_EQ(rs.rows.size(), 1u) << "txn " << t << " lost";
        EXPECT_EQ(rs.rows[0][0].i, t);
    }
}

// ---------------------------------------------------------------------
// A commit waits for no open transaction (F5). Each test keeps a
// second transaction open (begun, written, not committing) beside a
// commit; the commit drains at once, in one batch, and does not hold
// its row locks until the open transaction ends.
// ---------------------------------------------------------------------

namespace groupc {

/** Runs @p body on a second thread while that thread holds an open
 * transaction on @p engine that wrote @p pks, then rolls it back. */
template <typename Engine>
void
besideOpenTxn(Engine &engine, const std::vector<std::int64_t> &pks,
              const std::function<void()> &body)
{
    std::atomic<bool> opened{false};
    std::atomic<bool> finished{false};
    std::thread holder([&]() {
        Txn open = engine.beginTxn();
        for (std::int64_t pk : pks)
            engine.persistRecord("T", row(pk, -1));
        opened.store(true, std::memory_order_release);
        while (!finished.load(std::memory_order_acquire))
            std::this_thread::yield();
        EXPECT_TRUE(open.rollback().isOk());
    });
    while (!opened.load(std::memory_order_acquire))
        std::this_thread::yield();
    body();
    finished.store(true, std::memory_order_release);
    holder.join();
}

} // namespace groupc

TEST(GroupCommitTest, CommitBesideOpenTxnDrainsAtOnce)
{
    Database db(groupc::smallConfig());
    db.executeSql("CREATE TABLE T (ID BIGINT PRIMARY KEY, V BIGINT)");
    CommitCoordinator &coord = db.commitCoordinator();
    CommitCoordinator::Stats before = coord.stats();

    groupc::besideOpenTxn(db, {50}, [&]() {
        Txn txn = db.beginTxn();
        db.persistRecord("T", groupc::row(10, 10));
        EXPECT_TRUE(txn.commit().isOk());
        CommitCoordinator::Stats after = coord.stats();
        EXPECT_EQ(after.batches - before.batches, 1u);
        EXPECT_EQ(after.txns - before.txns, 1u);
    });

    db.crash(CrashMode::kDiscardUnflushed);
    DbRecord out;
    ASSERT_TRUE(db.fetchRecord("T", 10, &out));
    EXPECT_EQ(out.values[1].i, 10);
    EXPECT_FALSE(db.fetchRecord("T", 50, &out));
}

TEST(GroupCommitTest, AsyncCommitBesideOpenTxnDrainsAtOnce)
{
    Database db(groupc::smallConfig());
    db.executeSql("CREATE TABLE T (ID BIGINT PRIMARY KEY, V BIGINT)");
    CommitCoordinator &coord = db.commitCoordinator();
    CommitCoordinator::Stats before = coord.stats();

    groupc::besideOpenTxn(db, {50}, [&]() {
        Txn txn = db.beginTxn();
        db.persistRecord("T", groupc::row(10, 10));
        std::atomic<bool> done{false};
        std::atomic<bool> ok{false};
        txn.commitAsync([&](Status s) {
            ok.store(s.isOk());
            done.store(true, std::memory_order_release);
        });
        while (!done.load(std::memory_order_acquire))
            std::this_thread::yield();
        EXPECT_TRUE(ok.load());
        CommitCoordinator::Stats after = coord.stats();
        EXPECT_EQ(after.batches - before.batches, 1u);
        EXPECT_EQ(after.txns - before.txns, 1u);
    });

    db.crash(CrashMode::kDiscardUnflushed);
    DbRecord out;
    ASSERT_TRUE(db.fetchRecord("T", 10, &out));
    EXPECT_EQ(out.values[1].i, 10);
    EXPECT_EQ(db.busyWalShards(), 0u);
}

TEST(GroupCommitTest, SingleMemberBracketBesideOpenCrossShardBracket)
{
    // The embedded TPC-C shape: most brackets span members and commit
    // through 2PC, which bypasses the group-commit coordinator, while
    // a single-member bracket commits through its member's
    // coordinator with the cross-shard bracket's member transaction
    // open beside it.
    ShardedDatabaseConfig cfg;
    cfg.shards = 2;
    cfg.shard = groupc::smallConfig();
    ShardedDatabase database(cfg);
    database.createTable(TableSchema{
        "T", {{"ID", DbType::kI64}, {"V", DbType::kI64}}, 0,
        TableSchema::kNoIndex});
    std::vector<std::int64_t> on0, on1;
    for (std::int64_t pk = 0; on0.size() < 4 || on1.size() < 1; ++pk)
        (database.shardIndexForPk(pk) == 0 ? on0 : on1).push_back(pk);
    CommitCoordinator &coord0 = database.shard(0).commitCoordinator();
    CommitCoordinator::Stats before = coord0.stats();

    groupc::besideOpenTxn(database, {on0[3], on1[0]}, [&]() {
        Txn txn = database.beginTxn();
        database.persistRecord("T", groupc::row(on0[2], 7));
        EXPECT_TRUE(txn.commit().isOk());
        CommitCoordinator::Stats after = coord0.stats();
        EXPECT_EQ(after.batches - before.batches, 1u);
    });

    database.crash(CrashMode::kDiscardUnflushed);
    DbRecord out;
    ASSERT_TRUE(database.fetchRecord("T", on0[2], &out));
    EXPECT_EQ(out.values[1].i, 7);
    EXPECT_FALSE(database.fetchRecord("T", on0[3], &out));
    EXPECT_FALSE(database.fetchRecord("T", on1[0], &out));
}

// ---------------------------------------------------------------------
// Txn hand-off between threads: the wire front door's bracket path
// ---------------------------------------------------------------------

TEST(DetachedSessionTest, BracketTransfersAcrossThreads)
{
    DatabaseConfig cfg;
    cfg.rowRegionSize = 2u << 20;
    cfg.rowsPerTable = 256;
    cfg.walShards = 4;
    Database db(cfg);
    db.executeSql("CREATE TABLE T (ID BIGINT PRIMARY KEY, V BIGINT)");

    // Thread A opens the transaction, stages the first write, and
    // parks it.
    Txn txn;
    std::thread a([&]() {
        ASSERT_TRUE(db.tryBeginTxn({}, &txn).isOk());
        DbRecord rec;
        rec.values = {DbValue::ofI64(1), DbValue::ofI64(10)};
        db.persistRecord("T", rec);
        ASSERT_TRUE(txn.unbind().isOk());
    });
    a.join();
    EXPECT_TRUE(txn.active());
    EXPECT_EQ(db.busyWalShards(), 1u);

    // Thread B adopts it mid-flight: it sees A's uncommitted write
    // from inside the same transaction and stages another.
    std::thread b([&]() {
        ASSERT_TRUE(txn.bind().isOk());
        DbRecord out;
        ASSERT_TRUE(db.fetchRecord("T", 1, &out));
        EXPECT_EQ(out.values[1].i, 10);
        DbRecord rec;
        rec.values = {DbValue::ofI64(2), DbValue::ofI64(20)};
        db.persistRecord("T", rec);
        ASSERT_TRUE(txn.unbind().isOk());
    });
    b.join();

    // A parked transaction commits from any thread — C never
    // executed a statement of it.
    std::thread c([&]() { EXPECT_TRUE(txn.commit().isOk()); });
    c.join();

    EXPECT_FALSE(txn.active());
    EXPECT_EQ(db.busyWalShards(), 0u);
    DbRecord out;
    ASSERT_TRUE(db.fetchRecord("T", 1, &out));
    EXPECT_EQ(out.values[1].i, 10);
    ASSERT_TRUE(db.fetchRecord("T", 2, &out));
    EXPECT_EQ(out.values[1].i, 20);

    // Both writes rode one transaction: atomic across the transfer.
    db.crash(CrashMode::kDiscardUnflushed);
    EXPECT_EQ(db.rowCount("T"), 2u);

    // A bind from a second thread while bound elsewhere is refused,
    // not fatal.
    Txn t2;
    ASSERT_TRUE(db.tryBeginTxn({}, &t2).isOk());
    std::thread d([&]() {
        EXPECT_EQ(t2.bind().code(), StatusCode::kMisuse);
    });
    d.join();
    ASSERT_TRUE(t2.unbind().isOk());
    EXPECT_TRUE(t2.rollback().isOk());
    EXPECT_EQ(db.busyWalShards(), 0u);
}

TEST_F(DatabaseTest, TableCapacityIsEnforced)
{
    DatabaseConfig tiny;
    tiny.rowRegionSize = 1u << 20;
    tiny.rowsPerTable = 4;
    Database small(tiny);
    small.executeSql("CREATE TABLE T (ID BIGINT PRIMARY KEY)");
    for (int i = 0; i < 4; ++i)
        small.executeSql("INSERT INTO T (ID) VALUES (" +
                         std::to_string(i) + ")");
    EXPECT_THROW(small.executeSql("INSERT INTO T (ID) VALUES (99)"),
                 FatalError);
}

// ---------------------------------------------------------------------
// ShardedDatabase: pk partitioning through the consistent-hash router
// ---------------------------------------------------------------------

class ShardedDbTest : public ::testing::Test
{
  protected:
    static ShardedDatabaseConfig
    config(unsigned shards)
    {
        ShardedDatabaseConfig cfg;
        cfg.shards = shards;
        cfg.shard.rowRegionSize = 2u << 20;
        cfg.shard.rowsPerTable = 512;
        return cfg;
    }

    static TableSchema
    schema()
    {
        return TableSchema{
            "T", {{"ID", DbType::kI64}, {"V", DbType::kI64}}, 0,
            TableSchema::kNoIndex};
    }

    static DbRecord
    row(std::int64_t id, std::int64_t v)
    {
        DbRecord rec;
        rec.values = {DbValue::ofI64(id), DbValue::ofI64(v)};
        return rec;
    }
};

TEST_F(ShardedDbTest, RoutesByPkAndFansOut)
{
    ShardedDatabase database(config(4));
    database.createTable(schema());
    for (std::int64_t id = 0; id < 200; ++id)
        database.persistRecord("T", row(id, id * 10));

    // Point reads hit the routed shard; totals sum across members.
    for (std::int64_t id = 0; id < 200; ++id) {
        DbRecord out;
        ASSERT_TRUE(database.fetchRecord("T", id, &out)) << id;
        EXPECT_EQ(out.values[1].i, id * 10);
        EXPECT_EQ(database.shardForPk(id).rowCount("T") > 0, true);
    }
    EXPECT_EQ(database.rowCount("T"), 200u);

    // The router actually partitions (every member holds a slice),
    // and rows live exactly where the ring says.
    std::size_t spread = 0;
    for (unsigned s = 0; s < 4; ++s)
        spread += database.shard(s).rowCount("T") > 0 ? 1 : 0;
    EXPECT_EQ(spread, 4u);
    for (std::int64_t id = 0; id < 200; ++id) {
        DbRecord out;
        EXPECT_TRUE(database.shardForPk(id).fetchRecord("T", id, &out));
    }

    // Fan-out scan sees every matching row exactly once.
    for (std::int64_t id = 100; id < 110; ++id)
        database.persistRecord("T", row(id, -1));
    std::size_t hits = 0;
    database.scanEq("T", "V", DbValue::ofI64(-1),
                    [&](const std::vector<DbValue> &) { ++hits; });
    EXPECT_EQ(hits, 10u);

    EXPECT_TRUE(database.deleteRecord("T", 5));
    EXPECT_FALSE(database.deleteRecord("T", 5));
    EXPECT_EQ(database.rowCount("T"), 199u);
}

TEST_F(ShardedDbTest, CrossShardBracketCommitsAndRollsBack)
{
    ShardedDatabase database(config(4));
    database.createTable(schema());
    for (std::int64_t id = 0; id < 32; ++id)
        database.persistRecord("T", row(id, 0));

    Txn t = database.beginTxn();
    EXPECT_TRUE(t.active());
    for (std::int64_t id = 0; id < 32; ++id)
        database.persistRecord("T", row(id, 1));
    EXPECT_TRUE(t.commit().isOk());
    EXPECT_FALSE(t.active());
    for (std::int64_t id = 0; id < 32; ++id) {
        DbRecord out;
        ASSERT_TRUE(database.fetchRecord("T", id, &out));
        EXPECT_EQ(out.values[1].i, 1);
    }

    Txn r = database.beginTxn();
    for (std::int64_t id = 0; id < 32; ++id)
        database.persistRecord("T", row(id, 2));
    EXPECT_TRUE(r.rollback().isOk());
    for (std::int64_t id = 0; id < 32; ++id) {
        DbRecord out;
        ASSERT_TRUE(database.fetchRecord("T", id, &out));
        EXPECT_EQ(out.values[1].i, 1) << "rollback leaked on id " << id;
    }
}

TEST_F(ShardedDbTest, WalFullAbortsTheWholeBracket)
{
    ShardedDatabaseConfig cfg = config(2);
    cfg.shard.walSize = 4096; // one tiny undo segment per member
    cfg.shard.walShards = 1;
    ShardedDatabase database(cfg);
    database.createTable(schema());
    for (std::int64_t id = 0; id < 400; ++id)
        database.persistRecord("T", row(id, 7));

    auto overflow = [&database]() {
        try {
            for (std::int64_t id = 0; id < 400; ++id)
                database.persistRecord("T", row(id, 8));
        } catch (const WalFullError &) {
            return true;
        }
        return false;
    };
    Txn t = database.beginTxn();
    ASSERT_TRUE(overflow()) << "undo segment never filled";
    // The whole cross-shard bracket aborted: both members rolled
    // back, no half-applied shard survives, and the database keeps
    // serving new work. commit() reports why; a rollback() after
    // catching the error is a graceful no-op.
    EXPECT_FALSE(t.active());
    EXPECT_EQ(t.commit().code(), StatusCode::kWalFull);
    Txn r = database.beginTxn();
    ASSERT_TRUE(overflow()) << "undo segment never filled";
    EXPECT_TRUE(r.rollback().isOk());
    for (std::int64_t id = 0; id < 400; ++id) {
        DbRecord out;
        ASSERT_TRUE(database.fetchRecord("T", id, &out));
        EXPECT_EQ(out.values[1].i, 7) << "leak on id " << id;
    }
    database.persistRecord("T", row(3, 9));
    DbRecord out;
    ASSERT_TRUE(database.fetchRecord("T", 3, &out));
    EXPECT_EQ(out.values[1].i, 9);
}

TEST_F(ShardedDbTest, MemberCrashRecoveryIsShardLocal)
{
    ShardedDatabase database(config(2));
    database.createTable(schema());
    std::vector<std::int64_t> shard0_ids, shard1_ids;
    for (std::int64_t id = 0; id < 100; ++id) {
        database.persistRecord("T", row(id, id));
        (database.shardIndexForPk(id) == 0 ? shard0_ids : shard1_ids)
            .push_back(id);
    }
    ASSERT_FALSE(shard0_ids.empty());
    ASSERT_FALSE(shard1_ids.empty());

    // Leave an uncommitted member-level transaction in flight on
    // member 0, then power-fail only that member (fabric brackets
    // must be closed across a crash — the member's own engine rolls
    // its open transaction back on reopen).
    std::int64_t victim = shard0_ids[0];
    Txn member_txn = database.shard(0).beginTxn();
    database.shard(0).persistRecord("T", row(victim, -5));
    database.crashShard(0, CrashMode::kDiscardUnflushed, 42);

    // Member 0 recovered from its own WAL: the in-flight update
    // rolled back, committed rows survive; member 1 never blinked.
    for (std::int64_t id : shard0_ids) {
        DbRecord out;
        ASSERT_TRUE(database.fetchRecord("T", id, &out)) << id;
        EXPECT_EQ(out.values[1].i, id);
    }
    for (std::int64_t id : shard1_ids) {
        DbRecord out;
        ASSERT_TRUE(database.fetchRecord("T", id, &out)) << id;
        EXPECT_EQ(out.values[1].i, id);
    }
    // The fabric keeps serving — including on the recovered member.
    database.persistRecord("T", row(victim, 11));
    DbRecord out;
    ASSERT_TRUE(database.fetchRecord("T", victim, &out));
    EXPECT_EQ(out.values[1].i, 11);
}

// ---------------------------------------------------------------------
// The Txn handle API, unified Status codes, snapshot isolation, and
// deadlock detection.
// ---------------------------------------------------------------------

class TxnApiTest : public ::testing::Test
{
  protected:
    TxnApiTest()
    {
        DatabaseConfig cfg;
        cfg.rowRegionSize = 8u << 20;
        cfg.rowsPerTable = 512;
        cfg.walShards = 4;
        db_ = std::make_unique<Database>(cfg);
        db_->createTable(TableSchema{"KV",
                                     {{"ID", DbType::kI64},
                                      {"V", DbType::kI64}},
                                     0,
                                     TableSchema::kNoIndex});
        for (std::int64_t id = 0; id < 16; ++id)
            put(id, 0);
    }

    void
    put(std::int64_t id, std::int64_t v)
    {
        DbRecord rec;
        rec.values = {DbValue::ofI64(id), DbValue::ofI64(v)};
        db_->persistRecord("KV", rec);
    }

    std::int64_t
    get(std::int64_t id)
    {
        DbRecord out;
        EXPECT_TRUE(db_->fetchRecord("KV", id, &out)) << id;
        return out.values[1].i;
    }

    std::unique_ptr<Database> db_;
};

TEST_F(TxnApiTest, HandleCommitRollbackAndMisuse)
{
    Txn t = db_->beginTxn();
    EXPECT_TRUE(t.active());
    EXPECT_EQ(t.snapshot(), kNoSnapshot);
    put(1, 5);
    Status s = t.commit();
    EXPECT_TRUE(s.isOk()) << s.message();
    EXPECT_FALSE(t.active());
    EXPECT_EQ(get(1), 5);
    // A finished handle reports misuse, never fatals.
    EXPECT_EQ(t.commit().code(), StatusCode::kMisuse);
    EXPECT_EQ(t.rollback().code(), StatusCode::kMisuse);
    EXPECT_EQ(Txn().commit().code(), StatusCode::kMisuse);

    Txn r = db_->beginTxn();
    put(1, 9);
    EXPECT_TRUE(r.rollback().isOk());
    EXPECT_FALSE(r.active());
    EXPECT_EQ(get(1), 5);
}

TEST_F(TxnApiTest, DestructorAndMoveSemantics)
{
    // Dropping an open handle rolls its transaction back.
    {
        Txn t = db_->beginTxn();
        put(2, 7);
    }
    EXPECT_EQ(get(2), 0);

    // Moving transfers ownership; the source goes inert.
    Txn a = db_->beginTxn();
    put(3, 4);
    Txn b = std::move(a);
    EXPECT_FALSE(a.active());
    EXPECT_TRUE(b.active());
    EXPECT_TRUE(b.commit().isOk());
    EXPECT_EQ(get(3), 4);
}

TEST_F(TxnApiTest, ForeignThreadCommitIsMisuse)
{
    // A bound Txn is pinned to its thread; finishing it from a worker
    // that merely holds a reference is a protocol error reported as a
    // status, never silently committed.
    Txn t = db_->beginTxn();
    put(4, 44);
    Status foreign = Status::ok();
    std::thread other([&]() { foreign = t.commit(); });
    other.join();
    EXPECT_EQ(foreign.code(), StatusCode::kMisuse);

    // The refused commit left the transaction open and the handle
    // usable: it rolls back normally on its own thread, so the staged
    // write never lands.
    EXPECT_TRUE(t.active());
    EXPECT_TRUE(t.rollback().isOk());
    EXPECT_EQ(get(4), 0);
}

TEST_F(TxnApiTest, PowerFailureLeavesTxnInert)
{
    // A Txn that outlives a crash() touches no engine state when it
    // commits, rolls back or drops: not the rows, and not the new
    // transaction that holds the same WAL shard token.
    Txn lost[3];
    for (Txn &t : lost) {
        t = db_->beginTxn(); // an inert Txn on this thread: not nested
        put(6, 66);
        db_->crash();
        EXPECT_FALSE(t.active());
    }
    Txn fresh = db_->beginTxn(); // same thread: same home shard
    put(7, 77);
    EXPECT_EQ(db_->busyWalShards(), 1u);
    EXPECT_EQ(lost[0].commit().code(), StatusCode::kAborted);
    EXPECT_TRUE(lost[1].rollback().isOk());
    lost[2] = Txn();
    EXPECT_EQ(db_->busyWalShards(), 1u) << "a lost Txn freed a token";
    EXPECT_TRUE(fresh.commit().isOk());
    EXPECT_EQ(db_->busyWalShards(), 0u);
    EXPECT_EQ(get(6), 0);
    EXPECT_EQ(get(7), 77);
}

TEST_F(TxnApiTest, CommitReportsWalFullAsStatus)
{
    DatabaseConfig cfg;
    cfg.rowRegionSize = 8u << 20;
    cfg.rowsPerTable = 512;
    cfg.walSize = 4096;
    cfg.walShards = 1;
    Database small(cfg);
    small.createTable(TableSchema{"KV",
                                  {{"ID", DbType::kI64},
                                   {"V", DbType::kI64}},
                                  0,
                                  TableSchema::kNoIndex});
    auto rowOf = [](std::int64_t id, std::int64_t v) {
        DbRecord rec;
        rec.values = {DbValue::ofI64(id), DbValue::ofI64(v)};
        return rec;
    };
    for (std::int64_t id = 0; id < 400; ++id)
        small.persistRecord("KV", rowOf(id, 7));

    Txn t = small.beginTxn();
    bool overflowed = false;
    try {
        for (std::int64_t id = 0; id < 400; ++id)
            small.persistRecord("KV", rowOf(id, 8));
    } catch (const WalFullError &) {
        overflowed = true; // legacy exception still escapes
    }
    ASSERT_TRUE(overflowed) << "undo segment never filled";
    // ... but the handle reports the rollback as a Status.
    EXPECT_EQ(t.commit().code(), StatusCode::kWalFull);
    EXPECT_FALSE(t.active());
    for (std::int64_t id = 0; id < 400; ++id) {
        DbRecord out;
        ASSERT_TRUE(small.fetchRecord("KV", id, &out));
        EXPECT_EQ(out.values[1].i, 7) << "leak on id " << id;
    }
}

TEST_F(TxnApiTest, SnapshotReaderSeesBeginTimeVersions)
{
    Txn r = db_->beginTxn({Isolation::kSnapshot});
    ASSERT_NE(r.snapshot(), kNoSnapshot);
    for (std::int64_t id = 0; id < 8; ++id)
        EXPECT_EQ(get(id), 0);

    // A writer overwrites every row in one transaction and commits
    // mid-scan.
    std::thread w([&]() {
        Txn t = db_->beginTxn();
        for (std::int64_t id = 0; id < 16; ++id)
            put(id, 1);
        EXPECT_TRUE(t.commit().isOk());
    });
    w.join();

    // The rest of the scan still resolves to begin-time versions:
    // the committed multi-row write is invisible in its entirety.
    for (std::int64_t id = 8; id < 16; ++id)
        EXPECT_EQ(get(id), 0) << "snapshot leak at id " << id;
    EXPECT_TRUE(r.commit().isOk());

    // Outside the snapshot the new versions are all there.
    for (std::int64_t id = 0; id < 16; ++id)
        EXPECT_EQ(get(id), 1);

    // A fresh snapshot taken after the commit sees the new world.
    Txn r2 = db_->beginTxn({Isolation::kSnapshot});
    for (std::int64_t id = 0; id < 16; ++id)
        EXPECT_EQ(get(id), 1);
    EXPECT_TRUE(r2.commit().isOk());
}

TEST_F(TxnApiTest, FirstCommitterWinsReportsConflict)
{
    Txn r = db_->beginTxn({Isolation::kSnapshot});
    EXPECT_EQ(get(5), 0);

    // Another transaction commits row 5 after our snapshot.
    std::thread w([&]() { put(5, 7); });
    w.join();

    bool aborted = false;
    try {
        put(5, 9);
    } catch (const TxnAbortError &e) {
        aborted = true;
        EXPECT_EQ(e.code(), StatusCode::kConflict);
    }
    ASSERT_TRUE(aborted) << "stale write was admitted";
    EXPECT_EQ(r.commit().code(), StatusCode::kConflict);
    EXPECT_FALSE(r.active());
    EXPECT_EQ(get(5), 7) << "first committer must stand";
}

TEST_F(TxnApiTest, DeadlockAbortsExactlyOneVictim)
{
    // Two transactions lock rows 1 and 2 in opposite orders and
    // rendezvous in between: a guaranteed cycle. The engine must
    // abort exactly one with kDeadlock; the survivor commits.
    std::array<StatusCode, 2> codes{StatusCode::kOk, StatusCode::kOk};
    std::atomic<int> at_barrier{0};
    auto worker = [&](int me, std::int64_t first, std::int64_t second) {
        Txn t = db_->beginTxn();
        try {
            put(first, 100 + me);
            at_barrier.fetch_add(1);
            while (at_barrier.load(std::memory_order_acquire) != 2)
                std::this_thread::yield();
            put(second, 100 + me);
            codes[me] = t.commit().code();
        } catch (const TxnAbortError &) {
            codes[me] = t.commit().code();
        }
    };
    std::thread a(worker, 0, 1, 2);
    std::thread b(worker, 1, 2, 1);
    a.join();
    b.join();

    int winners = (codes[0] == StatusCode::kOk) +
                  (codes[1] == StatusCode::kOk);
    ASSERT_EQ(winners, 1) << "codes: " << static_cast<int>(codes[0])
                          << ", " << static_cast<int>(codes[1]);
    int victim = codes[0] == StatusCode::kOk ? 1 : 0;
    EXPECT_EQ(codes[victim], StatusCode::kDeadlock);
    // The victim's partial write rolled back: both rows carry the
    // survivor's value.
    std::int64_t winner_val = 100 + (1 - victim);
    EXPECT_EQ(get(1), winner_val);
    EXPECT_EQ(get(2), winner_val);

    // The database keeps serving transactions afterwards.
    Txn t = db_->beginTxn();
    put(1, 0);
    put(2, 0);
    EXPECT_TRUE(t.commit().isOk());
}

TEST_F(ShardedDbTest, TxnHandleDrivesCrossShardBracket)
{
    ShardedDatabase database(config(4));
    database.createTable(schema());
    for (std::int64_t id = 0; id < 32; ++id)
        database.persistRecord("T", row(id, 0));

    Txn t = database.beginTxn();
    EXPECT_TRUE(t.active());
    for (std::int64_t id = 0; id < 32; ++id)
        database.persistRecord("T", row(id, 1));
    EXPECT_TRUE(t.commit().isOk());
    EXPECT_FALSE(t.active());
    EXPECT_EQ(t.commit().code(), StatusCode::kMisuse);
    for (std::int64_t id = 0; id < 32; ++id) {
        DbRecord out;
        ASSERT_TRUE(database.fetchRecord("T", id, &out));
        EXPECT_EQ(out.values[1].i, 1);
    }

    // Dropping an open handle rolls the whole bracket back.
    {
        Txn u = database.beginTxn();
        for (std::int64_t id = 0; id < 32; ++id)
            database.persistRecord("T", row(id, 2));
    }
    for (std::int64_t id = 0; id < 32; ++id) {
        DbRecord out;
        ASSERT_TRUE(database.fetchRecord("T", id, &out));
        EXPECT_EQ(out.values[1].i, 1) << "dtor leak on id " << id;
    }
}

TEST_F(ShardedDbTest, SnapshotBracketSeesCrossShardCommitAtomically)
{
    ShardedDatabase database(config(4));
    database.createTable(schema());
    for (std::int64_t id = 0; id < 32; ++id)
        database.persistRecord("T", row(id, 0));

    Txn r = database.beginTxn({Isolation::kSnapshot});
    ASSERT_NE(r.snapshot(), kNoSnapshot);
    for (std::int64_t id = 0; id < 16; ++id) {
        DbRecord out;
        ASSERT_TRUE(database.fetchRecord("T", id, &out));
        EXPECT_EQ(out.values[1].i, 0);
    }

    // A cross-shard 2PC commit lands mid-scan.
    std::thread w([&]() {
        Txn t = database.beginTxn();
        for (std::int64_t id = 0; id < 32; ++id)
            database.persistRecord("T", row(id, 1));
        EXPECT_TRUE(t.commit().isOk());
    });
    w.join();

    // The snapshot still resolves every member's rows to begin-time
    // versions — the fabric-wide commit is invisible as a whole.
    for (std::int64_t id = 16; id < 32; ++id) {
        DbRecord out;
        ASSERT_TRUE(database.fetchRecord("T", id, &out));
        EXPECT_EQ(out.values[1].i, 0)
            << "snapshot saw a torn cross-shard commit at id " << id;
    }
    EXPECT_TRUE(r.commit().isOk());

    for (std::int64_t id = 0; id < 32; ++id) {
        DbRecord out;
        ASSERT_TRUE(database.fetchRecord("T", id, &out));
        EXPECT_EQ(out.values[1].i, 1);
    }
}

TEST_F(ShardedDbTest, FirstSnapshotSeesStraddlingBracketWhole)
{
    // The fabric's first snapshot begins while a cross-shard bracket
    // has written its member-0 row and not yet its member-1 row. The
    // bracket commits after the snapshot, so the snapshot must read
    // both rows as they were before it, never one new and one old.
    ShardedDatabase database(config(2));
    database.createTable(schema());
    std::int64_t p[2] = {-1, -1};
    for (std::int64_t id = 0; p[0] < 0 || p[1] < 0; ++id)
        if (p[database.shardIndexForPk(id)] < 0)
            p[database.shardIndexForPk(id)] = id;
    database.persistRecord("T", row(p[0], 0));
    database.persistRecord("T", row(p[1], 0));

    std::atomic<bool> first_written{false};
    std::thread w([&]() {
        Txn t = database.beginTxn();
        database.persistRecord("T", row(p[0], 1));
        first_written.store(true, std::memory_order_release);
        while (database.snapshotClock().minActive() ==
               SnapshotClock::kNoActiveSnapshots)
            std::this_thread::yield();
        database.persistRecord("T", row(p[1], 1));
        EXPECT_TRUE(t.commit().isOk());
    });
    while (!first_written.load(std::memory_order_acquire))
        std::this_thread::yield();
    Txn r = database.beginTxn({Isolation::kSnapshot});
    w.join();

    DbRecord a, b;
    ASSERT_TRUE(database.fetchRecord("T", p[0], &a));
    ASSERT_TRUE(database.fetchRecord("T", p[1], &b));
    EXPECT_EQ(a.values[1].i, b.values[1].i)
        << "the snapshot saw half of a cross-shard commit";
    EXPECT_EQ(a.values[1].i, 0);
    EXPECT_TRUE(r.commit().isOk());
}

TEST(VersionChainTest, TrimKeepsChainsBoundedUnderLongSnapshot)
{
    // Regression for the chain trimmer: a long-lived snapshot plus a
    // write-hot key must not grow the key's version chain without
    // bound — per active snapshot only the newest reachable
    // pre-image is retained, and commit-time pruning drops the rest.
    DatabaseConfig cfg;
    cfg.rowRegionSize = 4u << 20;
    cfg.rowsPerTable = 64;
    Database db(cfg);
    db.createTable(TableSchema{
        "T", {{"ID", DbType::kI64}, {"V", DbType::kI64}}, 0,
        TableSchema::kNoIndex});
    DbRecord rec;
    rec.values = {DbValue::ofI64(1), DbValue::ofI64(0)};
    db.persistRecord("T", rec);

    Word s = db.snapshotClock().beginSnapshot();
    std::size_t max_depth = 0;
    for (int i = 1; i <= 400; ++i) {
        DbRecord up;
        up.values = {DbValue::ofI64(1), DbValue::ofI64(i)};
        up.dirtyMask = 1ull << 1; // V only
        db.persistRecord("T", up);
        max_depth = std::max(max_depth,
                             db.versionChainDepth("T", 1));
    }
    // One active snapshot -> O(1) retained history, not O(updates).
    EXPECT_LE(max_depth, 3u) << "chain grew with update count";

    // The retained image still serves the old snapshot correctly.
    DbRecord out;
    ASSERT_TRUE(db.fetchRecordAt("T", 1, &out, s));
    EXPECT_EQ(out.values[1].i, 0) << "snapshot lost its version";
    ASSERT_TRUE(db.fetchRecord("T", 1, &out));
    EXPECT_EQ(out.values[1].i, 400);

    // Once the snapshot retires, the next commit drains the chain.
    db.snapshotClock().endSnapshot(s);
    DbRecord up;
    up.values = {DbValue::ofI64(1), DbValue::ofI64(401)};
    up.dirtyMask = 1ull << 1;
    db.persistRecord("T", up);
    EXPECT_LE(db.versionChainDepth("T", 1), 1u)
        << "chain survived its last snapshot";
}

TEST_F(ShardedDbTest, GrowAndShrinkRepartitionRows)
{
    ShardedDatabase database(config(2));
    database.createTable(schema());
    constexpr std::int64_t kRows = 300;
    for (std::int64_t id = 0; id < kRows; ++id)
        database.persistRecord("T", row(id, id * 3));

    database.grow(2);
    EXPECT_EQ(database.shardCount(), 4u);
    EXPECT_FALSE(database.migrating());
    EXPECT_EQ(database.rowCount("T"), static_cast<std::size_t>(kRows));
    std::size_t spread = 0;
    for (unsigned s = 0; s < 4; ++s)
        spread += database.shard(s).rowCount("T") > 0 ? 1 : 0;
    EXPECT_EQ(spread, 4u) << "joiners received no rows";
    for (std::int64_t id = 0; id < kRows; ++id) {
        DbRecord out;
        ASSERT_TRUE(database.fetchRecord("T", id, &out)) << id;
        EXPECT_EQ(out.values[1].i, id * 3) << id;
        // The row lives exactly where the new ring routes it.
        EXPECT_TRUE(database.shardForPk(id).fetchRecord("T", id, &out))
            << id;
    }

    // Writes and brackets keep flowing on the grown membership.
    Txn t = database.beginTxn();
    for (std::int64_t id = 0; id < 32; ++id)
        database.persistRecord("T", row(id, -id));
    EXPECT_TRUE(t.commit().isOk());
    for (std::int64_t id = 0; id < 32; ++id) {
        DbRecord out;
        ASSERT_TRUE(database.fetchRecord("T", id, &out));
        EXPECT_EQ(out.values[1].i, -id);
    }

    database.shrink(2);
    EXPECT_EQ(database.shardCount(), 2u);
    EXPECT_FALSE(database.migrating());
    EXPECT_EQ(database.rowCount("T"), static_cast<std::size_t>(kRows));
    for (std::int64_t id = 0; id < kRows; ++id) {
        DbRecord out;
        ASSERT_TRUE(database.fetchRecord("T", id, &out)) << id;
        EXPECT_EQ(out.values[1].i, id < 32 ? -id : id * 3) << id;
    }
}

} // namespace
} // namespace db
} // namespace espresso
