/**
 * @file
 * Wire front door tests: framing codecs and the RingBuffer, full
 * client/server round trips over real sockets, pipelining, explicit
 * transactions, and the hostile-stream matrix — torn 1-byte reads,
 * oversize length prefixes, bad magic, unknown opcodes, mid-
 * transaction disconnects — asserting the engine leaks no WAL shard
 * token, detached session, or row lock in any of them.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "db/sharded_database.hh"
#include "net/server.hh"
#include "net/wire_client.hh"
#include "net/wire_protocol.hh"
#include "util/ring_buffer.hh"

namespace espresso {
namespace net {
namespace {

using db::DbRecord;
using db::DbType;
using db::DbValue;
using db::TableSchema;

// ---------------------------------------------------------------------
// RingBuffer
// ---------------------------------------------------------------------

TEST(RingBufferTest, AllOrNothingAndWrapAround)
{
    RingBuffer rb(8);
    EXPECT_TRUE(rb.empty());
    EXPECT_TRUE(rb.write("abcde", 5));
    EXPECT_FALSE(rb.write("fghij", 5)); // would overflow: rejected whole
    EXPECT_EQ(rb.size(), 5u);

    auto span = rb.peek();
    EXPECT_EQ(span.second, 5u);
    EXPECT_EQ(std::memcmp(span.first, "abcde", 5), 0);
    rb.consume(3);

    // Wraps: 2 live + 5 new = 7 <= 8, but split across the seam.
    EXPECT_TRUE(rb.write("fghij", 5));
    EXPECT_EQ(rb.size(), 7u);
    std::string drained;
    while (!rb.empty()) {
        auto s = rb.peek();
        drained.append(reinterpret_cast<const char *>(s.first),
                       s.second);
        rb.consume(s.second);
    }
    EXPECT_EQ(drained, "defghij");

    // Empty ring resets to offset 0: full-capacity write succeeds.
    EXPECT_TRUE(rb.write("01234567", 8));
    EXPECT_EQ(rb.peek().second, 8u);
}

// ---------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------

TEST(WireCodecTest, WriterReaderRoundTrip)
{
    WireWriter w;
    w.begin(WireOp::kPut, 0);
    w.putStr("T");
    w.putU64(0x1122334455667788ull);
    w.putRow({DbValue::ofI64(-7), DbValue::ofF64(2.5),
              DbValue::ofStr("hi"), DbValue::null()});
    w.finish();

    FrameView f;
    ASSERT_EQ(tryParseFrame(w.bytes().data(), w.size(), &f),
              ParseResult::kFrame);
    EXPECT_EQ(f.op, WireOp::kPut);
    WireReader r(f);
    EXPECT_EQ(r.getStr(), "T");
    EXPECT_EQ(r.getU64(), 0x1122334455667788ull);
    std::vector<DbValue> row = r.getRow();
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(row.size(), 4u);
    EXPECT_EQ(row[0].i, -7);
    EXPECT_DOUBLE_EQ(row[1].d, 2.5);
    EXPECT_EQ(row[2].s, "hi");
    EXPECT_EQ(row[3].type, DbType::kNull);
    EXPECT_TRUE(r.atEnd());
}

TEST(WireCodecTest, ParseRejectsHostileHeaders)
{
    WireWriter w;
    w.begin(WireOp::kPing);
    w.finish();
    std::vector<std::uint8_t> buf = w.bytes();

    FrameView f;
    // Truncation at every byte boundary parses as kNeedMore.
    for (std::size_t n = 0; n < buf.size(); ++n)
        EXPECT_EQ(tryParseFrame(buf.data(), n, &f),
                  ParseResult::kNeedMore);

    std::vector<std::uint8_t> bad = buf;
    bad[0] ^= 0xff;
    EXPECT_EQ(tryParseFrame(bad.data(), bad.size(), &f),
              ParseResult::kBadMagic);

    bad = buf;
    bad[4] = 99;
    EXPECT_EQ(tryParseFrame(bad.data(), bad.size(), &f),
              ParseResult::kBadVersion);

    bad = buf;
    std::uint32_t huge = static_cast<std::uint32_t>(kMaxPayload) + 1;
    std::memcpy(bad.data() + 8, &huge, sizeof(huge));
    EXPECT_EQ(tryParseFrame(bad.data(), bad.size(), &f),
              ParseResult::kTooLarge);
}

TEST(WireCodecTest, ReaderPoisonsOnOverrunAndHostileCounts)
{
    WireWriter w;
    w.begin(WireOp::kGet);
    w.putStr("T");
    w.finish();
    FrameView f;
    ASSERT_EQ(tryParseFrame(w.bytes().data(), w.size(), &f),
              ParseResult::kFrame);
    WireReader r(f);
    (void)r.getStr();
    (void)r.getI64(); // past the end
    EXPECT_FALSE(r.ok());

    // Row count far beyond what the payload could hold.
    WireWriter h;
    h.begin(WireOp::kPut);
    h.putU16(0xffff);
    h.finish();
    ASSERT_EQ(tryParseFrame(h.bytes().data(), h.size(), &f),
              ParseResult::kFrame);
    WireReader hr(f);
    (void)hr.getRow();
    EXPECT_FALSE(hr.ok());
}

// ---------------------------------------------------------------------
// Client/server round trips
// ---------------------------------------------------------------------

class WireServerTest : public ::testing::Test
{
  protected:
    void
    startServer(unsigned shards = 2, unsigned wal_shards = 4)
    {
        db::ShardedDatabaseConfig cfg;
        cfg.shards = shards;
        cfg.shard.rowRegionSize = 2u << 20;
        cfg.shard.rowsPerTable = 512;
        cfg.shard.walShards = wal_shards;
        db_ = std::make_unique<db::ShardedDatabase>(cfg);

        ServerConfig scfg;
        scfg.workers = 2;
        scfg.committers = 2;
        srv_ = std::make_unique<Server>(db_.get(), scfg);
        srv_->start();
    }

    void
    TearDown() override
    {
        if (srv_)
            srv_->stop();
    }

    bool
    connectClient(WireClient *c)
    {
        return c->connect("127.0.0.1", srv_->port());
    }

    WireStatus
    makeTable(WireClient *c)
    {
        TableSchema schema{"T",
                           {{"ID", DbType::kI64},
                            {"V", DbType::kI64},
                            {"S", DbType::kStr}},
                           0,
                           TableSchema::kNoIndex};
        return c->createTable(schema);
    }

    static std::vector<DbValue>
    row(std::int64_t id, std::int64_t v, const std::string &s = "s")
    {
        return {DbValue::ofI64(id), DbValue::ofI64(v),
                DbValue::ofStr(s)};
    }

    /** Poll until the engine shows no open transaction / held WAL
     * token, or the deadline passes. */
    bool
    drainsClean(int timeout_ms = 5000)
    {
        auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
        while (std::chrono::steady_clock::now() < deadline) {
            if (db_->openTxnCount() == 0 &&
                db_->busyWalShards() == 0)
                return true;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
        }
        return db_->openTxnCount() == 0 && db_->busyWalShards() == 0;
    }

    std::unique_ptr<db::ShardedDatabase> db_;
    std::unique_ptr<Server> srv_;
};

TEST_F(WireServerTest, AutoCommitCrudRoundTrip)
{
    startServer();
    WireClient c;
    ASSERT_TRUE(connectClient(&c));
    EXPECT_EQ(c.ping(), WireStatus::kOk);
    ASSERT_EQ(makeTable(&c), WireStatus::kOk);

    EXPECT_EQ(c.put("T", row(1, 10, "one")), WireStatus::kOk);
    EXPECT_EQ(c.put("T", row(2, 20, "two")), WireStatus::kOk);

    std::vector<DbValue> got;
    EXPECT_EQ(c.get("T", 1, &got), WireStatus::kOk);
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[1].i, 10);
    EXPECT_EQ(got[2].s, "one");
    EXPECT_EQ(c.get("T", 99, &got), WireStatus::kNotFound);

    bool updated = false;
    EXPECT_EQ(c.update("T", row(1, 11, "one"), ~0ull, &updated),
              WireStatus::kOk);
    EXPECT_TRUE(updated);
    EXPECT_EQ(c.update("T", row(42, 0), ~0ull, &updated),
              WireStatus::kOk);
    EXPECT_FALSE(updated);

    std::uint64_t n = 0;
    EXPECT_EQ(c.rowCount("T", &n), WireStatus::kOk);
    EXPECT_EQ(n, 2u);

    std::vector<std::vector<DbValue>> rows;
    EXPECT_EQ(c.scanEq("T", "V", DbValue::ofI64(11), &rows),
              WireStatus::kOk);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0][0].i, 1);

    bool erased = false;
    EXPECT_EQ(c.del("T", 2, &erased), WireStatus::kOk);
    EXPECT_TRUE(erased);
    EXPECT_EQ(c.del("T", 2, &erased), WireStatus::kOk);
    EXPECT_FALSE(erased);

    // Bad table / bad shape answer without killing the stream.
    EXPECT_EQ(c.put("NOPE", row(1, 1)), WireStatus::kError);
    EXPECT_EQ(c.put("T", {DbValue::ofI64(5)}),
              WireStatus::kBadRequest);
    EXPECT_EQ(c.ping(), WireStatus::kOk);

    c.closeConn();
    EXPECT_TRUE(drainsClean());
}

TEST_F(WireServerTest, PipelinedPutsRespondInOrder)
{
    startServer();
    WireClient c;
    ASSERT_TRUE(connectClient(&c));
    ASSERT_EQ(makeTable(&c), WireStatus::kOk);

    // put(i) immediately followed by get(i), all pipelined in one
    // write. Same-connection frames execute in order even though
    // put durability is deferred to the drainer — so whenever
    // put(i) was admitted, get(i) MUST observe its value. Beyond
    // the WAL token pool a put answers kBusy (not executed) and its
    // get must miss.
    constexpr int kN = 64;
    WireWriter w;
    for (int i = 0; i < kN; ++i) {
        encodePut(w, "T", row(i, i * 10));
        encodeGet(w, "T", i);
    }
    ASSERT_TRUE(c.sendFrames(w));

    int admitted = 0;
    for (int i = 0; i < kN; ++i) {
        std::vector<std::uint8_t> frame;
        FrameView f;
        ASSERT_TRUE(c.recvFrame(&frame, &f)) << "put " << i;
        ASSERT_EQ(f.op, WireOp::kPut);
        WireStatus put_st = static_cast<WireStatus>(f.status);
        ASSERT_TRUE(put_st == WireStatus::kOk ||
                    put_st == WireStatus::kBusy)
            << wireStatusName(put_st);

        ASSERT_TRUE(c.recvFrame(&frame, &f)) << "get " << i;
        ASSERT_EQ(f.op, WireOp::kGet);
        if (put_st == WireStatus::kOk) {
            ++admitted;
            ASSERT_EQ(static_cast<WireStatus>(f.status),
                      WireStatus::kOk)
                << "get after admitted put missed, i=" << i;
            WireReader r(f);
            std::vector<DbValue> vals = r.getRow();
            ASSERT_EQ(vals.size(), 3u);
            EXPECT_EQ(vals[1].i, i * 10);
        } else {
            EXPECT_EQ(static_cast<WireStatus>(f.status),
                      WireStatus::kNotFound);
        }
    }
    // The token pool (2 members x 4 WAL shards) admits at least the
    // first pool's worth; the drainer frees tokens concurrently so
    // usually far more.
    EXPECT_GE(admitted, 8);
    std::uint64_t n = 0;
    EXPECT_EQ(c.rowCount("T", &n), WireStatus::kOk);
    EXPECT_EQ(n, static_cast<std::uint64_t>(admitted));

    c.closeConn();
    EXPECT_TRUE(drainsClean());
}

TEST_F(WireServerTest, ExplicitTxnCommitAndRollback)
{
    startServer();
    WireClient c;
    ASSERT_TRUE(connectClient(&c));
    ASSERT_EQ(makeTable(&c), WireStatus::kOk);

    std::uint64_t txid = 0;
    ASSERT_EQ(c.begin(false, &txid), WireStatus::kOk);
    EXPECT_NE(txid, 0u);
    EXPECT_EQ(c.put("T", row(1, 100)), WireStatus::kOk);
    EXPECT_EQ(c.put("T", row(2, 200)), WireStatus::kOk);
    // Reads inside the bracket see its own writes.
    std::vector<DbValue> got;
    EXPECT_EQ(c.get("T", 1, &got), WireStatus::kOk);
    EXPECT_EQ(c.commit(), WireStatus::kOk);

    EXPECT_EQ(c.get("T", 2, &got), WireStatus::kOk);
    EXPECT_EQ(got[1].i, 200);

    ASSERT_EQ(c.begin(false, &txid), WireStatus::kOk);
    EXPECT_EQ(c.put("T", row(3, 300)), WireStatus::kOk);
    EXPECT_EQ(c.rollback(), WireStatus::kOk);
    EXPECT_EQ(c.get("T", 3, &got), WireStatus::kNotFound);

    // Commit without begin is misuse; stream survives.
    EXPECT_EQ(c.commit(), WireStatus::kMisuse);
    EXPECT_EQ(c.ping(), WireStatus::kOk);

    c.closeConn();
    EXPECT_TRUE(drainsClean());
}

TEST_F(WireServerTest, SnapshotBracketIgnoresLaterWrites)
{
    startServer();
    WireClient a, b;
    ASSERT_TRUE(connectClient(&a));
    ASSERT_TRUE(connectClient(&b));
    ASSERT_EQ(makeTable(&a), WireStatus::kOk);
    ASSERT_EQ(a.put("T", row(1, 10)), WireStatus::kOk);

    std::uint64_t txid = 0;
    ASSERT_EQ(a.begin(true, &txid), WireStatus::kOk);
    std::vector<DbValue> got;
    ASSERT_EQ(a.get("T", 1, &got), WireStatus::kOk); // pin the view

    ASSERT_EQ(b.put("T", row(1, 99)), WireStatus::kOk);
    ASSERT_EQ(b.put("T", row(500, 5)), WireStatus::kOk);

    EXPECT_EQ(a.get("T", 1, &got), WireStatus::kOk);
    EXPECT_EQ(got[1].i, 10); // pre-snapshot value
    EXPECT_EQ(a.get("T", 500, &got), WireStatus::kNotFound);
    EXPECT_EQ(a.rollback(), WireStatus::kOk);

    EXPECT_EQ(a.get("T", 1, &got), WireStatus::kOk);
    EXPECT_EQ(got[1].i, 99);

    a.closeConn();
    b.closeConn();
    EXPECT_TRUE(drainsClean());
}

TEST_F(WireServerTest, WalTokenExhaustionAnswersBusyNotExecuted)
{
    // One member, one WAL shard: a single open write transaction
    // holds the engine's only token.
    startServer(1, 1);
    WireClient a, b;
    ASSERT_TRUE(connectClient(&a));
    ASSERT_TRUE(connectClient(&b));
    ASSERT_EQ(makeTable(&a), WireStatus::kOk);

    std::uint64_t txid = 0;
    ASSERT_EQ(a.begin(false, &txid), WireStatus::kOk);
    ASSERT_EQ(a.put("T", row(1, 1)), WireStatus::kOk);

    // Auto-commit write: no token -> kBusy, not executed.
    EXPECT_EQ(b.put("T", row(2, 2)), WireStatus::kBusy);

    // In-bracket write: the nowait join kills the bracket kBusy and
    // the commit reports it.
    std::uint64_t txid_b = 0;
    ASSERT_EQ(b.begin(false, &txid_b), WireStatus::kOk);
    EXPECT_EQ(b.put("T", row(2, 2)), WireStatus::kBusy);
    EXPECT_EQ(b.put("T", row(3, 3)), WireStatus::kAborted);
    EXPECT_EQ(b.commit(), WireStatus::kBusy);

    EXPECT_EQ(a.commit(), WireStatus::kOk);

    // Token freed: the retry executes.
    EXPECT_EQ(b.put("T", row(2, 2)), WireStatus::kOk);
    std::uint64_t n = 0;
    EXPECT_EQ(b.rowCount("T", &n), WireStatus::kOk);
    EXPECT_EQ(n, 2u);

    a.closeConn();
    b.closeConn();
    EXPECT_TRUE(drainsClean());
}

TEST_F(WireServerTest, RowLockContentionIsBoundedNotBlocking)
{
    startServer(1, 4);
    WireClient a, b;
    ASSERT_TRUE(connectClient(&a));
    ASSERT_TRUE(connectClient(&b));
    ASSERT_EQ(makeTable(&a), WireStatus::kOk);
    ASSERT_EQ(a.put("T", row(1, 0)), WireStatus::kOk);

    std::uint64_t ta = 0, tb = 0;
    ASSERT_EQ(a.begin(false, &ta), WireStatus::kOk);
    ASSERT_EQ(a.put("T", row(1, 1)), WireStatus::kOk); // row lock held

    ASSERT_EQ(b.begin(false, &tb), WireStatus::kOk);
    // The bounded wait expires rather than parking the worker; the
    // engine reports the abort as kBusy or as a deadlock victim.
    WireStatus st = b.put("T", row(1, 2));
    EXPECT_TRUE(st == WireStatus::kBusy ||
                st == WireStatus::kDeadlock)
        << wireStatusName(st);
    EXPECT_EQ(b.commit(), st);

    EXPECT_EQ(a.commit(), WireStatus::kOk);
    std::vector<DbValue> got;
    EXPECT_EQ(b.get("T", 1, &got), WireStatus::kOk);
    EXPECT_EQ(got[1].i, 1);

    a.closeConn();
    b.closeConn();
    EXPECT_TRUE(drainsClean());
}

// ---------------------------------------------------------------------
// Hostile streams
// ---------------------------------------------------------------------

TEST_F(WireServerTest, TornFramesOneByteDribble)
{
    startServer();
    WireClient c;
    ASSERT_TRUE(connectClient(&c));
    ASSERT_EQ(makeTable(&c), WireStatus::kOk);

    WireWriter w;
    encodePut(w, "T", row(7, 70));
    encodeGet(w, "T", 7);
    const std::vector<std::uint8_t> &bytes = w.bytes();
    for (std::uint8_t byte : bytes)
        ASSERT_TRUE(c.sendRaw(&byte, 1));

    std::vector<std::uint8_t> frame;
    FrameView f;
    ASSERT_TRUE(c.recvFrame(&frame, &f));
    EXPECT_EQ(f.op, WireOp::kPut);
    EXPECT_EQ(static_cast<WireStatus>(f.status), WireStatus::kOk);
    ASSERT_TRUE(c.recvFrame(&frame, &f));
    EXPECT_EQ(f.op, WireOp::kGet);
    EXPECT_EQ(static_cast<WireStatus>(f.status), WireStatus::kOk);

    c.closeConn();
    EXPECT_TRUE(drainsClean());
}

TEST_F(WireServerTest, OversizeLengthPrefixHangsUp)
{
    startServer();
    WireClient c;
    ASSERT_TRUE(connectClient(&c));

    WireWriter w;
    w.begin(WireOp::kPing);
    w.finish();
    std::vector<std::uint8_t> bytes = w.bytes();
    std::uint32_t huge = static_cast<std::uint32_t>(kMaxPayload) + 1;
    std::memcpy(bytes.data() + 8, &huge, sizeof(huge));
    ASSERT_TRUE(c.sendRaw(bytes.data(), bytes.size()));

    std::vector<std::uint8_t> frame;
    FrameView f;
    EXPECT_FALSE(c.recvFrame(&frame, &f)); // server hung up
    EXPECT_TRUE(drainsClean());
    EXPECT_GE(srv_->stats().protocolErrors, 1u);
}

TEST_F(WireServerTest, BadMagicHangsUp)
{
    startServer();
    WireClient c;
    ASSERT_TRUE(connectClient(&c));
    const char junk[] = "GET / HTTP/1.1\r\n\r\n";
    ASSERT_TRUE(c.sendRaw(junk, sizeof(junk) - 1));
    std::vector<std::uint8_t> frame;
    FrameView f;
    EXPECT_FALSE(c.recvFrame(&frame, &f));
    EXPECT_TRUE(drainsClean());
    EXPECT_GE(srv_->stats().protocolErrors, 1u);
}

TEST_F(WireServerTest, UnknownOpcodeAnswersBadRequestStreamLives)
{
    startServer();
    WireClient c;
    ASSERT_TRUE(connectClient(&c));

    WireWriter w;
    w.begin(static_cast<WireOp>(200));
    w.finish();
    ASSERT_TRUE(c.sendFrames(w));
    std::vector<std::uint8_t> frame;
    FrameView f;
    ASSERT_TRUE(c.recvFrame(&frame, &f));
    EXPECT_EQ(static_cast<WireStatus>(f.status),
              WireStatus::kBadRequest);
    EXPECT_EQ(c.ping(), WireStatus::kOk);

    c.closeConn();
    EXPECT_TRUE(drainsClean());
}

TEST_F(WireServerTest, MidTxnDisconnectRollsBackAndFreesTokens)
{
    startServer(2, 2);
    WireClient a;
    ASSERT_TRUE(connectClient(&a));
    ASSERT_EQ(makeTable(&a), WireStatus::kOk);

    std::uint64_t txid = 0;
    ASSERT_EQ(a.begin(false, &txid), WireStatus::kOk);
    ASSERT_EQ(a.put("T", row(1, 1)), WireStatus::kOk);
    ASSERT_EQ(a.put("T", row(2, 2)), WireStatus::kOk);
    EXPECT_GE(db_->openTxnCount(), 1u);
    EXPECT_GE(db_->busyWalShards(), 1u);

    a.closeConn(); // abrupt: no commit, no rollback
    EXPECT_TRUE(drainsClean());

    // The bracket rolled back: rows absent, locks and tokens free.
    WireClient b;
    ASSERT_TRUE(connectClient(&b));
    std::vector<DbValue> got;
    EXPECT_EQ(b.get("T", 1, &got), WireStatus::kNotFound);
    EXPECT_EQ(b.put("T", row(1, 5)), WireStatus::kOk);
    EXPECT_EQ(b.get("T", 1, &got), WireStatus::kOk);
    EXPECT_EQ(got[1].i, 5);

    b.closeConn();
    EXPECT_TRUE(drainsClean());
}

TEST_F(WireServerTest, TornFrameMidTxnDisconnectLeaksNothing)
{
    startServer(2, 2);
    WireClient a;
    ASSERT_TRUE(connectClient(&a));
    ASSERT_EQ(makeTable(&a), WireStatus::kOk);

    std::uint64_t txid = 0;
    ASSERT_EQ(a.begin(false, &txid), WireStatus::kOk);
    ASSERT_EQ(a.put("T", row(1, 1)), WireStatus::kOk);

    // Half a frame, then vanish.
    WireWriter w;
    encodePut(w, "T", row(2, 2));
    ASSERT_TRUE(a.sendRaw(w.bytes().data(), w.size() / 2));
    a.closeConn();
    EXPECT_TRUE(drainsClean());

    WireClient b;
    ASSERT_TRUE(connectClient(&b));
    EXPECT_EQ(b.put("T", row(1, 9)), WireStatus::kOk);
    b.closeConn();
    EXPECT_TRUE(drainsClean());
}

TEST_F(WireServerTest, SlowReaderOverflowDisconnects)
{
    startServer();
    WireClient c;
    ASSERT_TRUE(connectClient(&c));
    ASSERT_EQ(c.ping(), WireStatus::kOk);

    // Stream ping floods without ever reading: responses pile into
    // the bounded write buffer past the kernel socket buffers until
    // the server hangs up.
    WireWriter w;
    for (int i = 0; i < 4096; ++i)
        encodePing(w);
    bool closed = false;
    for (int batch = 0; batch < 256 && !closed; ++batch)
        closed = !c.sendFrames(w);
    // Either the send side saw the reset, or the close is in
    // flight; the stat is the contract.
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(10);
    while (srv_->stats().overflowDisconnects == 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_GE(srv_->stats().overflowDisconnects, 1u);
    c.closeConn();
    EXPECT_TRUE(drainsClean());
}

} // namespace
} // namespace net
} // namespace espresso
