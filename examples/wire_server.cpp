/**
 * @file
 * The wire front door, standalone: a ShardedDatabase behind the
 * reactor server, serving the binary protocol until SIGINT/SIGTERM.
 *
 *   ./wire_server [port]
 *
 * Knobs: ESPRESSO_SHARDS (members), ESPRESSO_NET_WORKERS (event
 * loops), ESPRESSO_NET_QUEUE_DEPTH (per-worker admission). Commits
 * use natural group commit: no commit waits, and the commits that
 * park while a drain fences share the next one. Pair with
 * bench/wire_bench as the load generator.
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "db/sharded_database.hh"
#include "net/server.hh"

using namespace espresso;

namespace {

std::atomic<bool> g_stop{false};

void
onSignal(int)
{
    g_stop.store(true);
}

} // namespace

int
main(int argc, char **argv)
{
    net::ServerConfig cfg;
    if (argc > 1)
        cfg.port = static_cast<std::uint16_t>(std::atoi(argv[1]));

    db::ShardedDatabaseConfig db_cfg;
    db::ShardedDatabase db(db_cfg);

    net::Server server(&db, cfg);
    server.start();
    std::printf("wire_server: %u shard(s), %u worker(s), port %u\n",
                db.shardCount(), server.workers(), server.port());

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    while (!g_stop.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(50));

    server.stop();
    net::ServerStats s = server.stats();
    std::printf("wire_server: served %llu frame(s) on %llu "
                "connection(s), %llu txn(s) committed, %llu "
                "admission reject(s)\n",
                static_cast<unsigned long long>(s.frames),
                static_cast<unsigned long long>(s.accepted),
                static_cast<unsigned long long>(s.txnsCommitted),
                static_cast<unsigned long long>(s.admissionRejects));
    return 0;
}
