#include <algorithm>

#include "db/sharded_database.hh"
#include "workloads.hh"

namespace espresso {
namespace bench {

using db::CommitCoordinator;
using db::ShardedDatabase;

std::vector<NvmDevice *>
dbDevices(ShardedDatabase &db)
{
    std::vector<NvmDevice *> d{&db.coordinatorDevice()};
    for (unsigned i = 0; i < db.shardCount(); ++i)
        d.push_back(&db.shard(i).device());
    return d;
}

CommitCoordinator::Stats
commitStats(ShardedDatabase &db)
{
    CommitCoordinator::Stats sum;
    for (unsigned i = 0; i < db.shardCount(); ++i) {
        CommitCoordinator::Stats s = db.shard(i).commitCoordinator().stats();
        sum.batches += s.batches;
        sum.txns += s.txns;
        sum.windowTimeouts += s.windowTimeouts;
        sum.autoWindowNs = std::max(sum.autoWindowNs, s.autoWindowNs);
    }
    return sum;
}

void
emitCommit(Report &rep, const CommitCoordinator::Stats &a,
           const CommitCoordinator::Stats &b)
{
    double batches = static_cast<double>(b.batches - a.batches);
    rep.set("db.commit.txns_per_batch",
            ratio(static_cast<double>(b.txns - a.txns), batches),
            "txns/batch");
    rep.set("db.commit.window_timeouts_per_batch",
            ratio(static_cast<double>(b.windowTimeouts - a.windowTimeouts),
                  batches),
            "ratio");
    rep.set("db.commit.auto_window_us",
            static_cast<double>(b.autoWindowNs) / 1e3, "us");
}

std::unique_ptr<ShardedDatabase>
DbShape::build() const
{
    db::ShardedDatabaseConfig cfg;
    cfg.shards = shards;
    cfg.vnodes = vnodes;
    cfg.shard.walShards = walShards;
    cfg.shard.rowsPerTable = rowsPerTable;
    cfg.shard.rowRegionSize = rowRegionBytes;
    cfg.shard.walSize = walBytes;
    cfg.shard.groupCommitWindowUs = db::DatabaseConfig::kWindowAuto;
    return std::make_unique<ShardedDatabase>(cfg, pinnedNvm());
}

void
DbShape::record(Report &rep, const std::string &prefix) const
{
    rep.config(prefix + "shards", shards);
    rep.config(prefix + "vnodes", vnodes);
    rep.config(prefix + "wal_shards", walShards);
    rep.config(prefix + "rows_per_table", static_cast<double>(rowsPerTable));
    rep.config(prefix + "row_region_bytes",
               static_cast<double>(rowRegionBytes));
    rep.config(prefix + "wal_bytes", static_cast<double>(walBytes));
    rep.config(prefix + "group_commit", "auto");
}

} // namespace bench
} // namespace espresso
