/**
 * @file
 * The four workloads. Each treats the system as a black box: it calls
 * only public functions and reads only the public stats structs.
 *
 * A workload's run() sets the system up (timedSetUp), measures it for
 * RunOptions::seconds, checks its outputs, and fills the Report with
 * its end-to-end metrics and its per-layer counters; a traced run adds
 * the span-derived ones. counterPass() is the single-threaded,
 * fixed-seed pass whose per-op counters repeat exactly
 * (baseline/counters.json).
 */

#ifndef ESPRESSO_BENCH_WORKLOADS_HH
#define ESPRESSO_BENCH_WORKLOADS_HH

#include <map>
#include <string>
#include <vector>

#include "db/commit_coordinator.hh"
#include "harness.hh"

namespace espresso {

namespace db {
class ShardedDatabase;
}

namespace bench {

/** The counters committed in baseline/counters.json. */
using Counters = std::map<std::string, double>;

struct Workload
{
    const char *name;
    /** Metric-name prefixes of layers this workload never calls: their
     * metrics must read 0 (the README's zero-prediction table). */
    std::vector<std::string> bypassed;
    void (*run)(const RunOptions &, Report &);
    /** Checks its outputs into the Report like run() does. */
    Counters (*counterPass)(Report &);
};

void runWireKv(const RunOptions &opt, Report &rep);
void runEmbeddedTpcc(const RunOptions &opt, Report &rep);
void runPjhKv(const RunOptions &opt, Report &rep);
void runRestart(const RunOptions &opt, Report &rep);

Counters countersWireKv(Report &rep);
Counters countersEmbeddedTpcc(Report &rep);
Counters countersPjhKv(Report &rep);
Counters countersRestart(Report &rep);

/** @name Database helpers shared by the db-backed workloads */
/// @{
/** The members' group-commit stats, summed (max for the window). */
db::CommitCoordinator::Stats commitStats(db::ShardedDatabase &db);

/** db.commit.* between two commitStats() snapshots. */
void emitCommit(Report &rep, const db::CommitCoordinator::Stats &a,
                const db::CommitCoordinator::Stats &b);

/** Every member device plus the 2PC coordinator's. */
std::vector<NvmDevice *> dbDevices(db::ShardedDatabase &db);

/** Pin the sizing knobs of a ShardedDatabase and record them. */
struct DbShape
{
    unsigned shards;
    unsigned vnodes;
    unsigned walShards;
    std::size_t rowsPerTable;
    std::size_t rowRegionBytes;
    std::size_t walBytes;

    /** A database of this shape on the pinned device model, with the
     * auto-tuned group-commit window. */
    std::unique_ptr<db::ShardedDatabase> build() const;

    void record(Report &rep, const std::string &prefix) const;
};
/// @}

} // namespace bench
} // namespace espresso

#endif // ESPRESSO_BENCH_WORKLOADS_HH
