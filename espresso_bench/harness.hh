/**
 * @file
 * Shared benchmark machinery: the clock, the one percentile
 * definition, the result report, the open/closed load loops the
 * in-process workloads drive, and the schedule every service
 * workload's run follows.
 */

#ifndef ESPRESSO_BENCH_HARNESS_HH
#define ESPRESSO_BENCH_HARNESS_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "nvm/nvm_device.hh"
#include "util/rng.hh"

namespace espresso {
namespace bench {

/** The one device model every workload runs on: 2 us spinning fences
 * keep persistence a visible but minor share of wall time, so both
 * fence-count and CPU-path changes show up end to end. */
NvmConfig pinnedNvm();

std::uint64_t nowNs();

/** Wait until @p t_ns (steady clock) without sleeping: yield, then
 * spin for the last microseconds. */
void waitUntil(std::uint64_t t_ns);

/**
 * Halves of the CPUs this process may use, for a workload whose load
 * generator stands in for remote clients: the system under test and
 * the clients each get their own, as they would on separate machines.
 */
enum class CpuHalf
{
    kServer,
    kClients,
};

/** Restrict the calling thread, and the threads it starts from then
 * on, to @p half; a no-op when the process has fewer than two CPUs. */
void pinThread(CpuHalf half);

/** Restrict the calling thread to one CPU of @p half: its @p slot-th,
 * counted modulo the half's size; a no-op like pinThread(). */
void pinThread(CpuHalf half, unsigned slot);

/** @p half's CPUs as a list such as "0,1". */
std::string cpuList(CpuHalf half);

/** Pins the calling thread to a half for its scope, then restores the
 * CPUs it had. */
class CpuHalfScope
{
  public:
    explicit CpuHalfScope(CpuHalf half);
    ~CpuHalfScope();

    CpuHalfScope(const CpuHalfScope &) = delete;
    CpuHalfScope &operator=(const CpuHalfScope &) = delete;

  private:
    std::vector<int> saved_;
};

/** Nearest-rank percentile (@p pct in (0, 100]) of a sorted sample;
 * 0 when empty. */
double nearestRank(const std::vector<std::uint64_t> &sorted, double pct);

double median(std::vector<double> v);

/** Operation kinds the end-to-end latency metrics are split by. */
enum class OpKind : std::uint8_t
{
    kRead = 0,
    kWrite = 1,
};

/** What one load phase produced. */
struct PhaseResult
{
    /** Latencies of the successful ops, indexed by OpKind. */
    std::array<std::vector<std::uint64_t>, 2> latNs;
    std::vector<std::uint64_t> lagNs; ///< fixed rate: start - due
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;

    /** Count one attempted op: its latency when @p ok, else a failure. */
    void
    record(OpKind kind, bool ok, std::uint64_t lat_ns)
    {
        ++attempted;
        if (ok)
            latNs[static_cast<std::size_t>(kind)].push_back(lat_ns);
        else
            ++failed;
    }

    std::size_t
    completed(OpKind kind) const
    {
        return latNs[static_cast<std::size_t>(kind)].size();
    }

    /** Append @p o (latencies, lag, counts; widens the time span). */
    void merge(const PhaseResult &o);

    double
    seconds() const
    {
        return static_cast<double>(endNs - startNs) / 1e9;
    }
};

/** Latency of one op kind (or of every kind) over a phase. */
struct LatencySummary
{
    double p50Us = 0;
    double p99Us = 0;
};

LatencySummary summarize(const PhaseResult &r, OpKind kind);
LatencySummary summarizeAll(const PhaseResult &r);

/** Successful ops per second over the phase. */
double throughput(const PhaseResult &r);

/** @name In-process load loops
 *
 * One op = one call of @p op on a load thread; it returns the kind it
 * ran and whether it succeeded. Each op is traced as a "bench.op" root
 * span.
 */
/// @{
struct OpOutcome
{
    OpKind kind;
    bool ok;
};

using OpFn = std::function<OpOutcome(unsigned thread, Rng &rng)>;

/** Per-thread generator seed. */
std::uint64_t threadSeed(std::uint64_t seed, unsigned thread,
                         std::uint64_t salt);

/** Open loop: @p threads generators, each on a fixed schedule of
 * rate/threads ops per second (phase-offset), for @p seconds. Latency
 * counts from each op's due time (coordinated-omission corrected). */
PhaseResult runOpenLoop(unsigned threads, double rate, double seconds,
                        std::uint64_t seed, const OpFn &op);

/** Closed loop: @p threads callers back to back for @p seconds. */
PhaseResult runClosedLoop(unsigned threads, double seconds,
                          std::uint64_t seed, const OpFn &op);
/// @}

/** Device persistence counters summed over a set of devices. */
struct NvmCounts
{
    std::uint64_t fences = 0;
    std::uint64_t lines = 0;

    static NvmCounts of(const std::vector<NvmDevice *> &devs);

    NvmCounts
    operator-(const NvmCounts &o) const
    {
        return {fences - o.fences, lines - o.lines};
    }
};

/** One run's result: correctness, op counts, and named metrics. */
class Report
{
  public:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };

    void set(const std::string &name, double value, const std::string &unit);

    /** Record a resolved configuration knob. */
    void config(const std::string &key, double value);
    void config(const std::string &key, const std::string &value);

    /** Record a failed correctness check (the run is then incorrect).
     * Thread-safe: load threads check outputs as they go. */
    void fail(const std::string &why);

    /** Check @p cond, recording @p why when it does not hold. Hot
     * paths pass a literal, or test first and build a message only
     * for fail(), so a passing check costs no allocation. */
    bool
    check(bool cond, const char *why)
    {
        if (!cond)
            fail(why);
        return cond;
    }

    bool
    check(bool cond, const std::string &why)
    {
        if (!cond)
            fail(why);
        return cond;
    }

    bool correct() const;
    std::vector<std::string> failures() const;

    const std::vector<Metric> &metrics() const { return metrics_; }
    const std::vector<std::pair<std::string, std::string>> &
    configs() const
    {
        return configs_;
    }

    /** The metric named @p name, or null. */
    const Metric *find(const std::string &name) const;

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

  private:
    std::vector<Metric> metrics_;
    std::vector<std::pair<std::string, std::string>> configs_;
    mutable std::mutex failMu_;
    std::vector<std::string> failures_;
};

/** How one run is driven (from the command line). */
struct RunOptions
{
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** About a second of load per workload, one set-up, every check. */
    bool smoke = false;
};

/**
 * Build the system under test several times (once in a smoke run),
 * timing each build, and keep the last. setup_s is the median, so a
 * change that moves work into set-up shows there.
 */
template <typename T, typename Make>
std::unique_ptr<T>
timedSetUp(const RunOptions &opt, Report &rep, Make make)
{
    std::vector<double> secs;
    std::unique_ptr<T> sut;
    for (int i = 0; i < (opt.smoke ? 1 : 3); ++i) {
        sut.reset();
        std::uint64_t t0 = nowNs();
        sut = make();
        secs.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    }
    rep.set("setup_s", median(secs), "s");
    return sut;
}

/** What a service workload measured: the fixed-rate and saturation
 * phases (traced in a traced run), and for a traced run the untraced
 * saturation throughput its overhead is judged against. */
struct ServiceRun
{
    PhaseResult open;
    PhaseResult closed;
    double untracedPeak = 0;

    /** Both measured phases pooled. */
    PhaseResult all() const;
};

/** Runs one load phase for the given seconds: fixed rate when @p open,
 * saturation otherwise. */
using PhaseFn = std::function<PhaseResult(double seconds, bool open)>;

/**
 * The schedule every service workload shares: an unrecorded warm-up at
 * saturation, then (traced runs only) an untraced saturation baseline,
 * then 60% of RunOptions::seconds at the fixed rate and 40% at
 * saturation. @p at_start runs just before the measured phases, where
 * a workload snapshots its counters.
 */
ServiceRun measureService(const RunOptions &opt, const PhaseFn &phase,
                          const std::function<void()> &at_start);

/** @name Shared metric emission */
/// @{
/** The end-to-end metrics: write p50 over @p fixed and ops/s over
 * @p peak. The read p50, the tails, and failed_frac and gen.* over
 * @p all go to per-layer diagnostics; attempted/failed add to the
 * report's totals. */
void emitService(Report &rep, const PhaseResult &fixed,
                 const PhaseResult &peak, const PhaseResult &all);

/** The trace.*, self.* and span.* metrics of a traced run, @p ops ops
 * measured, with @p untraced_ops_per_s as the overhead baseline. */
void emitTrace(Report &rep, std::uint64_t ops, double traced_ops_per_s,
               double untraced_ops_per_s);

/** nvm.* metrics for @p ops operations and @p user_bytes of user data
 * written over @p seconds. */
void emitNvm(Report &rep, const NvmCounts &c, std::uint64_t ops,
             std::uint64_t user_bytes, double seconds);

/** @p num / @p den, 0 when @p den is 0. */
double ratio(double num, double den);
/// @}

} // namespace bench
} // namespace espresso

#endif // ESPRESSO_BENCH_HARNESS_HH
