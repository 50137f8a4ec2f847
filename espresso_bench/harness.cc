#include "harness.hh"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "trace.hh"

namespace espresso {
namespace bench {

NvmConfig
pinnedNvm()
{
    NvmConfig c;
    c.flushLatencyNs = 0;
    c.fenceLatencyNs = 2000;
    c.fenceWaitYields = false;
    c.fenceDrainSerialized = false;
    c.persistenceEnabled = true;
    return c;
}

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
waitUntil(std::uint64_t t_ns)
{
    for (;;) {
        std::uint64_t now = nowNs();
        if (now >= t_ns)
            return;
        // Never sleep: a generator that sleeps between ops wakes on a
        // cold (often another) core, and that cache refill landed in
        // the measured latency of the next op — TPC-C OrderStatus p50
        // read ~9 us with sleeps against ~6 us without, and twice as
        // noisy. Yielding keeps the core warm yet lets any other
        // runnable thread have it; the last microseconds spin.
        if (t_ns - now > 20'000)
            std::this_thread::yield();
    }
}

namespace {

std::vector<int>
threadCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set))
            cpus.push_back(c);
    return cpus;
}

void
setThreadCpus(const std::vector<int> &cpus)
{
    if (cpus.empty())
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus)
        CPU_SET(c, &set);
    sched_setaffinity(0, sizeof set, &set);
}

/** The CPUs of @p half, split from the process's CPUs as the first
 * caller (the main thread, before anything is pinned) saw them. */
std::vector<int>
halfCpus(CpuHalf half)
{
    static const std::vector<int> all = threadCpus();
    if (all.size() < 2)
        return {};
    auto mid = all.begin() + static_cast<std::ptrdiff_t>(all.size() / 2);
    return half == CpuHalf::kServer ? std::vector<int>(all.begin(), mid)
                                    : std::vector<int>(mid, all.end());
}

} // namespace

void
pinThread(CpuHalf half)
{
    setThreadCpus(halfCpus(half));
}

void
pinThread(CpuHalf half, unsigned slot)
{
    std::vector<int> cpus = halfCpus(half);
    if (!cpus.empty())
        setThreadCpus({cpus[slot % cpus.size()]});
}

std::string
cpuList(CpuHalf half)
{
    std::string s;
    for (int c : halfCpus(half))
        s += (s.empty() ? "" : ",") + std::to_string(c);
    return s.empty() ? "any" : s;
}

CpuHalfScope::CpuHalfScope(CpuHalf half) : saved_(threadCpus())
{
    pinThread(half);
}

CpuHalfScope::~CpuHalfScope()
{
    setThreadCpus(saved_);
}

double
nearestRank(const std::vector<std::uint64_t> &sorted, double pct)
{
    if (sorted.empty())
        return 0;
    double rank = std::ceil(pct / 100.0 * static_cast<double>(sorted.size()));
    std::size_t idx = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
    return static_cast<double>(sorted[std::min(idx, sorted.size() - 1)]);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0.0;
}

void
PhaseResult::merge(const PhaseResult &o)
{
    for (std::size_t k = 0; k < latNs.size(); ++k)
        latNs[k].insert(latNs[k].end(), o.latNs[k].begin(), o.latNs[k].end());
    lagNs.insert(lagNs.end(), o.lagNs.begin(), o.lagNs.end());
    attempted += o.attempted;
    failed += o.failed;
    startNs = startNs == 0 ? o.startNs : std::min(startNs, o.startNs);
    endNs = std::max(endNs, o.endNs);
}

namespace {

LatencySummary
summarizeSorted(std::vector<std::uint64_t> lat)
{
    std::sort(lat.begin(), lat.end());
    LatencySummary s;
    s.p50Us = nearestRank(lat, 50) / 1e3;
    s.p99Us = nearestRank(lat, 99) / 1e3;
    return s;
}

/** Run @p body(thread) on @p threads threads and merge what they
 * return. */
PhaseResult
fanOut(unsigned threads, const std::function<PhaseResult(unsigned)> &body)
{
    std::vector<PhaseResult> parts(threads);
    std::vector<std::thread> ts;
    for (unsigned t = 0; t < threads; ++t)
        ts.emplace_back([&, t] { parts[t] = body(t); });
    for (auto &t : ts)
        t.join();
    PhaseResult all;
    for (const auto &p : parts)
        all.merge(p);
    return all;
}

} // namespace

LatencySummary
summarize(const PhaseResult &r, OpKind kind)
{
    return summarizeSorted(r.latNs[static_cast<std::size_t>(kind)]);
}

LatencySummary
summarizeAll(const PhaseResult &r)
{
    std::vector<std::uint64_t> lat = r.latNs[0];
    lat.insert(lat.end(), r.latNs[1].begin(), r.latNs[1].end());
    return summarizeSorted(std::move(lat));
}

double
throughput(const PhaseResult &r)
{
    return ratio(static_cast<double>(r.completed(OpKind::kRead) +
                                     r.completed(OpKind::kWrite)),
                 r.seconds());
}

std::uint64_t
threadSeed(std::uint64_t seed, unsigned thread, std::uint64_t salt)
{
    return seed * 0x9e3779b97f4a7c15ull + thread * 104729u + salt;
}

PhaseResult
runOpenLoop(unsigned threads, double rate, double seconds,
            std::uint64_t seed, const OpFn &op)
{
    std::uint64_t interval = static_cast<std::uint64_t>(
        1e9 * static_cast<double>(threads) / rate);
    std::uint64_t start = nowNs() + 1'000'000;
    std::uint64_t end = start + static_cast<std::uint64_t>(seconds * 1e9);
    return fanOut(threads, [&](unsigned t) {
        PhaseResult p;
        p.startNs = start;
        Rng rng(threadSeed(seed, t, 0x0F3E));
        // Phase offsets interleave the generators' schedules instead
        // of firing them in lock-step.
        std::uint64_t first = start + interval * t / threads;
        for (std::uint64_t due = first; due < end; due += interval) {
            waitUntil(due);
            std::uint64_t begin = nowNs();
            OpOutcome o;
            {
                Span root("bench.op", due, Trace::newRequest());
                Trace::record("gen.lag", due, begin);
                o = op(t, rng);
            }
            p.record(o.kind, o.ok, nowNs() - due);
            p.lagNs.push_back(begin - due);
        }
        p.endNs = std::max(nowNs(), end);
        return p;
    });
}

PhaseResult
runClosedLoop(unsigned threads, double seconds, std::uint64_t seed,
              const OpFn &op)
{
    std::uint64_t start = nowNs();
    std::uint64_t end = start + static_cast<std::uint64_t>(seconds * 1e9);
    return fanOut(threads, [&](unsigned t) {
        PhaseResult p;
        p.startNs = start;
        Rng rng(threadSeed(seed, t, 0xC105ED));
        for (std::uint64_t now = nowNs(); now < end;) {
            OpOutcome o;
            {
                Span root("bench.op", now, Trace::newRequest());
                o = op(t, rng);
            }
            std::uint64_t done = nowNs();
            p.record(o.kind, o.ok, done - now);
            now = done;
        }
        p.endNs = nowNs();
        return p;
    });
}

PhaseResult
ServiceRun::all() const
{
    PhaseResult r = open;
    r.merge(closed);
    return r;
}

ServiceRun
measureService(const RunOptions &opt, const PhaseFn &phase,
               const std::function<void()> &at_start)
{
    double warmup = opt.smoke ? 0.2 : 1.0;
    double open_s = 0.6 * opt.seconds;
    double closed_s = 0.4 * opt.seconds;
    ServiceRun r;
    phase(warmup, false);
    if (opt.trace)
        r.untracedPeak = throughput(phase(closed_s, false));
    Trace::reset();
    Trace::setEnabled(opt.trace);
    at_start();
    r.open = phase(open_s, true);
    r.closed = phase(closed_s, false);
    Trace::setEnabled(false);
    return r;
}

NvmCounts
NvmCounts::of(const std::vector<NvmDevice *> &devs)
{
    NvmCounts c;
    for (NvmDevice *d : devs) {
        c.fences += d->stats().fences.load();
        c.lines += d->stats().linesFlushed.load();
    }
    return c;
}

void
Report::set(const std::string &name, double value, const std::string &unit)
{
    for (Metric &m : metrics_) {
        if (m.name == name) {
            m.value = value;
            m.unit = unit;
            return;
        }
    }
    metrics_.push_back({name, value, unit});
}

void
Report::config(const std::string &key, const std::string &value)
{
    configs_.emplace_back(key, value);
}

void
Report::config(const std::string &key, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    configs_.emplace_back(key, buf);
}

void
Report::fail(const std::string &why)
{
    std::lock_guard<std::mutex> g(failMu_);
    // Keep the first few; a systematic failure repeats per op.
    if (failures_.size() < 16)
        failures_.push_back(why);
    else if (failures_.size() == 16)
        failures_.push_back("(further failures suppressed)");
}

bool
Report::correct() const
{
    std::lock_guard<std::mutex> g(failMu_);
    return failures_.empty();
}

std::vector<std::string>
Report::failures() const
{
    std::lock_guard<std::mutex> g(failMu_);
    return failures_;
}

const Report::Metric *
Report::find(const std::string &name) const
{
    for (const Metric &m : metrics_)
        if (m.name == name)
            return &m;
    return nullptr;
}

void
emitService(Report &rep, const PhaseResult &fixed, const PhaseResult &peak,
            const PhaseResult &all)
{
    LatencySummary rd = summarize(fixed, OpKind::kRead);
    LatencySummary wr = summarize(fixed, OpKind::kWrite);
    rep.set("peak_ops_per_s", throughput(peak), "ops/s");
    rep.set("write_p50_us", wr.p50Us, "us");
    rep.set("diag.read_p50_us", rd.p50Us, "us");
    rep.set("diag.read_p99_us", rd.p99Us, "us");
    rep.set("diag.write_p99_us", wr.p99Us, "us");
    rep.set("diag.peak_read_p50_us", summarize(peak, OpKind::kRead).p50Us,
            "us");
    rep.set("diag.peak_write_p50_us", summarize(peak, OpKind::kWrite).p50Us,
            "us");
    rep.set("diag.peak_p99_us", summarizeAll(peak).p99Us, "us");

    rep.attempted += all.attempted;
    rep.failed += all.failed;
    rep.set("failed_frac",
            ratio(static_cast<double>(all.failed),
                  static_cast<double>(all.attempted)),
            "ratio");
    std::vector<std::uint64_t> lag = all.lagNs;
    std::sort(lag.begin(), lag.end());
    std::size_t late = static_cast<std::size_t>(
        lag.end() - std::upper_bound(lag.begin(), lag.end(), 100'000));
    rep.set("gen.lag_p99_us", nearestRank(lag, 99) / 1e3, "us");
    rep.set("gen.lag_max_us", nearestRank(lag, 100) / 1e3, "us");
    rep.set("gen.late_frac",
            ratio(static_cast<double>(late), static_cast<double>(lag.size())),
            "ratio");
}

void
emitTrace(Report &rep, std::uint64_t ops, double traced_ops_per_s,
          double untraced_ops_per_s)
{
    Trace::Summary s = Trace::summarize();
    double n = static_cast<double>(ops);
    for (const char *layer :
         {"bench", "gen", "net", "db", "core", "pjh", "pjh.gc"}) {
        rep.set(std::string("self.") + layer + "_us_per_op",
                ratio(s.layerSelfNs(layer) / 1e3, n), "us/op");
    }
    rep.set("trace.overhead_frac",
            untraced_ops_per_s > 0
                ? 1.0 - traced_ops_per_s / untraced_ops_per_s
                : 0.0,
            "ratio");
    rep.set("trace.reconcile_err_frac", s.reconcileErrFrac(), "ratio");
    rep.set("trace.spans_per_op", ratio(static_cast<double>(s.spans), n),
            "spans/op");
    for (const auto &[name, agg] : s.byName) {
        rep.set("span." + name + ".p50_us", agg.hist.quantileNs(50) / 1e3,
                "us");
        rep.set("span." + name + ".p99_us", agg.hist.quantileNs(99) / 1e3,
                "us");
    }
}

void
emitNvm(Report &rep, const NvmCounts &c, std::uint64_t ops,
        std::uint64_t user_bytes, double seconds)
{
    double n = static_cast<double>(ops);
    rep.set("nvm.fences_per_op", ratio(static_cast<double>(c.fences), n),
            "fences/op");
    rep.set("nvm.lines_flushed_per_op",
            ratio(static_cast<double>(c.lines), n), "lines/op");
    rep.set("nvm.bytes_persisted_per_user_byte",
            ratio(static_cast<double>(c.lines) * 64.0,
                  static_cast<double>(user_bytes)),
            "ratio");
    rep.set("nvm.modeled_fence_ms_per_s",
            ratio(static_cast<double>(c.fences) *
                      static_cast<double>(pinnedNvm().fenceLatencyNs) / 1e6,
                  seconds),
            "ms/s");
}

} // namespace bench
} // namespace espresso
