#include "trace.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "harness.hh"

namespace espresso {
namespace bench {

std::atomic<bool> Trace::enabled_{false};

namespace {

struct Kept
{
    const char *name;
    std::uint64_t start;
    std::uint64_t end;
    std::int64_t parent; ///< index into the same thread's kept spans
    std::uint64_t req;
};

struct Open
{
    const char *name;
    std::uint64_t start;
    std::uint64_t childNs;
    std::int64_t kept;
    std::uint64_t req;
};

struct ThreadTrace
{
    unsigned tid = 0;
    std::uint64_t nextReq = 0;
    std::vector<Open> stack;
    std::vector<Kept> kept;
    /** Keyed by the literal's address; merged by name in summarize(). */
    std::unordered_map<const char *, Trace::Agg> agg;
    std::uint64_t spans = 0;
    std::uint64_t rootNs = 0;

    void
    clear()
    {
        stack.clear();
        kept.clear();
        agg.clear();
        spans = rootNs = 0;
    }

    void
    finish(const Open &o, std::uint64_t end)
    {
        std::uint64_t dur = end > o.start ? end - o.start : 0;
        Trace::Agg &a = agg[o.name];
        ++a.count;
        a.totalNs += dur;
        a.selfNs += static_cast<std::int64_t>(dur) -
                    static_cast<std::int64_t>(o.childNs);
        a.hist.add(dur);
        ++spans;
        if (o.kept >= 0)
            kept[static_cast<std::size_t>(o.kept)].end = end;
        if (stack.empty())
            rootNs += dur;
        else
            stack.back().childNs += dur;
    }

    Open
    make(const char *name, std::uint64_t start, std::uint64_t req)
    {
        if (req == 0 && !stack.empty())
            req = stack.back().req;
        std::int64_t parent = stack.empty() ? -1 : stack.back().kept;
        std::int64_t idx = -1;
        if (kept.size() < Trace::kKeepPerThread) {
            idx = static_cast<std::int64_t>(kept.size());
            kept.push_back({name, start, start, parent, req});
        }
        return {name, start, 0, idx, req};
    }
};

/** Every thread's buffer; owned here so they outlive their threads. */
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadTrace>> g_threads;
std::uint64_t g_epochNs = 0;

ThreadTrace &
local()
{
    thread_local ThreadTrace *t = nullptr;
    if (t == nullptr) {
        std::lock_guard<std::mutex> g(g_mu);
        g_threads.push_back(std::make_unique<ThreadTrace>());
        t = g_threads.back().get();
        t->tid = static_cast<unsigned>(g_threads.size());
    }
    return *t;
}

/** The layer of span @p name: the name up to its last dot. */
std::string
layerOf(const std::string &name)
{
    std::size_t dot = name.rfind('.');
    return dot == std::string::npos ? name : name.substr(0, dot);
}

} // namespace

void
Trace::Histogram::add(std::uint64_t ns)
{
    std::size_t idx = ns;
    if (ns >= (1u << kSubBits)) {
        unsigned msb = 63 - static_cast<unsigned>(__builtin_clzll(ns));
        std::uint64_t sub = (ns >> (msb - kSubBits)) & ((1u << kSubBits) - 1);
        idx = ((msb - kSubBits + 1) << kSubBits) | sub;
    }
    ++counts[idx];
}

void
Trace::Histogram::merge(const Histogram &o)
{
    for (std::size_t i = 0; i < kBuckets; ++i)
        counts[i] += o.counts[i];
}

double
Trace::Histogram::quantileNs(double pct) const
{
    std::uint64_t total = 0;
    for (std::uint64_t c : counts)
        total += c;
    if (total == 0)
        return 0;
    double rank = std::ceil(pct / 100.0 * static_cast<double>(total));
    std::uint64_t seen = 0;
    std::size_t idx = 0;
    for (; idx + 1 < kBuckets; ++idx) {
        if (static_cast<double>(seen + counts[idx]) >= rank)
            break;
        seen += counts[idx];
    }
    if (idx < (1u << kSubBits))
        return static_cast<double>(idx);
    unsigned msb = static_cast<unsigned>(idx >> kSubBits) + kSubBits - 1;
    std::uint64_t sub = idx & ((1u << kSubBits) - 1);
    double lo = static_cast<double>(((1ull << kSubBits) | sub)
                                    << (msb - kSubBits));
    double width = static_cast<double>(1ull << (msb - kSubBits));
    // Spread the bucket's samples evenly across its width.
    double within = (rank - static_cast<double>(seen)) /
                    static_cast<double>(std::max<std::uint64_t>(counts[idx], 1));
    return lo + within * width;
}

void
Trace::setEnabled(bool on)
{
    if (on && g_epochNs == 0)
        g_epochNs = nowNs();
    enabled_.store(on, std::memory_order_relaxed);
}

void
Trace::reset()
{
    std::lock_guard<std::mutex> g(g_mu);
    for (auto &t : g_threads)
        t->clear();
}

std::uint64_t
Trace::newRequest()
{
    if (!enabled())
        return 0;
    ThreadTrace &t = local();
    return (static_cast<std::uint64_t>(t.tid) << 40) | ++t.nextReq;
}

void
Trace::open(const char *name, std::uint64_t start, std::uint64_t req)
{
    ThreadTrace &t = local();
    t.stack.push_back(t.make(name, start, req));
}

void
Trace::close(std::uint64_t end)
{
    ThreadTrace &t = local();
    Open o = t.stack.back();
    t.stack.pop_back();
    t.finish(o, end);
}

void
Trace::record(const char *name, std::uint64_t start, std::uint64_t end)
{
    if (!enabled())
        return;
    ThreadTrace &t = local();
    t.finish(t.make(name, start, 0), end);
}

double
Trace::Summary::layerSelfNs(const std::string &layer) const
{
    double ns = 0;
    for (const auto &[name, a] : byName)
        if (layerOf(name) == layer)
            ns += static_cast<double>(a.selfNs);
    return ns;
}

double
Trace::Summary::reconcileErrFrac() const
{
    if (rootNs == 0)
        return 0;
    double self = 0;
    for (const auto &kv : byName)
        self += static_cast<double>(kv.second.selfNs);
    return std::fabs(self - static_cast<double>(rootNs)) /
           static_cast<double>(rootNs);
}

Trace::Summary
Trace::summarize()
{
    Summary s;
    std::lock_guard<std::mutex> g(g_mu);
    for (auto &t : g_threads) {
        for (const auto &[name, a] : t->agg) {
            Agg &m = s.byName[name];
            m.count += a.count;
            m.totalNs += a.totalNs;
            m.selfNs += a.selfNs;
            m.hist.merge(a.hist);
        }
        s.spans += t->spans;
        s.rootNs += t->rootNs;
    }
    return s;
}

bool
Trace::writeJson(const std::string &path, const std::string &workload)
{
    Summary s = summarize();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"workload\":\"%s\",\"epoch_ns\":%llu,\"aggregates\":{",
                 workload.c_str(),
                 static_cast<unsigned long long>(g_epochNs));
    bool first = true;
    for (const auto &[name, a] : s.byName) {
        std::fprintf(f,
                     "%s\"%s\":{\"count\":%llu,\"total_ns\":%llu,"
                     "\"self_ns\":%lld,\"p50_ns\":%.0f,\"p99_ns\":%.0f}",
                     first ? "" : ",", name.c_str(),
                     static_cast<unsigned long long>(a.count),
                     static_cast<unsigned long long>(a.totalNs),
                     static_cast<long long>(a.selfNs),
                     a.hist.quantileNs(50), a.hist.quantileNs(99));
        first = false;
    }
    std::fprintf(f, "},\"spans\":[");
    first = true;
    std::lock_guard<std::mutex> g(g_mu);
    for (auto &t : g_threads) {
        for (const Kept &k : t->kept) {
            std::fprintf(f,
                         "%s{\"name\":\"%s\",\"tid\":%u,\"start\":%lld,"
                         "\"end\":%lld,\"parent\":%lld,\"req\":%llu}",
                         first ? "" : ",", k.name, t->tid,
                         static_cast<long long>(k.start - g_epochNs),
                         static_cast<long long>(k.end - g_epochNs),
                         static_cast<long long>(k.parent),
                         static_cast<unsigned long long>(k.req));
            first = false;
        }
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

Span::Span(const char *name) : on_(Trace::enabled())
{
    if (on_)
        Trace::open(name, nowNs(), 0);
}

Span::Span(const char *name, std::uint64_t start, std::uint64_t req)
    : on_(Trace::enabled())
{
    if (on_)
        Trace::open(name, start, req);
}

Span::~Span()
{
    if (on_)
        Trace::close(nowNs());
}

} // namespace bench
} // namespace espresso
