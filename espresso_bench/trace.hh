/**
 * @file
 * Span recorder for the traced run (--trace 1).
 *
 * Spans are recorded from the benchmark's own files around each call
 * into a layer: name, start, end, parent, request id. Each thread keeps
 * its spans in its own memory; nothing is shared on the recording path.
 * Per span name the recorder accumulates, online, the call count, total
 * and self time (a span's duration minus the part its children cover)
 * and a log-bucketed duration histogram, so the aggregates cover every
 * op while only the first kKeepPerThread spans of each thread are kept
 * whole for TRACE_<workload>.json.
 *
 * A span's layer is its name up to the last dot ("db.commit" -> "db",
 * "pjh.gc.collect" -> "pjh.gc"). Each op's root span is "bench.op":
 * the benchmark's own work between the calls it times.
 *
 * Disabled (the default), a Span costs one relaxed load.
 */

#ifndef ESPRESSO_BENCH_TRACE_HH
#define ESPRESSO_BENCH_TRACE_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>

namespace espresso {
namespace bench {

class Trace
{
  public:
    static constexpr std::size_t kKeepPerThread = 20000;

    static void setEnabled(bool on);

    static bool
    enabled()
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Forget every recorded span. Callers must not be recording. */
    static void reset();

    /** A fresh request id for a root span (0 when disabled). */
    static std::uint64_t newRequest();

    /** Record a finished leaf span under the calling thread's open
     * span (the times may come from another thread). */
    static void record(const char *name, std::uint64_t start,
                       std::uint64_t end);

    /** Durations in buckets of 1/8 of a power of two: a quantile read
     * back from it is within 12.5% of the true value. */
    struct Histogram
    {
        static constexpr unsigned kSubBits = 3;
        static constexpr std::size_t kBuckets = 64 << kSubBits;

        std::array<std::uint64_t, kBuckets> counts{};

        void add(std::uint64_t ns);
        void merge(const Histogram &o);

        /** Nearest-rank quantile (@p pct in (0, 100]), interpolated
         * within its bucket; 0 when empty. */
        double quantileNs(double pct) const;
    };

    struct Agg
    {
        std::uint64_t count = 0;
        std::uint64_t totalNs = 0;
        std::int64_t selfNs = 0;
        Histogram hist;
    };

    /** Aggregates over every thread. Callers must not be recording. */
    struct Summary
    {
        std::map<std::string, Agg> byName;
        std::uint64_t spans = 0;
        std::uint64_t rootNs = 0;

        /** Self time of every span whose layer is @p layer. */
        double layerSelfNs(const std::string &layer) const;

        /** |sum of every span's self time - sum of root durations| /
         * sum of root durations: 0 when the children of every span
         * nest inside it without overlap. */
        double reconcileErrFrac() const;
    };

    static Summary summarize();

    /** Write the kept spans and the aggregates; false on I/O error. */
    static bool writeJson(const std::string &path,
                          const std::string &workload);

  private:
    friend class Span;
    static void open(const char *name, std::uint64_t start,
                     std::uint64_t req);
    static void close(std::uint64_t end);

    static std::atomic<bool> enabled_;
};

/** RAII span on the calling thread: opens at construction (now, or an
 * explicit start such as an op's due time), closes at destruction. */
class Span
{
  public:
    explicit Span(const char *name);
    Span(const char *name, std::uint64_t start, std::uint64_t req);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    bool on_;
};

} // namespace bench
} // namespace espresso

#endif // ESPRESSO_BENCH_TRACE_HH
