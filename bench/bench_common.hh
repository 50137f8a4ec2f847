/**
 * @file
 * Shared helpers for the figure-reproduction benchmarks: wall-clock
 * timing and paper-style table/breakdown printing.
 *
 * Absolute numbers will not match the paper (the substrate is an
 * emulator, not the authors' NVDIMM testbed); the printed shapes —
 * who wins, by roughly what factor, where curves bend — are the
 * reproduction target. See EXPERIMENTS.md.
 */

#ifndef ESPRESSO_BENCH_BENCH_COMMON_HH
#define ESPRESSO_BENCH_BENCH_COMMON_HH

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "util/env.hh"
#include "util/phase_timer.hh"

namespace espresso {
namespace bench {

/**
 * Per-figure work amount. ESPRESSO_BENCH_OPS overrides the default —
 * the `bench-smoke` target sets it to a tiny count so CI can prove
 * every figure binary still runs end to end without paying full
 * benchmark time. Parsed strictly (envUnsigned): "10k" warns and
 * keeps the default instead of running 10 ops.
 */
inline int
opsFromEnv(int default_ops)
{
    unsigned v = envUnsigned("ESPRESSO_BENCH_OPS",
                             static_cast<unsigned>(default_ops));
    return static_cast<int>(std::min<unsigned>(v, INT_MAX));
}

inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Time a callable, returning nanoseconds. */
template <typename Fn>
std::uint64_t
timeNs(Fn &&fn)
{
    std::uint64_t t0 = nowNs();
    fn();
    return nowNs() - t0;
}

inline void
printHeader(const std::string &figure, const std::string &caption)
{
    std::printf("\n=== %s ===\n%s\n\n", figure.c_str(), caption.c_str());
}

/**
 * Machine-readable sidecar next to the human tables: rows of
 * key/value pairs, written as `BENCH_<name>.json` in the working
 * directory. The `bench-smoke` CI step uploads these as artifacts,
 * so every run leaves a parseable record of the numbers the tables
 * print.
 */
class JsonReport
{
  public:
    explicit JsonReport(std::string name) : name_(std::move(name)) {}

    /** Start a new result row; field()s apply to it. */
    JsonReport &
    beginRow()
    {
        rows_.emplace_back();
        return *this;
    }

    JsonReport &
    field(const char *key, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.6g", v);
        return raw(key, buf);
    }

    JsonReport &
    field(const char *key, std::uint64_t v)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%llu",
                      static_cast<unsigned long long>(v));
        return raw(key, buf);
    }

    JsonReport &
    field(const char *key, const std::string &v)
    {
        std::string quoted = "\"";
        for (char c : v) {
            if (c == '"' || c == '\\')
                quoted.push_back('\\');
            quoted.push_back(c);
        }
        quoted.push_back('"');
        return raw(key, quoted);
    }

    /** Write BENCH_<name>.json (best effort; a failure only warns —
     * the human tables are the primary output). */
    void
    write() const
    {
        std::string path = "BENCH_" + name_ + ".json";
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "bench: cannot write %s\n",
                         path.c_str());
            return;
        }
        std::fprintf(f, "{\"bench\":\"%s\",\"rows\":[",
                     name_.c_str());
        for (std::size_t i = 0; i < rows_.size(); ++i)
            std::fprintf(f, "%s{%s}", i ? "," : "",
                         rows_[i].c_str());
        std::fprintf(f, "]}\n");
        std::fclose(f);
        std::printf("wrote %s\n", path.c_str());
    }

  private:
    JsonReport &
    raw(const char *key, const std::string &value)
    {
        std::string &row = rows_.back();
        if (!row.empty())
            row += ",";
        row += "\"";
        row += key;
        row += "\":";
        row += value;
        return *this;
    }

    std::string name_;
    std::vector<std::string> rows_;
};

/**
 * Print a normalized breakdown like the paper's stacked bars:
 * phases as percentages of @p total_ns, with the remainder reported
 * as "Other".
 */
inline void
printBreakdown(const std::string &label, const PhaseTimer &timer,
               const std::vector<std::string> &phases,
               std::uint64_t total_ns)
{
    std::printf("%-24s total %8.2f ms\n", label.c_str(),
                total_ns / 1e6);
    std::uint64_t accounted = 0;
    for (const std::string &phase : phases) {
        std::uint64_t ns = timer.total(phase);
        accounted += ns;
        std::printf("    %-20s %6.1f%%  (%8.2f ms)\n", phase.c_str(),
                    100.0 * ns / total_ns, ns / 1e6);
    }
    std::uint64_t other = total_ns > accounted ? total_ns - accounted : 0;
    std::printf("    %-20s %6.1f%%  (%8.2f ms)\n", "other",
                100.0 * other / total_ns, other / 1e6);
}

} // namespace bench
} // namespace espresso

#endif // ESPRESSO_BENCH_BENCH_COMMON_HH
