/**
 * @file
 * espresso_bench — one command for the end-to-end benchmark.
 *
 *   espresso_bench [--workload NAME|all] [--seed N] [--seconds S]
 *                  [--trace [0|1]] [--smoke] [--out DIR]
 *                  [--record-baseline]
 *
 * Prints every metric as "workload metric value unit", writes
 * BENCH_espresso.json (and TRACE_<workload>.json when traced) into
 * --out, and ends stdout with one JSON line:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * holding the end-to-end metrics of BENCHMARK.json (untraced) or its
 * per-layer metrics (traced). Exits non-zero when a correctness check
 * fails. See README.md.
 */

#include <sys/utsname.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "trace.hh"
#include "workloads.hh"

extern char **environ;

namespace espresso {
namespace bench {
namespace {

/** The workloads, with the metric prefixes of the layers each never
 * calls (README, "Zero predictions"). */
const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> w = {
        {"wire_kv",
         {"db.txn.", "db.recover.", "pjh.", "span.db.", "span.core.",
          "span.pjh.", "span.bench.rmw_lock", "self.db", "self.core",
          "self.pjh"},
         runWireKv, countersWireKv},
        {"embedded_tpcc",
         {"net.", "pjh.", "db.recover.", "span.net.", "span.core.",
          "span.pjh.", "span.db.crash", "self.net", "self.core",
          "self.pjh"},
         runEmbeddedTpcc, countersEmbeddedTpcc},
        {"pjh_kv",
         {"net.", "db.", "nvm.coord_", "pjh.load.", "span.net.", "span.db.",
          "span.bench.rmw_lock", "span.pjh.crash_heap", "span.pjh.load",
          "self.net", "self.db"},
         runPjhKv, countersPjhKv},
        {"restart",
         {"net.", "gen.", "pjh.gc.", "db.txn.", "span.net.",
          "span.db.fetch", "span.bench.rmw_lock", "span.pjh.section_enter",
          "span.pjh.store_ref", "self.net", "self.gen", "self.pjh.gc"},
         runRestart, countersRestart},
    };
    return w;
}

std::string
rootPath(const std::string &rel)
{
    return std::string(ESPRESSO_BENCH_ROOT) + "/" + rel;
}

bool
readFile(const std::string &path, std::string *out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::stringstream ss;
    ss << in.rdbuf();
    *out = ss.str();
    return true;
}

/** The string value of "field" inside one flat JSON object. */
std::string
stringField(const std::string &obj, const std::string &field)
{
    std::size_t k = obj.find("\"" + field + "\"");
    if (k == std::string::npos)
        return {};
    std::size_t q0 = obj.find('"', obj.find(':', k) + 1);
    std::size_t q1 = obj.find('"', q0 + 1);
    return q0 == std::string::npos || q1 == std::string::npos
               ? std::string()
               : obj.substr(q0 + 1, q1 - q0 - 1);
}

struct Declared
{
    std::string name;
    std::string unit;
};

/** The {"name", "unit"} objects of BENCHMARK.json's array @p key (a
 * flat array of flat objects — all that file's format needs). */
std::vector<Declared>
declaredMetrics(const std::string &json, const std::string &key)
{
    std::vector<Declared> out;
    std::size_t k = json.find("\"" + key + "\"");
    if (k == std::string::npos)
        return out;
    std::size_t lb = json.find('[', k);
    std::size_t rb = json.find(']', lb);
    for (std::size_t o = json.find('{', lb); o < rb;
         o = json.find('{', o + 1)) {
        std::string obj = json.substr(o, json.find('}', o) - o);
        out.push_back({stringField(obj, "name"), stringField(obj, "unit")});
    }
    return out;
}

/** The number after "key": inside @p json's [from, to). */
bool
numberField(const std::string &json, std::size_t from, std::size_t to,
            const std::string &key, double *out)
{
    std::size_t k = json.find("\"" + key + "\"", from);
    if (k == std::string::npos || k >= to)
        return false;
    *out = std::strtod(json.c_str() + json.find(':', k) + 1, nullptr);
    return true;
}

std::string
fmt(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

std::string
quote(const std::string &s)
{
    std::string q = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            q.push_back('\\');
        q.push_back(c);
    }
    return q + "\"";
}

struct Options
{
    std::string workload = "all";
    RunOptions run;
    std::string out = ".";
    bool recordBaseline = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "espresso_bench: %s\nusage: espresso_bench [--workload "
                 "wire_kv|embedded_tpcc|pjh_kv|restart|all] [--seed N] "
                 "[--seconds S] [--trace [0|1]] [--smoke] [--out DIR] "
                 "[--record-baseline]\n",
                 why.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + a);
            return argv[++i];
        };
        auto number = [&](double lo, double hi) {
            std::string v = value();
            char *end = nullptr;
            double d = std::strtod(v.c_str(), &end);
            if (end == v.c_str() || *end != '\0' || !(d >= lo && d <= hi))
                usage("bad value for " + a + ": " + v);
            return d;
        };
        if (a == "--workload") {
            o.workload = value();
        } else if (a == "--seed") {
            o.run.seed = static_cast<std::uint64_t>(number(0, 1e15));
        } else if (a == "--seconds") {
            o.run.seconds = number(1, 60);
        } else if (a == "--trace") {
            bool has_value = i + 1 < argc && (std::strcmp(argv[i + 1], "0") == 0 ||
                                              std::strcmp(argv[i + 1], "1") == 0);
            o.run.trace = has_value ? number(0, 1) != 0 : true;
        } else if (a == "--smoke") {
            o.run.smoke = true;
        } else if (a == "--out") {
            o.out = value();
        } else if (a == "--record-baseline") {
            o.recordBaseline = true;
        } else {
            usage("unknown argument " + a);
        }
    }
    return o;
}

/** Why this process must not produce numbers anyone compares, or "". */
std::string
measurementRefusal()
{
    for (char **e = environ; *e != nullptr; ++e)
        if (std::strncmp(*e, "ESPRESSO_", 9) == 0)
            return std::string("environment knob set: ") + *e;
#ifndef NDEBUG
    return "assertions enabled (debug build)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "sanitized build";
#endif
    if (std::string(ESPRESSO_BENCH_BUILD_TYPE) == "Debug")
        return "Debug build";
    return "";
}

/** The host fingerprint written into BENCH_espresso.json. */
std::string
hostJson()
{
    utsname u{};
    uname(&u);
    std::string s = "{";
    s += "\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
    s += ",\"compiler\":" + quote(__VERSION__);
    s += ",\"build_type\":" + quote(ESPRESSO_BENCH_BUILD_TYPE);
#ifdef NDEBUG
    s += ",\"ndebug\":true";
#else
    s += ",\"ndebug\":false";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    s += ",\"sanitizer\":true";
#else
    s += ",\"sanitizer\":false";
#endif
    s += ",\"git_sha\":" + quote(ESPRESSO_BENCH_GIT_SHA);
    s += ",\"kernel\":" + quote(std::string(u.sysname) + " " + u.release);
    s += ",\"machine\":" + quote(u.machine);
    return s + "}";
}

bool
bypasses(const Workload &w, const std::string &metric)
{
    for (const std::string &p : w.bypassed)
        if (metric.compare(0, p.size(), p) == 0)
            return true;
    return false;
}

/** Every declared metric must be emitted in its declared unit, except
 * that a layer the workload never calls reads 0; and no metric of such
 * a layer may read anything else. */
void
reconcileMetrics(const Workload &w, const std::vector<Declared> &declared,
                 Report &rep)
{
    for (const Declared &d : declared) {
        const Report::Metric *m = rep.find(d.name);
        if (m != nullptr)
            rep.check(m->unit == d.unit, "metric " + d.name + " emitted in " +
                                             m->unit + ", declared " + d.unit);
        else if (bypasses(w, d.name))
            rep.set(d.name, 0, d.unit);
        else
            rep.fail("metric " + d.name + " not emitted");
    }
    for (const Report::Metric &m : rep.metrics())
        rep.check(!bypasses(w, m.name) || m.value == 0,
                  "zero prediction broken: " + m.name + " = " + fmt(m.value));
}

/** Smoke gate: the deterministic counters must not rise above the
 * committed baseline. */
void
checkBaseline(const Workload &w, const Counters &got, Report &rep)
{
    std::string json;
    if (!rep.check(readFile(rootPath("espresso_bench/baseline/counters.json"),
                            &json),
                   "baseline/counters.json unreadable"))
        return;
    std::size_t at = json.find("\"" + std::string(w.name) + "\"");
    if (!rep.check(at != std::string::npos,
                   std::string("no baseline for ") + w.name))
        return;
    std::size_t end = json.find('}', at);
    for (const auto &[name, value] : got) {
        double base = 0;
        if (!rep.check(numberField(json, at, end, name, &base),
                       "no baseline for " + name))
            continue;
        std::printf("%s baseline.%s %s (committed %s)\n", w.name,
                    name.c_str(), fmt(value).c_str(), fmt(base).c_str());
        rep.check(value <= base * (1 + 1e-9) + 1e-12,
                  std::string(w.name) + " " + name + " rose to " + fmt(value) +
                      " over the committed " + fmt(base));
    }
}

int
recordBaseline()
{
    std::string path = rootPath("espresso_bench/baseline/counters.json");
    std::string out = "{\n";
    bool ok = true;
    for (std::size_t i = 0; i < workloads().size(); ++i) {
        const Workload &w = workloads()[i];
        Report rep;
        Counters c = w.counterPass(rep);
        ok &= rep.correct();
        out += "  " + quote(w.name) + ": {";
        bool first = true;
        for (const auto &[name, value] : c) {
            out += std::string(first ? "" : ", ") + quote(name) + ": " +
                   fmt(value);
            first = false;
        }
        out += i + 1 < workloads().size() ? "},\n" : "}\n";
    }
    out += "}\n";
    if (!ok) {
        std::fprintf(stderr, "espresso_bench: counter pass failed a check; "
                             "baseline not written\n");
        return 1;
    }
    std::ofstream f(path);
    f << out;
    f.close();
    if (!f) {
        std::fprintf(stderr, "espresso_bench: cannot write %s\n", path.c_str());
        return 1;
    }
    std::printf("wrote %s\n", path.c_str());
    return 0;
}

std::string
metricsJson(const std::vector<Report::Metric> &ms)
{
    std::string s;
    for (const auto &m : ms)
        s += std::string(s.empty() ? "" : ",") + quote(m.name) +
             ":{\"value\":" + fmt(m.value) + ",\"unit\":" + quote(m.unit) +
             "}";
    return s;
}

} // namespace
} // namespace bench
} // namespace espresso

int
main(int argc, char **argv)
{
    using namespace espresso::bench;
    Options opt = parseArgs(argc, argv);
    if (opt.recordBaseline)
        return recordBaseline();

    std::vector<const Workload *> selected;
    for (const Workload &w : workloads())
        if (opt.workload == "all" || opt.workload == w.name)
            selected.push_back(&w);
    if (selected.empty())
        usage("unknown workload " + opt.workload);

    std::string refusal = measurementRefusal();
    if (!refusal.empty() && !opt.run.smoke) {
        std::fprintf(stderr,
                     "espresso_bench: refusing to measure: %s (--smoke "
                     "still runs)\n",
                     refusal.c_str());
        return 3;
    }
    std::string spec;
    if (!readFile(rootPath("BENCHMARK.json"), &spec)) {
        std::fprintf(stderr, "espresso_bench: cannot read BENCHMARK.json\n");
        return 2;
    }
    std::vector<Declared> e2e = declaredMetrics(spec, "end_to_end");
    std::vector<Declared> layer = declaredMetrics(spec, "per_layer");

    // A smoke run checks both modes at ~1 s each, plus the counters.
    std::vector<bool> modes = opt.run.smoke ? std::vector<bool>{false, true}
                                            : std::vector<bool>{opt.run.trace};
    if (opt.run.smoke)
        opt.run.seconds = 1;

    bool correct = true;
    std::uint64_t attempted = 0, failed = 0;
    std::vector<Report::Metric> final_metrics;
    std::string runs_json;
    for (const Workload *w : selected) {
        for (bool traced : modes) {
            RunOptions ro = opt.run;
            ro.trace = traced;
            Report rep;
            w->run(ro, rep);
            reconcileMetrics(*w, traced ? layer : e2e, rep);
            if (opt.run.smoke && traced)
                checkBaseline(*w, w->counterPass(rep), rep);
            if (traced)
                rep.check(Trace::writeJson(opt.out + "/TRACE_" + w->name +
                                               ".json",
                                           w->name),
                          "cannot write the trace file");

            for (const auto &m : rep.metrics())
                std::printf("%s %s %s %s\n", w->name, m.name.c_str(),
                            fmt(m.value).c_str(), m.unit.c_str());
            for (const std::string &f : rep.failures())
                std::fprintf(stderr, "%s: CHECK FAILED: %s\n", w->name,
                             f.c_str());
            correct &= rep.correct();
            attempted += rep.attempted;
            failed += rep.failed;

            std::string config_json;
            for (const auto &[k, v] : rep.configs())
                config_json += std::string(config_json.empty() ? "" : ",") +
                               quote(k) + ":" + quote(v);
            runs_json += std::string(runs_json.empty() ? "" : ",") +
                         "{\"workload\":" + quote(w->name) +
                         ",\"seed\":" + std::to_string(ro.seed) +
                         ",\"seconds\":" + fmt(ro.seconds) +
                         ",\"trace\":" + (traced ? "true" : "false") +
                         ",\"correct\":" + (rep.correct() ? "true" : "false") +
                         ",\"config\":{" + config_json + "},\"metrics\":{" +
                         metricsJson(rep.metrics()) + "}}";

            for (const Declared &d : traced ? layer : e2e) {
                const Report::Metric *m = rep.find(d.name);
                std::string key = selected.size() > 1
                                      ? std::string(w->name) + "/" + d.name
                                      : d.name;
                final_metrics.push_back({key, m ? m->value : 0, d.unit});
            }
        }
    }

    if (attempted == 0) {
        std::fprintf(stderr, "espresso_bench: no operation was attempted\n");
        correct = false;
    }
    std::string bench_path = opt.out + "/BENCH_espresso.json";
    if (std::FILE *f = std::fopen(bench_path.c_str(), "w")) {
        std::fprintf(f, "{\"host\":%s,\"runs\":[%s]}\n", hostJson().c_str(),
                     runs_json.c_str());
        correct &= std::fclose(f) == 0;
    } else {
        std::fprintf(stderr, "espresso_bench: cannot write %s\n",
                     bench_path.c_str());
        correct = false;
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                metricsJson(final_metrics).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
