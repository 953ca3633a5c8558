/**
 * @file
 * perfbench / perfbench_traced — the benchmark driver binaries.
 *
 *   perfbench --workload NAME --seed N --seconds S [--inputs DIR]
 *             [--daemon PATH] [--work-dir DIR] [--inject FAULT]
 *             [--launch-ns T]
 *   perfbench gen-fuzz DIR SEED_BEGIN
 *
 * perfbench prints the end-to-end metrics, perfbench_traced the
 * per-layer metrics, as the last line of stdout:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * Normally started through perfbench/run.py, which builds both.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <numeric>
#include <set>
#include <string>

#include "inputs.h"
#include "spans.h"
#include "tools/benchmark_programs.h"
#include "workloads.h"
#ifdef PERFBENCH_TRACED
#include "wrap.h"
#endif

using namespace perfbench;

namespace
{

// Read during static initialization, as close to process start as this
// program can observe: set-up time is measured from here.
const Clock::time_point g_processStart = Clock::now();

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/** Nearest-rank percentile (p in (0,100]). */
double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * values.size()));
    return values[std::max<size_t>(rank, 1) - 1];
}

/**
 * The end-to-end metrics of a run's untraced rounds. Each op counts at
 * the best time that the same work (its OpTime key) took anywhere in
 * the run. The host alternates between phases of different speed
 * lasting seconds (see README.md), and a round-robin run meets every
 * input in several of them: an input's best time is the one least
 * disturbed, and it reads the same from run to run where a raw time
 * depends on which phase the op happened to land in. The op mix, and
 * so the weight of every input, stays that of the run.
 *
 * ops_per_s is the closed loop's throughput at those op times: by
 * Little's law, the ops kept in flight over the mean op time.
 */
std::vector<Metric>
endToEndMetrics(const Outcome &out)
{
    std::map<size_t, double> best;
    for (const std::vector<OpTime> &round : out.plainRounds) {
        for (const OpTime &op : round) {
            auto [it, fresh] = best.emplace(op.key, op.ms);
            if (!fresh)
                it->second = std::min(it->second, op.ms);
        }
    }
    std::vector<double> ms;
    for (const std::vector<OpTime> &round : out.plainRounds)
        for (const OpTime &op : round)
            ms.push_back(best[op.key]);
    double total_ms = std::accumulate(ms.begin(), ms.end(), 0.0);
    return {
        {"setup_s", out.setupSeconds, "s"},
        {"ops_per_s",
         total_ms > 0 ? out.concurrency * ms.size() / (total_ms / 1000) : 0,
         "ops/s"},
        {"op_p50_ms", median(ms), "ms"},
        {"op_p90_ms", percentile(ms, 90), "ms"},
        {"peak_rss_mib", out.peakRssMib, "MiB"},
    };
}

/** Which layer (module group) a span belongs to. */
std::string
layerOf(const std::string &span)
{
    std::string prefix = span.substr(0, span.find('.'));
    if (prefix == "compile_cache" || prefix == "driver")
        return "tools";
    if (prefix == "server")
        return "service";
    return prefix;
}

const char *const kLayers[] = {"frontend", "libc",     "opt",    "ir",
                               "sanitizer", "memcheck", "tools",  "interp",
                               "analysis",  "protocol", "service"};

std::vector<Metric>
perLayerMetrics(const Outcome &out)
{
    std::vector<SpanRecord> spans = recordedSpans();
    std::map<std::string, std::vector<double>> dur;
    std::map<std::string, std::vector<double>> self;
    std::map<std::string, std::set<int64_t>> rounds;
    std::map<std::string, size_t> inRounds;
    for (const SpanRecord &s : spans) {
        dur[s.name].push_back(s.durMs);
        self[s.name].push_back(s.selfMs);
        if (s.round >= 0) {
            rounds[s.name].insert(s.round);
            inRounds[s.name]++;
        }
    }
    std::map<std::string, std::vector<double>> counts;
    for (const CountRecord &c : recordedCounts())
        counts[c.name].push_back(c.value);

    auto med = [&](const std::string &name) { return median(dur[name]); };
    auto perRound = [&](const std::string &name) {
        return rounds[name].empty()
            ? 0.0
            : static_cast<double>(inRounds[name]) / rounds[name].size();
    };
    auto value = [&](const std::string &name) {
        auto it = out.layerValues.find(name);
        return it == out.layerValues.end() ? 0.0 : it->second;
    };

    // analysis.callgraph spans per op (CallGraph::build + condense).
    std::map<int64_t, double> callgraph;
    for (const SpanRecord &s : spans)
        if (s.name == "analysis.callgraph" && s.op >= 0)
            callgraph[s.op] += s.durMs;
    std::vector<double> callgraph_ms;
    for (const auto &entry : callgraph)
        callgraph_ms.push_back(entry.second);

    // The user code's part of a compile: each compileC() call minus the
    // median time to compile its libc variant alone.
    std::vector<double> user_ms;
    std::vector<double> libc_ms;
    for (const char *variant : {"safe", "native"}) {
        const std::vector<double> &libc =
            counts[std::string("libc.compile_ms.") + variant];
        libc_ms.insert(libc_ms.end(), libc.begin(), libc.end());
        for (double ms : counts[std::string("frontend.compile_ms.") + variant])
            user_ms.push_back(ms - median(libc));
    }

    std::vector<Metric> m = {
        {"frontend.compile_ms", med("frontend.compile"), "ms"},
        {"frontend.compile_user_ms", median(user_ms), "ms"},
        {"libc.compile_ms", median(libc_ms), "ms"},
        {"frontend.ir_instructions",
         median(counts["frontend.ir_instructions"]), "count"},
        {"opt.o0_ms", med("opt.o0"), "ms"},
        {"opt.o3_ms", med("opt.o3"), "ms"},
        {"opt.o3_ir_instructions", median(counts["opt.o3_ir_instructions"]),
         "count"},
        {"ir.clone_ms", med("ir.clone"), "ms"},
        {"sanitizer.instrument_ms", med("sanitizer.instrument"), "ms"},
        {"sanitizer.run_ms", med("sanitizer.run"), "ms"},
        {"memcheck.run_ms", med("memcheck.run"), "ms"},
        {"driver.prepare_ms", med("driver.prepare"), "ms"},
        {"compile_cache.hit_ms", med("compile_cache.hit"), "ms"},
        {"compile_cache.miss_ms", med("compile_cache.miss"), "ms"},
        {"compile_cache.hits", perRound("compile_cache.hit"), "count/round"},
        {"compile_cache.misses", perRound("compile_cache.miss"),
         "count/round"},
    };
    for (const sulong::BenchmarkProgram &p : sulong::benchmarkPrograms())
        m.push_back({"interp.run_ms." + p.name, med("interp.run." + p.name),
                     "ms"});
    m.push_back({"interp.steps_per_s", value("interp.steps_per_s"), "1/s"});
    m.push_back({"interp.safe_run_ms", med("interp.safe_run"), "ms"});
    for (const char *name :
         {"interp.steps.tier1", "interp.steps.tier2", "interp.steps.tier3"})
        m.push_back({name, value(name), "count/round"});
    for (const char *name : {"interp.tier2_compiles", "interp.tier3_compiles",
                             "interp.osr_entries", "interp.deopts"})
        m.push_back({name, value(name), "count"});
    m.push_back({"analysis.callgraph_ms", median(callgraph_ms), "ms"});
    m.push_back({"analysis.abstract_ms", median(self["analysis.module"]),
                 "ms"});
    m.push_back({"analysis.replay_ms", med("analysis.replay"), "ms"});
    for (const char *name : {"analysis.functions",
                             "analysis.summaries_applied",
                             "analysis.solver_checked"})
        m.push_back({name, value(name), "count/round"});
    m.push_back({"protocol.encode_us", med("protocol.encode") * 1000, "us"});
    m.push_back({"protocol.decode_us", med("protocol.decode") * 1000, "us"});
    m.push_back({"service.job_ms", med("service.job"), "ms"});
    m.push_back({"server.health_rtt_ms", med("server.health_rtt"), "ms"});

    // Share of op time per layer: self time of the layer spans inside
    // "op" spans, over the total duration of those ops.
    std::map<int64_t, bool> ops;
    double op_total = 0;
    for (const SpanRecord &s : spans) {
        if (s.isOp && s.name == "op") {
            ops[s.op] = true;
            op_total += s.durMs;
        }
    }
    std::map<std::string, double> layer_self;
    for (const SpanRecord &s : spans)
        if (!s.isOp && ops.count(s.op) != 0)
            layer_self[layerOf(s.name)] += s.selfMs;
    for (const char *layer : kLayers)
        m.push_back({std::string("share.") + layer,
                     op_total > 0 ? 100.0 * layer_self[layer] / op_total : 0,
                     "%"});

    auto mean = [](const std::vector<double> &v) {
        return v.empty() ? 0.0
                         : std::accumulate(v.begin(), v.end(), 0.0) / v.size();
    };
    std::vector<double> plain_ms;
    for (const std::vector<OpTime> &round : out.plainRounds)
        for (const OpTime &op : round)
            plain_ms.push_back(op.ms);
    double plain = mean(plain_ms);
    m.push_back({"trace.overhead_pct",
                 plain > 0 ? 100.0 * (mean(out.tracedOpMs) / plain - 1) : 0,
                 "%"});
    return m;
}

void
printResult(const Outcome &out, const std::vector<Metric> &metrics)
{
    // Every op is checked, and an op that fails a check is counted in
    // "failed"; the ops that did not fail passed every check, so
    // "correct" (which speaks of those) is always true.
    std::string json = "{\"correct\": true";
    json += ", \"attempted\": " + std::to_string(out.attempted);
    json += ", \"failed\": " + std::to_string(out.failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); i++) {
        char value[64];
        double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
        std::snprintf(value, sizeof value, "%.9g", v);
        json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

const char *
flagValue(int argc, char **argv, const char *name, const char *fallback)
{
    for (int i = 1; i + 1 < argc; i++)
        if (std::strcmp(argv[i], name) == 0)
            return argv[i + 1];
    return fallback;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 4 && std::strcmp(argv[1], "gen-fuzz") == 0)
        return generateFuzzInputs(argv[2], std::strtoull(argv[3], nullptr, 10));

    Options options;
    options.processStart = g_processStart;
    options.workload = flagValue(argc, argv, "--workload", "");
    options.seed = std::strtoull(flagValue(argc, argv, "--seed", "1"),
                                 nullptr, 10);
    options.seconds = std::atof(flagValue(argc, argv, "--seconds", "10"));
    options.inputsDir = flagValue(argc, argv, "--inputs", "perfbench/inputs");
    options.daemonPath = flagValue(argc, argv, "--daemon", "msulongd");
    options.workDir = flagValue(argc, argv, "--work-dir", ".");
    options.inject = flagValue(argc, argv, "--inject", "");
    // run.py passes the CLOCK_MONOTONIC instant it launched this process
    // (steady_clock's clock on Linux), so set-up includes the launch.
    if (const char *launch = flagValue(argc, argv, "--launch-ns", nullptr))
        options.processStart = Clock::time_point(
            std::chrono::nanoseconds(std::strtoll(launch, nullptr, 10)));
#ifdef PERFBENCH_TRACED
    options.traced = true;
    options.onTracedRound = probeLibcCompile;
#endif

    Outcome outcome;
    std::string error;
    if (!runWorkload(options, &outcome, &error)) {
        std::fprintf(stderr, "perfbench: %s\n", error.c_str());
        return 2;
    }
    for (const std::string &why : outcome.failures)
        std::fprintf(stderr, "perfbench: failed op: %s\n", why.c_str());
    std::fprintf(stderr,
                 "perfbench: %s seed %llu: %llu ops, %llu failed, %zu "
                 "untraced rounds, %u traced rounds\n",
                 options.workload.c_str(),
                 static_cast<unsigned long long>(options.seed),
                 static_cast<unsigned long long>(outcome.attempted),
                 static_cast<unsigned long long>(outcome.failed),
                 outcome.plainRounds.size(), outcome.tracedRounds);
    if (options.traced) {
        std::string path = options.workDir + "/perfbench-" +
            options.workload + "-seed" + std::to_string(options.seed) +
            "-spans.json";
        if (!writeChromeTrace(path, recordedSpans(), &error))
            std::fprintf(stderr, "perfbench: %s\n", error.c_str());
        printResult(outcome, perLayerMetrics(outcome));
    } else {
        printResult(outcome, endToEndMetrics(outcome));
    }
    return 0;
}
