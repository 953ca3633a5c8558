#include "workloads.h"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <thread>

#include "checks.h"
#include "corpus/harness.h"
#include "inputs.h"
#include "obs/metrics.h"
#include "service/client.h"
#include "service/service.h"
#include "tools/benchmark_programs.h"
#include "tools/compile_cache.h"
#include "tools/driver.h"

extern char **environ;

namespace perfbench
{

using namespace sulong;

namespace
{

// --- shared machinery ------------------------------------------------------

/** Per-attempt verdicts; a later check may still fail an attempt. */
class Ledger
{
  public:
    size_t
    begin()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        failure_.emplace_back();
        return failure_.size() - 1;
    }

    void
    fail(size_t attempt, const std::string &reason)
    {
        if (reason.empty())
            return;
        std::lock_guard<std::mutex> lock(mutex_);
        if (failure_[attempt].empty())
            failure_[attempt] = reason;
    }

    void
    finish(Outcome *out) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        out->attempted = failure_.size();
        for (const std::string &why : failure_) {
            if (why.empty())
                continue;
            out->failed++;
            if (out->failures.size() < 5)
                out->failures.push_back(why);
        }
    }

  private:
    mutable std::mutex mutex_;
    std::vector<std::string> failure_;
};

/** Times one op: an op span (traced rounds) plus a clock reading. */
class OpTimer
{
  public:
    explicit OpTimer(const char *name = "op")
        : span_(std::in_place, name, /*is_op=*/true), start_(Clock::now())
    {}

    double
    stop()
    {
        double ms = msBetween(start_, Clock::now());
        span_.reset();
        return ms;
    }

  private:
    std::optional<Span> span_;
    Clock::time_point start_;
};

enum class RoundKind
{
    plain,
    traced,
    /// daemon-warm only: the same jobs through an in-process
    /// AnalysisService.
    service,
    /// daemon-warm only: the same jobs through the library's entry
    /// points (prepareProgram, Engine::run, analyzeModule) in-process,
    /// so the traced build sees the layers the daemon hides.
    direct,
};

void
setTracing(bool on)
{
    setRecording(on);
    // Lets the managed engine profile per-tier steps in traced rounds.
    obs::setMetricsEnabled(on);
}

/** Input order of one round: a permutation drawn from seed and round. */
std::vector<size_t>
roundOrder(size_t n, uint64_t seed, size_t round)
{
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; i++)
        order[i] = i;
    std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + round);
    std::shuffle(order.begin(), order.end(), rng);
    return order;
}

double
peakRssMib(pid_t pid)
{
    std::ifstream status(pid == 0 ? std::string("/proc/self/status")
                                  : "/proc/" + std::to_string(pid) +
                                        "/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0;
}

/**
 * Moves the calling thread to another of the CPUs it may use at every
 * round, and back to all of them on destruction. On a shared virtual
 * machine the speed an op sees changes with its vCPU and over time (see
 * README.md); a single-threaded workload that rotates meets every vCPU
 * with every input, where one that stays put takes whatever its vCPU
 * gives for the whole run.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&all_);
        if (sched_getaffinity(0, sizeof all_, &all_) != 0)
            return;
        for (int cpu = 0; cpu < CPU_SETSIZE; cpu++)
            if (CPU_ISSET(cpu, &all_))
                cpus_.push_back(cpu);
    }
    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;
    ~CpuRotation()
    {
        if (cpus_.size() > 1)
            sched_setaffinity(0, sizeof all_, &all_);
    }

    void pin(size_t round)
    {
        if (cpus_.size() <= 1)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[round % cpus_.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
    }

  private:
    cpu_set_t all_;
    std::vector<int> cpus_;
};

/**
 * Run whole rounds until @p options.seconds have passed. The traced
 * build runs whole cycles of @p cycle (untraced, traced, ...); the
 * untraced build runs untraced rounds only. @p round_fn runs one round
 * and returns the ops it timed. A single-threaded workload passes
 * @p rotate to run each round on the next CPU (see CpuRotation).
 */
template <class RoundFn>
void
runRounds(const Options &options, const std::vector<RoundKind> &cycle,
          Outcome *out, RoundFn &&round_fn, bool rotate = false)
{
    std::vector<RoundKind> kinds =
        options.traced ? cycle : std::vector<RoundKind>{RoundKind::plain};
    CpuRotation cpus;
    Clock::time_point loop_start = Clock::now();
    for (size_t round = 0;; round++) {
        double elapsed = msBetween(loop_start, Clock::now()) / 1000.0;
        if (round > 0 && round % kinds.size() == 0 &&
            elapsed >= options.seconds)
            break;
        RoundKind kind = kinds[round % kinds.size()];
        setTracing(kind != RoundKind::plain);
        setRound(static_cast<int64_t>(round));
        if (rotate)
            cpus.pin(round / kinds.size());
        if (kind != RoundKind::plain && options.onTracedRound != nullptr)
            options.onTracedRound();
        Clock::time_point round_start = Clock::now();
        std::vector<OpTime> ops = round_fn(kind, round);
        double round_s = msBetween(round_start, Clock::now()) / 1000.0;
        setTracing(false);
        setRound(-1);
        std::vector<double> sorted;
        for (const OpTime &op : ops)
            sorted.push_back(op.ms);
        std::sort(sorted.begin(), sorted.end());
        if (!sorted.empty())
            std::fprintf(stderr,
                         "perfbench: round %zu (%s): %zu ops in %.2f s, "
                         "p50 %.3f ms, p90 %.3f ms\n",
                         round,
                         kind == RoundKind::plain ? "untraced" : "traced",
                         sorted.size(), round_s, sorted[sorted.size() / 2],
                         sorted[sorted.size() * 9 / 10]);
        if (kind == RoundKind::plain) {
            out->plainRounds.push_back(std::move(ops));
        } else {
            if (kind == RoundKind::traced)
                out->tracedOpMs.insert(out->tracedOpMs.end(), sorted.begin(),
                                       sorted.end());
            out->tracedRounds++;
        }
    }
}

std::vector<SourceFile>
userSources(const std::string &source)
{
    return {SourceFile{"<input>", source}};
}

// --- matrix-cold -----------------------------------------------------------

struct MatrixInput
{
    std::string source;
    std::vector<std::string> args;
    std::string stdinData;
    /// Set for corpus programs (points into the workload's own copy).
    const CorpusEntry *corpus = nullptr;
    /// The mutator's recorded kind (none: clean fuzz program).
    ErrorKind injected = ErrorKind::none;
};

const char *
engineSpanName(ToolKind kind)
{
    switch (kind) {
      case ToolKind::safeSulong: return "interp.safe_run";
      case ToolKind::asan: return "sanitizer.run";
      case ToolKind::memcheck: return "memcheck.run";
      case ToolKind::clang: return "native.run";
    }
    return "engine.run";
}

bool
runMatrixCold(const Options &options, Outcome *out, std::string *error)
{
    std::vector<CorpusEntry> corpus = bugCorpus();
    if (options.inject == "corpus-label")
        corpus[0].kind = corpus[0].kind == ErrorKind::outOfBounds
            ? ErrorKind::useAfterFree
            : ErrorKind::outOfBounds;
    std::vector<FuzzInput> fuzz;
    if (!loadFuzzInputs(options.inputsDir + "/fuzz", &fuzz, error))
        return false;
    std::vector<MatrixInput> inputs;
    for (const CorpusEntry &entry : corpus)
        inputs.push_back({entry.source, entry.args, entry.stdinData, &entry,
                          ErrorKind::none});
    for (const FuzzInput &program : fuzz)
        inputs.push_back({program.source, {}, "", nullptr, program.kind});
    size_t first_clean = corpus.size();
    while (first_clean < inputs.size() &&
           inputs[first_clean].injected != ErrorKind::none)
        first_clean++;
    const std::vector<ToolConfig> configs = evaluationToolMatrix();
    out->setupSeconds = msBetween(options.processStart, Clock::now()) / 1000;

    Ledger ledger;
    runRounds(options, {RoundKind::plain, RoundKind::traced}, out,
              [&](RoundKind, size_t round) {
        std::vector<OpTime> times;
        std::vector<CorpusVerdict> verdicts;
        std::vector<size_t> corpus_attempts;
        for (size_t i : roundOrder(inputs.size(), options.seed, round)) {
            const MatrixInput &input = inputs[i];
            size_t attempt = ledger.begin();
            std::vector<ExecutionResult> results;
            std::string why;
            OpTimer timer;
            // A fresh cache per program: every stage is a cold compile,
            // shared only between the configurations of this program.
            CompileCache cache;
            for (const ToolConfig &config : configs) {
                PreparedProgram prepared =
                    prepareProgram(userSources(input.source), config, &cache);
                if (!prepared.ok()) {
                    why = "compile failed: " + prepared.compileErrors;
                    break;
                }
                prepared.engine->limits() = corpusRunLimits();
                Span span(engineSpanName(config.kind));
                results.push_back(prepared.engine->run(
                    *prepared.module, input.args, input.stdinData));
            }
            times.push_back({i, timer.stop()});
            if (options.inject == "clean-bug" && i == first_clean &&
                results.size() > kAsanO0)
                results[kAsanO0].bug.kind = ErrorKind::outOfBounds;
            if (why.empty() && input.corpus != nullptr) {
                CorpusVerdict verdict;
                why = checkCorpusOp(*input.corpus, results, &verdict);
                verdicts.push_back(verdict);
                corpus_attempts.push_back(attempt);
            } else if (why.empty() && input.injected != ErrorKind::none) {
                why = checkInjectedOp(input.injected, results);
            } else if (why.empty()) {
                why = checkCleanOp(results);
            }
            ledger.fail(attempt, why);
        }
        std::string section = verdicts.size() == corpus.size()
            ? checkSection41(verdicts)
            : "a corpus program failed before its verdict";
        for (size_t attempt : corpus_attempts)
            ledger.fail(attempt, section);
        return times;
    }, /*rotate=*/true);
    out->peakRssMib = peakRssMib(0);
    ledger.finish(out);
    return true;
}

// --- peak-exec -------------------------------------------------------------

bool
runPeakExec(const Options &options, Outcome *out, std::string *error)
{
    std::vector<PeakInput> inputs;
    if (!loadPeakInputs(options.inputsDir + "/peak_expected.json", &inputs,
                        error))
        return false;
    if (options.inject == "peak-ref")
        inputs[0].expected += "\n";

    // Warmed Safe Sulong: tier-2, tier-3 and OSR on, state kept across
    // runs so every op after set-up runs hot code.
    ToolConfig config = ToolConfig::make(ToolKind::safeSulong);
    config.managed.enableOsr = true;
    config.managed.persistState = true;
    constexpr int kWarmRuns = 6;

    auto tier_totals = [&](ManagedEngine &engine) {
        if (!recording())
            return;
        const ManagedTelemetry &t = engine.telemetry();
        out->layerValues["interp.tier2_compiles"] += t.tier2Compiles;
        out->layerValues["interp.tier3_compiles"] += t.t3Compiles;
        out->layerValues["interp.osr_entries"] += t.t3OsrEntries;
        out->layerValues["interp.deopts"] += t.t3DeoptMega +
            t.t3DeoptShape + t.t3DeoptSteps + t.t3DeoptBug;
    };

    CompileCache cache;
    std::vector<PreparedProgram> prepared;
    for (const PeakInput &input : inputs) {
        const BenchmarkProgram *program = findBenchmark(input.name);
        if (program == nullptr) {
            *error = "unknown benchmark program " + input.name;
            return false;
        }
        prepared.push_back(
            prepareProgram(userSources(program->source), config, &cache));
        if (!prepared.back().ok()) {
            *error = input.name + ": " + prepared.back().compileErrors;
            return false;
        }
    }
    for (int w = 0; w < kWarmRuns; w++) {
        for (size_t i = 0; i < inputs.size(); i++) {
            prepared[i].run(inputs[i].args);
            tier_totals(static_cast<ManagedEngine &>(*prepared[i].engine));
        }
    }
    out->setupSeconds = msBetween(options.processStart, Clock::now()) / 1000;

    struct Attempt
    {
        size_t input;
        size_t attempt;
        /// Runs of this program before this one (set-up included).
        size_t runIndex;
        uint64_t steps;
    };
    std::vector<size_t> runs(inputs.size(), kWarmRuns);
    std::vector<Attempt> attempts;
    Ledger ledger;
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    const char *tier_counters[] = {"managed.steps.tier1",
                                   "managed.steps.tier2",
                                   "managed.steps.tier3"};
    double traced_steps = 0;
    double traced_run_ms = 0;
    runRounds(options, {RoundKind::plain, RoundKind::traced}, out,
              [&](RoundKind kind, size_t round) {
        uint64_t before[3];
        for (int t = 0; t < 3; t++)
            before[t] = reg.counter(tier_counters[t]).value();
        std::vector<OpTime> times;
        for (size_t i : roundOrder(inputs.size(), options.seed, round)) {
            const PeakInput &input = inputs[i];
            auto &engine = static_cast<ManagedEngine &>(*prepared[i].engine);
            size_t attempt = ledger.begin();
            OpTimer timer;
            ExecutionResult result;
            {
                Span span("interp.run." + input.name);
                result = engine.run(*prepared[i].module, input.args, "");
            }
            double ms = timer.stop();
            times.push_back({i, ms});
            size_t run_index = runs[i]++;
            attempts.push_back({i, attempt, run_index, engine.executedSteps()});
            tier_totals(engine);
            if (kind == RoundKind::traced) {
                traced_steps += static_cast<double>(engine.executedSteps());
                traced_run_ms += ms;
            }
            ledger.fail(attempt, result.ok()
                                     ? checkPeakOutput(input, run_index,
                                                       result.output)
                                     : input.name + ": " +
                                           result.bug.toString() +
                                           result.terminationDetail);
        }
        if (kind == RoundKind::traced) {
            for (int t = 0; t < 3; t++)
                out->layerValues[std::string("interp.steps.tier") +
                                 std::to_string(t + 1)] +=
                    static_cast<double>(reg.counter(tier_counters[t]).value() -
                                        before[t]);
        }
        return times;
    }, /*rotate=*/true);
    out->peakRssMib = peakRssMib(0);
    if (out->tracedRounds > 0) {
        for (int t = 1; t <= 3; t++)
            out->layerValues["interp.steps.tier" + std::to_string(t)] /=
                out->tracedRounds;
        out->layerValues["interp.steps_per_s"] =
            traced_steps / (traced_run_ms / 1000.0);
    }

    // Verification, outside every metric. A tier-1-only run in a fresh
    // engine prints the reference output (so every warmed output that
    // matched the reference matches tier-1 too), and each warmed run
    // retired the steps of a tier-3-off twin after as many runs.
    ToolConfig tier1 = ToolConfig::make(ToolKind::safeSulong);
    tier1.managed.enableTier2 = false;
    tier1.managed.enableTier3 = false;
    ToolConfig twin = config;
    twin.managed.enableTier3 = false;
    std::vector<std::string> tier1_failure(inputs.size());
    std::vector<std::vector<uint64_t>> twin_steps(inputs.size());
    for (size_t i = 0; i < inputs.size(); i++) {
        const std::string &source = findBenchmark(inputs[i].name)->source;
        PreparedProgram p = prepareProgram(userSources(source), tier1, &cache);
        PeakInput fresh = inputs[i];
        fresh.rerunDigests.clear();
        tier1_failure[i] = checkPeakOutput(fresh, 0, p.run(fresh.args).output);
        PreparedProgram t = prepareProgram(userSources(source), twin, &cache);
        for (size_t r = 0; r < runs[i]; r++) {
            t.run(inputs[i].args);
            twin_steps[i].push_back(
                static_cast<ManagedEngine &>(*t.engine).executedSteps());
        }
    }
    for (const Attempt &a : attempts) {
        ledger.fail(a.attempt, tier1_failure[a.input]);
        ledger.fail(a.attempt,
                    checkTierSteps(inputs[a.input].name, a.steps,
                                   twin_steps[a.input][a.runIndex]));
    }
    ledger.finish(out);
    return true;
}

// --- analyze ---------------------------------------------------------------

struct AnalyzeInput
{
    std::string name;
    std::shared_ptr<const Module> module;
    AnalysisOptions options;
    /// Labelled kind for corpus programs; none for clean programs.
    ErrorKind label = ErrorKind::none;
};

bool
runAnalyze(const Options &options, Outcome *out, std::string *error)
{
    std::vector<FuzzInput> fuzz;
    if (!loadFuzzInputs(options.inputsDir + "/fuzz", &fuzz, error))
        return false;
    const std::vector<CorpusEntry> &corpus = bugCorpus();
    ToolConfig config = ToolConfig::make(ToolKind::safeSulong);
    CompileCache cache;
    std::vector<AnalyzeInput> inputs;
    auto add = [&](const std::string &name, const std::string &source,
                   AnalysisOptions analysis, ErrorKind label) {
        PreparedProgram p = prepareProgram(userSources(source), config, &cache);
        if (!p.ok()) {
            *error = name + ": " + p.compileErrors;
            return false;
        }
        inputs.push_back({name, p.module, std::move(analysis), label});
        return true;
    };
    for (size_t i = 0; i < corpus.size(); i++) {
        AnalysisOptions analysis;
        analysis.replayArgs = corpus[i].args;
        analysis.replayStdin = corpus[i].stdinData;
        ErrorKind label = corpus[i].kind;
        if (options.inject == "corpus-label" && i == 0)
            label = label == ErrorKind::outOfBounds ? ErrorKind::useAfterFree
                                                    : ErrorKind::outOfBounds;
        if (!add(corpus[i].id, corpus[i].source, analysis, label))
            return false;
        // Every 23rd corpus program is analyzed once more with its libc
        // functions included: the abstract interpreter's heavy inputs.
        if (i % 23 == 0) {
            analysis.userCodeOnly = false;
            if (!add(corpus[i].id + "+libc", corpus[i].source, analysis,
                     label))
                return false;
        }
    }
    for (const BenchmarkProgram &program : benchmarkPrograms()) {
        AnalysisOptions analysis;
        analysis.replayArgs = program.args;
        if (!add(program.name, program.source, analysis, ErrorKind::none))
            return false;
    }
    for (const FuzzInput &program : fuzz)
        if (!program.injected() &&
            !add(program.name, program.source, {}, ErrorKind::none))
            return false;
    size_t first_clean = 0;
    while (inputs[first_clean].label != ErrorKind::none)
        first_clean++;
    out->setupSeconds = msBetween(options.processStart, Clock::now()) / 1000;

    Ledger ledger;
    double functions = 0, summaries = 0, solver = 0;
    runRounds(options, {RoundKind::plain, RoundKind::traced}, out,
              [&](RoundKind kind, size_t round) {
        std::vector<OpTime> times;
        for (size_t i : roundOrder(inputs.size(), options.seed, round)) {
            const AnalyzeInput &input = inputs[i];
            size_t attempt = ledger.begin();
            AnalysisReport report;
            OpTimer timer;
            {
                Span span("analysis.module");
                report = analyzeModule(*input.module, input.options);
            }
            times.push_back({i, timer.stop()});
            if (options.inject == "clean-bug" && i == first_clean) {
                StaticFinding planted;
                planted.kind = ErrorKind::outOfBounds;
                planted.confidence = Confidence::definite;
                report.findings.push_back(planted);
            }
            if (kind == RoundKind::traced) {
                functions += report.functionsAnalyzed;
                summaries += report.summariesApplied;
                solver += report.solverChecked;
            }
            ledger.fail(attempt,
                        input.label != ErrorKind::none
                            ? checkAnalysisRecall(input.label, report)
                            : checkAnalysisClean(report));
        }
        return times;
    }, /*rotate=*/true);
    out->peakRssMib = peakRssMib(0);
    if (out->tracedRounds > 0) {
        out->layerValues["analysis.functions"] = functions / out->tracedRounds;
        out->layerValues["analysis.summaries_applied"] =
            summaries / out->tracedRounds;
        out->layerValues["analysis.solver_checked"] =
            solver / out->tracedRounds;
    }
    ledger.finish(out);
    return true;
}

// --- daemon-warm -----------------------------------------------------------

/** The msulongd child process; stopped and reaped on destruction. */
class Daemon
{
  public:
    Daemon() = default;
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    ~Daemon() { stop(); }

    bool
    start(const std::string &binary, const std::string &socket_path,
          std::string *error)
    {
        socket_ = socket_path;
        ::unlink(socket_.c_str());
        std::vector<std::string> args = {binary, "--socket=" + socket_,
                                         "--jobs", "2"};
        std::vector<char *> argv;
        for (std::string &arg : args)
            argv.push_back(arg.data());
        argv.push_back(nullptr);
        // The daemon's stdout joins stderr: stdout carries the result.
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_adddup2(&actions, 2, 1);
        int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                             argv.data(), environ);
        posix_spawn_file_actions_destroy(&actions);
        if (rc != 0) {
            pid_ = -1;
            *error = "cannot start " + binary;
            return false;
        }
        return true;
    }

    /** Connect @p client, retrying while the daemon starts up. */
    bool
    connect(service::ServiceClient &client, std::string *error)
    {
        for (int i = 0; i < 2000; i++) {
            if (client.connect(socket_, error))
                return true;
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                *error = "msulongd exited during start-up";
                return false;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        return false;
    }

    pid_t pid() const { return pid_; }

    /** Ask for a drain (graceful), then make sure the process is gone. */
    void
    stop(service::ServiceClient *client = nullptr)
    {
        if (pid_ < 0)
            return;
        std::string error;
        if (client == nullptr || !client->requestDrain(&error))
            ::kill(pid_, SIGTERM);
        for (int i = 0; i < 1000; i++) {
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        if (pid_ >= 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
            pid_ = -1;
        }
        ::unlink(socket_.c_str());
    }

  private:
    pid_t pid_ = -1;
    std::string socket_;
};

struct DaemonJob
{
    service::JobRequest request;
    /// Labelled kind checked on the reply (Safe Sulong corpus jobs).
    ErrorKind label = ErrorKind::none;
    /// Benchmark program name for the small benchmark runs.
    std::string program;
    /// Its OpTime key: the index of a hot job, or past the hot jobs one
    /// key per program for the unseen jobs.
    size_t key = 0;
};

/** The daemon's own configuration (msulongd defaults, 2 workers). */
service::ServiceConfig
daemonConfig()
{
    service::ServiceConfig config;
    config.workers = 2;
    config.watchdogMs = 10000;
    return config;
}

/** Submit @p request to @p service and wait for its outcome. */
bool
submitAndWait(service::AnalysisService &service, service::JobRequest request,
              service::JobOutcome *outcome)
{
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    service::AdmitStatus status = service.submit(
        std::move(request), [&](const service::JobOutcome &result) {
            std::lock_guard<std::mutex> lock(mutex);
            *outcome = result;
            done = true;
            cv.notify_all();
        });
    if (status != service::AdmitStatus::accepted)
        return false;
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return done; });
    return true;
}

std::string
requestKey(const service::JobRequest &r)
{
    return r.tool + "/" + std::to_string(r.optLevel) + "/" +
        (r.analyze ? "a" : "-") + "/" + r.source;
}

bool
runDaemonWarm(const Options &options, Outcome *out, std::string *error)
{
    std::vector<FuzzInput> fuzz;
    if (!loadFuzzInputs(options.inputsDir + "/fuzz", &fuzz, error))
        return false;
    std::vector<const FuzzInput *> clean;
    for (const FuzzInput &program : fuzz)
        if (!program.injected())
            clean.push_back(&program);
    const std::vector<CorpusEntry> &corpus = bugCorpus();

    // The hot set: 57 jobs over 34 compile-cache stages, which fits the
    // daemon's default 64-stage cache with room for the misses. Most
    // jobs are small benchmark runs (a few ms of engine time each, three
    // of each per round); corpus, fuzz, ASan and Memcheck (-O0 and -O3)
    // and analyze jobs make up the rest.
    static const std::pair<const char *, const char *> kSmallRuns[] = {
        {"fannkuchredux", "5"}, {"fasta", "100"},   {"fastaredux", "1000"},
        {"mandelbrot", "12"},   {"nbody", "50"},    {"spectralnorm", "8"},
        {"whetstone", "5"},     {"binarytrees", "4"}, {"calltower", "500"},
        {"pointerchase", "5"},
    };
    std::vector<DaemonJob> hot;
    auto job = [&](const std::string &tool, const std::string &source,
                   const std::vector<std::string> &args,
                   const std::string &stdin_data, bool analyze,
                   ErrorKind label) {
        DaemonJob j;
        j.request.tenant = "perfbench";
        j.request.tool = tool;
        j.request.source = source;
        j.request.args = args;
        j.request.stdinData = stdin_data;
        j.request.analyze = analyze;
        j.label = label;
        j.key = hot.size();
        hot.push_back(std::move(j));
    };
    for (int copy = 0; copy < 3; copy++) {
        for (const auto &[name, arg] : kSmallRuns) {
            job("safe", findBenchmark(name)->source, {arg}, "", false,
                ErrorKind::none);
            hot.back().program = name;
        }
    }
    for (size_t i = 0; i < 12; i++) {
        const CorpusEntry &e = corpus[i * 5];
        job("safe", e.source, e.args, e.stdinData, false, e.kind);
    }
    for (size_t i = 0; i < 4; i++)
        job("safe", clean[i]->source, {}, "", false, ErrorKind::none);
    for (size_t i = 0; i < 3; i++) {
        const CorpusEntry &e = corpus[1 + i * 5];
        job("asan", e.source, e.args, e.stdinData, false, ErrorKind::none);
        job("memcheck", e.source, e.args, e.stdinData, false,
            ErrorKind::none);
    }
    for (size_t i = 0; i < 3; i++) {
        const CorpusEntry &e = corpus[i * 5];
        job("safe", e.source, e.args, e.stdinData, true, e.kind);
    }
    for (const char *tool : {"asan", "memcheck"}) {
        const CorpusEntry &e = corpus[2];
        job(tool, e.source, e.args, e.stdinData, false, ErrorKind::none);
        hot.back().request.optLevel = 3;
    }
    // One job per round the daemon has never seen: a small benchmark run
    // made unique by a trailing comment, so its compile work is that of
    // the program itself.
    auto miss_job = [&](size_t round) {
        size_t program = round % std::size(kSmallRuns);
        const auto &[name, arg] = kSmallRuns[program];
        DaemonJob j;
        j.key = hot.size() + program;
        j.request.tenant = "perfbench";
        j.request.source = findBenchmark(name)->source + "\n/* perfbench seed " +
            std::to_string(options.seed) + " round " +
            std::to_string(round) + " */\n";
        j.request.args = {arg};
        j.program = name;
        return j;
    };

    Daemon daemon;
    if (!daemon.start(options.daemonPath,
                      options.workDir + "/perfbench-" +
                          std::to_string(::getpid()) + ".sock",
                      error))
        return false;
    service::ServiceClient clients[2];
    for (service::ServiceClient &client : clients)
        if (!daemon.connect(client, error))
            return false;
    for (const DaemonJob &j : hot) {
        service::Frame reply;
        if (!clients[0].submitJob(j.request, &reply, error)) {
            *error = "warm-up job failed: " + *error;
            return false;
        }
    }
    out->setupSeconds = msBetween(options.processStart, Clock::now()) / 1000;

    // The traced build also runs the mix through an in-process service.
    std::unique_ptr<service::AnalysisService> inproc;
    if (options.traced) {
        inproc = std::make_unique<service::AnalysisService>(daemonConfig());
        for (const DaemonJob &j : hot) {
            service::JobOutcome ignored;
            submitAndWait(*inproc, j.request, &ignored);
        }
    }

    struct Reply
    {
        size_t attempt = 0;
        service::JobRequest request;
        ErrorKind label = ErrorKind::none;
        bool resultFrame = false;
        std::string payload;
    };
    std::vector<Reply> replies;
    struct DirectRun
    {
        size_t attempt = 0;
        service::JobRequest request;
        ErrorKind label = ErrorKind::none;
        ExecutionResult result;
    };
    std::vector<DirectRun> direct_runs;
    CompileCache direct_cache;
    direct_cache.setCapacity(daemonConfig().cacheCapacity);
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    const char *tier_counters[] = {"managed.steps.tier1",
                                   "managed.steps.tier2",
                                   "managed.steps.tier3"};
    double direct_steps = 0;
    double direct_run_ms = 0;
    size_t direct_rounds = 0;
    std::mutex replies_mutex;
    Ledger ledger;

    runRounds(options,
              {RoundKind::plain, RoundKind::traced, RoundKind::service,
               RoundKind::direct},
              out, [&](RoundKind kind, size_t round) {
        std::vector<DaemonJob> jobs;
        for (size_t i : roundOrder(hot.size(), options.seed, round))
            jobs.push_back(hot[i]);
        std::mt19937_64 rng(options.seed + round);
        jobs.insert(jobs.begin() + static_cast<long>(rng() % (jobs.size() + 1)),
                    miss_job(round));

        std::vector<OpTime> times(jobs.size());
        for (size_t k = 0; k < jobs.size(); k++)
            times[k].key = jobs[k].key;
        if (kind == RoundKind::direct) {
            uint64_t before[3];
            for (int t = 0; t < 3; t++)
                before[t] = reg.counter(tier_counters[t]).value();
            for (size_t k = 0; k < jobs.size(); k++) {
                const service::JobRequest &r = jobs[k].request;
                size_t attempt = ledger.begin();
                ToolKind tool = ToolKind::safeSulong;
                service::toolFromName(r.tool, &tool);
                ExecutionResult result;
                OpTimer timer;
                PreparedProgram p =
                    prepareProgram(userSources(r.source),
                                   ToolConfig::make(tool, r.optLevel),
                                   &direct_cache);
                Clock::time_point run_start = Clock::now();
                {
                    Span span(jobs[k].program.empty()
                                  ? std::string(engineSpanName(tool))
                                  : "interp.run." + jobs[k].program);
                    result = p.run(r.args, r.stdinData);
                }
                double run_ms = msBetween(run_start, Clock::now());
                if (r.analyze) {
                    AnalysisOptions analysis;
                    analysis.replayArgs = r.args;
                    analysis.replayStdin = r.stdinData;
                    Span span("analysis.module");
                    analyzeModule(*p.module, analysis);
                }
                times[k].ms = timer.stop();
                if (auto *managed = dynamic_cast<ManagedEngine *>(p.engine.get())) {
                    const ManagedTelemetry &t = managed->telemetry();
                    out->layerValues["interp.tier2_compiles"] += t.tier2Compiles;
                    out->layerValues["interp.tier3_compiles"] += t.t3Compiles;
                    out->layerValues["interp.osr_entries"] += t.t3OsrEntries;
                    out->layerValues["interp.deopts"] += t.t3DeoptMega +
                        t.t3DeoptShape + t.t3DeoptSteps + t.t3DeoptBug;
                    direct_steps += static_cast<double>(managed->executedSteps());
                    direct_run_ms += run_ms;
                }
                direct_runs.push_back({attempt, r, jobs[k].label, result});
            }
            for (int t = 0; t < 3; t++)
                out->layerValues[std::string("interp.steps.tier") +
                                 std::to_string(t + 1)] +=
                    static_cast<double>(reg.counter(tier_counters[t]).value() -
                                        before[t]);
            direct_rounds++;
            return times;
        }
        if (kind == RoundKind::service) {
            // In-process: decode, submit, wait, encode — the daemon's
            // per-job path without the socket.
            for (size_t k = 0; k < jobs.size(); k++) {
                size_t attempt = ledger.begin();
                OpTimer timer("op.service");
                obs::JsonValue doc;
                service::JobRequest decoded;
                std::string why;
                obs::parseJson(service::encodeJobRequest(jobs[k].request),
                               &doc);
                service::decodeJobRequest(doc, &decoded, &why);
                service::JobOutcome outcome;
                {
                    Span span("service.job");
                    submitAndWait(*inproc, decoded, &outcome);
                }
                std::string payload = service::encodeJobResponse(outcome);
                times[k].ms = timer.stop();
                std::lock_guard<std::mutex> lock(replies_mutex);
                replies.push_back({attempt, jobs[k].request, jobs[k].label,
                                   true, payload});
            }
            return times;
        }

        std::atomic<size_t> next{0};
        auto drive = [&](int c) {
            for (size_t k; (k = next.fetch_add(1)) < jobs.size();) {
                size_t attempt = ledger.begin();
                service::Frame reply;
                std::string why;
                bool sent;
                OpTimer timer;
                {
                    Span span("service.rtt");
                    sent = clients[c].submitJob(jobs[k].request, &reply, &why);
                }
                times[k].ms = timer.stop();
                if (kind == RoundKind::traced && c == 0 && k % 10 == 0) {
                    obs::JsonValue health;
                    Span span("server.health_rtt");
                    clients[c].health(&health, &why);
                }
                if (!sent) {
                    ledger.fail(attempt, "transport: " + why);
                    continue;
                }
                std::lock_guard<std::mutex> lock(replies_mutex);
                replies.push_back({attempt, jobs[k].request, jobs[k].label,
                                   reply.type ==
                                       service::FrameType::jobResponse,
                                   std::move(reply.payload)});
            }
        };
        std::thread second(drive, 1);
        drive(0);
        second.join();
        return times;
    });
    out->concurrency = std::size(clients);
    out->peakRssMib = peakRssMib(daemon.pid());
    daemon.stop(&clients[0]);
    if (direct_rounds > 0) {
        for (int t = 1; t <= 3; t++)
            out->layerValues["interp.steps.tier" + std::to_string(t)] /=
                direct_rounds;
        out->layerValues["interp.steps_per_s"] =
            direct_steps / (direct_run_ms / 1000.0);
    }

    // Verification, outside every metric: run every distinct job once
    // through the library (an in-process AnalysisService configured as
    // the daemon) and compare each reply with it byte for byte.
    service::AnalysisService library(daemonConfig());
    std::map<std::string, service::JobOutcome> expected;
    auto expectedFor = [&](const service::JobRequest &request) {
        std::string key = requestKey(request);
        auto it = expected.find(key);
        if (it == expected.end()) {
            service::JobOutcome outcome;
            if (!submitAndWait(library, request, &outcome))
                return static_cast<const service::JobOutcome *>(nullptr);
            it = expected.emplace(key, std::move(outcome)).first;
        }
        return static_cast<const service::JobOutcome *>(&it->second);
    };
    for (const DirectRun &d : direct_runs) {
        const service::JobOutcome *want = expectedFor(d.request);
        ledger.fail(d.attempt,
                    want == nullptr ? "library refused the job"
                                    : checkDirectRun(d.result, want->result,
                                                     d.label));
    }
    if (options.inject == "daemon-payload" && !replies.empty())
        replies[0].payload += " ";
    for (const Reply &r : replies) {
        const service::JobOutcome *want = expectedFor(r.request);
        if (want == nullptr) {
            ledger.fail(r.attempt, "library refused the job");
            continue;
        }
        obs::JsonValue doc;
        uint64_t id = obs::parseJson(r.payload, &doc) ? doc.uintAt("id") : 0;
        service::JobOutcome outcome = *want;
        outcome.id = id;
        ledger.fail(r.attempt,
                    checkDaemonReply(r.resultFrame, r.payload,
                                     service::encodeJobResponse(outcome),
                                     r.label));
    }
    ledger.finish(out);
    return true;
}

} // namespace

bool
runWorkload(const Options &options, Outcome *outcome, std::string *error)
{
    // The traced build records set-up too (its spans count in per-call
    // medians, never in op shares); rounds switch recording per round.
    setTracing(options.traced);
    if (options.workload == "matrix-cold")
        return runMatrixCold(options, outcome, error);
    if (options.workload == "peak-exec")
        return runPeakExec(options, outcome, error);
    if (options.workload == "analyze")
        return runAnalyze(options, outcome, error);
    if (options.workload == "daemon-warm")
        return runDaemonWarm(options, outcome, error);
    *error = "unknown workload '" + options.workload + "'";
    return false;
}

} // namespace perfbench
