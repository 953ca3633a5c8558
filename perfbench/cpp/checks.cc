#include "checks.h"

#include "corpus/harness.h"
#include "obs/json.h"

namespace perfbench
{

using namespace sulong;

std::string
checkCorpusOp(const CorpusEntry &entry,
              const std::vector<ExecutionResult> &results,
              CorpusVerdict *verdict)
{
    if (results.size() != kMatrixColumns)
        return "expected one result per matrix configuration";
    for (int c = 0; c < kMatrixColumns; c++)
        verdict->detected[c] = classifyOutcome(entry, results[c]).detected;
    if (!verdict->detected[kSafeSulong])
        return entry.id + ": Safe Sulong reported '" +
            errorKindName(results[kSafeSulong].bug.kind) +
            "', label is '" + errorKindName(entry.kind) + "'";
    if (verdict->detected[kAsanO3] && !verdict->detected[kAsanO0])
        return entry.id + ": found by ASan -O3 but not by ASan -O0";
    return "";
}

std::string
checkSection41(const std::vector<CorpusVerdict> &verdicts)
{
    unsigned asan_o0 = 0;
    unsigned asan_o3 = 0;
    unsigned only_safe = 0;
    for (const CorpusVerdict &v : verdicts) {
        asan_o0 += v.detected[kAsanO0] ? 1 : 0;
        asan_o3 += v.detected[kAsanO3] ? 1 : 0;
        bool elsewhere = false;
        for (int c = 1; c < kMatrixColumns; c++)
            elsewhere = elsewhere || v.detected[c];
        only_safe += v.detected[kSafeSulong] && !elsewhere ? 1 : 0;
    }
    if (asan_o0 != 60 || asan_o3 != 56 || only_safe != 8)
        return "Section 4.1 figures: ASan -O0 " + std::to_string(asan_o0) +
            " (paper 60), ASan -O3 " + std::to_string(asan_o3) +
            " (paper 56), only Safe Sulong " + std::to_string(only_safe) +
            " (paper 8)";
    return "";
}

std::string
checkInjectedOp(ErrorKind recorded, const std::vector<ExecutionResult> &results)
{
    const ExecutionResult &safe = results.at(kSafeSulong);
    if (safe.bug.kind != recorded)
        return std::string("Safe Sulong reported '") +
            errorKindName(safe.bug.kind) + "', the mutator recorded '" +
            errorKindName(recorded) + "'";
    return "";
}

std::string
checkCleanOp(const std::vector<ExecutionResult> &results)
{
    for (size_t c = 0; c < results.size(); c++) {
        if (!results[c].ok())
            return "configuration " + std::to_string(c) +
                " reported a bug on a clean program: " +
                results[c].bug.toString() + results[c].terminationDetail;
        if (results[c].output != results[0].output ||
            results[c].exitCode != results[0].exitCode)
            return "configuration " + std::to_string(c) +
                " disagrees with Safe Sulong on output or exit code";
    }
    return "";
}

std::string
checkPeakOutput(const PeakInput &input, size_t run_index,
                const std::string &actual)
{
    if (input.rerunDigests.empty()) {
        if (actual != input.expected)
            return input.name + ": output differs from the reference (got '" +
                actual.substr(0, 60) + "')";
        return "";
    }
    if (run_index >= input.rerunDigests.size())
        return input.name + ": no reference for run " +
            std::to_string(run_index);
    if (fnv1a64Hex(actual) != input.rerunDigests[run_index])
        return input.name + ": run " + std::to_string(run_index) +
            " differs from the reference";
    return "";
}

std::string
checkTierSteps(const std::string &name, uint64_t steps, uint64_t twin_steps)
{
    if (steps != twin_steps)
        return name + ": warmed run retired " + std::to_string(steps) +
            " steps, its tier-3-off twin " + std::to_string(twin_steps);
    return "";
}

std::string
checkAnalysisRecall(ErrorKind label, const AnalysisReport &report)
{
    for (const StaticFinding &finding : report.findings)
        if (finding.kind == label)
            return "";
    return std::string("no finding of the labelled kind '") +
        errorKindName(label) + "'";
}

std::string
checkAnalysisClean(const AnalysisReport &report)
{
    for (const StaticFinding &finding : report.findings)
        if (finding.confidence == Confidence::definite)
            return "definite finding on a clean program: " +
                finding.toString();
    return "";
}

std::string
checkDaemonReply(bool is_result_frame, const std::string &payload,
                 const std::string &expected, ErrorKind label)
{
    if (!is_result_frame)
        return "reply is not a result frame: " + payload;
    if (payload != expected)
        return "reply payload differs from the library's payload";
    if (label == ErrorKind::none)
        return "";
    obs::JsonValue doc;
    if (!obs::parseJson(payload, &doc))
        return "reply payload is not JSON";
    const obs::JsonValue *bug = doc.find("bug");
    std::string kind = bug != nullptr ? bug->stringAt("kind") : "none";
    if (kind != errorKindName(label))
        return "reply names '" + kind + "', label is '" +
            errorKindName(label) + "'";
    return "";
}

std::string
checkDirectRun(const ExecutionResult &actual, const ExecutionResult &expected,
               ErrorKind label)
{
    if (actual.output != expected.output ||
        actual.exitCode != expected.exitCode ||
        actual.termination != expected.termination ||
        actual.bug.kind != expected.bug.kind)
        return "in-process run differs from the service's result";
    if (label != ErrorKind::none && actual.bug.kind != label)
        return std::string("in-process run reported '") +
            errorKindName(actual.bug.kind) + "', label is '" +
            errorKindName(label) + "'";
    return "";
}

} // namespace perfbench
