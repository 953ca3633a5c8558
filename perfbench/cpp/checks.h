/**
 * @file
 * The correctness checks, one function per property. Each returns an
 * empty string when the property holds and a one-line reason when it
 * does not; a failing check makes its op count as failed.
 *
 * References come from outside the program under test: corpus labels,
 * the fuzz mutator's recorded ground truth, the paper's Section 4.1
 * figures, Python reference outputs, or properties the method must
 * have (configurations agree on clean programs; warmed tiers retire the
 * same steps as the tier-1 interpreter; the daemon answers exactly what
 * the library computes).
 */

#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include <string>
#include <vector>

#include "analysis/finding.h"
#include "corpus/corpus.h"
#include "inputs.h"
#include "support/error.h"

namespace perfbench
{

/// Indices into sulong::evaluationToolMatrix().
enum MatrixColumn
{
    kSafeSulong = 0,
    kAsanO0 = 1,
    kAsanO3 = 2,
    kMemcheckO0 = 3,
    kMemcheckO3 = 4,
    kMatrixColumns = 5,
};

/** Which configurations detected one corpus entry's labelled bug. */
struct CorpusVerdict
{
    bool detected[kMatrixColumns] = {};
};

/**
 * One corpus program through the five configurations: Safe Sulong
 * reports the labelled kind, and an ASan -O3 hit is also an -O0 hit.
 */
std::string checkCorpusOp(const sulong::CorpusEntry &entry,
                          const std::vector<sulong::ExecutionResult> &results,
                          CorpusVerdict *verdict);

/**
 * The Section 4.1 figures over one whole round of the corpus: ASan -O0
 * finds 60, ASan -O3 finds 56, and 8 are found only by Safe Sulong.
 */
std::string checkSection41(const std::vector<CorpusVerdict> &verdicts);

/** An injected fuzz bug: Safe Sulong reports the recorded kind. */
std::string checkInjectedOp(sulong::ErrorKind recorded,
                            const std::vector<sulong::ExecutionResult> &results);

/** A clean program: no configuration reports a bug or stops early,
 *  and all print identical output and exit code. */
std::string checkCleanOp(const std::vector<sulong::ExecutionResult> &results);

/**
 * A peak-exec run against its reference: the fresh-process output, or,
 * for a program whose globals carry over between runs, the digest of
 * run number @p run_index.
 */
std::string checkPeakOutput(const PeakInput &input, size_t run_index,
                            const std::string &actual);

/**
 * A warmed run retired exactly the steps of its twin: the same program
 * with tier-3 off, after the same number of earlier runs. (Tier-2
 * charges one step per dispatched, possibly fused, instruction, so a
 * tier-1 run retires more steps than a warmed one; tier-3 must charge
 * exactly like tier-2.)
 */
std::string checkTierSteps(const std::string &name, uint64_t steps,
                           uint64_t twin_steps);

/** analyze on a corpus program: some finding has the labelled kind. */
std::string checkAnalysisRecall(sulong::ErrorKind label,
                                const sulong::AnalysisReport &report);

/** analyze on a clean program: no definite finding. */
std::string checkAnalysisClean(const sulong::AnalysisReport &report);

/**
 * A daemon reply: a result frame whose payload equals, byte for byte,
 * @p expected (the library's payload for the same job and reply id),
 * and, for corpus jobs (@p label != none), names the labelled kind.
 */
std::string checkDaemonReply(bool is_result_frame, const std::string &payload,
                             const std::string &expected,
                             sulong::ErrorKind label);

/**
 * A daemon-warm job run in-process through the library's entry points:
 * same output, exit code, termination and bug kind as the library's
 * service path, and the labelled kind for Safe Sulong corpus jobs.
 */
std::string checkDirectRun(const sulong::ExecutionResult &actual,
                           const sulong::ExecutionResult &expected,
                           sulong::ErrorKind label);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_H
