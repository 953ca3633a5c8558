/**
 * @file
 * The four workloads. Each runs whole rounds over its fixed inputs (in
 * an order drawn from the seed) until the requested time has passed,
 * then verifies what it saw.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench
{

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    /// The traced build alternates untraced and traced rounds.
    bool traced = false;
    /// Self-test fault: "peak-ref", "corpus-label", "clean-bug" or
    /// "daemon-payload" (empty in real runs; see perfbench/selftest.py).
    std::string inject;
    /// perfbench/inputs.
    std::string inputsDir;
    /// The msulongd binary (daemon-warm only).
    std::string daemonPath;
    /// Where the daemon socket and the span dump go.
    std::string workDir;
    /// When the process started (set-up is timed from here).
    Clock::time_point processStart;
    /// Called at the start of every traced round (traced build only).
    void (*onTracedRound)() = nullptr;
};

/** One timed op. @c key names what the op did (which input, in which
 *  role) and is the same for the same work in every round. */
struct OpTime
{
    size_t key = 0;
    double ms = 0;
};

struct Outcome
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /// The first few failure reasons, for stderr.
    std::vector<std::string> failures;

    double setupSeconds = 0;
    /// The ops of each untraced round.
    std::vector<std::vector<OpTime>> plainRounds;
    /// Ops the workload keeps in flight at once (its closed loop's
    /// connections).
    unsigned concurrency = 1;
    /// Op times of traced rounds (tracing overhead).
    std::vector<double> tracedOpMs;
    unsigned tracedRounds = 0;
    double peakRssMib = 0;
    /// Per-layer values the workload computes itself (tier counters).
    std::map<std::string, double> layerValues;
};

/** Run @p options.workload; returns false on an unknown workload or a
 *  set-up failure (with @p error set). */
bool runWorkload(const Options &options, Outcome *outcome,
                 std::string *error);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
