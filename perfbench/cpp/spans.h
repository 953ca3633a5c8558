/**
 * @file
 * The benchmark's own span recorder.
 *
 * A Span times one call into a MiniSulong layer (or one whole op) with
 * std::chrono::steady_clock. Spans nest per thread: each closed span
 * knows its parent on the same thread, and its self time is its
 * duration minus the time its child spans cover. Spans are kept in
 * memory and written out once, when the run ends.
 *
 * Recording is off unless setRecording(true) was called, so the
 * untraced end-to-end run pays one predictable branch per span.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Milliseconds between two clock readings. */
inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** One closed span. */
struct SpanRecord
{
    std::string name;
    uint32_t thread = 0;
    /// Start, relative to the recorder's epoch.
    double startMs = 0;
    double durMs = 0;
    /// durMs minus the durations of its direct children.
    double selfMs = 0;
    /// Index of the enclosing op (-1 outside any op, e.g. set-up).
    int64_t op = -1;
    /// Round the span was recorded in (-1: set-up or verification).
    int64_t round = -1;
    /// A whole op rather than a layer call.
    bool isOp = false;
};

/** A numeric sample attached to a layer call (e.g. IR size). */
struct CountRecord
{
    std::string name;
    double value = 0;
};

void setRecording(bool on);
bool recording();

/** Label spans recorded from now on with @p round (-1 outside rounds). */
void setRound(int64_t round);

/** Everything recorded so far, across threads (call when quiescent). */
std::vector<SpanRecord> recordedSpans();
std::vector<CountRecord> recordedCounts();

/** Record a count sample (only while recording). */
void recordCount(const std::string &name, double value);

/**
 * RAII span. A span opened while recording is off stays inert even if
 * recording is switched on before it closes.
 */
class Span
{
  public:
    explicit Span(const char *name, bool is_op = false);
    explicit Span(std::string name, bool is_op = false);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Rename before closing (e.g. a cache lookup found to be a hit). */
    void rename(std::string name) { name_ = std::move(name); }

  private:
    void open(bool is_op);

    std::string name_;
    bool active_ = false;
    bool isOp_ = false;
    Clock::time_point start_;
    double childMs_ = 0;
    Span *parent_ = nullptr;
    int64_t op_ = -1;
};

/** Write the spans as a Chrome trace-event document. */
bool writeChromeTrace(const std::string &path,
                      const std::vector<SpanRecord> &spans,
                      std::string *error);

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
