#include "spans.h"

#include <atomic>
#include <cstdio>
#include <mutex>

namespace perfbench
{

namespace
{

std::atomic<bool> g_recording{false};
const Clock::time_point g_epoch = Clock::now();

std::mutex g_mutex;
std::vector<SpanRecord> g_spans;
std::vector<CountRecord> g_counts;
std::atomic<uint32_t> g_nextThread{0};
std::atomic<int64_t> g_nextOp{0};
std::atomic<int64_t> g_round{-1};

struct ThreadState
{
    uint32_t id = g_nextThread.fetch_add(1);
    Span *top = nullptr;
    int64_t op = -1;
};

ThreadState &
threadState()
{
    thread_local ThreadState state;
    return state;
}

} // namespace

void
setRecording(bool on)
{
    g_recording.store(on, std::memory_order_relaxed);
}

bool
recording()
{
    return g_recording.load(std::memory_order_relaxed);
}

void
setRound(int64_t round)
{
    g_round.store(round, std::memory_order_relaxed);
}

std::vector<SpanRecord>
recordedSpans()
{
    std::lock_guard<std::mutex> lock(g_mutex);
    return g_spans;
}

std::vector<CountRecord>
recordedCounts()
{
    std::lock_guard<std::mutex> lock(g_mutex);
    return g_counts;
}

void
recordCount(const std::string &name, double value)
{
    if (!recording())
        return;
    std::lock_guard<std::mutex> lock(g_mutex);
    g_counts.push_back({name, value});
}

Span::Span(const char *name, bool is_op) : name_(name)
{
    open(is_op);
}

Span::Span(std::string name, bool is_op) : name_(std::move(name))
{
    open(is_op);
}

void
Span::open(bool is_op)
{
    if (!recording())
        return;
    ThreadState &state = threadState();
    active_ = true;
    isOp_ = is_op;
    parent_ = state.top;
    state.top = this;
    if (is_op)
        state.op = g_nextOp.fetch_add(1);
    op_ = state.op;
    start_ = Clock::now();
}

Span::~Span()
{
    if (!active_)
        return;
    Clock::time_point end = Clock::now();
    ThreadState &state = threadState();
    double dur = msBetween(start_, end);
    if (parent_ != nullptr)
        parent_->childMs_ += dur;
    state.top = parent_;
    if (isOp_)
        state.op = -1;

    SpanRecord record;
    record.name = std::move(name_);
    record.thread = state.id;
    record.startMs = msBetween(g_epoch, start_);
    record.durMs = dur;
    record.selfMs = dur - childMs_;
    record.op = op_;
    record.round = g_round.load(std::memory_order_relaxed);
    record.isOp = isOp_;
    std::lock_guard<std::mutex> lock(g_mutex);
    g_spans.push_back(std::move(record));
}

bool
writeChromeTrace(const std::string &path,
                 const std::vector<SpanRecord> &spans, std::string *error)
{
    FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
        *error = "cannot open " + path;
        return false;
    }
    std::fprintf(out, "{\"traceEvents\":[");
    for (size_t i = 0; i < spans.size(); i++) {
        const SpanRecord &s = spans[i];
        // Span names are fixed identifiers and program names: no
        // character needs JSON escaping.
        std::fprintf(out,
                     "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"self_ms\":%.6f,\"op\":%lld}}",
                     i == 0 ? "" : ",", s.name.c_str(),
                     s.isOp ? "op" : "layer", s.thread, s.startMs * 1000.0,
                     s.durMs * 1000.0, s.selfMs,
                     static_cast<long long>(s.op));
    }
    std::fprintf(out, "\n]}\n");
    if (std::fclose(out) != 0) {
        *error = "cannot write " + path;
        return false;
    }
    return true;
}

} // namespace perfbench
