#include "spans.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

namespace {

/** Small, stable per-thread index for the trace's tid field. */
std::uint32_t
threadIndex()
{
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t mine = next.fetch_add(1);
    return mine;
}

}  // namespace

std::size_t
SpanLane::open(const char *name)
{
    Span s;
    s.name = name;
    s.id = (static_cast<std::uint64_t>(index_) << 40) | (spans_.size() + 1);
    s.parent = stack_.empty() ? rootParent_ : spans_[stack_.back()].id;
    s.run = run_;
    s.thread = threadIndex();
    s.start = hostNowNs();
    spans_.push_back(s);
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
}

void
SpanLane::close(std::size_t slot)
{
    spans_[slot].end = hostNowNs();
    stack_.pop_back();
}

SpanRecorder::SpanRecorder(std::size_t lanes)
{
    lanes_.reserve(lanes);
    for (std::size_t i = 0; i < lanes; ++i)
        lanes_.emplace_back(static_cast<std::uint32_t>(i));
}

void
SpanRecorder::beginRun(std::uint32_t run)
{
    for (auto &lane : lanes_) {
        lane.setRun(run);
        lane.setRootParent(0);
    }
}

std::vector<Span>
SpanRecorder::runSpans(std::uint32_t run) const
{
    std::vector<Span> out;
    for (const auto &lane : lanes_) {
        for (const Span &s : lane.spans()) {
            if (s.run == run)
                out.push_back(s);
        }
    }
    return out;
}

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::int64_t origin = INT64_MAX;
    for (const auto &lane : lanes_) {
        for (const Span &s : lane.spans())
            origin = std::min(origin, s.start);
    }
    std::fputs("{\"traceEvents\":[", f);
    bool first = true;
    for (const auto &lane : lanes_) {
        for (const Span &s : lane.spans()) {
            std::fprintf(f,
                         "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%u,"
                         "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                         "\"args\":{\"id\":%llu,\"parent\":%llu}}",
                         first ? "" : ",", s.name, s.run, s.thread,
                         static_cast<double>(s.start - origin) / 1e3,
                         static_cast<double>(s.end - s.start) / 1e3,
                         static_cast<unsigned long long>(s.id),
                         static_cast<unsigned long long>(s.parent));
            first = false;
        }
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
}

std::map<std::string, SpanTotal>
selfTimes(const std::vector<Span> &spans)
{
    std::unordered_map<std::uint64_t, std::vector<const Span *>> children;
    for (const Span &s : spans) {
        if (s.parent != 0)
            children[s.parent].push_back(&s);
    }
    std::map<std::string, SpanTotal> out;
    for (const Span &s : spans) {
        // Union of the children's intervals, clipped to the parent.
        std::vector<std::pair<std::int64_t, std::int64_t>> iv;
        if (auto it = children.find(s.id); it != children.end()) {
            for (const Span *c : it->second)
                iv.emplace_back(std::max(c->start, s.start),
                                std::min(c->end, s.end));
        }
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0, reach = s.start;
        for (const auto &[b, e] : iv) {
            const std::int64_t from = std::max(b, reach);
            if (e > from) {
                covered += e - from;
                reach = e;
            }
        }
        SpanTotal &t = out[s.name];
        t.selfS += static_cast<double>(s.end - s.start - covered) / 1e9;
        ++t.calls;
    }
    return out;
}

}  // namespace perfbench
