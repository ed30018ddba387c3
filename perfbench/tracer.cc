#include "tracer.h"

#include "host.h"

namespace perfbench {

Tracer::Tracer(bool enabled, std::string thread)
    : enabled_(enabled), thread_(std::move(thread))
{
}

std::uint64_t
Tracer::begin(const char *name)
{
    if (!enabled_)
        return 0;
    std::uint64_t parent = stack_.empty() ? 0 : stack_.back().id;
    std::uint64_t id = nextId_++;
    stack_.push_back(Open{id, name, wallNs(), 0, parent});
    return id;
}

void
Tracer::end(std::uint64_t id, std::int64_t cpu_ns)
{
    if (!enabled_ || stack_.empty() || stack_.back().id != id)
        return;
    Open open = stack_.back();
    stack_.pop_back();
    std::int64_t now = wallNs();
    std::int64_t duration = now - open.start;
    if (!stack_.empty())
        stack_.back().childNs += duration;
    aggregate(open.name, duration, duration - open.childNs, cpu_ns);
    retain(Record{open.name, open.start, now, open.id, open.parent, 0,
                  cpu_ns});
}

void
Tracer::async(const char *name, std::int64_t start_ns, std::int64_t end_ns,
              std::uint64_t request)
{
    if (!enabled_)
        return;
    std::int64_t duration = end_ns - start_ns;
    aggregate(name, duration, duration, -1);
    retain(Record{name, start_ns, end_ns, nextId_++, 0, request, -1});
}

void
Tracer::aggregate(const char *name, std::int64_t duration,
                  std::int64_t self, std::int64_t cpu_ns)
{
    Aggregate &agg = aggregates_[name];
    agg.count++;
    agg.totalNs += duration;
    agg.selfNs += self;
    if (cpu_ns >= 0)
        agg.cpuNs += cpu_ns;
}

void
Tracer::retain(const Record &record)
{
    if (records_.size() < kKeep)
        records_.push_back(record);
    else
        dropped_++;
}

void
Tracer::writeRecords(std::FILE *out) const
{
    for (const Record &r : records_) {
        std::fprintf(out,
                     "{\"thread\":\"%s\",\"name\":\"%s\",\"id\":%llu,"
                     "\"parent\":%llu,\"request\":%llu,\"start_ns\":%lld,"
                     "\"end_ns\":%lld,\"cpu_ns\":%lld}\n",
                     thread_.c_str(), r.name,
                     static_cast<unsigned long long>(r.id),
                     static_cast<unsigned long long>(r.parent),
                     static_cast<unsigned long long>(r.request),
                     static_cast<long long>(r.start),
                     static_cast<long long>(r.end),
                     static_cast<long long>(r.cpuNs));
    }
}

void
Tracer::writeSummary(std::FILE *out) const
{
    for (const auto &[name, agg] : aggregates_) {
        std::fprintf(out,
                     "{\"summary\":\"%s\",\"thread\":\"%s\",\"count\":%llu,"
                     "\"total_ns\":%lld,\"self_ns\":%lld,\"cpu_ns\":%lld}\n",
                     name.c_str(), thread_.c_str(),
                     static_cast<unsigned long long>(agg.count),
                     static_cast<long long>(agg.totalNs),
                     static_cast<long long>(agg.selfNs),
                     static_cast<long long>(agg.cpuNs));
    }
    std::fprintf(out, "{\"thread\":\"%s\",\"dropped\":%llu}\n",
                 thread_.c_str(), static_cast<unsigned long long>(dropped_));
}

} // namespace perfbench
