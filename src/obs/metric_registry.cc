#include "obs/metric_registry.h"

#include "common/logging.h"

namespace pmnet::obs {

MetricRegistry::Entry *
MetricRegistry::findEntry(std::string_view path)
{
    auto it = index_.find(path);
    return it == index_.end() ? nullptr : &entries_[it->second];
}

const MetricRegistry::Entry *
MetricRegistry::findEntry(std::string_view path) const
{
    auto it = index_.find(path);
    return it == index_.end() ? nullptr : &entries_[it->second];
}

MetricRegistry::Entry &
MetricRegistry::addEntry(std::string_view path)
{
    if (path.empty())
        fatal("MetricRegistry: empty metric path");
    Entry entry;
    entry.path = std::string(path);
    entries_.push_back(std::move(entry));
    index_.emplace(entries_.back().path, entries_.size() - 1);
    return entries_.back();
}

void
MetricRegistry::attach(std::string_view path, Counter &external)
{
    Entry *entry = findEntry(path);
    if (entry && !entry->counter)
        fatal("MetricRegistry: '%s' is already a probe",
              entry->path.c_str());
    if (!entry)
        entry = &addEntry(path);
    entry->counter = &external;
}

void
MetricRegistry::probe(std::string_view path, ProbeFn fn)
{
    Entry *entry = findEntry(path);
    if (entry && entry->counter)
        fatal("MetricRegistry: '%s' is already a counter",
              entry->path.c_str());
    if (!entry)
        entry = &addEntry(path);
    entry->probe = std::move(fn);
}

std::uint64_t
MetricRegistry::value(std::string_view path) const
{
    const Entry *entry = findEntry(path);
    return entry && entry->counter ? entry->counter->get() : 0;
}

bool
MetricRegistry::contains(std::string_view path) const
{
    return findEntry(path) != nullptr;
}

Json
latencySummaryJson(const Histogram &latency)
{
    Json out = Json::object();
    out.set("count", latency.count());
    if (!latency.empty()) {
        out.set("mean_ns", latency.mean());
        out.set("p50_ns", latency.percentile(50));
        out.set("p99_ns", latency.percentile(99));
        out.set("max_ns", latency.max());
    }
    return out;
}

Json
MetricRegistry::toJson() const
{
    Json root = Json::object();
    for (const Entry &entry : entries_) {
        // Walk/create the nested objects for each dotted segment.
        Json *node = &root;
        std::string_view rest = entry.path;
        for (std::size_t dot = rest.find('.'); dot != std::string_view::npos;
             dot = rest.find('.')) {
            std::string_view segment = rest.substr(0, dot);
            rest.remove_prefix(dot + 1);
            Json *child = node->find(segment);
            if (!child) {
                node->set(segment, Json::object());
                child = node->find(segment);
            }
            if (!child->isObject()) {
                // A scalar already claimed this segment; flatten the
                // remainder under the scalar's parent instead of
                // silently dropping the metric.
                break;
            }
            node = child;
        }
        Json leaf;
        if (entry.counter)
            leaf = Json(entry.counter->get());
        else if (entry.probe)
            leaf = entry.probe();
        node->set(rest, std::move(leaf));
    }
    return root;
}

} // namespace pmnet::obs
