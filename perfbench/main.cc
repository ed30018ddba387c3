/**
 * @file
 * pmnet_perf — one benchmark run of one workload.
 *
 *   pmnet_perf --workload NAME --seed N --seconds S [--trace 0|1]
 *              [--work-dir DIR] [--corrupt-readback]
 *
 * Prints one JSON line: correct, attempted, failed, every metric with
 * its unit, the run context and the first failure reasons. run.py
 * builds this binary and turns that line into the benchmark result.
 */

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "bench.h"
#include "host.h"
#include "tracer.h"

namespace perfbench {

void
Report::set(const std::string &name, double value, const std::string &unit)
{
    metrics_[name] = Metric{value, unit};
}

void
Report::notApplicable(
    const std::vector<std::pair<std::string, std::string>> &names_and_units)
{
    for (const auto &[name, unit] : names_and_units)
        set(name, 0.0, unit);
}

void
Report::fail(const std::string &reason)
{
    failed_++;
    if (failures_.size() < 20)
        failures_.push_back(reason);
}

void
Report::context(const std::string &key, const std::string &value)
{
    context_[key] = "\"" + value + "\"";
}

void
Report::context(const std::string &key, double value)
{
    char text[64];
    std::snprintf(text, sizeof(text), "%.17g", value);
    context_[key] = text;
}

void
Report::print(std::FILE *out) const
{
    std::fprintf(out, "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,",
                 failed_ == 0 && attempted > 0 ? "true" : "false",
                 static_cast<unsigned long long>(attempted),
                 static_cast<unsigned long long>(failed_));
    std::fprintf(out, "\"metrics\":{");
    const char *sep = "";
    for (const auto &[name, metric] : metrics_) {
        double value = std::isfinite(metric.value) ? metric.value : 0.0;
        std::fprintf(out, "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", sep,
                     name.c_str(), value, metric.unit.c_str());
        sep = ",";
    }
    std::fprintf(out, "},\"context\":{");
    sep = "";
    for (const auto &[key, value] : context_) {
        std::fprintf(out, "%s\"%s\":%s", sep, key.c_str(), value.c_str());
        sep = ",";
    }
    std::fprintf(out, "},\"failures\":[");
    sep = "";
    for (const std::string &reason : failures_) {
        std::fprintf(out, "%s\"%s\"", sep, reason.c_str());
        sep = ",";
    }
    std::fprintf(out, "]}\n");
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double pos = q * static_cast<double>(values.size() - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double
perOp(double count, double ops)
{
    return ops > 0 ? count / ops : 0.0;
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

void
Slices::add(std::uint64_t slice_ops, std::int64_t wall_ns,
            std::int64_t cpu_ns)
{
    wallNs += wall_ns;
    ops += slice_ops;
    if (wall_ns <= 0)
        return;
    // A slice that completed nothing is a stall: it counts as 0/s, and
    // only its CPU cost per request is undefined.
    opsPerSecond.push_back(static_cast<double>(slice_ops) * 1e9 /
                           static_cast<double>(wall_ns));
    if (slice_ops == 0)
        return;
    cpuUsPerOp.push_back(static_cast<double>(cpu_ns) / 1000.0 /
                         static_cast<double>(slice_ops));
}

void
Slices::describe(Report &report) const
{
    report.context("slices", static_cast<double>(opsPerSecond.size()));
    report.context("stalled_slices",
                   static_cast<double>(std::count(opsPerSecond.begin(),
                                                  opsPerSecond.end(), 0.0)));
    report.context("slice_ops_per_s_q1", quantile(opsPerSecond, 0.25));
    report.context("slice_ops_per_s_q3", quantile(opsPerSecond, 0.75));
}

void
replayLayers(const Options &opts, std::size_t heap_bytes,
             pmnet::kv::KvKind kind,
             const std::function<void(pmnet::apps::CommandStore &)> &populate,
             const CommandTap &tap, Report &report, Tracer &tracer)
{
    if (!opts.trace) {
        report.notApplicable({{"pm.heap_build_s", "s"},
                              {"apps.populate_s", "s"},
                              {"apps.exec_ns_per_cmd", "ns"}});
        return;
    }
    std::int64_t t0 = wallNs();
    std::unique_ptr<pmnet::pm::PmHeap> heap;
    {
        Span span(tracer, "pm.heap_build");
        heap = std::make_unique<pmnet::pm::PmHeap>(heap_bytes);
    }
    std::int64_t t1 = wallNs();
    pmnet::apps::CommandStore store(*heap, kind);
    {
        Span span(tracer, "apps.populate");
        populate(store);
    }
    std::int64_t t2 = wallNs();
    {
        Span span(tracer, "apps.exec");
        for (const auto &[session, cmd] : tap)
            store.executeToResponse(cmd, session);
    }
    std::int64_t t3 = wallNs();
    report.set("pm.heap_build_s", static_cast<double>(t1 - t0) / 1e9, "s");
    report.set("apps.populate_s", static_cast<double>(t2 - t1) / 1e9, "s");
    report.set("apps.exec_ns_per_cmd",
               perOp(static_cast<double>(t3 - t2),
                     static_cast<double>(tap.size())),
               "ns");
}

void
writeTrace(const Options &opts, const std::vector<const Tracer *> &tracers,
           Report &report)
{
    if (!opts.trace)
        return;
    std::string path = opts.workDir + "/trace-" + opts.workload + "-seed" +
                       std::to_string(opts.seed) + ".jsonl";
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out) {
        report.context("trace_file", "unwritable");
        return;
    }
    for (const Tracer *tracer : tracers)
        tracer->writeRecords(out);
    for (const Tracer *tracer : tracers)
        tracer->writeSummary(out);
    std::fclose(out);
    report.context("trace_file", path);
}

} // namespace perfbench

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "pmnet_perf: %s\n"
                 "usage: pmnet_perf --workload NAME --seed N --seconds S "
                 "[--trace 0|1] [--work-dir DIR] [--corrupt-readback]\n",
                 why);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opts;
    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--workload")
            opts.workload = value();
        else if (arg == "--seed")
            opts.seed = std::strtoull(value(), nullptr, 10);
        else if (arg == "--seconds")
            opts.seconds = std::strtod(value(), nullptr);
        else if (arg == "--trace")
            opts.trace = std::strcmp(value(), "0") != 0;
        else if (arg == "--work-dir")
            opts.workDir = value();
        else if (arg == "--corrupt-readback")
            opts.corruptReadback = true;
        else
            usage(("unknown argument " + arg).c_str());
    }
    if (opts.workload.empty())
        usage("--workload is required");
    if (!(opts.seconds > 0.0))
        usage("--seconds must be positive");

    Report report;
    report.context("workload", opts.workload);
    report.context("seed", static_cast<double>(opts.seed));
    report.context("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
    report.context("trace", opts.trace ? 1.0 : 0.0);
    CpuJiffies jiffies0 = hostJiffies();
    std::int64_t wall0 = wallNs();

    bool known = runSimWorkload(opts, report) ||
                 runGatewayWorkload(opts, report);
    if (!known)
        usage(("unknown workload " + opts.workload).c_str());

    report.context("steal_share", stealShare(jiffies0, hostJiffies()));
    report.context("run_wall_s", static_cast<double>(wallNs() - wall0) / 1e9);
    report.print(stdout);
    return 0;
}
