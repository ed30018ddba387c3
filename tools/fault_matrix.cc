/**
 * @file
 * fault_matrix — command-line front end to the crash matrix
 * (src/fault/crash_matrix.h).
 *
 * Sweeps every persist boundary of a recorded KV op sequence for one
 * backend (or all six), crashing and recovering at each, and prints
 * one summary line per backend and ack mode with the invariant verdict
 * and wall-clock time. Exits non-zero if any sweep reports a
 * violation, so CI can gate on it directly.
 *
 * Examples:
 *   fault_matrix                       # exhaustive, per-op acks
 *   fault_matrix --epoch-ops 4         # ... and group commit (CI gate)
 *   fault_matrix --backend btree --ops 64
 *   fault_matrix --smoke               # capped sweep (schema ctest)
 *   fault_matrix --json                # obs::Snapshot on stdout
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/logging.h"
#include "fault/crash_matrix.h"
#include "obs/snapshot.h"
#include "tools/cli.h"

using namespace pmnet;

namespace {

struct Options
{
    std::string backend = "all";
    int ops = 48;
    int keys = 10;
    int maxCrashes = 0;
    int epochOps = 0;
    cli::CommonOptions common;
};

kv::KvKind
parseBackend(const std::string &text)
{
    if (text == "hashmap")
        return kv::KvKind::Hashmap;
    if (text == "btree")
        return kv::KvKind::BTree;
    if (text == "ctree")
        return kv::KvKind::CTree;
    if (text == "rbtree")
        return kv::KvKind::RBTree;
    if (text == "skiplist")
        return kv::KvKind::SkipList;
    if (text == "blob")
        return kv::KvKind::Blob;
    fatal("unknown backend '%s'", text.c_str());
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    opt.common.seed = 1;
    cli::ArgParser parser("fault_matrix",
                          "exhaustive persist-boundary crash matrix");
    parser.optionString("--backend", "S",
                        "hashmap | btree | ctree | rbtree | skiplist | "
                        "blob | all (default all)",
                        &opt.backend);
    parser.optionInt("--ops", "N",
                     "recorded operations per sweep (default 48)",
                     &opt.ops);
    parser.optionInt("--keys", "N", "key-universe size (default 10)",
                     &opt.keys);
    cli::addSeed(parser, opt.common);
    parser.optionInt("--max-crashes", "N",
                     "cap injected crashes, 0 = exhaustive",
                     &opt.maxCrashes);
    parser.optionInt("--epoch-ops", "N",
                     "also sweep the group-commit matrix at this epoch "
                     "size, 0 = per-op only",
                     &opt.epochOps);
    cli::addSmoke(parser, opt.common);
    cli::addJsonFlag(parser, opt.common);
    parser.parse(argc, argv);

    if (opt.common.smoke) {
        opt.ops = std::min(opt.ops, 24);
        if (opt.maxCrashes == 0)
            opt.maxCrashes = 16;
    }
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);

    std::vector<kv::KvKind> kinds;
    if (opt.backend == "all") {
        kinds = {kv::KvKind::Hashmap, kv::KvKind::BTree, kv::KvKind::CTree,
                 kv::KvKind::RBTree, kv::KvKind::SkipList, kv::KvKind::Blob};
    } else {
        kinds = {parseBackend(opt.backend)};
    }

    // Per-op acks always; with --epoch-ops, the same sequence again
    // with acks riding group-commit batches of that size.
    std::vector<std::uint32_t> ack_modes = {0};
    if (opt.epochOps > 0)
        ack_modes.push_back(static_cast<std::uint32_t>(opt.epochOps));

    bool all_clean = true;
    if (!opt.common.json)
        std::printf("%-10s %-13s %10s %10s %10s %9s  %s\n", "backend",
                    "mode", "boundaries", "crashes", "count-lag",
                    "wall-ms", "verdict");

    obs::Json sweeps = obs::Json::array();
    for (kv::KvKind kind : kinds) {
        for (std::uint32_t epoch_ops : ack_modes) {
            fault::CrashMatrixConfig config;
            config.kind = kind;
            config.seed = opt.common.seed;
            config.opCount = opt.ops;
            config.keyCount = opt.keys;
            config.maxCrashes = opt.maxCrashes;
            config.epochOps = epoch_ops;

            auto start = std::chrono::steady_clock::now();
            fault::CrashMatrixResult result = fault::runCrashMatrix(config);
            auto wall =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::steady_clock::now() - start)
                    .count();

            const char *mode = epoch_ops == 0 ? "per-op" : "group-commit";
            bool clean = result.report.clean();
            all_clean = all_clean && clean;
            if (opt.common.json) {
                obs::Json row = obs::Json::object();
                row.set("backend", kv::kvKindName(kind));
                row.set("mode", mode);
                row.set("boundaries",
                        static_cast<std::uint64_t>(result.boundaries));
                row.set("crashes", static_cast<std::uint64_t>(
                                       result.crashesInjected));
                row.set("count_lag", static_cast<std::uint64_t>(
                                         result.countLagObserved));
                if (epoch_ops > 0) {
                    row.set("epoch_ops", epoch_ops);
                    row.set("epochs_closed", static_cast<std::uint64_t>(
                                                 result.epochsClosed));
                    row.set("mid_epoch_crashes",
                            static_cast<std::uint64_t>(
                                result.midEpochCrashes));
                    row.set("ops_abandoned", static_cast<std::uint64_t>(
                                                 result.opsAbandoned));
                }
                row.set("wall_ms", static_cast<std::int64_t>(wall));
                row.set("clean", clean);
                sweeps.push(std::move(row));
            } else {
                std::printf("%-10s %-13s %10zu %10zu %10zu %9lld  %s\n",
                            kv::kvKindName(kind), mode, result.boundaries,
                            result.crashesInjected,
                            result.countLagObserved,
                            static_cast<long long>(wall),
                            clean ? "clean" : "VIOLATIONS");
            }
            if (!clean)
                std::fputs(result.report.text().c_str(), stderr);
        }
    }

    if (opt.common.json) {
        obs::Snapshot snapshot;
        snapshot.put("tool", obs::Json("fault_matrix"));
        snapshot.put("run.backend", obs::Json(opt.backend));
        snapshot.put("run.ops", opt.ops);
        snapshot.put("run.keys", opt.keys);
        snapshot.put("run.seed", opt.common.seed);
        snapshot.put("run.max_crashes", opt.maxCrashes);
        snapshot.put("run.epoch_ops", opt.epochOps);
        snapshot.put("run.smoke", opt.common.smoke);
        snapshot.put("results", std::move(sweeps));
        snapshot.put("all_clean", all_clean);
        std::fputs(snapshot.toJson(obs::JsonStyle::Pretty).c_str(),
                   stdout);
    }

    return all_clean ? 0 : 1;
}
