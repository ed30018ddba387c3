#include "fault/crash_matrix.h"

#include <limits>
#include <map>

#include "common/rng.h"
#include "pm/commit_epoch.h"

namespace pmnet::fault {

namespace {

/** One recorded KV operation. */
struct Op
{
    bool isPut = true;
    std::string key;
    std::string value; ///< unique per step, so probes are unambiguous
};

Bytes
toBytes(const std::string &s)
{
    return Bytes(s.begin(), s.end());
}

std::string
toString(const Bytes &b)
{
    return std::string(b.begin(), b.end());
}

/**
 * Record the op sequence. Small key universe + put-heavy mix, so the
 * sweep exercises inserts, in-place value updates, erases of present
 * keys and erases of absent keys on every backend.
 */
std::vector<Op>
recordOps(std::uint64_t seed, int op_count, int key_count)
{
    Rng rng(seed);
    std::vector<Op> ops;
    ops.reserve(static_cast<std::size_t>(op_count));
    for (int i = 0; i < op_count; i++) {
        Op op;
        op.key = "k" + std::to_string(rng.nextUInt(
                           static_cast<std::uint64_t>(key_count)));
        op.isPut = rng.nextDouble() < 0.7;
        if (op.isPut)
            op.value = "v" + std::to_string(i) + "-" + op.key;
        ops.push_back(std::move(op));
    }
    return ops;
}

/**
 * Choose the crash points: every boundary, or an even spread of
 * max_crashes across the range (--smoke).
 */
std::vector<std::size_t>
spreadCrashPoints(std::size_t boundaries, int max_crashes)
{
    std::vector<std::size_t> points;
    if (max_crashes <= 0 ||
        static_cast<std::size_t>(max_crashes) >= boundaries) {
        for (std::size_t c = 1; c <= boundaries; c++)
            points.push_back(c);
    } else {
        double stride = static_cast<double>(boundaries) /
                        static_cast<double>(max_crashes);
        for (int i = 0; i < max_crashes; i++)
            points.push_back(
                static_cast<std::size_t>(static_cast<double>(i) * stride) +
                1);
    }
    return points;
}

void
applyToStore(kv::KvStore &store, const Op &op)
{
    if (op.isPut)
        store.put(kv::asKey(op.key), toBytes(op.value));
    else
        store.erase(kv::asKey(op.key));
}

void
applyToModel(std::map<std::string, std::string> &model, const Op &op)
{
    if (op.isPut)
        model[op.key] = op.value;
    else
        model.erase(op.key);
}

/**
 * Compare the recovered store's full content against @p model over
 * the whole key universe. Every divergence is a durability/atomicity
 * violation: either an acknowledged (fenced) state was lost, or a
 * partially applied op became visible.
 */
void
checkContent(const kv::KvStore &store,
             const std::map<std::string, std::string> &model,
             int key_count, const std::string &where,
             InvariantReport &report)
{
    for (int k = 0; k < key_count; k++) {
        std::string key = "k" + std::to_string(k);
        std::optional<Bytes> got = store.get(kv::asKey(key));
        auto want = model.find(key);
        if (want == model.end()) {
            if (got)
                report.addViolation(
                    "P1-durability", where + ": key " + key +
                                         " should be absent, found \"" +
                                         toString(*got) + "\"");
        } else if (!got) {
            report.addViolation("P1-durability",
                                where + ": key " + key +
                                    " lost, expected \"" + want->second +
                                    "\"");
        } else if (toString(*got) != want->second) {
            report.addViolation("P1-durability",
                                where + ": key " + key + " expected \"" +
                                    want->second + "\", found \"" +
                                    toString(*got) + "\"");
        }
    }
}

/**
 * Check the persisted element count against the model.
 * @return the lag (model size minus persisted count); |lag| == 1 is
 * the documented count-fence window, anything larger is a violation.
 */
std::int64_t
checkCount(const kv::KvStore &store,
           const std::map<std::string, std::string> &model,
           const std::string &where, InvariantReport &report)
{
    std::int64_t lag = static_cast<std::int64_t>(model.size()) -
                       static_cast<std::int64_t>(store.size());
    if (lag > 1 || lag < -1)
        report.addViolation(
            "P1-durability",
            where + ": persisted count " + std::to_string(store.size()) +
                " drifted from content size " +
                std::to_string(model.size()) +
                " by more than the one-op count-lag window");
    return lag;
}

std::size_t
stagedBytes(const Op &op)
{
    return op.key.size() + op.value.size() + 1;
}

/**
 * The recorded sequence running on its own heap and store. run()
 * applies ops and releases each one's ack at the configured ack point;
 * the boundary hook counts boundaries and fence retirements, and
 * throws InjectedCrash at boundary @p crash_at (1-based; 0 never).
 */
struct Execution
{
    Execution(const CrashMatrixConfig &sweep, const std::vector<Op> &recorded,
              InvariantReport &sink, std::size_t crash_at)
        : config(sweep), ops(recorded), report(sink), crashAt(crash_at),
          heap(sweep.heapBytes), store(kv::makeKvStore(sweep.kind, heap)),
          epoch(epochConfig(sweep.epochOps))
    {
        arm(crash_at);
    }

    // The boundary hook holds `this`.
    Execution(const Execution &) = delete;
    Execution &operator=(const Execution &) = delete;

    static pm::CommitEpochConfig
    epochConfig(std::uint32_t epoch_ops)
    {
        // The epoch closes on the op-count threshold only; the bytes
        // threshold is parked out of reach so sweeps are comparable
        // across backends with different payload sizes.
        pm::CommitEpochConfig epoch_config;
        epoch_config.maxOps = epoch_ops;
        epoch_config.maxBytes = std::numeric_limits<std::size_t>::max();
        return epoch_config;
    }

    void
    arm(std::size_t crash_at)
    {
        heap.setPersistBoundaryHook(
            [this, crash_at](pm::PersistBoundary b) {
                if (b == pm::PersistBoundary::FenceRetire)
                    retires++;
                if (++boundaries == crash_at)
                    throw InjectedCrash{b, crash_at};
            });
    }

    /**
     * Apply ops[from..] and ack them, closing the last epoch too. An
     * injected crash propagates out with `applying` telling whether it
     * interrupted a store op or a batch fence.
     */
    void
    run(std::size_t from)
    {
        for (std::size_t j = from; j < ops.size(); j++) {
            applying = true;
            applyToStore(*store, ops[j]);
            applying = false;
            applied = j + 1;
            if (config.epochOps == 0) {
                acked = j + 1;
                continue;
            }
            staged.push_back(StagedOp{j, retires});
            if (epoch.stage(stagedBytes(ops[j]), static_cast<Tick>(j))
                    .shouldClose)
                closeEpoch(pm::EpochCloseReason::Ops, static_cast<Tick>(j));
        }
        closeEpoch(pm::EpochCloseReason::Drain,
                   static_cast<Tick>(ops.size()));
    }

    /**
     * Close the open epoch, run its batch fence on the heap (an
     * injected crash may throw out of it), then ack its ops in stage
     * order.
     */
    void
    closeEpoch(pm::EpochCloseReason reason, Tick now)
    {
        if (epoch.close(reason, now, now) == 0)
            return;
        heap.fence();
        for (const StagedOp &op : staged)
            ack(op.index, op.retiresAtReturn);
        staged.clear();
    }

    /**
     * Power failure: the staged ops' log writes were never covered by
     * a retired fence, so their acks never leave.
     *
     * @return ops abandoned in the open epoch.
     */
    std::size_t
    abandon()
    {
        staged.clear();
        return epoch.abandon();
    }

    /**
     * After a crash and recovery, resend every op past the acked
     * watermark. PmHeap::crash() cleared the hook; the fence count
     * still has to run for the early-ack check.
     */
    void
    resend()
    {
        resending = true;
        arm(0);
        run(acked);
    }

    /**
     * Group-commit ack of op @p j. Every KV op fences its own
     * writes, so only a fence retired after the op returned proves the
     * batch fence ran before its ack left.
     */
    void
    ack(std::size_t j, std::size_t retired_at_return)
    {
        if (retires == retired_at_return)
            report.addViolation(
                "P1-durability",
                (crashAt == 0 ? std::string("no-crash run")
                              : "crash at boundary " +
                                    std::to_string(crashAt) +
                                    (resending ? ", resend" : "")) +
                    ": op " + std::to_string(j) +
                    " acked with no fence retired since it returned");
        acked = j + 1;
    }

    const CrashMatrixConfig &config;
    const std::vector<Op> &ops;
    InvariantReport &report;
    const std::size_t crashAt;
    pm::PmHeap heap;
    std::unique_ptr<kv::KvStore> store;
    pm::CommitEpoch epoch;
    /** An op staged into the open (or just-closed) epoch, not acked. */
    struct StagedOp
    {
        std::size_t index;
        std::size_t retiresAtReturn; ///< `retires` when the op returned
    };
    std::vector<StagedOp> staged;
    bool resending = false;
    std::size_t boundaries = 0; ///< boundaries crossed since construction
    std::size_t retires = 0;    ///< FenceRetire boundaries among them
    std::size_t applied = 0;    ///< ops known fully applied
    std::size_t acked = 0;      ///< contiguous acked watermark
    bool applying = false;      ///< inside a store op
};

} // namespace

CrashMatrixResult
runCrashMatrix(const CrashMatrixConfig &config)
{
    CrashMatrixResult result;
    std::string name =
        std::string("crash-matrix:") + kv::kvKindName(config.kind);
    if (config.epochOps > 0)
        name += ":epoch" + std::to_string(config.epochOps);
    result.report =
        InvariantReport(name + ":seed" + std::to_string(config.seed));
    InvariantReport &report = result.report;

    std::vector<Op> ops =
        recordOps(config.seed, config.opCount, config.keyCount);

    // Pass 1: count the persist boundaries the recorded sequence
    // crosses (store construction excluded — the sweep targets the
    // operation sequence) and sanity-check the no-crash final state.
    std::map<std::string, std::string> finalModel;
    {
        Execution exec(config, ops, report, 0);
        exec.run(0);
        // Filled after this heap is built, not before: on glibc 2.36
        // the other order leaves malloc zeroing recycled heap images
        // instead of mapping fresh ones, a 6-8x slower sweep.
        for (const Op &op : ops)
            applyToModel(finalModel, op);
        result.boundaries = exec.boundaries;
        result.epochsClosed =
            static_cast<std::size_t>(exec.epoch.stats().epochsClosed);
        result.acksReleased = exec.acked;
        if (exec.acked != ops.size())
            report.addViolation(
                "P1-durability",
                "no-crash run: released " + std::to_string(exec.acked) +
                    " of " + std::to_string(ops.size()) + " acks");
        checkContent(*exec.store, finalModel, config.keyCount,
                     "no-crash run", report);
        checkCount(*exec.store, finalModel, "no-crash run", report);
    }

    for (std::size_t crash_at :
         spreadCrashPoints(result.boundaries, config.maxCrashes)) {
        Execution exec(config, ops, report, crash_at);
        std::optional<InjectedCrash> crash;
        try {
            exec.run(0);
        } catch (const InjectedCrash &c) {
            crash = c;
        }
        if (!crash) {
            // The boundary stream is a pure function of the sequence;
            // not reaching a counted boundary is a determinism bug.
            report.addViolation(
                "determinism",
                "boundary " + std::to_string(crash_at) +
                    " counted in pass 1 was never reached on replay");
            continue;
        }
        result.crashesInjected++;
        if (exec.acked < exec.applied)
            result.midEpochCrashes++;

        std::string where =
            "crash at boundary " + std::to_string(crash_at) + " (" +
            pm::persistBoundaryName(crash->boundary) + ") " +
            (exec.applying
                 ? "in op " + std::to_string(exec.applied)
                 : "in the batch fence after op " +
                       std::to_string(exec.applied - 1));

        // Roll back the batch remnants: the staged ops are abandoned
        // and never acked.
        std::size_t acked = exec.acked;
        result.opsAbandoned += exec.abandon();
        if (exec.epoch.open())
            report.addViolation("P1-durability",
                                where + ": abandon left the epoch open");

        exec.heap.crash(); // discards staged ranges, clears the hook
        exec.store = kv::openKvStore(exec.heap, exec.store->headerOffset());

        // P1 precondition: an ack never outruns the applied prefix.
        if (acked > exec.applied)
            report.addViolation(
                "P1-durability",
                where + ": acked watermark " + std::to_string(acked) +
                    " ahead of applied prefix " +
                    std::to_string(exec.applied));

        // The recovered state is the applied prefix. Atomicity: an op
        // in flight happened entirely or not at all, decided by probing
        // its key — per-step values are unique, so the probe cannot be
        // fooled by an earlier write of the same key.
        std::map<std::string, std::string> model;
        for (std::size_t r = 0; r < exec.applied; r++)
            applyToModel(model, ops[r]);
        if (exec.applying) {
            const Op &inflight = ops[exec.applied];
            std::optional<Bytes> probe =
                exec.store->get(kv::asKey(inflight.key));
            bool landed;
            if (inflight.isPut)
                landed = probe && toString(*probe) == inflight.value;
            else
                landed = model.count(inflight.key) != 0 && !probe;
            if (landed)
                applyToModel(model, inflight);
        }
        checkContent(*exec.store, model, config.keyCount, where, report);
        if (checkCount(*exec.store, model, where, report) != 0)
            result.countLagObserved++;

        // Client-retry contract: nothing past the acked watermark was
        // acknowledged, so the client resends all of it — including
        // ops that landed but whose ack never left. The resend must
        // converge to exactly the no-crash final state, with the count
        // still within its one-op window (bumps are relative).
        exec.resend();
        if (exec.acked != ops.size())
            report.addViolation(
                "P1-durability",
                where + ": resend released " +
                    std::to_string(exec.acked - acked) + " of " +
                    std::to_string(ops.size() - acked) + " acks");
        checkContent(*exec.store, finalModel, config.keyCount,
                     where + ", after resend", report);
        checkCount(*exec.store, finalModel, where + ", after resend",
                   report);
    }

    report.setCounter("boundaries", result.boundaries);
    report.setCounter("crashes-injected", result.crashesInjected);
    report.setCounter("count-lag-observed", result.countLagObserved);
    report.setCounter("epochs-closed", result.epochsClosed);
    report.setCounter("acks-released", result.acksReleased);
    report.setCounter("mid-epoch-crashes", result.midEpochCrashes);
    report.setCounter("ops-abandoned", result.opsAbandoned);
    report.setCounter("ops", static_cast<std::uint64_t>(ops.size()));
    report.setCounter("epoch-ops", config.epochOps);
    report.setCounter("final-keys", finalModel.size());
    return result;
}

} // namespace pmnet::fault
