/**
 * @file
 * Exhaustive persist-boundary crash matrix for the KV backends
 * (DESIGN.md section 10).
 *
 * The scheduler records a deterministic mixed put/del/update sequence,
 * counts every persist boundary (PmHeap::PersistBoundary — flush
 * entry, fence entry, fence retire) the sequence crosses, then
 * re-executes it once per boundary, crashing exactly there and
 * recovering via openKvStore(). Each op is acked at the configured ack
 * point: when it returns (per-op fencing), or when the fence of the
 * pm::CommitEpoch batch covering it retires (group commit). After each
 * crash it checks:
 *
 *  - the recovered content equals the reference state after the
 *    applied prefix, with the op in flight (if any) either entirely
 *    there or entirely absent — which of the two is decided by probing
 *    its key, whose per-step values are unique; acked ops are a subset
 *    of that prefix, so no acked op is lost;
 *  - the persisted element count tracks the content within the
 *    documented +/-1 count-lag window (structures that commit the
 *    count in a separate fence after the linearization swap);
 *  - resending everything past the acked watermark — the client-retry
 *    contract — ends in exactly the no-crash final state.
 *
 * In group-commit mode an ack is also a violation when no fence has
 * retired since its op returned, and a crash must roll the open batch
 * back without running any of its completions.
 *
 * This is the Correct/NearPM-style "crash at every ordering point"
 * methodology applied to all six backends, instead of the random
 * sampling in tests/test_properties.cc.
 */

#ifndef PMNET_FAULT_CRASH_MATRIX_H
#define PMNET_FAULT_CRASH_MATRIX_H

#include "fault/invariants.h"
#include "kv/kv_store.h"

namespace pmnet::fault {

/** Crash injected by the boundary hook; caught by the scheduler. */
struct InjectedCrash
{
    pm::PersistBoundary boundary = pm::PersistBoundary::Flush;
    std::size_t index = 0; ///< 1-based boundary number hit
};

/** Parameters of one crash-matrix sweep. */
struct CrashMatrixConfig
{
    kv::KvKind kind = kv::KvKind::Hashmap;
    /** Seed of the op-sequence generator. */
    std::uint64_t seed = 1;
    /** Mixed put/del/update operations in the recorded sequence. */
    int opCount = 48;
    /** Key-universe size (small, so ops collide into updates). */
    int keyCount = 10;
    /** Heap size per execution. */
    std::uint64_t heapBytes = 8ull << 20;
    /**
     * Cap on injected crashes: 0 sweeps every boundary exhaustively;
     * N > 0 spreads N crashes evenly across the boundary range (the
     * CI --smoke mode).
     */
    int maxCrashes = 0;
    /**
     * Ack point. 0 acks each op when it returns. N > 0 stages each
     * op's ack into a pm::CommitEpoch that closes every N ops (and
     * once more after the last op) on a real PmHeap::fence(), and
     * releases it when that fence has retired; crashes then also land
     * inside open epochs and inside the batch fence itself.
     */
    std::uint32_t epochOps = 0;
};

/** Outcome of one sweep. */
struct CrashMatrixResult
{
    /** Persist boundaries the recorded sequence crosses. */
    std::size_t boundaries = 0;
    /** Crash-recover executions actually performed. */
    std::size_t crashesInjected = 0;
    /**
     * Recoveries where the persisted count lagged the content by one
     * (the documented separate-count-fence window); informational,
     * not a violation.
     */
    std::size_t countLagObserved = 0;
    /** Epochs the no-crash run closed (0 in per-op mode). */
    std::size_t epochsClosed = 0;
    /** Acks the no-crash run released (must equal opCount). */
    std::size_t acksReleased = 0;
    /** Crashes that landed with applied-but-unacked ops outstanding. */
    std::size_t midEpochCrashes = 0;
    /** Staged-unfenced acks rolled back across all crashes. */
    std::size_t opsAbandoned = 0;
    InvariantReport report;
};

/** Run the sweep; result.report.clean() means all invariants held. */
CrashMatrixResult runCrashMatrix(const CrashMatrixConfig &config);

} // namespace pmnet::fault

#endif // PMNET_FAULT_CRASH_MATRIX_H
