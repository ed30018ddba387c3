#include "pm/commit_epoch.h"

#include <algorithm>

namespace pmnet::pm {

const char *
epochCloseReasonName(EpochCloseReason reason)
{
    switch (reason) {
      case EpochCloseReason::Bytes: return "bytes";
      case EpochCloseReason::Ops: return "ops";
      case EpochCloseReason::Doorbell: return "doorbell";
      case EpochCloseReason::Drain: return "drain";
    }
    return "?";
}

CommitEpoch::CommitEpoch(CommitEpochConfig config) : config_(config) {}

CommitEpoch::StageResult
CommitEpoch::stage(std::size_t bytes, Tick now)
{
    StageResult result;
    if (openOps_ == 0) {
        openedAt_ = now;
        epochSeq_++;
        result.opened = true;
    }
    if (openOps_ == 0 || now != lastStagedAt_) {
        opsBeforeLastStage_ = openOps_;
        lastStagedAt_ = now;
    }
    openOps_++;
    openBytes_ += bytes;
    result.epochSeq = epochSeq_;
    result.shouldClose = openBytes_ >= config_.maxBytes ||
                         openOps_ >= config_.maxOps;
    return result;
}

std::size_t
CommitEpoch::close(EpochCloseReason reason, Tick now, Tick release_at)
{
    if (openOps_ == 0)
        return 0;

    stats_.epochsClosed++;
    switch (reason) {
      case EpochCloseReason::Bytes: stats_.closedByBytes++; break;
      case EpochCloseReason::Ops: stats_.closedByOps++; break;
      case EpochCloseReason::Doorbell: stats_.closedByDoorbell++; break;
      case EpochCloseReason::Drain: stats_.closedByDrain++; break;
    }
    stats_.opsCommitted += openOps_;
    stats_.bytesCommitted += openBytes_;
    stats_.acksDeferred += release_at > now || lastStagedAt_ != now
                               ? openOps_
                               : opsBeforeLastStage_;
    stats_.maxBatchOps =
        std::max<std::uint64_t>(stats_.maxBatchOps, openOps_);
    stats_.maxBatchBytes =
        std::max<std::uint64_t>(stats_.maxBatchBytes, openBytes_);
    std::uint64_t held =
        now >= openedAt_ ? static_cast<std::uint64_t>(now - openedAt_)
                         : 0;
    stats_.holdTicksTotal += held;
    stats_.maxHoldTicks = std::max(stats_.maxHoldTicks, held);

    std::size_t closed = openOps_;
    openOps_ = 0;
    openBytes_ = 0;
    return closed;
}

std::size_t
CommitEpoch::abandon()
{
    std::size_t dropped = openOps_;
    stats_.opsAbandoned += dropped;
    openOps_ = 0;
    openBytes_ = 0;
    return dropped;
}

} // namespace pmnet::pm
