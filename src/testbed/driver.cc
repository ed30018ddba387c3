#include "testbed/driver.h"

#include "common/key.h"
#include "common/logging.h"

namespace pmnet::testbed {

using apps::Command;
using apps::CommandClass;

std::uint64_t
ClientDriver::commandKeyHash(const Command &cmd)
{
    return cmd.args.size() > 1 ? hashKey(cmd.args[1]) : 0;
}

ClientDriver::ClientDriver(sim::Simulator &simulator,
                           stack::ClientLib &lib,
                           std::unique_ptr<apps::Workload> workload,
                           Rng rng, DriverSinks sinks,
                           const TestbedConfig &config)
    : sim_(simulator), lib_(lib), workload_(std::move(workload)),
      rng_(rng), sinks_(sinks), config_(config)
{
}

void
ClientDriver::start(TickDelta initial_delay)
{
    running_ = true;
    lib_.startSession();
    if (config_.openLoopGap > 0)
        sim_.schedule(initial_delay, [this]() { openLoopTick(); });
    else
        sim_.schedule(initial_delay, [this]() { nextTransaction(); });
}

void
ClientDriver::nextTransaction()
{
    if (!running_)
        return;
    txn_ = workload_->nextTransaction(rng_);
    txnIndex_ = 0;
    if (txn_.empty()) {
        sim_.schedule(microseconds(1), [this]() { nextTransaction(); });
        return;
    }
    issueCurrent();
}

void
ClientDriver::record(Tick issued_at, bool is_update)
{
    completed_++;
    if (sinks_.measuring && *sinks_.measuring) {
        TickDelta latency = sim_.now() - issued_at;
        if (sinks_.allLatency)
            sinks_.allLatency->add(latency);
        if (is_update && sinks_.updateLatency)
            sinks_.updateLatency->add(latency);
        if (!is_update && sinks_.readLatency)
            sinks_.readLatency->add(latency);
        if (sinks_.meter)
            sinks_.meter->complete();
    }
}

void
ClientDriver::recordAndAdvance(Tick issued_at, bool is_update)
{
    record(issued_at, is_update);
    txnIndex_++;
    if (txnIndex_ >= txn_.size()) {
        txns_++;
        nextTransaction();
    } else {
        issueCurrent();
    }
}

void
ClientDriver::issueCurrent()
{
    if (!running_)
        return;
    const Command &cmd = txn_[txnIndex_];
    Bytes payload = apps::encodeCommand(cmd);
    CommandClass cls = apps::classifyCommand(cmd.verb());
    std::uint64_t key_hash = commandKeyHash(cmd);
    Tick issued_at = sim_.now();

    if (cls == CommandClass::Update) {
        if (config_.mode == SystemMode::ClientSideLogging) {
            // Fig 17a: the update is persisted by the local logger;
            // the client proceeds then, while the request continues
            // to the server in the background.
            lib_.sendUpdate(std::move(payload), key_hash, []() {});
            TickDelta local = config_.replicationDegree > 1
                                  ? config_.clientLogReplicationDelay
                                  : config_.clientLocalLogDelay;
            sim_.schedule(local, [this, issued_at]() {
                recordAndAdvance(issued_at, true);
            });
            return;
        }
        lib_.sendUpdate(std::move(payload), key_hash,
                        [this, issued_at]() {
                            recordAndAdvance(issued_at, true);
                        });
        return;
    }

    // Reads and synchronization primitives wait for the server's (or
    // cache's) response.
    bool is_lock = cmd.verb() == "LOCK";
    lib_.bypass(std::move(payload), key_hash,
                [this, issued_at, is_lock](const Bytes &resp) {
                    if (is_lock) {
                        auto decoded = apps::decodeResponse(resp);
                        if (decoded && decoded->status ==
                                           apps::RespStatus::Locked) {
                            // Contended critical section: back off and
                            // retry the acquisition (Fig 5).
                            lockConflicts_++;
                            sim_.schedule(lockBackoff_, [this]() {
                                issueCurrent();
                            });
                            return;
                        }
                    }
                    recordAndAdvance(issued_at, false);
                });
}

void
ClientDriver::openLoopTick()
{
    if (!running_)
        return;
    // The clock, not completions, paces issue: schedule the next tick
    // before doing anything else.
    sim_.schedule(config_.openLoopGap, [this]() { openLoopTick(); });

    if (outstanding_ >= config_.openLoopMaxOutstanding) {
        openLoopSkipped_++;
        return;
    }

    // Pull the next command off the workload's transaction stream.
    while (txnIndex_ >= txn_.size()) {
        if (!txn_.empty()) {
            txns_++;
            txn_.clear();
        }
        txn_ = workload_->nextTransaction(rng_);
        txnIndex_ = 0;
        if (txn_.empty())
            return; // nothing to issue this tick
    }
    issueOpenLoop(txn_[txnIndex_++]);
}

void
ClientDriver::issueOpenLoop(const Command &cmd)
{
    Bytes payload = apps::encodeCommand(cmd);
    CommandClass cls = apps::classifyCommand(cmd.verb());
    std::uint64_t key_hash = commandKeyHash(cmd);
    Tick issued_at = sim_.now();
    outstanding_++;

    if (cls == CommandClass::Update) {
        lib_.sendUpdate(std::move(payload), key_hash,
                        [this, issued_at]() {
                            openLoopComplete(issued_at, true);
                        });
        return;
    }

    bool is_lock = cmd.verb() == "LOCK";
    lib_.bypass(std::move(payload), key_hash,
                [this, issued_at, is_lock](const Bytes &resp) {
                    if (is_lock) {
                        auto decoded = apps::decodeResponse(resp);
                        if (decoded && decoded->status ==
                                           apps::RespStatus::Locked)
                            // Open loop never blocks on a critical
                            // section; the conflict is only counted.
                            lockConflicts_++;
                    }
                    openLoopComplete(issued_at, false);
                });
}

void
ClientDriver::openLoopComplete(Tick issued_at, bool is_update)
{
    outstanding_--;
    record(issued_at, is_update);
}

} // namespace pmnet::testbed
