/**
 * @file
 * Append-only journal of the device's persistent log (gateway mode).
 *
 * In sim mode PmLogStore "persists" by living in device PM that the
 * power-failure model preserves. A daemon's log must instead survive
 * the *process*: LogJournal observes every committed/invalidated
 * entry through pm::LogStoreObserver and mirrors it to an append-only
 * file. On restart, replay() folds the records (inserts minus erases,
 * bounded by the last clear) and hands each surviving entry to the
 * caller — pmnetd feeds them to PmnetDevice::restoreLogEntry before
 * serving, then compact() rewrites the file to just the live set.
 *
 * Record framing: [u8 kind]['I': u32 src, u32 dst, u16 srcPort,
 * u16 dstPort, u32 wireLen, wire bytes | 'E': u32 hashVal | 'C': -].
 * A record half-written when the process died parses as truncation
 * and cleanly ends replay — everything before it is intact.
 */

#ifndef PMNET_GATEWAY_JOURNAL_H
#define PMNET_GATEWAY_JOURNAL_H

#include <map>
#include <string>

#include "net/packet.h"
#include "pm/log_store.h"

namespace pmnet::gateway {

/** File-backed mirror of the device log store. */
class LogJournal : public pm::LogStoreObserver
{
  public:
    /** Opens (creates) @p path for appending. */
    explicit LogJournal(std::string path);
    ~LogJournal() override;

    LogJournal(const LogJournal &) = delete;
    LogJournal &operator=(const LogJournal &) = delete;

    /** @name pm::LogStoreObserver
     *  @{
     */
    void onLogInsert(const pm::LogEntry &entry) override;
    void onLogErase(std::uint32_t hash) override;
    void onLogClear() override;
    /** @} */

    /**
     * Fold the journal into the set of live entries and deliver each
     * as a reconstructed packet (envelope per the journal record,
     * header+payload re-parsed by the codec — a corrupt record is
     * skipped and counted). Call before any mutation.
     * @return entries delivered.
     */
    std::size_t
    replay(const std::function<void(net::PacketPtr)> &fn);

    /**
     * Rewrite the file to exactly the current live set of @p store —
     * run after replay so a restart loop cannot grow the journal
     * without bound.
     */
    void compact(const pm::PmLogStore &store);

    /**
     * fdatasync the journal (power-loss durability; optional). A
     * failed flush is fatal: the daemon must not go on acking
     * durability it no longer has.
     */
    void sync();

    /** @name Replay diagnostics
     *  @{
     */
    std::uint64_t replayedEntries = 0;
    std::uint64_t skippedRecords = 0;
    std::uint64_t truncatedTail = 0;
    /** @} */

  private:
    void appendRecord(const Bytes &record);
    static Bytes encodeInsert(const net::Packet &pkt);

    std::string path_;
    int fd_ = -1;
};

} // namespace pmnet::gateway

#endif // PMNET_GATEWAY_JOURNAL_H
