#include "gateway/journal.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "common/logging.h"

namespace pmnet::gateway {

namespace {

constexpr std::uint8_t kInsert = 'I';
constexpr std::uint8_t kErase = 'E';
constexpr std::uint8_t kClear = 'C';

/** A folded live entry awaiting reconstruction. */
struct PendingEntry
{
    net::NodeId src;
    net::NodeId dst;
    std::uint16_t srcPort;
    std::uint16_t dstPort;
    Bytes wire;
};

} // namespace

LogJournal::LogJournal(std::string path) : path_(std::move(path))
{
    fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC,
                 0644);
    if (fd_ < 0)
        fatal("LogJournal: cannot open %s: %s", path_.c_str(),
              std::strerror(errno));
}

LogJournal::~LogJournal()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
LogJournal::appendRecord(const Bytes &record)
{
    const std::uint8_t *p = record.data();
    std::size_t left = record.size();
    while (left > 0) {
        ssize_t n = ::write(fd_, p, left);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            fatal("LogJournal: append to %s failed: %s", path_.c_str(),
                  std::strerror(errno));
        }
        p += n;
        left -= static_cast<std::size_t>(n);
    }
}

Bytes
LogJournal::encodeInsert(const net::Packet &pkt)
{
    Bytes wire = pkt.serializePayload();
    Bytes record;
    record.reserve(1 + 4 + 4 + 2 + 2 + 4 + wire.size());
    ByteWriter writer(record);
    writer.writeU8(kInsert);
    writer.writeU32(pkt.src);
    writer.writeU32(pkt.dst);
    writer.writeU16(pkt.srcPort);
    writer.writeU16(pkt.dstPort);
    writer.writeU32(static_cast<std::uint32_t>(wire.size()));
    writer.writeBytes(wire.data(), wire.size());
    return record;
}

void
LogJournal::onLogInsert(const pm::LogEntry &entry)
{
    appendRecord(encodeInsert(*entry.packet));
}

void
LogJournal::onLogErase(std::uint32_t hash)
{
    Bytes record;
    record.reserve(5);
    ByteWriter writer(record);
    writer.writeU8(kErase);
    writer.writeU32(hash);
    appendRecord(record);
}

void
LogJournal::onLogClear()
{
    appendRecord(Bytes{kClear});
}

void
LogJournal::sync()
{
    if (::fdatasync(fd_) != 0)
        fatal("LogJournal: fdatasync of %s failed: %s", path_.c_str(),
              std::strerror(errno));
}

std::size_t
LogJournal::replay(const std::function<void(net::PacketPtr)> &fn)
{
    Bytes file;
    {
        off_t size = ::lseek(fd_, 0, SEEK_END);
        if (size <= 0)
            return 0;
        file.resize(static_cast<std::size_t>(size));
        std::size_t got = 0;
        while (got < file.size()) {
            ssize_t n = ::pread(fd_, file.data() + got, file.size() - got,
                                static_cast<off_t>(got));
            if (n <= 0)
                fatal("LogJournal: read of %s failed", path_.c_str());
            got += static_cast<std::size_t>(n);
        }
    }

    // Fold the record stream: inserts minus erases, reset by clears.
    std::map<std::uint32_t, PendingEntry> live;
    ByteReader reader(file);
    while (reader.remaining() > 0) {
        std::uint8_t kind = reader.readU8();
        if (kind == kInsert) {
            PendingEntry entry;
            entry.src = reader.readU32();
            entry.dst = reader.readU32();
            entry.srcPort = reader.readU16();
            entry.dstPort = reader.readU16();
            std::uint32_t wire_len = reader.readU32();
            if (!reader.ok() || reader.remaining() < wire_len) {
                truncatedTail++;
                break;
            }
            entry.wire = reader.readBytes(wire_len);
            net::PmnetHeader header;
            if (!net::PmnetHeader::parse(entry.wire.data(),
                                         entry.wire.size(), header)) {
                skippedRecords++;
                continue;
            }
            live[header.hashVal] = std::move(entry);
        } else if (kind == kErase) {
            std::uint32_t hash = reader.readU32();
            if (!reader.ok()) {
                truncatedTail++;
                break;
            }
            live.erase(hash);
        } else if (kind == kClear) {
            live.clear();
        } else {
            // Unknown kind: the rest of the stream is unframed.
            skippedRecords++;
            break;
        }
    }

    std::size_t delivered = 0;
    for (auto &[hash, entry] : live) {
        net::MutPacketPtr pkt = net::makePacket();
        if (!pkt->parsePayload(entry.wire) || !pkt->verifyHash() ||
            pkt->pmnet->hashVal != hash) {
            skippedRecords++;
            continue;
        }
        pkt->src = entry.src;
        pkt->dst = entry.dst;
        pkt->srcPort = entry.srcPort;
        pkt->dstPort = entry.dstPort;
        fn(std::move(pkt));
        delivered++;
    }
    replayedEntries += delivered;
    return delivered;
}

void
LogJournal::compact(const pm::PmLogStore &store)
{
    std::string tmp = path_ + ".tmp";
    int fd = ::open(tmp.c_str(),
                    O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0)
        fatal("LogJournal: cannot open %s: %s", tmp.c_str(),
              std::strerror(errno));

    store.forEach([&](const pm::LogEntry &entry) {
        Bytes record = encodeInsert(*entry.packet);
        const std::uint8_t *p = record.data();
        std::size_t left = record.size();
        while (left > 0) {
            ssize_t n = ::write(fd, p, left);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                fatal("LogJournal: write to %s failed: %s", tmp.c_str(),
                      std::strerror(errno));
            }
            p += n;
            left -= static_cast<std::size_t>(n);
        }
    });
    if (::fdatasync(fd) != 0)
        fatal("LogJournal: fdatasync of %s failed: %s", tmp.c_str(),
              std::strerror(errno));
    ::close(fd);

    if (::rename(tmp.c_str(), path_.c_str()) != 0)
        fatal("LogJournal: rename %s -> %s failed: %s", tmp.c_str(),
              path_.c_str(), std::strerror(errno));
    ::close(fd_);
    fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC,
                 0644);
    if (fd_ < 0)
        fatal("LogJournal: cannot reopen %s: %s", path_.c_str(),
              std::strerror(errno));
}

} // namespace pmnet::gateway
