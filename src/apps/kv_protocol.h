/**
 * @file
 * Application wire protocol for the KV/Redis-style workloads.
 *
 * Requests are commands — an argv-style vector of strings, e.g.
 * {"SET", "user:1", "alice"} — encoded with length prefixes.
 * Responses carry a status, an echoed key (for GETs, so the in-switch
 * cache can associate the value) and a value.
 *
 * classifyCommand() implements the paper's split: state-changing
 * commands become update-req packets (logged by PMNet), reads and the
 * synchronization primitives (LOCK/UNLOCK, Section III-C) become
 * bypass-req packets.
 *
 * KvCacheCodec adapts this protocol to the device's CacheCodec
 * interface so PMNet-Switch can cache GET/SET traffic (Section IV-D).
 */

#ifndef PMNET_APPS_KV_PROTOCOL_H
#define PMNET_APPS_KV_PROTOCOL_H

#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "pmnet/cache_codec.h"

namespace pmnet::apps {

/** An argv-style application command. */
struct Command
{
    std::vector<std::string> args;

    const std::string &verb() const { return args.front(); }
};

/** How a command travels through PMNet. */
enum class CommandClass {
    Update, ///< state-changing: sent as update-req, logged in-network
    Read,   ///< read-only: sent as bypass-req
    Sync,   ///< lock/unlock: bypass-req, ordering enforced at server
};

/** Classify @p verb (GET/SET/LPUSH/LOCK/...). */
CommandClass classifyCommand(const std::string &verb);

/** True for Update-class commands. */
bool commandIsUpdate(const Command &cmd);

/** Encode a command for the wire. */
Bytes encodeCommand(const Command &cmd);

/** Decode a command; nullopt on malformed input. */
std::optional<Command> decodeCommand(const Bytes &wire);

/** Response status codes. */
enum class RespStatus : std::uint8_t {
    Ok = 0,
    Nil = 1,     ///< key/field absent
    Error = 2,   ///< malformed command or type mismatch
    Locked = 3,  ///< lock already held by another session
};

/** A decoded response. */
struct Response
{
    RespStatus status = RespStatus::Ok;
    /** Echoed key; non-empty only for cacheable GET responses. */
    std::string key;
    std::string value;
};

/** Encode a response (generic, not GET-cacheable). */
Bytes encodeResponse(RespStatus status, const std::string &value);

/** Encode a cacheable GET response with its key echo. */
Bytes encodeGetResponse(RespStatus status, const std::string &key,
                        const std::string &value);

/** Decode any response; nullopt on malformed input. */
std::optional<Response> decodeResponse(const Bytes &wire);

/**
 * CacheCodec over this protocol: SET fills, GET probes, GET responses
 * populate (paper Section IV-D: "key lookups using the GET/SET
 * interface").
 *
 * The parsers are zero-copy: they return views into the payload and
 * never materialize a Command, so a cacheable packet costs one key
 * hash and no allocation on the device.
 */
class KvCacheCodec : public pmnetdev::CacheCodec
{
  public:
    std::optional<pmnetdev::ParsedUpdate>
    parseUpdate(const Bytes &payload) const override;

    std::optional<KeyRef>
    parseRead(const Bytes &payload) const override;

    std::optional<pmnetdev::ParsedUpdate>
    parseReadResponse(const Bytes &payload) const override;

    Bytes makeReadResponse(std::string_view key,
                           const Bytes &value) const override;
};

} // namespace pmnet::apps

#endif // PMNET_APPS_KV_PROTOCOL_H
