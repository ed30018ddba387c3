/**
 * @file
 * Application-payload codec used by the in-switch read cache.
 *
 * The paper's read cache (Section IV-D) understands the GET/SET
 * interface of key-value workloads. The device itself stays agnostic
 * of any specific application wire format: the testbed injects a
 * CacheCodec implementation (provided by src/apps for the KV protocol)
 * and workloads with complex queries (Twitter, TPCC) simply run
 * without a codec, i.e. uncached — exactly the paper's scoping of the
 * caching experiment.
 */

#ifndef PMNET_PMNET_CACHE_CODEC_H
#define PMNET_PMNET_CACHE_CODEC_H

#include <optional>
#include <string_view>

#include "common/bytes.h"
#include "common/key.h"

namespace pmnet::pmnetdev {

/**
 * A parsed update: which key it writes and the new value bytes.
 *
 * Both fields are zero-copy views into the parsed payload (valid only
 * while it lives). The key is a KeyRef so its hash is computed exactly
 * once, here at parse time, and reused by every table the packet
 * touches downstream.
 */
struct ParsedUpdate
{
    KeyRef key;
    std::string_view value;
};

/** Interface the device uses to interpret application payloads. */
class CacheCodec
{
  public:
    virtual ~CacheCodec() = default;

    /** Parse an update-req payload; nullopt when not a cacheable SET. */
    virtual std::optional<ParsedUpdate>
    parseUpdate(const Bytes &payload) const = 0;

    /** Parse a bypass-req payload; returns the (hashed) key of a GET. */
    virtual std::optional<KeyRef>
    parseRead(const Bytes &payload) const = 0;

    /**
     * Parse a server read Response; returns the key/value it carries
     * so a passing response can populate the cache.
     */
    virtual std::optional<ParsedUpdate>
    parseReadResponse(const Bytes &payload) const = 0;

    /** Build the Response payload for a cache hit on @p key. */
    virtual Bytes makeReadResponse(std::string_view key,
                                   const Bytes &value) const = 0;
};

} // namespace pmnet::pmnetdev

#endif // PMNET_PMNET_CACHE_CODEC_H
