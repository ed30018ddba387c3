/**
 * @file
 * Consistent-hash shard map for the multi-switch PMNet fabric.
 *
 * NetChain-style scale-out: the key space is partitioned across N
 * PMNet switch shards by a consistent-hash ring with virtual nodes.
 * Each shard runs an independent replication chain ending at its own
 * server; clients hash a key once (the KeyRef hash computed at parse
 * time) and route the request to the owning shard's server. The ring
 * uses many virtual nodes per shard so the key space splits evenly
 * and adding a shard only moves ~1/N of the keys.
 *
 * The map also carries per-shard health for the chain-repair protocol
 * (see fault::ChainRepairCoordinator):
 *
 *   Healthy      normal operation, PmnetAck fast path valid;
 *   Failed       a chain device is dark — the shard drops traffic, so
 *                clients park new requests instead of feeding a black
 *                hole;
 *   Resilvering  the chain forwards again but the replacement unit's
 *                log may still have holes — clients fail over to the
 *                tail (require the server's ack) until re-silvering
 *                finishes.
 */

#ifndef PMNET_PMNET_SHARD_MAP_H
#define PMNET_PMNET_SHARD_MAP_H

#include <cstdint>
#include <vector>

namespace pmnet {

class ShardMap
{
  public:
    enum class Health : std::uint8_t {
        Healthy = 0,
        Failed = 1,
        Resilvering = 2,
    };

    explicit ShardMap(unsigned shard_count,
                      unsigned vnodes_per_shard = kDefaultVnodes);

    unsigned shardCount() const { return shardCount_; }
    std::size_t vnodeCount() const { return ring_.size(); }

    /** Owning shard of a key (by its hashKey/KeyRef 64-bit hash). */
    unsigned ownerOf(std::uint64_t key_hash) const;

    Health health(unsigned shard) const { return health_[shard]; }
    void
    setHealth(unsigned shard, Health health)
    {
        health_[shard] = health;
    }

    /** True when every shard is Healthy (fast path everywhere). */
    bool allHealthy() const;

    static constexpr unsigned kDefaultVnodes = 64;

  private:
    struct VNode
    {
        std::uint64_t point;
        std::uint32_t shard;
    };

    unsigned shardCount_;
    std::vector<VNode> ring_; ///< sorted by point
    std::vector<Health> health_;
};

} // namespace pmnet

#endif // PMNET_PMNET_SHARD_MAP_H
