#include "pmnet/shard_map.h"

#include <algorithm>
#include <string>

#include "common/key.h"
#include "common/logging.h"

namespace pmnet {

ShardMap::ShardMap(unsigned shard_count, unsigned vnodes_per_shard)
    : shardCount_(shard_count), health_(shard_count, Health::Healthy)
{
    if (shard_count == 0)
        panic("ShardMap: shard_count must be >= 1");
    if (vnodes_per_shard == 0)
        panic("ShardMap: vnodes_per_shard must be >= 1");

    ring_.reserve(std::size_t(shard_count) * vnodes_per_shard);
    for (unsigned s = 0; s < shard_count; s++) {
        for (unsigned v = 0; v < vnodes_per_shard; v++) {
            std::string label = "shard:" + std::to_string(s) +
                                ":vnode:" + std::to_string(v);
            ring_.push_back({hashKey(label), s});
        }
    }
    // Sort by (point, shard) so ties break deterministically; the key
    // hash and the vnode labels are both fixed, so the ring layout is
    // identical across runs and platforms.
    std::sort(ring_.begin(), ring_.end(),
              [](const VNode &a, const VNode &b) {
                  return a.point != b.point ? a.point < b.point
                                            : a.shard < b.shard;
              });
}

unsigned
ShardMap::ownerOf(std::uint64_t key_hash) const
{
    // Successor on the ring: first vnode at or after the key's point,
    // wrapping to the first vnode past the top.
    auto it = std::lower_bound(
        ring_.begin(), ring_.end(), key_hash,
        [](const VNode &v, std::uint64_t h) { return v.point < h; });
    if (it == ring_.end())
        it = ring_.begin();
    return it->shard;
}

bool
ShardMap::allHealthy() const
{
    for (unsigned s = 0; s < shardCount_; s++)
        if (health(s) != Health::Healthy)
            return false;
    return true;
}

} // namespace pmnet
