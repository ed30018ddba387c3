/**
 * @file
 * The server-side command store: a Redis-like command interpreter over
 * any of the five persistent KV structures.
 *
 * This is the reproduction of the paper's server workloads:
 *  - the PMDK workloads (Fig 19: B-Tree, C-Tree, RB-Tree, Hashmap,
 *    Skip List) are CommandStore instances whose backing structure is
 *    the respective KvStore kind, driven by the YCSB-like GET/SET mix;
 *  - "Redis" is a CommandStore over the hashmap with the richer
 *    command set (INCR, lists, sets, hashes) used by the Twitter
 *    workload;
 *  - the TPCC lock primitive (Section III-C) is the LOCK/UNLOCK
 *    command pair, enforced here with session ownership.
 *
 * Values are typed ('S' string, 'L' list, 'T' set, 'H' hash); GET only
 * serves strings and returns the raw SET payload so a switch-cached
 * value and a server-served value are byte-identical.
 *
 * Lists are capped at kListCap elements (Retwis-style LTRIM), keeping
 * timeline entries bounded like the original workload does.
 */

#ifndef PMNET_APPS_COMMAND_STORE_H
#define PMNET_APPS_COMMAND_STORE_H

#include <memory>

#include "apps/kv_protocol.h"
#include "kv/kv_store.h"

namespace pmnet::apps {

/** Redis-like command interpreter over a persistent KV structure. */
class CommandStore
{
  public:
    static constexpr std::size_t kListCap = 128;

    /** Create a fresh store backed by @p kind. */
    CommandStore(pm::PmHeap &heap, kv::KvKind kind);

    /** Re-open from the persistent root after a crash. */
    CommandStore(pm::PmHeap &heap, pm::PmOffset root);

    /** Persistent handle (the backing store's header offset). */
    pm::PmOffset persistentRoot() const;

    /** Result of one command. */
    struct Result
    {
        RespStatus status = RespStatus::Ok;
        std::string value;
        /** Set (to the key) for cacheable GET responses. */
        std::string cacheKey;
    };

    /**
     * Execute @p cmd on behalf of @p session (sessions own locks).
     * All persistence happens through the backing structure; the
     * heap's accrued cost reflects the simulated service time.
     */
    Result execute(const Command &cmd, std::uint16_t session);

    /** execute() + protocol encoding. */
    Bytes executeToResponse(const Command &cmd, std::uint16_t session);

    kv::KvStore &backing() { return *store_; }

  private:
    static std::string typed(char type, const std::string &raw);

    Result doGet(const Command &cmd);
    Result doSet(const Command &cmd);
    Result doDel(const Command &cmd);
    Result doExists(const Command &cmd);
    Result doIncr(const Command &cmd, std::int64_t by);
    Result doPush(const Command &cmd, bool front);
    Result doLpop(const Command &cmd);
    Result doLrange(const Command &cmd);
    Result doLlen(const Command &cmd);
    Result doSadd(const Command &cmd);
    Result doSrem(const Command &cmd);
    Result doSismember(const Command &cmd);
    Result doSmembers(const Command &cmd);
    Result doScard(const Command &cmd);
    Result doHset(const Command &cmd);
    Result doHget(const Command &cmd);
    Result doHdel(const Command &cmd);
    Result doLock(const Command &cmd, std::uint16_t session);
    Result doUnlock(const Command &cmd, std::uint16_t session);

    /**
     * Load a typed value; empty optional when absent. Takes a KeyRef
     * so each command hashes its key exactly once, no matter how many
     * load/store round-trips it performs.
     */
    std::optional<std::string> load(KeyRef key);
    void storeValue(KeyRef key, const std::string &typed);

    std::vector<std::string> loadList(const std::string &raw) const;
    std::string encodeList(const std::vector<std::string> &items,
                           char type) const;

    pm::PmHeap &heap_;
    std::unique_ptr<kv::KvStore> store_;
};

} // namespace pmnet::apps

#endif // PMNET_APPS_COMMAND_STORE_H
