#include "apps/command_store.h"

#include <algorithm>

#include "common/logging.h"

namespace pmnet::apps {

namespace {

Bytes
toBytes(const std::string &text)
{
    return Bytes(text.begin(), text.end());
}

std::string
toString(const Bytes &bytes)
{
    return std::string(bytes.begin(), bytes.end());
}

/** The command's key argument, hashed once for the whole command. */
KeyRef
keyArg(const Command &cmd)
{
    return KeyRef(std::string_view(cmd.args[1]));
}

} // namespace

CommandStore::CommandStore(pm::PmHeap &heap, kv::KvKind kind)
    : heap_(heap), store_(kv::makeKvStore(kind, heap))
{
}

CommandStore::CommandStore(pm::PmHeap &heap, pm::PmOffset root)
    : heap_(heap), store_(kv::openKvStore(heap, root))
{
}

pm::PmOffset
CommandStore::persistentRoot() const
{
    return store_->headerOffset();
}

std::string
CommandStore::typed(char type, const std::string &raw)
{
    std::string out;
    out.reserve(raw.size() + 1);
    out.push_back(type);
    out.append(raw);
    return out;
}

std::optional<std::string>
CommandStore::load(KeyRef key)
{
    auto raw = store_->get(key);
    if (!raw)
        return std::nullopt;
    return toString(*raw);
}

void
CommandStore::storeValue(KeyRef key, const std::string &value)
{
    store_->put(key, toBytes(value));
}

std::vector<std::string>
CommandStore::loadList(const std::string &raw) const
{
    // raw excludes the type byte.
    Bytes bytes = toBytes(raw);
    ByteReader reader(bytes);
    std::uint32_t count = reader.readU32();
    std::vector<std::string> items;
    items.reserve(count);
    for (std::uint32_t i = 0; i < count && reader.ok(); i++)
        items.push_back(reader.readString());
    return items;
}

std::string
CommandStore::encodeList(const std::vector<std::string> &items,
                         char type) const
{
    Bytes body;
    ByteWriter writer(body);
    writer.writeU32(static_cast<std::uint32_t>(items.size()));
    for (const std::string &item : items)
        writer.writeString(item);
    return typed(type, toString(body));
}

CommandStore::Result
CommandStore::execute(const Command &cmd, std::uint16_t session)
{
    if (cmd.args.empty())
        return {RespStatus::Error, "empty command", ""};
    const std::string &verb = cmd.verb();

    if (verb == "GET")
        return doGet(cmd);
    if (verb == "SET")
        return doSet(cmd);
    if (verb == "DEL")
        return doDel(cmd);
    if (verb == "EXISTS")
        return doExists(cmd);
    if (verb == "INCR")
        return doIncr(cmd, 1);
    if (verb == "INCRBY") {
        if (cmd.args.size() != 3)
            return {RespStatus::Error, "INCRBY arity", ""};
        return doIncr(cmd, std::atoll(cmd.args[2].c_str()));
    }
    if (verb == "LPUSH")
        return doPush(cmd, true);
    if (verb == "RPUSH")
        return doPush(cmd, false);
    if (verb == "LPOP")
        return doLpop(cmd);
    if (verb == "LRANGE")
        return doLrange(cmd);
    if (verb == "LLEN")
        return doLlen(cmd);
    if (verb == "SADD")
        return doSadd(cmd);
    if (verb == "SREM")
        return doSrem(cmd);
    if (verb == "SISMEMBER")
        return doSismember(cmd);
    if (verb == "SMEMBERS")
        return doSmembers(cmd);
    if (verb == "SCARD")
        return doScard(cmd);
    if (verb == "HSET")
        return doHset(cmd);
    if (verb == "HGET")
        return doHget(cmd);
    if (verb == "HDEL")
        return doHdel(cmd);
    if (verb == "LOCK")
        return doLock(cmd, session);
    if (verb == "UNLOCK")
        return doUnlock(cmd, session);
    return {RespStatus::Error, "unknown command " + verb, ""};
}

Bytes
CommandStore::executeToResponse(const Command &cmd, std::uint16_t session)
{
    Result result = execute(cmd, session);
    if (!result.cacheKey.empty())
        return encodeGetResponse(result.status, result.cacheKey,
                                 result.value);
    return encodeResponse(result.status, result.value);
}

CommandStore::Result
CommandStore::doGet(const Command &cmd)
{
    if (cmd.args.size() != 2)
        return {RespStatus::Error, "GET arity", ""};
    auto value = load(keyArg(cmd));
    if (!value)
        return {RespStatus::Nil, "", cmd.args[1]};
    if (value->empty() || (*value)[0] != 'S')
        return {RespStatus::Error, "WRONGTYPE", ""};
    return {RespStatus::Ok, value->substr(1), cmd.args[1]};
}

CommandStore::Result
CommandStore::doSet(const Command &cmd)
{
    if (cmd.args.size() != 3)
        return {RespStatus::Error, "SET arity", ""};
    storeValue(keyArg(cmd), typed('S', cmd.args[2]));
    return {RespStatus::Ok, "OK", ""};
}

CommandStore::Result
CommandStore::doDel(const Command &cmd)
{
    if (cmd.args.size() != 2)
        return {RespStatus::Error, "DEL arity", ""};
    bool erased = store_->erase(keyArg(cmd));
    return {RespStatus::Ok, erased ? "1" : "0", ""};
}

CommandStore::Result
CommandStore::doExists(const Command &cmd)
{
    if (cmd.args.size() != 2)
        return {RespStatus::Error, "EXISTS arity", ""};
    return {RespStatus::Ok, load(keyArg(cmd)) ? "1" : "0", ""};
}

CommandStore::Result
CommandStore::doIncr(const Command &cmd, std::int64_t by)
{
    if (cmd.args.size() < 2)
        return {RespStatus::Error, "INCR arity", ""};
    KeyRef key = keyArg(cmd);
    std::int64_t current = 0;
    if (auto value = load(key)) {
        if (value->empty() || (*value)[0] != 'S')
            return {RespStatus::Error, "WRONGTYPE", ""};
        current = std::atoll(value->c_str() + 1);
    }
    current += by;
    std::string text = std::to_string(current);
    storeValue(key, typed('S', text));
    return {RespStatus::Ok, text, ""};
}

CommandStore::Result
CommandStore::doPush(const Command &cmd, bool front)
{
    if (cmd.args.size() != 3)
        return {RespStatus::Error, "PUSH arity", ""};
    KeyRef key = keyArg(cmd);
    std::vector<std::string> items;
    if (auto value = load(key)) {
        if (value->empty() || (*value)[0] != 'L')
            return {RespStatus::Error, "WRONGTYPE", ""};
        items = loadList(value->substr(1));
    }
    if (front)
        items.insert(items.begin(), cmd.args[2]);
    else
        items.push_back(cmd.args[2]);
    // Retwis-style trim keeps timelines bounded.
    if (items.size() > kListCap) {
        if (front)
            items.resize(kListCap);
        else
            items.erase(items.begin(),
                        items.begin() +
                            static_cast<long>(items.size() - kListCap));
    }
    storeValue(key, encodeList(items, 'L'));
    return {RespStatus::Ok, std::to_string(items.size()), ""};
}

CommandStore::Result
CommandStore::doLpop(const Command &cmd)
{
    if (cmd.args.size() != 2)
        return {RespStatus::Error, "LPOP arity", ""};
    KeyRef key = keyArg(cmd);
    auto value = load(key);
    if (!value)
        return {RespStatus::Nil, "", ""};
    if (value->empty() || (*value)[0] != 'L')
        return {RespStatus::Error, "WRONGTYPE", ""};
    auto items = loadList(value->substr(1));
    if (items.empty())
        return {RespStatus::Nil, "", ""};
    std::string popped = items.front();
    items.erase(items.begin());
    storeValue(key, encodeList(items, 'L'));
    return {RespStatus::Ok, popped, ""};
}

CommandStore::Result
CommandStore::doLrange(const Command &cmd)
{
    if (cmd.args.size() != 4)
        return {RespStatus::Error, "LRANGE arity", ""};
    auto value = load(keyArg(cmd));
    if (!value)
        return {RespStatus::Nil, "", ""};
    if (value->empty() || (*value)[0] != 'L')
        return {RespStatus::Error, "WRONGTYPE", ""};
    auto items = loadList(value->substr(1));
    long start = std::atol(cmd.args[2].c_str());
    long stop = std::atol(cmd.args[3].c_str());
    long n = static_cast<long>(items.size());
    if (start < 0)
        start += n;
    if (stop < 0)
        stop += n;
    start = std::max(0L, start);
    stop = std::min(n - 1, stop);
    std::string joined;
    for (long i = start; i <= stop; i++) {
        if (!joined.empty())
            joined.push_back('\n');
        joined.append(items[static_cast<std::size_t>(i)]);
    }
    return {RespStatus::Ok, joined, ""};
}

CommandStore::Result
CommandStore::doLlen(const Command &cmd)
{
    if (cmd.args.size() != 2)
        return {RespStatus::Error, "LLEN arity", ""};
    auto value = load(keyArg(cmd));
    if (!value)
        return {RespStatus::Ok, "0", ""};
    if (value->empty() || (*value)[0] != 'L')
        return {RespStatus::Error, "WRONGTYPE", ""};
    return {RespStatus::Ok,
            std::to_string(loadList(value->substr(1)).size()), ""};
}

CommandStore::Result
CommandStore::doSadd(const Command &cmd)
{
    if (cmd.args.size() != 3)
        return {RespStatus::Error, "SADD arity", ""};
    KeyRef key = keyArg(cmd);
    std::vector<std::string> items;
    if (auto value = load(key)) {
        if (value->empty() || (*value)[0] != 'T')
            return {RespStatus::Error, "WRONGTYPE", ""};
        items = loadList(value->substr(1));
    }
    if (std::find(items.begin(), items.end(), cmd.args[2]) !=
        items.end())
        return {RespStatus::Ok, "0", ""};
    items.push_back(cmd.args[2]);
    storeValue(key, encodeList(items, 'T'));
    return {RespStatus::Ok, "1", ""};
}

CommandStore::Result
CommandStore::doSrem(const Command &cmd)
{
    if (cmd.args.size() != 3)
        return {RespStatus::Error, "SREM arity", ""};
    KeyRef key = keyArg(cmd);
    auto value = load(key);
    if (!value)
        return {RespStatus::Ok, "0", ""};
    if (value->empty() || (*value)[0] != 'T')
        return {RespStatus::Error, "WRONGTYPE", ""};
    auto items = loadList(value->substr(1));
    auto it = std::find(items.begin(), items.end(), cmd.args[2]);
    if (it == items.end())
        return {RespStatus::Ok, "0", ""};
    items.erase(it);
    storeValue(key, encodeList(items, 'T'));
    return {RespStatus::Ok, "1", ""};
}

CommandStore::Result
CommandStore::doSismember(const Command &cmd)
{
    if (cmd.args.size() != 3)
        return {RespStatus::Error, "SISMEMBER arity", ""};
    auto value = load(keyArg(cmd));
    if (!value)
        return {RespStatus::Ok, "0", ""};
    if (value->empty() || (*value)[0] != 'T')
        return {RespStatus::Error, "WRONGTYPE", ""};
    auto items = loadList(value->substr(1));
    bool member = std::find(items.begin(), items.end(), cmd.args[2]) !=
                  items.end();
    return {RespStatus::Ok, member ? "1" : "0", ""};
}

CommandStore::Result
CommandStore::doSmembers(const Command &cmd)
{
    if (cmd.args.size() != 2)
        return {RespStatus::Error, "SMEMBERS arity", ""};
    auto value = load(keyArg(cmd));
    if (!value)
        return {RespStatus::Nil, "", ""};
    if (value->empty() || (*value)[0] != 'T')
        return {RespStatus::Error, "WRONGTYPE", ""};
    auto items = loadList(value->substr(1));
    std::string joined;
    for (const std::string &item : items) {
        if (!joined.empty())
            joined.push_back('\n');
        joined.append(item);
    }
    return {RespStatus::Ok, joined, ""};
}

CommandStore::Result
CommandStore::doScard(const Command &cmd)
{
    if (cmd.args.size() != 2)
        return {RespStatus::Error, "SCARD arity", ""};
    auto value = load(keyArg(cmd));
    if (!value)
        return {RespStatus::Ok, "0", ""};
    if (value->empty() || (*value)[0] != 'T')
        return {RespStatus::Error, "WRONGTYPE", ""};
    return {RespStatus::Ok,
            std::to_string(loadList(value->substr(1)).size()), ""};
}

CommandStore::Result
CommandStore::doHset(const Command &cmd)
{
    if (cmd.args.size() != 4)
        return {RespStatus::Error, "HSET arity", ""};
    KeyRef key = keyArg(cmd);
    std::vector<std::string> pairs; // flattened field,value list
    if (auto value = load(key)) {
        if (value->empty() || (*value)[0] != 'H')
            return {RespStatus::Error, "WRONGTYPE", ""};
        pairs = loadList(value->substr(1));
    }
    bool replaced = false;
    for (std::size_t i = 0; i + 1 < pairs.size(); i += 2) {
        if (pairs[i] == cmd.args[2]) {
            pairs[i + 1] = cmd.args[3];
            replaced = true;
            break;
        }
    }
    if (!replaced) {
        pairs.push_back(cmd.args[2]);
        pairs.push_back(cmd.args[3]);
    }
    storeValue(key, encodeList(pairs, 'H'));
    return {RespStatus::Ok, replaced ? "0" : "1", ""};
}

CommandStore::Result
CommandStore::doHget(const Command &cmd)
{
    if (cmd.args.size() != 3)
        return {RespStatus::Error, "HGET arity", ""};
    auto value = load(keyArg(cmd));
    if (!value)
        return {RespStatus::Nil, "", ""};
    if (value->empty() || (*value)[0] != 'H')
        return {RespStatus::Error, "WRONGTYPE", ""};
    auto pairs = loadList(value->substr(1));
    for (std::size_t i = 0; i + 1 < pairs.size(); i += 2) {
        if (pairs[i] == cmd.args[2])
            return {RespStatus::Ok, pairs[i + 1], ""};
    }
    return {RespStatus::Nil, "", ""};
}

CommandStore::Result
CommandStore::doHdel(const Command &cmd)
{
    if (cmd.args.size() != 3)
        return {RespStatus::Error, "HDEL arity", ""};
    KeyRef key = keyArg(cmd);
    auto value = load(key);
    if (!value)
        return {RespStatus::Ok, "0", ""};
    if (value->empty() || (*value)[0] != 'H')
        return {RespStatus::Error, "WRONGTYPE", ""};
    auto pairs = loadList(value->substr(1));
    for (std::size_t i = 0; i + 1 < pairs.size(); i += 2) {
        if (pairs[i] == cmd.args[2]) {
            pairs.erase(pairs.begin() + static_cast<long>(i),
                        pairs.begin() + static_cast<long>(i) + 2);
            storeValue(key, encodeList(pairs, 'H'));
            return {RespStatus::Ok, "1", ""};
        }
    }
    return {RespStatus::Ok, "0", ""};
}

CommandStore::Result
CommandStore::doLock(const Command &cmd, std::uint16_t session)
{
    if (cmd.args.size() != 2)
        return {RespStatus::Error, "LOCK arity", ""};
    std::string key = "\x02lock:" + cmd.args[1];
    KeyRef lockRef{std::string_view(key)};
    std::string owner = std::to_string(session);
    if (auto value = load(lockRef)) {
        std::string held = value->substr(1);
        if (held != owner)
            return {RespStatus::Locked, held, ""};
        // Re-acquisition by the owner is idempotent (needed when a
        // lock reply is lost across a crash and the client retries).
        return {RespStatus::Ok, "OK", ""};
    }
    storeValue(lockRef, typed('S', owner));
    return {RespStatus::Ok, "OK", ""};
}

CommandStore::Result
CommandStore::doUnlock(const Command &cmd, std::uint16_t session)
{
    if (cmd.args.size() != 2)
        return {RespStatus::Error, "UNLOCK arity", ""};
    std::string key = "\x02lock:" + cmd.args[1];
    KeyRef lockRef{std::string_view(key)};
    std::string owner = std::to_string(session);
    auto value = load(lockRef);
    if (!value)
        return {RespStatus::Ok, "OK", ""}; // already released (retry)
    if (value->substr(1) != owner)
        return {RespStatus::Locked, value->substr(1), ""};
    store_->erase(lockRef);
    return {RespStatus::Ok, "OK", ""};
}

} // namespace pmnet::apps
