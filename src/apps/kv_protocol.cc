#include "apps/kv_protocol.h"

#include <cstdlib>
#include <unordered_map>

namespace pmnet::apps {

namespace {

/** Response payload discriminator byte. */
enum class RespKind : std::uint8_t { Generic = 0x80, Get = 0x81 };

} // namespace

CommandClass
classifyCommand(const std::string &verb)
{
    static const std::unordered_map<std::string, CommandClass> table = {
        {"SET", CommandClass::Update},
        {"DEL", CommandClass::Update},
        {"INCR", CommandClass::Update},
        {"INCRBY", CommandClass::Update},
        {"APPEND", CommandClass::Update},
        {"CAS", CommandClass::Update},
        {"LPUSH", CommandClass::Update},
        {"RPUSH", CommandClass::Update},
        {"LPOP", CommandClass::Update},
        {"SADD", CommandClass::Update},
        {"SREM", CommandClass::Update},
        {"HSET", CommandClass::Update},
        {"HDEL", CommandClass::Update},
        {"GET", CommandClass::Read},
        {"EXISTS", CommandClass::Read},
        {"LRANGE", CommandClass::Read},
        {"LLEN", CommandClass::Read},
        {"SISMEMBER", CommandClass::Read},
        {"SMEMBERS", CommandClass::Read},
        {"SCARD", CommandClass::Read},
        {"HGET", CommandClass::Read},
        {"LOCK", CommandClass::Sync},
        {"UNLOCK", CommandClass::Sync},
    };
    auto it = table.find(verb);
    return it == table.end() ? CommandClass::Read : it->second;
}

bool
commandIsUpdate(const Command &cmd)
{
    return !cmd.args.empty() &&
           classifyCommand(cmd.verb()) == CommandClass::Update;
}

Bytes
encodeCommand(const Command &cmd)
{
    // The exact size, reserved once: a u16 argc, then each argument
    // as a u32 length and its bytes.
    std::size_t size = 2;
    for (const std::string &arg : cmd.args)
        size += 4 + arg.size();
    Bytes out;
    out.reserve(size);
    ByteWriter writer(out);
    writer.writeU16(static_cast<std::uint16_t>(cmd.args.size()));
    for (const std::string &arg : cmd.args)
        writer.writeString(arg);
    return out;
}

std::optional<Command>
decodeCommand(const Bytes &wire)
{
    ByteReader reader(wire);
    std::uint16_t argc = reader.readU16();
    if (!reader.ok() || argc == 0)
        return std::nullopt;
    Command cmd;
    cmd.args.reserve(argc);
    for (std::uint16_t i = 0; i < argc; i++)
        cmd.args.push_back(reader.readString());
    if (!reader.ok())
        return std::nullopt;
    return cmd;
}

Bytes
encodeResponse(RespStatus status, const std::string &value)
{
    Bytes out;
    out.reserve(2 + 4 + value.size());
    ByteWriter writer(out);
    writer.writeU8(static_cast<std::uint8_t>(RespKind::Generic));
    writer.writeU8(static_cast<std::uint8_t>(status));
    writer.writeString(value);
    return out;
}

Bytes
encodeGetResponse(RespStatus status, const std::string &key,
                  const std::string &value)
{
    Bytes out;
    out.reserve(2 + 4 + key.size() + 4 + value.size());
    ByteWriter writer(out);
    writer.writeU8(static_cast<std::uint8_t>(RespKind::Get));
    writer.writeU8(static_cast<std::uint8_t>(status));
    writer.writeString(key);
    writer.writeString(value);
    return out;
}

std::optional<Response>
decodeResponse(const Bytes &wire)
{
    ByteReader reader(wire);
    std::uint8_t kind = reader.readU8();
    std::uint8_t status = reader.readU8();
    if (!reader.ok() || status > 3)
        return std::nullopt;
    Response resp;
    resp.status = static_cast<RespStatus>(status);
    if (kind == static_cast<std::uint8_t>(RespKind::Get)) {
        resp.key = reader.readString();
        resp.value = reader.readString();
    } else if (kind == static_cast<std::uint8_t>(RespKind::Generic)) {
        resp.value = reader.readString();
    } else {
        return std::nullopt;
    }
    if (!reader.ok())
        return std::nullopt;
    return resp;
}

std::optional<pmnetdev::ParsedUpdate>
KvCacheCodec::parseUpdate(const Bytes &payload) const
{
    // Zero-copy decode of exactly {"SET", key, value}: no Command, no
    // string materialization — the returned views point into payload
    // and the key hash is computed here, once per packet.
    ByteReader reader(payload);
    if (reader.readU16() != 3)
        return std::nullopt;
    std::string_view verb = reader.readStringView();
    std::string_view key = reader.readStringView();
    std::string_view value = reader.readStringView();
    if (!reader.ok() || verb != "SET")
        return std::nullopt;
    return pmnetdev::ParsedUpdate{KeyRef(key), value};
}

std::optional<KeyRef>
KvCacheCodec::parseRead(const Bytes &payload) const
{
    ByteReader reader(payload);
    if (reader.readU16() != 2)
        return std::nullopt;
    std::string_view verb = reader.readStringView();
    std::string_view key = reader.readStringView();
    if (!reader.ok() || verb != "GET")
        return std::nullopt;
    return KeyRef(key);
}

std::optional<pmnetdev::ParsedUpdate>
KvCacheCodec::parseReadResponse(const Bytes &payload) const
{
    ByteReader reader(payload);
    std::uint8_t kind = reader.readU8();
    std::uint8_t status = reader.readU8();
    if (!reader.ok() || kind != static_cast<std::uint8_t>(RespKind::Get) ||
        status != static_cast<std::uint8_t>(RespStatus::Ok))
        return std::nullopt;
    std::string_view key = reader.readStringView();
    std::string_view value = reader.readStringView();
    if (!reader.ok() || key.empty())
        return std::nullopt;
    return pmnetdev::ParsedUpdate{KeyRef(key), value};
}

Bytes
KvCacheCodec::makeReadResponse(std::string_view key,
                               const Bytes &value) const
{
    Bytes out;
    ByteWriter writer(out);
    writer.writeU8(static_cast<std::uint8_t>(RespKind::Get));
    writer.writeU8(static_cast<std::uint8_t>(RespStatus::Ok));
    writer.writeString(key);
    writer.writeString(std::string_view(
        reinterpret_cast<const char *>(value.data()), value.size()));
    return out;
}

namespace {

/** Decoded argv views of a near-data payload (zero-copy). */
struct NearDataArgs
{
    std::string_view verb;
    std::string_view key;
    std::string_view arg2;
    std::string_view arg3;
    std::uint16_t argc = 0;
};

std::optional<NearDataArgs>
parseNearDataArgs(const Bytes &payload)
{
    ByteReader reader(payload);
    NearDataArgs out;
    out.argc = reader.readU16();
    if (!reader.ok() || out.argc < 2 || out.argc > 4)
        return std::nullopt;
    out.verb = reader.readStringView();
    out.key = reader.readStringView();
    if (out.argc >= 3)
        out.arg2 = reader.readStringView();
    if (out.argc == 4)
        out.arg3 = reader.readStringView();
    if (!reader.ok())
        return std::nullopt;
    return out;
}

/** Arity check matching CommandStore's dispatch table. */
bool
nearDataArityOk(const NearDataArgs &args)
{
    if (args.verb == "INCR")
        return args.argc == 2;
    if (args.verb == "INCRBY" || args.verb == "APPEND")
        return args.argc == 3;
    if (args.verb == "CAS")
        return args.argc == 4;
    return false;
}

std::string
toText(const Bytes &bytes)
{
    return std::string(bytes.begin(), bytes.end());
}

} // namespace

std::optional<KeyRef>
KvCacheCodec::parseNearData(const Bytes &payload) const
{
    auto args = parseNearDataArgs(payload);
    if (!args || !nearDataArityOk(*args))
        return std::nullopt;
    return KeyRef(args->key);
}

std::optional<pmnetdev::CacheCodec::NearDataResult>
KvCacheCodec::applyNearData(const Bytes &payload, const Bytes &value) const
{
    auto args = parseNearDataArgs(payload);
    if (!args || !nearDataArityOk(*args))
        return std::nullopt;

    NearDataResult out;
    if (args->verb == "INCR" || args->verb == "INCRBY") {
        // Mirror CommandStore::doIncr: atoll over the raw string
        // (NUL-terminated copies so parse edge cases stay identical).
        std::int64_t by =
            args->verb == "INCR"
                ? 1
                : std::atoll(std::string(args->arg2).c_str());
        std::int64_t current = std::atoll(toText(value).c_str());
        std::string text = std::to_string(current + by);
        out.wrote = true;
        out.newValue = Bytes(text.begin(), text.end());
        out.response = encodeResponse(RespStatus::Ok, text);
        return out;
    }
    if (args->verb == "APPEND") {
        std::string text = toText(value);
        text.append(args->arg2);
        out.wrote = true;
        out.newValue = Bytes(text.begin(), text.end());
        out.response = encodeResponse(RespStatus::Ok, text);
        return out;
    }
    if (args->verb == "CAS") {
        std::string current = toText(value);
        if (std::string_view(current) == args->arg2) {
            std::string text(args->arg3);
            out.wrote = true;
            out.newValue = Bytes(text.begin(), text.end());
            out.response = encodeResponse(RespStatus::Ok, text);
        } else {
            out.wrote = false;
            out.newValue = value;
            out.response = encodeResponse(RespStatus::Error, current);
        }
        return out;
    }
    return std::nullopt;
}

} // namespace pmnet::apps
