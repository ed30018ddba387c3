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

} // namespace pmnet::apps
