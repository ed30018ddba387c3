#include "gateway/client.h"

#include "common/logging.h"

namespace pmnet::gateway {

stack::ClientConfig
GatewayClient::Config::wallClientDefaults()
{
    stack::ClientConfig client;
    client.server = kServerNode;
    // Resend after 10 ms of wall silence (localhost is far faster;
    // this only matters when a datagram is actually lost).
    client.retryTimeout = milliseconds(10);
    return client;
}

GatewayClient::GatewayClient(Config config)
    : config_(std::move(config)), transport_(0),
      bridge_(sim_, "bridge", GatewayBridge::Role::Client, transport_),
      clientHost_(sim_, "client", clientNode(config_.sessionId),
                  zeroProfile()),
      link_(sim_, "l.client-bridge", clientHost_, bridge_,
            inProcessLink()),
      runtime_(sim_, clock_)
{
    if (!config_.server.valid())
        fatal("GatewayClient: no server endpoint configured");
    bridge_.setPeer(config_.server);

    stack::ClientConfig client_config = config_.client;
    client_config.server = kServerNode;
    client_config.sessionId = config_.sessionId;
    lib_ = std::make_unique<stack::ClientLib>(clientHost_, client_config);
    lib_->startSession();

    transport_.setReceive(
        [this](const Endpoint &from, const std::uint8_t *data,
               std::size_t len) { bridge_.onDatagram(from, data, len); });
    runtime_.addTransport(transport_);
}

bool
GatewayClient::await(const std::function<bool()> &done, Tick timeout)
{
    Tick deadline = timeout > 0 ? clock_.now() + timeout : 0;
    while (!done()) {
        int wait_ms = -1;
        if (deadline > 0) {
            Tick left = deadline - clock_.now();
            if (left <= 0)
                return false;
            wait_ms = static_cast<int>(left / 1'000'000) + 1;
        }
        runtime_.pollOnce(wait_ms);
    }
    return true;
}

bool
GatewayClient::set(const std::string &key, const std::string &value,
                   Tick timeout)
{
    bool done = false;
    lib_->sendUpdate(apps::encodeCommand({{"SET", key, value}}),
                     [&done] { done = true; });
    return await([&done] { return done; }, timeout);
}

std::optional<std::string>
GatewayClient::get(const std::string &key, Tick timeout)
{
    std::optional<apps::Response> resp =
        exec(apps::Command{{"GET", key}}, timeout);
    if (!resp || resp->status != apps::RespStatus::Ok)
        return std::nullopt;
    return resp->value;
}

std::optional<apps::Response>
GatewayClient::exec(const apps::Command &cmd, Tick timeout)
{
    bool done = false;
    std::optional<apps::Response> result;
    if (apps::commandIsUpdate(cmd)) {
        lib_->sendUpdate(apps::encodeCommand(cmd), [&] {
            result = apps::Response{apps::RespStatus::Ok, "", ""};
            done = true;
        });
    } else {
        lib_->bypass(apps::encodeCommand(cmd), [&](const Bytes &wire) {
            result = apps::decodeResponse(wire);
            done = true;
        });
    }
    if (!await([&done] { return done; }, timeout))
        return std::nullopt;
    return result;
}

void
GatewayClient::execAsync(const apps::Command &cmd)
{
    if (apps::commandIsUpdate(cmd))
        lib_->sendUpdate(apps::encodeCommand(cmd), [] {});
    else
        lib_->bypass(apps::encodeCommand(cmd), [](const Bytes &) {});
}

bool
GatewayClient::drainOutstanding(Tick timeout)
{
    return await([this] { return lib_->outstanding() == 0; }, timeout);
}

} // namespace pmnet::gateway
