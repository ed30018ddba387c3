#include "net/topology.h"

#include <queue>

#include "common/logging.h"

namespace pmnet::net {

Link &
Topology::connect(Node &a, Node &b, LinkConfig config)
{
    auto link = std::make_unique<Link>(
        sim_, formatMessage("link(%s,%s)", a.name().c_str(),
                            b.name().c_str()),
        a, b, config);
    Link &ref = *link;
    links_.push_back(std::move(link));
    return ref;
}

Node &
Topology::node(NodeId node_id) const
{
    if (node_id >= nodes_.size())
        panic("Topology: bad node id %u", node_id);
    return *nodes_[node_id];
}

void
Topology::computeRoutes()
{
    // For each source ForwardingNode, BFS over the graph recording the
    // first-hop port toward every destination.
    for (auto &src_owner : nodes_) {
        auto *fwd = dynamic_cast<ForwardingNode *>(src_owner.get());
        if (!fwd)
            continue;

        std::vector<int> first_port(nodes_.size(), -1);
        std::vector<bool> visited(nodes_.size(), false);
        std::queue<NodeId> frontier;
        visited[fwd->id()] = true;
        frontier.push(fwd->id());

        while (!frontier.empty()) {
            NodeId cur = frontier.front();
            frontier.pop();
            Node &cur_node = *nodes_[cur];
            for (int port = 0; port < cur_node.portCount(); port++) {
                Link *link = cur_node.linkAt(port);
                Node &peer = link->peerOf(cur_node);
                if (visited[peer.id()])
                    continue;
                visited[peer.id()] = true;
                // First hop is inherited from the parent, except for
                // the source's direct neighbours.
                first_port[peer.id()] =
                    cur == fwd->id() ? port : first_port[cur];
                frontier.push(peer.id());
            }
        }

        for (NodeId dst = 0; dst < nodes_.size(); dst++) {
            if (dst != fwd->id() && first_port[dst] >= 0)
                fwd->setRoute(dst, first_port[dst]);
        }
    }
}

} // namespace pmnet::net
