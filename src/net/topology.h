/**
 * @file
 * Topology container: owns nodes and links, assigns NodeIds, and
 * computes shortest-path routes for every ForwardingNode via BFS.
 *
 * Hosts (single-homed endpoints) do not need routing tables — they
 * always transmit on their only port; switches and PMNet devices get a
 * full destination-to-port map.
 */

#ifndef PMNET_NET_TOPOLOGY_H
#define PMNET_NET_TOPOLOGY_H

#include <memory>
#include <vector>

#include "net/switch.h"

namespace pmnet::net {

/**
 * Owns the graph of nodes and links for one experiment. Every node
 * and link schedules on the one Simulator the topology is bound to.
 */
class Topology
{
  public:
    explicit Topology(sim::Simulator &simulator) : sim_(simulator) {}

    /**
     * Construct and register a node. NodeId is supplied by the
     * topology via the second constructor argument slot.
     *
     * Usage: topo.addNode<BasicSwitch>("tor") — the factory passes
     * (simulator, name, node_id) and forwards extra args after them.
     */
    template <typename NodeT, typename... Args>
    NodeT &
    addNode(std::string object_name, Args &&...args)
    {
        NodeId node_id = static_cast<NodeId>(nodes_.size());
        auto node = std::make_unique<NodeT>(sim_, std::move(object_name),
                                            node_id,
                                            std::forward<Args>(args)...);
        NodeT &ref = *node;
        nodes_.push_back(std::move(node));
        return ref;
    }

    /** Connect two registered nodes with a link. */
    Link &connect(Node &a, Node &b, LinkConfig config = {});

    /**
     * Fill routing tables of all ForwardingNodes with BFS next hops
     * toward every node. Call once after the graph is complete.
     */
    void computeRoutes();

    std::size_t nodeCount() const { return nodes_.size(); }
    Node &node(NodeId node_id) const;

  private:
    sim::Simulator &sim_;
    std::vector<std::unique_ptr<Node>> nodes_;
    std::vector<std::unique_ptr<Link>> links_;
};

} // namespace pmnet::net

#endif // PMNET_NET_TOPOLOGY_H
