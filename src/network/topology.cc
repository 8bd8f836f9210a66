#include "network/topology.hh"

#include "sim/logging.hh"

namespace cenju
{

Topology::Topology(unsigned num_nodes)
    : _numNodes(num_nodes),
      _stages(NetConfig::defaultStages(num_nodes)),
      _channels(1u << (2 * _stages))
{}

std::pair<unsigned, unsigned>
Topology::injectPoint(NodeId n) const
{
    unsigned c = shuffle(static_cast<unsigned>(n));
    return {c / switchRadix, c % switchRadix};
}

std::pair<unsigned, unsigned>
Topology::link(unsigned stage, unsigned row, unsigned port) const
{
    if (stage + 1 >= _stages)
        panic("link() called on the final stage");
    unsigned c = shuffle(row * switchRadix + port);
    return {c / switchRadix, c % switchRadix};
}

} // namespace cenju
