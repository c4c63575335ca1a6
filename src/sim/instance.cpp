#include "sim/instance.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>
#include <utility>

namespace udring::sim {

Instance::Instance(Topology topology, std::vector<NodeId> homes,
                   ProgramFactory factory, SimOptions options)
    : topology_(std::move(topology)),
      homes_(std::move(homes)),
      factory_(std::move(factory)),
      options_(options) {
  if (topology_.empty()) {
    throw std::invalid_argument("Instance: topology must have at least one node");
  }
  if (homes_.empty()) {
    throw std::invalid_argument("Instance: need at least one agent");
  }
  if (homes_.size() > topology_.size()) {
    throw std::invalid_argument("Instance: more agents than nodes");
  }
  if (!factory_) {
    throw std::invalid_argument("Instance: null program factory");
  }
  for (const NodeId home : homes_) {
    if (home >= topology_.size()) {
      throw std::invalid_argument("Instance: home node out of range");
    }
  }
  // Distinctness: small agent counts (the overwhelmingly common case, and
  // Instance construction is on the pooled per-run path) use the
  // allocation-free quadratic scan; large ones pay one hash set.
  if (homes_.size() <= 64) {
    for (std::size_t i = 0; i < homes_.size(); ++i) {
      for (std::size_t j = i + 1; j < homes_.size(); ++j) {
        if (homes_[i] == homes_[j]) {
          throw std::invalid_argument("Instance: home nodes must be distinct");
        }
      }
    }
  } else {
    std::unordered_set<NodeId> seen;
    for (const NodeId home : homes_) {
      if (!seen.insert(home).second) {
        throw std::invalid_argument("Instance: home nodes must be distinct");
      }
    }
  }
  options_.faults.normalize();
  options_.faults.validate(topology_.size(), homes_.size());
  if (options_.max_actions == 0) {
    // Generous default: the paper's algorithms need ≤ ~14n moves per agent;
    // actions ≈ moves + a few parks each. 64·n·k + 4096 has wide margin.
    options_.max_actions = 64 * topology_.size() * homes_.size() + 4096;
  }
  options_.max_actions = std::max<std::size_t>(options_.max_actions, 1);
}

Instance::Instance(std::size_t node_count, std::vector<NodeId> homes,
                   ProgramFactory factory, SimOptions options)
    : Instance(Topology::ring(node_count), std::move(homes), std::move(factory),
               options) {}

}  // namespace udring::sim
