// tree_patrol — the paper's §5 future work, running: uniform deployment on
// a *tree* network via the Euler-tour ring embedding.
//
// Maintenance agents live on a random tree (a typical LAN/overlay shape).
// Walking depth-first, the tree looks like a virtual unidirectional ring of
// 2(n−1) nodes; the unmodified ring algorithms then spread the agents
// uniformly along the tour, which bounds the patrol staleness of every tree
// node by ⌈2(n−1)/k⌉ tour steps.
//
//   ./tree_patrol --n=24 --k=5 --seed=9 --shape=random

#include <cstdlib>
#include <iostream>
#include <set>

#include "embed/tree_deploy.h"
#include "sim/checker.h"
#include "util/cli.h"
#include "util/table.h"

namespace {

udring::embed::TreeNetwork make_tree(const std::string& shape, std::size_t n,
                                     udring::Rng& rng) {
  using namespace udring::embed;
  if (shape == "path") return path_tree(n);
  if (shape == "star") return star_tree(n);
  if (shape == "binary") return binary_tree(n);
  if (shape == "caterpillar") return caterpillar_tree(n / 3, 2);
  return random_tree(n, rng);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace udring;
  Cli cli(argc, argv);
  const std::size_t n = cli.get_size("n", 24, "tree size (nodes)");
  const std::size_t k = cli.get_size("k", 5, "number of agents");
  const std::uint64_t seed = cli.get_u64("seed", 9, "rng seed");
  const std::string shape =
      cli.get("shape", "tree shape: random|path|star|binary|caterpillar", "random")
          .value();
  cli.reject_unknown_flags();
  if (cli.wants_help()) {
    cli.print_help("uniform deployment on trees via the Euler-tour embedding (§5)");
    return EXIT_SUCCESS;
  }

  Rng rng(seed);
  const embed::TreeNetwork tree = make_tree(shape, n, rng);
  const embed::EulerRing ring(tree);

  // Distinct random tree homes.
  std::vector<embed::TreeNodeId> homes;
  std::set<embed::TreeNodeId> used;
  while (homes.size() < k && used.size() < tree.size()) {
    const auto node = static_cast<embed::TreeNodeId>(rng.below(tree.size()));
    if (used.insert(node).second) homes.push_back(node);
  }

  std::cout << "tree_patrol: " << k << " agents on a " << tree.size()
            << "-node " << shape << " tree → virtual ring of " << ring.size()
            << " nodes (Euler tour)\n\nTour (first 2(n-1) steps): ";
  for (std::size_t v = 0; v < std::min<std::size_t>(ring.size(), 24); ++v) {
    std::cout << ring.tree_node(v) << ' ';
  }
  if (ring.size() > 24) std::cout << "…";
  std::cout << "\n\n";

  const auto [worst_before, mean_before] = embed::tree_coverage(tree, homes);
  const embed::TreeDeployReport report =
      embed::deploy_on_tree(tree, homes, core::Algorithm::KnownKFull);
  if (!report.success) {
    std::cerr << "deployment failed: " << report.failure << "\n";
    return EXIT_FAILURE;
  }

  std::vector<std::size_t> initial_tour_positions;
  for (const auto home : homes) {
    initial_tour_positions.push_back(ring.first_position(home));
  }
  const auto gaps_before = sim::ring_gaps(initial_tour_positions, ring.size());
  const auto gaps_after =
      sim::ring_gaps(report.virtual_positions, report.virtual_ring_size);

  Table table({"metric", "before", "after", "bound"});
  table.add_row({"worst hop distance to an agent", Table::num(worst_before),
                 Table::num(report.worst_tree_distance), "-"});
  table.add_row({"mean hop distance to an agent", Table::num(mean_before, 2),
                 Table::num(report.mean_tree_distance, 2), "-"});
  table.add_row(
      {"max tour gap (patrol staleness)",
       Table::num(*std::max_element(gaps_before.begin(), gaps_before.end())),
       Table::num(*std::max_element(gaps_after.begin(), gaps_after.end())),
       "⌈2(n-1)/k⌉ = " + Table::num((ring.size() + k - 1) / k)});
  std::cout << table << "\n";

  std::cout << "Agents end on tree nodes:";
  for (const auto node : report.tree_positions) std::cout << ' ' << node;
  std::cout << "\n(tour positions:";
  for (const auto v : report.virtual_positions) std::cout << ' ' << v;
  std::cout << ")\n\nCost: " << report.total_moves
            << " tree-edge traversals — identical accounting to the ring, as\n"
               "§5 promises (the embedding preserves total moves).\n";
  return EXIT_SUCCESS;
}
