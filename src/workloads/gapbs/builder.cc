#include "workloads/gapbs/builder.hh"

#include <algorithm>
#include <numeric>

#include "base/logging.hh"
#include "sim/simulator.hh"

namespace mclock {
namespace workloads {
namespace gapbs {

namespace {

/**
 * Visit every directed CSR entry (u, v, w) in the fixed order the CSR
 * is laid out by: all edges as given, then, when @p symmetrize is set,
 * all edges reversed. Walking the list twice gives each adjacency list
 * the same contents and order as appending the reversed copy would,
 * without the copy.
 */
template <typename Fn>
void
forEachEntry(const std::vector<Edge> &edges, bool symmetrize, Fn &&fn)
{
    for (const auto &e : edges)
        fn(e.u, e.v, e.w);
    if (symmetrize) {
        for (const auto &e : edges)
            fn(e.v, e.u, e.w);
    }
}

}  // namespace

std::unique_ptr<Graph>
Builder::build(sim::Simulator &sim, std::vector<Edge> edges,
               const BuildOptions &opts)
{
    // Deduplication reorders neighbours and would detach their weights.
    MCLOCK_ASSERT(!(opts.sortAndDedupNeighbors && opts.keepWeights),
                  "sortAndDedupNeighbors cannot keep weights");

    // Determine the vertex count from the edge list.
    GNode maxId = 0;
    for (const auto &e : edges)
        maxId = std::max({maxId, e.u, e.v});
    const std::size_t n = static_cast<std::size_t>(maxId) + 1;

    if (opts.removeSelfLoops) {
        edges.erase(std::remove_if(edges.begin(), edges.end(),
                                   [](const Edge &e) { return e.u == e.v; }),
                    edges.end());
    }

    // Optional degree-descending relabel (GAPBS TC preprocessing).
    std::vector<GNode> relabel;
    if (opts.relabelByDegree) {
        std::vector<std::uint64_t> degree(n, 0);
        forEachEntry(edges, opts.symmetrize,
                     [&degree](GNode u, GNode, Weight) { ++degree[u]; });
        std::vector<GNode> order(n);
        std::iota(order.begin(), order.end(), 0);
        std::sort(order.begin(), order.end(),
                  [&degree](GNode a, GNode b) {
                      return degree[a] > degree[b];
                  });
        relabel.assign(n, 0);
        for (std::size_t rank = 0; rank < n; ++rank)
            relabel[order[rank]] = static_cast<GNode>(rank);
        for (auto &e : edges) {
            e.u = relabel[e.u];
            e.v = relabel[e.v];
        }
    }

    // Counting sort by source vertex into CSR.
    std::vector<std::uint64_t> offsets(n + 1, 0);
    forEachEntry(edges, opts.symmetrize,
                 [&offsets](GNode u, GNode, Weight) { ++offsets[u + 1]; });
    for (std::size_t i = 1; i <= n; ++i)
        offsets[i] += offsets[i - 1];
    const std::uint64_t entries = offsets[n];
    std::vector<GNode> neighbors(entries);
    std::vector<Weight> weights(opts.keepWeights ? entries : 0);
    {
        std::vector<std::uint64_t> cursor(offsets.begin(),
                                          offsets.end() - 1);
        forEachEntry(edges, opts.symmetrize,
                     [&](GNode u, GNode v, Weight w) {
                         const std::uint64_t pos = cursor[u]++;
                         neighbors[pos] = v;
                         if (opts.keepWeights)
                             weights[pos] = w;
                     });
    }

    if (opts.sortAndDedupNeighbors) {
        std::vector<GNode> deduped;
        deduped.reserve(neighbors.size());
        std::vector<std::uint64_t> newOffsets(n + 1, 0);
        for (std::size_t u = 0; u < n; ++u) {
            const auto begin =
                neighbors.begin() + static_cast<long>(offsets[u]);
            const auto end =
                neighbors.begin() + static_cast<long>(offsets[u + 1]);
            std::sort(begin, end);
            const std::size_t before = deduped.size();
            for (auto it = begin; it != end; ++it) {
                if (deduped.size() == before || deduped.back() != *it)
                    deduped.push_back(*it);
            }
            newOffsets[u + 1] = deduped.size();
        }
        offsets = std::move(newOffsets);
        neighbors = std::move(deduped);
    }

    // Materialise in simulated memory, in allocation order. This is the
    // load phase: offsets first (small, hot), then the neighbor stream,
    // then weights.
    auto graph = std::make_unique<Graph>();
    graph->numVertices_ = n;
    graph->numEdges_ = neighbors.size();
    graph->offsets_.allocate(sim, n + 1, "gapbs-offsets");
    for (std::size_t i = 0; i <= n; ++i)
        graph->offsets_.poke(i, offsets[i]);
    graph->offsets_.streamInit();
    graph->neighbors_.allocate(sim, neighbors.size(), "gapbs-neighbors");
    for (std::size_t i = 0; i < neighbors.size(); ++i)
        graph->neighbors_.poke(i, neighbors[i]);
    graph->neighbors_.streamInit();
    if (opts.keepWeights) {
        graph->weights_.allocate(sim, weights.size(), "gapbs-weights");
        for (std::size_t i = 0; i < weights.size(); ++i)
            graph->weights_.poke(i, weights[i]);
        graph->weights_.streamInit();
    }
    return graph;
}

}  // namespace gapbs
}  // namespace workloads
}  // namespace mclock
