#include "workloads/gapbs/builder.hh"

#include <algorithm>
#include <numeric>
#include <utility>

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
 * without the copy. An entry's weight is its edge's entry in
 * @p weights, or 1 when @p weights is empty.
 */
template <typename Fn>
void
forEachEntry(const std::vector<Edge> &edges,
             const std::vector<Weight> &weights, bool symmetrize, Fn &&fn)
{
    const auto weightOf = [&weights](std::size_t i) {
        return weights.empty() ? Weight{1} : weights[i];
    };
    for (std::size_t i = 0; i < edges.size(); ++i)
        fn(edges[i].u, edges[i].v, weightOf(i));
    if (symmetrize) {
        for (std::size_t i = 0; i < edges.size(); ++i)
            fn(edges[i].v, edges[i].u, weightOf(i));
    }
}

}  // namespace

std::unique_ptr<Graph>
Builder::build(sim::Simulator &sim, std::vector<Edge> edges,
               const BuildOptions &opts, std::vector<Weight> edgeWeights)
{
    // Deduplication reorders neighbours and would detach their weights.
    MCLOCK_ASSERT(!(opts.sortAndDedupNeighbors && opts.keepWeights),
                  "sortAndDedupNeighbors cannot keep weights");
    MCLOCK_ASSERT(edgeWeights.size() ==
                      (opts.keepWeights ? edges.size() : 0),
                  "weights must be given, one per edge, exactly when "
                  "keepWeights is set");

    // Determine the vertex count from the edge list.
    GNode maxId = 0;
    for (const auto &e : edges)
        maxId = std::max({maxId, e.u, e.v});
    const std::size_t n = static_cast<std::size_t>(maxId) + 1;

    if (opts.removeSelfLoops) {
        // Compact edges and their weights together, in order.
        std::size_t kept = 0;
        for (std::size_t i = 0; i < edges.size(); ++i) {
            if (edges[i].u == edges[i].v)
                continue;
            edges[kept] = edges[i];
            if (!edgeWeights.empty())
                edgeWeights[kept] = edgeWeights[i];
            ++kept;
        }
        edges.resize(kept);
        if (!edgeWeights.empty())
            edgeWeights.resize(kept);
    }

    // Optional degree-descending relabel (GAPBS TC preprocessing).
    std::vector<GNode> relabel;
    if (opts.relabelByDegree) {
        std::vector<std::uint64_t> degree(n, 0);
        forEachEntry(edges, edgeWeights, opts.symmetrize,
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
    forEachEntry(edges, edgeWeights, opts.symmetrize,
                 [&offsets](GNode u, GNode, Weight) { ++offsets[u + 1]; });
    for (std::size_t i = 1; i <= n; ++i)
        offsets[i] += offsets[i - 1];
    const std::uint64_t entries = offsets[n];
    std::vector<GNode> neighbors(entries);
    std::vector<Weight> weights(opts.keepWeights ? entries : 0);
    {
        std::vector<std::uint64_t> cursor(offsets.begin(),
                                          offsets.end() - 1);
        forEachEntry(edges, edgeWeights, opts.symmetrize,
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

    // Free the edge list and its weights first: host peak is then the
    // edge list plus one CSR, during the scatter.
    std::vector<Edge>().swap(edges);
    std::vector<Weight>().swap(edgeWeights);

    // Materialise in simulated memory, in allocation order. This is the
    // load phase: offsets first (small, hot), then the neighbor stream,
    // then weights. The host vectors move into the graph uncopied.
    auto graph = std::make_unique<Graph>();
    graph->numVertices_ = n;
    graph->numEdges_ = neighbors.size();
    graph->offsets_.allocate(sim, std::move(offsets), "gapbs-offsets");
    graph->offsets_.streamInit();
    graph->neighbors_.allocate(sim, std::move(neighbors), "gapbs-neighbors");
    graph->neighbors_.streamInit();
    if (opts.keepWeights) {
        graph->weights_.allocate(sim, std::move(weights), "gapbs-weights");
        graph->weights_.streamInit();
    }
    return graph;
}

}  // namespace gapbs
}  // namespace workloads
}  // namespace mclock
