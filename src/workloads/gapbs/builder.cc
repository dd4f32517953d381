#include "workloads/gapbs/builder.hh"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>

#include "base/logging.hh"
#include "base/parallel.hh"
#include "sim/simulator.hh"

namespace mclock {
namespace workloads {
namespace gapbs {

namespace {

/** Most parts the CSR count and scatter split into (each holds n cursors). */
constexpr unsigned kMaxScatterParts = 4;

/**
 * Visit the directed CSR entries (u, v, w) at positions [begin, end) of
 * the fixed order the CSR is laid out by: all edges as given (entry i is
 * edge i), then all edges reversed (entry m + i is edge i reversed).
 * Walking the list twice gives each adjacency list the same contents
 * and order as appending the reversed copy would, without the copy.
 * u == v entries are passed over, which leaves the rest in the order a
 * list compacted beforehand would give. An entry's weight is its edge's
 * entry in @p weights, or 1 when @p weights is empty.
 */
template <typename Fn>
void
forEachEntryIn(const EdgeList &edges, const std::vector<Weight> &weights,
               base::PartRange range, Fn &&fn)
{
    const auto visit = [&](GNode u, GNode v, std::size_t i) {
        if (u == v) [[unlikely]]
            return;
        fn(u, v, weights.empty() ? Weight{1} : weights[i]);
    };
    const std::size_t m = edges.size();
    for (std::size_t i = range.begin; i < std::min(range.end, m); ++i)
        visit(edges[i].u, edges[i].v, i);
    for (std::size_t i = std::max(range.begin, m); i < range.end; ++i)
        visit(edges[i - m].v, edges[i - m].u, i - m);
}

}  // namespace

std::size_t
vertexCount(const EdgeList &edges)
{
    const unsigned parts = base::partCount(edges.size());
    std::vector<GNode> maxIds(parts, 0);
    base::runParts(parts, [&](unsigned p) {
        const base::PartRange range = base::partRange(edges.size(), parts, p);
        GNode maxId = 0;
        for (std::size_t i = range.begin; i < range.end; ++i)
            maxId = std::max({maxId, edges[i].u, edges[i].v});
        maxIds[p] = maxId;
    });
    return static_cast<std::size_t>(
               *std::max_element(maxIds.begin(), maxIds.end())) +
           1;
}

namespace detail {

Csr
buildCsr(EdgeList edges, const BuildOptions &opts,
         std::vector<Weight> edgeWeights, unsigned parts)
{
    // Deduplication reorders neighbours and would detach their weights.
    MCLOCK_ASSERT(!(opts.sortAndDedupNeighbors && opts.keepWeights),
                  "sortAndDedupNeighbors cannot keep weights");
    MCLOCK_ASSERT(edgeWeights.size() ==
                      (opts.keepWeights ? edges.size() : 0),
                  "weights must be given, one per edge, exactly when "
                  "keepWeights is set");
    MCLOCK_ASSERT(parts > 0);

    Csr csr;
    const std::size_t n = csr.n = vertexCount(edges);
    // Entry positions walked, self-loops included.
    const std::size_t walked = 2 * edges.size();

    // Optional degree-descending relabel (GAPBS TC preprocessing).
    if (opts.relabelByDegree) {
        std::vector<std::uint64_t> degree(n, 0);
        forEachEntryIn(edges, edgeWeights, {0, walked},
                       [&degree](GNode u, GNode, Weight) { ++degree[u]; });
        std::vector<GNode> order(n);
        std::iota(order.begin(), order.end(), 0);
        std::sort(order.begin(), order.end(),
                  [&degree](GNode a, GNode b) {
                      return degree[a] > degree[b];
                  });
        std::vector<GNode> relabel(n, 0);
        for (std::size_t rank = 0; rank < n; ++rank)
            relabel[order[rank]] = static_cast<GNode>(rank);
        for (auto &e : edges) {
            e.u = relabel[e.u];
            e.v = relabel[e.v];
        }
    }

    // Stable counting sort by source vertex, in parts of the entry
    // order. cursors[p * n + u] first counts part p's entries of u, then
    // holds the CSR position of part p's next entry of u: part p's
    // entries of u land after part p-1's, as in one serial pass.
    MCLOCK_ASSERT(walked <= UINT32_MAX,
                  "%zu CSR entries; cursors are 32-bit", walked);
    std::vector<std::uint32_t> cursors(std::size_t{parts} * n, 0);
    base::runParts(parts, [&](unsigned p) {
        std::uint32_t *count = cursors.data() + std::size_t{p} * n;
        forEachEntryIn(edges, edgeWeights,
                       base::partRange(walked, parts, p),
                       [count](GNode u, GNode, Weight) { ++count[u]; });
    });
    std::uint32_t entries = 0;
    for (std::size_t u = 0; u < n; ++u) {
        for (std::size_t at = u; at < cursors.size(); at += n)
            entries += std::exchange(cursors[at], entries);
    }
    // Unwritten until scattered: the parts first-touch the CSR.
    csr.neighbors.resize(entries);
    csr.weights.resize(opts.keepWeights ? entries : 0);
    base::runParts(parts, [&](unsigned p) {
        std::uint32_t *cursor = cursors.data() + std::size_t{p} * n;
        forEachEntryIn(edges, edgeWeights,
                       base::partRange(walked, parts, p),
                       [&](GNode u, GNode v, Weight w) {
                           const std::uint32_t at = cursor[u]++;
                           csr.neighbors[at] = v;
                           if (opts.keepWeights)
                               csr.weights[at] = w;
                       });
    });
    // Free the edge list and its weights before the offsets exist: host
    // peak is then the edge list, the neighbours (and weights) and the
    // cursors, during the scatter. The last part's cursors end where
    // each adjacency list ends.
    EdgeList().swap(edges);
    std::vector<Weight>().swap(edgeWeights);
    const std::uint32_t *ends = cursors.data() + std::size_t{parts - 1} * n;
    csr.offsets.assign(n + 1, 0);
    std::copy(ends, ends + n, csr.offsets.begin() + 1);
    std::vector<std::uint32_t>().swap(cursors);

    if (opts.sortAndDedupNeighbors) {
        base::DefaultInitVector<GNode> deduped;
        deduped.reserve(csr.neighbors.size());
        base::DefaultInitVector<std::uint64_t> newOffsets(n + 1, 0);
        for (std::size_t u = 0; u < n; ++u) {
            const auto begin =
                csr.neighbors.begin() + static_cast<long>(csr.offsets[u]);
            const auto end = csr.neighbors.begin() +
                             static_cast<long>(csr.offsets[u + 1]);
            std::sort(begin, end);
            const std::size_t before = deduped.size();
            for (auto it = begin; it != end; ++it) {
                if (deduped.size() == before || deduped.back() != *it)
                    deduped.push_back(*it);
            }
            newOffsets[u + 1] = deduped.size();
        }
        csr.offsets = std::move(newOffsets);
        csr.neighbors = std::move(deduped);
    }
    return csr;
}

}  // namespace detail

std::unique_ptr<Graph>
Builder::build(sim::Simulator &sim, EdgeList edges,
               const BuildOptions &opts, std::vector<Weight> edgeWeights)
{
    const std::size_t entries = 2 * edges.size();
    detail::Csr csr =
        detail::buildCsr(std::move(edges), opts, std::move(edgeWeights),
                         base::partCount(entries, kMaxScatterParts));

    // Materialise in simulated memory, in allocation order. This is the
    // load phase: offsets first (small, hot), then the neighbor stream,
    // then weights. The host vectors move into the graph uncopied.
    auto graph = std::make_unique<Graph>();
    graph->numVertices_ = csr.n;
    graph->numEdges_ = csr.neighbors.size();
    graph->offsets_.allocate(sim, std::move(csr.offsets), "gapbs-offsets");
    graph->offsets_.streamInit();
    graph->neighbors_.allocate(sim, std::move(csr.neighbors),
                               "gapbs-neighbors");
    graph->neighbors_.streamInit();
    if (opts.keepWeights) {
        graph->weights_.allocate(sim, std::move(csr.weights),
                                 "gapbs-weights");
        graph->weights_.streamInit();
    }
    return graph;
}

}  // namespace gapbs
}  // namespace workloads
}  // namespace mclock
