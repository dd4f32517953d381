/**
 * @file
 * Unit tests for the GAPBS substrate: generator, builder, and kernel
 * correctness on small known graphs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <queue>
#include <set>
#include <string>
#include <utility>

#include "base/parallel.hh"
#include "base/units.hh"
#include "policies/static_tiering.hh"
#include "sim/machine.hh"
#include "sim/simulator.hh"
#include "workloads/gapbs/bc.hh"
#include "workloads/gapbs/bfs.hh"
#include "workloads/gapbs/builder.hh"
#include "workloads/gapbs/cc.hh"
#include "workloads/gapbs/driver.hh"
#include "workloads/gapbs/generator.hh"
#include "workloads/gapbs/pr.hh"
#include "workloads/gapbs/sssp.hh"
#include "workloads/gapbs/tc.hh"
#include "workloads/instrumented_array.hh"

namespace mclock {
namespace workloads {
namespace gapbs {
namespace {

std::unique_ptr<sim::Simulator>
makeSim()
{
    sim::MachineConfig cfg = sim::tinyTestMachine();
    cfg.swapPages = 0;
    auto sim = std::make_unique<sim::Simulator>(cfg);
    sim->setPolicy(std::make_unique<policies::StaticTieringPolicy>());
    return sim;
}

// --- Generators -------------------------------------------------------------

TEST(GeneratorTest, KroneckerSizing)
{
    Rng rng(1);
    const auto edges = makeKroneckerEdges(8, 4, rng);
    EXPECT_EQ(edges.size(), 256u * 4);
    for (const auto &e : edges) {
        EXPECT_LT(e.u, 256u);
        EXPECT_LT(e.v, 256u);
    }
}

TEST(GeneratorTest, KroneckerIsSkewed)
{
    Rng rng(2);
    const auto edges = makeKroneckerEdges(10, 8, rng);
    std::vector<int> degree(1024, 0);
    for (const auto &e : edges)
        ++degree[e.u];
    int maxDeg = 0;
    for (int d : degree)
        maxDeg = std::max(maxDeg, d);
    // RMAT hubs: max degree far above the average (8).
    EXPECT_GT(maxDeg, 40);
}

/** The RMAT generator as a nextDouble() draw and an if-chain. */
EdgeList
ifChainKroneckerEdges(unsigned scale, unsigned degree, Rng &rng)
{
    const std::size_t m = (std::size_t{1} << scale) * degree;
    EdgeList edges;
    edges.reserve(m);
    const double a = 0.57, b = 0.19, c = 0.19;
    for (std::size_t i = 0; i < m; ++i) {
        GNode u = 0, v = 0;
        for (unsigned bit = 0; bit < scale; ++bit) {
            const double r = rng.nextDouble();
            if (r < a) {
                // quadrant (0,0)
            } else if (r < a + b) {
                v |= 1u << bit;
            } else if (r < a + b + c) {
                u |= 1u << bit;
            } else {
                u |= 1u << bit;
                v |= 1u << bit;
            }
        }
        edges.push_back({u, v});
    }
    return edges;
}

TEST(GeneratorTest, KroneckerMatchesIfChainReference)
{
    for (unsigned scale : {1u, 5u, 12u, 16u}) {
        for (std::uint64_t seed : {7u, 11u, 0x5eedu}) {
            SCOPED_TRACE(::testing::Message()
                         << "scale " << scale << " seed " << seed);
            Rng fast(seed), ref(seed);
            const auto got = makeKroneckerEdges(scale, 4, fast);
            const auto want = ifChainKroneckerEdges(scale, 4, ref);
            ASSERT_EQ(got.size(), want.size());
            for (std::size_t i = 0; i < got.size(); ++i) {
                ASSERT_EQ(got[i].u, want[i].u) << "edge " << i;
                ASSERT_EQ(got[i].v, want[i].v) << "edge " << i;
            }
            // Both consumed the same number of draws.
            EXPECT_EQ(fast.next64(), ref.next64());
        }
    }
}

TEST(GeneratorTest, KroneckerIdenticalAtEveryPartCount)
{
    // A 4-edge graph also runs with more parts than edges; 13x13 gives
    // 3.25 chunks, so the last chunk is a short one.
    static_assert((std::size_t{13} << 13) % detail::kEdgesPerChunk != 0);
    for (const auto &[scale, degree] :
         {std::pair{10u, 4u}, {1u, 2u}, {13u, 13u}}) {
        const std::size_t m = (std::size_t{1} << scale) * degree;
        for (unsigned parts : {1u, 2u, 3u, 4u, 7u, 16u,
                               static_cast<unsigned>(m) + 3}) {
            SCOPED_TRACE(::testing::Message()
                         << "scale " << scale << " parts " << parts);
            Rng split(0x5eed), ref(0x5eed);
            const auto got =
                detail::kroneckerEdgesInParts(scale, degree, split, parts);
            const auto want = ifChainKroneckerEdges(scale, degree, ref);
            ASSERT_EQ(got.size(), want.size());
            for (std::size_t i = 0; i < got.size(); ++i) {
                ASSERT_EQ(got[i].u, want[i].u) << "edge " << i;
                ASSERT_EQ(got[i].v, want[i].v) << "edge " << i;
            }
            // The caller's Rng ends where the serial draw ends.
            EXPECT_EQ(split.next64(), ref.next64());
        }
    }
}

TEST(GeneratorTest, UniformIsNotSkewed)
{
    Rng rng(3);
    const auto edges = makeUniformEdges(10, 8, rng);
    std::vector<int> degree(1024, 0);
    for (const auto &e : edges)
        ++degree[e.u];
    int maxDeg = 0;
    for (int d : degree)
        maxDeg = std::max(maxDeg, d);
    EXPECT_LT(maxDeg, 40);
}

TEST(GeneratorTest, WeightsInRange)
{
    Rng rng(4);
    const auto edges = makeUniformEdges(6, 4, rng);
    const auto weights = assignWeights(edges, 64, rng);
    ASSERT_EQ(weights.size(), edges.size());
    for (const Weight w : weights) {
        EXPECT_GE(w, 1u);
        EXPECT_LE(w, 64u);
    }
}

/** An edge with its weight inside, as edge lists once carried it. */
struct WeightedEdge
{
    GNode u;
    GNode v;
    Weight w;
};

/** assignWeights as the in-place loop over weighted edges it was. */
void
inPlaceWeights(std::vector<WeightedEdge> &edges, Weight maxWeight, Rng &rng)
{
    for (auto &e : edges)
        e.w = static_cast<Weight>(1 + rng.nextRange(maxWeight));
}

TEST(GeneratorTest, WeightsMatchInPlaceReference)
{
    for (std::size_t count : {0u, 1u, 7u, 1000u, 65536u}) {
        for (Weight maxWeight : {1u, 64u, 255u}) {
            SCOPED_TRACE(::testing::Message() << "edges " << count
                                              << " maxWeight " << maxWeight);
            const EdgeList edges(count, Edge{0, 1});
            std::vector<WeightedEdge> ref(count, WeightedEdge{0, 1, 1});
            Rng fast(count + maxWeight), slow(count + maxWeight);
            const auto weights = assignWeights(edges, maxWeight, fast);
            inPlaceWeights(ref, maxWeight, slow);
            ASSERT_EQ(weights.size(), count);
            for (std::size_t i = 0; i < count; ++i)
                ASSERT_EQ(weights[i], ref[i].w) << "edge " << i;
            // Both consumed the same draws, so SSSP's source picks after
            // them are unchanged.
            EXPECT_EQ(fast.next64(), slow.next64());
        }
    }
}

// --- Builder ----------------------------------------------------------------

TEST(BuilderTest, TinyGraphCsr)
{
    auto sim = makeSim();
    // Path 0-1-2 plus edge 1-3.
    EdgeList edges{{0, 1}, {1, 2}, {1, 3}};
    BuildOptions opts;
    auto g = Builder::build(*sim, edges, opts);
    EXPECT_EQ(g->numVertices(), 4u);
    EXPECT_EQ(g->numEdges(), 6u);  // both directions
    EXPECT_EQ(g->peekDegree(0), 1u);
    EXPECT_EQ(g->peekDegree(1), 3u);
    EXPECT_EQ(g->peekDegree(2), 1u);
    EXPECT_EQ(g->peekDegree(3), 1u);
}

TEST(BuilderTest, RemovesSelfLoops)
{
    auto sim = makeSim();
    EdgeList edges{{0, 0}, {0, 1}, {1, 1}};
    BuildOptions opts;
    auto g = Builder::build(*sim, edges, opts);
    EXPECT_EQ(g->numEdges(), 2u);  // only 0-1 both ways
}

TEST(BuilderTest, SortAndDedup)
{
    auto sim = makeSim();
    EdgeList edges{{0, 1}, {0, 1}, {0, 2}, {0, 1}};
    BuildOptions opts;
    opts.sortAndDedupNeighbors = true;
    auto g = Builder::build(*sim, edges, opts);
    EXPECT_EQ(g->peekDegree(0), 2u);
    EXPECT_EQ(g->peekNeighbor(0), 1u);
    EXPECT_EQ(g->peekNeighbor(1), 2u);
}

TEST(BuilderTest, KeepsWeights)
{
    auto sim = makeSim();
    BuildOptions opts;
    opts.keepWeights = true;
    auto g = Builder::build(*sim, {{0, 1}}, opts, {7});
    ASSERT_TRUE(g->weighted());
    EXPECT_EQ(g->weight(g->peekOffset(0)), 7u);
}

TEST(BuilderTest, RelabelByDegreePutsHubsFirst)
{
    auto sim = makeSim();
    // Star around vertex 3 plus an extra edge.
    EdgeList edges{{3, 0}, {3, 1}, {3, 2}, {0, 1}};
    BuildOptions opts;
    opts.relabelByDegree = true;
    auto g = Builder::build(*sim, edges, opts);
    // The hub (old vertex 3, degree 3) becomes vertex 0.
    EXPECT_EQ(g->peekDegree(0), 3u);
}

/**
 * The builder with the symmetrised edge list materialised: self-loops
 * are erased and reversed edges appended to the list before relabelling
 * and the counting sort. Each edge carries its weight from @p weights
 * inside it.
 */
detail::Csr
materialisedCsr(const EdgeList &input,
                const std::vector<Weight> &weights, const BuildOptions &opts)
{
    std::vector<WeightedEdge> edges;
    for (std::size_t i = 0; i < input.size(); ++i)
        edges.push_back({input[i].u, input[i].v, weights[i]});
    GNode maxId = 0;
    for (const auto &e : edges)
        maxId = std::max({maxId, e.u, e.v});
    const std::size_t n = static_cast<std::size_t>(maxId) + 1;
    edges.erase(std::remove_if(edges.begin(), edges.end(),
                               [](const WeightedEdge &e) {
                                   return e.u == e.v;
                               }),
                edges.end());
    const std::size_t orig = edges.size();
    for (std::size_t i = 0; i < orig; ++i)
        edges.push_back({edges[i].v, edges[i].u, edges[i].w});
    if (opts.relabelByDegree) {
        std::vector<std::uint64_t> degree(n, 0);
        for (const auto &e : edges)
            ++degree[e.u];
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
    detail::Csr csr;
    csr.n = n;
    csr.offsets.assign(n + 1, 0);
    for (const auto &e : edges)
        ++csr.offsets[e.u + 1];
    for (std::size_t i = 1; i <= n; ++i)
        csr.offsets[i] += csr.offsets[i - 1];
    csr.neighbors.resize(edges.size());
    csr.weights.resize(opts.keepWeights ? edges.size() : 0);
    std::vector<std::uint64_t> cursor(csr.offsets.begin(),
                                      csr.offsets.end() - 1);
    for (const auto &e : edges) {
        const std::uint64_t pos = cursor[e.u]++;
        csr.neighbors[pos] = e.v;
        if (opts.keepWeights)
            csr.weights[pos] = e.w;
    }
    if (opts.sortAndDedupNeighbors) {
        InstrumentedArray<GNode>::Host deduped;
        InstrumentedArray<std::uint64_t>::Host newOffsets(n + 1, 0);
        for (std::size_t u = 0; u < n; ++u) {
            const auto begin = csr.neighbors.begin() +
                               static_cast<long>(csr.offsets[u]);
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

/** The option sets Builder::build accepts (dedup drops weights). */
std::vector<BuildOptions>
everyBuildOption()
{
    std::vector<BuildOptions> all;
    for (unsigned mask = 0; mask < 8; ++mask) {
        BuildOptions opts;
        opts.sortAndDedupNeighbors = mask & 1;
        opts.relabelByDegree = mask & 2;
        opts.keepWeights = mask & 4;
        if (!(opts.sortAndDedupNeighbors && opts.keepWeights))
            all.push_back(opts);
    }
    return all;
}

std::string
describe(const BuildOptions &opts)
{
    return "dedup " + std::to_string(opts.sortAndDedupNeighbors) +
           " relabel " + std::to_string(opts.relabelByDegree) +
           " weights " + std::to_string(opts.keepWeights);
}

/**
 * detail::buildCsr of @p edges under every accepted option set, at 1-4
 * parts, equals materialisedCsr.
 */
void
expectCsrMatchesReference(const EdgeList &edges,
                          const std::vector<Weight> &weights)
{
    for (const BuildOptions &opts : everyBuildOption()) {
        SCOPED_TRACE(describe(opts));
        const detail::Csr want = materialisedCsr(edges, weights, opts);
        for (unsigned parts : {1u, 2u, 3u, 4u}) {
            SCOPED_TRACE(::testing::Message() << parts << " parts");
            const detail::Csr got = detail::buildCsr(
                edges, opts,
                opts.keepWeights ? weights : std::vector<Weight>{}, parts);
            EXPECT_EQ(got.n, want.n);
            EXPECT_EQ(got.offsets, want.offsets);
            EXPECT_EQ(got.neighbors, want.neighbors);
            EXPECT_EQ(got.weights, want.weights);
        }
    }
}

TEST(BuilderTest, SelfLoopsOnPartBoundariesMatchReference)
{
    // 61 edges (a prime, so the parts are uneven): self-loops on both
    // sides of every boundary between parts of the symmetrised entry
    // order, at 1-4 parts.
    constexpr std::size_t m = 61;
    EdgeList edges;
    std::vector<Weight> weights;
    for (std::size_t i = 0; i < m; ++i) {
        edges.push_back({static_cast<GNode>(i % 9),
                         static_cast<GNode>((i * 5 + 1) % 11)});
        weights.push_back(static_cast<Weight>(i + 1));
    }
    std::set<std::size_t> loops;
    for (unsigned parts : {1u, 2u, 3u, 4u}) {
        for (unsigned p = 0; p < parts; ++p) {
            const base::PartRange r = base::partRange(2 * m, parts, p);
            // The edges of the entries just before and at each boundary
            // (entry e >= m is edge e - m reversed).
            for (std::size_t at : {r.begin, r.end}) {
                loops.insert((at + m - 1) % m);
                loops.insert(at % m);
            }
        }
    }
    for (const std::size_t i : loops)
        edges[i].v = edges[i].u;
    ASSERT_GT(loops.size(), 8u);
    ASSERT_LT(loops.size(), m);
    expectCsrMatchesReference(edges, weights);
}

TEST(BuilderTest, ChunkBoundarySelfLoopsMatchReference)
{
    // A drawn list of more than one chunk, with self-loops forced at the
    // first and last edge of every chunk of the draw.
    Rng rng(21);
    EdgeList edges = makeKroneckerEdges(11, 17, rng);
    ASSERT_GT(edges.size(), detail::kEdgesPerChunk);
    for (std::size_t c = 0; c < edges.size(); c += detail::kEdgesPerChunk) {
        for (std::size_t i :
             {c, std::min(edges.size(), c + detail::kEdgesPerChunk) - 1})
            edges[i].v = edges[i].u;
    }
    const auto weights = assignWeights(edges, 64, rng);
    expectCsrMatchesReference(edges, weights);
}

TEST(BuilderTest, SelfLoopsOnlyGivesNoEntries)
{
    for (const bool keepWeights : {false, true}) {
        SCOPED_TRACE(::testing::Message() << "keepWeights " << keepWeights);
        auto sim = makeSim();
        BuildOptions opts;
        opts.keepWeights = keepWeights;
        auto g = Builder::build(
            *sim, {{0, 0}, {1, 1}}, opts,
            keepWeights ? std::vector<Weight>{1, 1} : std::vector<Weight>{});
        EXPECT_EQ(g->numVertices(), 2u);
        EXPECT_EQ(g->numEdges(), 0u);
        EXPECT_EQ(g->peekDegree(0), 0u);
        EXPECT_EQ(g->weighted(), keepWeights);
    }
    auto sim = makeSim();
    auto g = Builder::build(*sim, {}, BuildOptions{});
    EXPECT_EQ(g->numVertices(), 1u);
    EXPECT_EQ(g->numEdges(), 0u);

    // Host CSR at every part count and option set, against the reference.
    const EdgeList loops{{0, 0}, {3, 3}, {1, 1}, {3, 3}, {2, 2}};
    const std::vector<Weight> weights{5, 4, 3, 2, 1};
    expectCsrMatchesReference(loops, weights);
    BuildOptions opts;
    opts.keepWeights = true;
    for (unsigned parts : {1u, 2u, 3u, 4u}) {
        const detail::Csr csr = detail::buildCsr(loops, opts, weights, parts);
        EXPECT_EQ(csr.n, 4u);
        EXPECT_EQ(csr.offsets, InstrumentedArray<std::uint64_t>::Host(5, 0));
        EXPECT_TRUE(csr.neighbors.empty());
        EXPECT_TRUE(csr.weights.empty());
    }
}

/** Materialise @p values through a size-only allocation and poke(). */
template <typename T>
void
pokeAndStream(InstrumentedArray<T> &arr, sim::Simulator &sim,
              const typename InstrumentedArray<T>::Host &values,
              const std::string &name)
{
    arr.allocate(sim, values.size(), name);
    for (std::size_t i = 0; i < values.size(); ++i)
        arr.poke(i, values[i]);
    arr.streamInit();
}

void
expectSameRegions(sim::Simulator &a, sim::Simulator &b)
{
    const auto &ra = a.space().regions();
    const auto &rb = b.space().regions();
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i) {
        EXPECT_EQ(ra[i].start, rb[i].start) << "region " << i;
        EXPECT_EQ(ra[i].bytes, rb[i].bytes) << "region " << i;
        EXPECT_EQ(ra[i].name, rb[i].name) << "region " << i;
    }
}

TEST(BuilderTest, MatchesMaterialisedReference)
{
    Rng rng(8);
    const auto edges = makeKroneckerEdges(8, 8, rng);
    const auto weights = assignWeights(edges, 64, rng);
    // The input must exercise self-loop removal and deduplication.
    std::set<std::pair<GNode, GNode>> seen;
    std::size_t selfLoops = 0, duplicates = 0;
    for (const auto &e : edges) {
        selfLoops += e.u == e.v;
        duplicates += !seen.insert({e.u, e.v}).second;
    }
    ASSERT_GT(selfLoops, 0u);
    ASSERT_GT(duplicates, 0u);

    // The host CSR is the same at every part count of its count and
    // scatter, including uneven parts across the reversed half.
    expectCsrMatchesReference(edges, weights);
    const std::vector<BuildOptions> options = everyBuildOption();
    EXPECT_EQ(options.size(), 6u);
    for (const BuildOptions &opts : options) {
        SCOPED_TRACE(describe(opts));
        const detail::Csr want = materialisedCsr(edges, weights, opts);
        auto sim = makeSim();
        auto g = Builder::build(
            *sim, edges, opts,
            opts.keepWeights ? weights : std::vector<Weight>{});
        ASSERT_EQ(g->numVertices(), want.n);
        // The simulated side equals poke-filling fresh arrays in
        // offsets -> neighbors -> weights order.
        auto twin = makeSim();
        InstrumentedArray<std::uint64_t> offsets;
        InstrumentedArray<GNode> neighbors;
        InstrumentedArray<Weight> weights;
        pokeAndStream(offsets, *twin, want.offsets, "gapbs-offsets");
        pokeAndStream(neighbors, *twin, want.neighbors, "gapbs-neighbors");
        if (opts.keepWeights)
            pokeAndStream(weights, *twin, want.weights, "gapbs-weights");
        EXPECT_EQ(sim->now(), twin->now());
        EXPECT_EQ(sim->metrics().totalAccesses(),
                  twin->metrics().totalAccesses());
        expectSameRegions(*sim, *twin);
        ASSERT_EQ(g->numEdges(), want.neighbors.size());
        ASSERT_EQ(g->weighted(), opts.keepWeights);
        for (std::size_t u = 0; u <= want.n; ++u)
            ASSERT_EQ(g->peekOffset(static_cast<GNode>(u)), want.offsets[u]);
        for (std::size_t e = 0; e < want.neighbors.size(); ++e)
            ASSERT_EQ(g->peekNeighbor(e), want.neighbors[e]) << "entry " << e;
        for (std::size_t e = 0; e < want.weights.size(); ++e)
            ASSERT_EQ(g->peekWeight(e), want.weights[e]) << "entry " << e;
    }
}

TEST(BuilderDeathTest, DedupWithWeightsRejectedAtEntry)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    auto sim = makeSim();
    BuildOptions opts;
    opts.sortAndDedupNeighbors = true;
    opts.keepWeights = true;
    EXPECT_DEATH(Builder::build(*sim, {{0, 1}, {1, 2}}, opts, {3, 5}),
                 "sortAndDedupNeighbors cannot keep weights");
}

TEST(BuilderDeathTest, WeightsOnlyWithKeepWeightsAndOnePerEdge)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    auto sim = makeSim();
    BuildOptions opts;
    opts.keepWeights = true;
    EXPECT_DEATH(Builder::build(*sim, {{0, 1}, {1, 2}}, opts, {3}),
                 "one per edge");
    EXPECT_DEATH(Builder::build(*sim, {{0, 1}}, BuildOptions{}, {3}),
                 "one per edge");
}

// --- Kernels on a known graph --------------------------------------------------

class KernelTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        sim_ = makeSim();
        // Two components:
        //   0-1-2-3 path with a 1-3 chord; isolated pair 4-5.
        EdgeList edges{{0, 1}, {1, 2}, {2, 3}, {1, 3}, {4, 5}};
        BuildOptions opts;
        opts.keepWeights = true;
        graph_ = Builder::build(*sim_, edges, opts, {2, 3, 1, 10, 4});
    }

    std::unique_ptr<sim::Simulator> sim_;
    std::unique_ptr<Graph> graph_;
};

TEST_F(KernelTest, BfsVisitsComponent)
{
    const BfsResult r = bfs(*sim_, *graph_, 0);
    EXPECT_EQ(r.visited, 4u);
    EXPECT_EQ(r.maxDepth, 2u);  // 0->1->{2,3}
}

TEST_F(KernelTest, BfsFromOtherComponent)
{
    const BfsResult r = bfs(*sim_, *graph_, 4);
    EXPECT_EQ(r.visited, 2u);
    EXPECT_EQ(r.maxDepth, 1u);
}

TEST_F(KernelTest, SsspDistances)
{
    const SsspResult r = sssp(*sim_, *graph_, 0);
    // dist: 0=0, 1=2, 2=5, 3=6 (0-1-2-3; the chord 1-3 costs 12).
    EXPECT_EQ(r.reached, 4u);
    EXPECT_EQ(r.distanceSum, 0u + 2 + 5 + 6);
}

TEST_F(KernelTest, SsspUnreachableStaysInfinite)
{
    const SsspResult r = sssp(*sim_, *graph_, 4);
    EXPECT_EQ(r.reached, 2u);  // 4 and 5 only
    EXPECT_EQ(r.distanceSum, 4u);
}

TEST_F(KernelTest, PagerankSumsToOne)
{
    const PrResult r = pagerank(*sim_, *graph_, 20);
    EXPECT_NEAR(r.scoreSum, 1.0, 1e-6);
    EXPECT_GT(r.maxScore, 1.0 / 6.0);  // vertex 1 or 3 dominates
}

TEST_F(KernelTest, ConnectedComponentsCount)
{
    const CcResult r = connectedComponents(*sim_, *graph_);
    EXPECT_EQ(r.components, 2u);
}

TEST_F(KernelTest, BetweennessPathCenter)
{
    auto sim = makeSim();
    // Path 0-1-2: vertex 1 carries all pairwise shortest paths.
    EdgeList edges{{0, 1}, {1, 2}};
    BuildOptions opts;
    auto g = Builder::build(*sim, edges, opts);
    // Run from every vertex deterministically by sampling 3 sources
    // with a fixed seed is flaky; instead verify the aggregate: over
    // enough samples, vertex 1's score must dominate.
    const BcResult r = betweenness(*sim, *g, 6, 42);
    EXPECT_GT(r.scoreSum, 0.0);
    EXPECT_GT(r.maxScore, 0.0);
}

TEST(TcTest, CountsKnownTriangles)
{
    auto sim = makeSim();
    // A triangle 0-1-2 plus a pendant edge 2-3.
    EdgeList edges{{0, 1}, {1, 2}, {0, 2}, {2, 3}};
    BuildOptions opts;
    opts.sortAndDedupNeighbors = true;
    auto g = Builder::build(*sim, edges, opts);
    const TcResult r = triangleCount(*sim, *g);
    EXPECT_EQ(r.triangles, 1u);
}

TEST(TcTest, TwoTriangles)
{
    auto sim = makeSim();
    EdgeList edges{{0, 1}, {1, 2}, {0, 2},
                            {2, 3}, {3, 4}, {2, 4}};
    BuildOptions opts;
    opts.sortAndDedupNeighbors = true;
    opts.relabelByDegree = true;
    auto g = Builder::build(*sim, edges, opts);
    EXPECT_EQ(triangleCount(*sim, *g).triangles, 2u);
}

TEST(TcTest, CompleteGraphK5)
{
    auto sim = makeSim();
    EdgeList edges;
    for (GNode u = 0; u < 5; ++u) {
        for (GNode v = u + 1; v < 5; ++v)
            edges.push_back({u, v});
    }
    BuildOptions opts;
    opts.sortAndDedupNeighbors = true;
    auto g = Builder::build(*sim, edges, opts);
    EXPECT_EQ(triangleCount(*sim, *g).triangles, 10u);  // C(5,3)
}


TEST(BcOracleTest, ExactValuesOnPathGraph)
{
    auto sim = makeSim();
    // Path 0-1-2-3: exact (unnormalised, both directions) BC is
    // vertex1 = vertex2 = 2 + 2 = ... computed by Brandes from all
    // sources: BC(1) = BC(2) = 4, endpoints 0.
    EdgeList edges{{0, 1}, {1, 2}, {2, 3}};
    BuildOptions opts;
    auto g = Builder::build(*sim, edges, opts);
    const BcResult r = betweennessFromSources(*sim, *g, {0, 1, 2, 3});
    // Hand computation (directed-pair dependencies, endpoints excl.):
    // pairs through 1: (0,2),(0,3),(2,0),(3,0),(3,2)? -> via Brandes
    // delta sums: sigma is 1 on a path, so BC(v) = #ordered pairs
    // (s,t) whose shortest path passes through v:
    //   vertex 1: (0,2),(0,3),(2,0),(3,0) = 4
    //   vertex 2: (0,3),(1,3),(3,0),(3,1) = 4
    EXPECT_DOUBLE_EQ(r.scoreSum, 8.0);
    EXPECT_DOUBLE_EQ(r.maxScore, 4.0);
}

TEST(BcOracleTest, StarCenterCarriesAllPairs)
{
    auto sim = makeSim();
    // Star: center 0 with leaves 1..4. Every leaf pair's path passes
    // through the center: 4*3 = 12 ordered pairs.
    EdgeList edges{{0, 1}, {0, 2}, {0, 3}, {0, 4}};
    BuildOptions opts;
    auto g = Builder::build(*sim, edges, opts);
    const BcResult r =
        betweennessFromSources(*sim, *g, {0, 1, 2, 3, 4});
    EXPECT_DOUBLE_EQ(r.maxScore, 12.0);
    EXPECT_DOUBLE_EQ(r.scoreSum, 12.0);  // leaves are never interior
}

// --- SSSP against a host-side Dijkstra oracle ------------------------------------

TEST(SsspOracleTest, MatchesDijkstraOnRandomGraph)
{
    auto sim = makeSim();
    Rng rng(17);
    auto edges = makeUniformEdges(7, 4, rng);  // 128 vertices
    auto weights = assignWeights(edges, 32, rng);
    BuildOptions opts;
    opts.keepWeights = true;
    auto g = Builder::build(*sim, edges, opts, weights);

    const SsspResult r = sssp(*sim, *g, 0);

    // Host Dijkstra on the same CSR (peek access only).
    const std::size_t n = g->numVertices();
    constexpr std::uint32_t kInf = ~0u;
    std::vector<std::uint32_t> dist(n, kInf);
    using Entry = std::pair<std::uint32_t, GNode>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
    dist[0] = 0;
    pq.push({0, 0});
    while (!pq.empty()) {
        const auto [d, u] = pq.top();
        pq.pop();
        if (d > dist[u])
            continue;
        for (std::uint64_t e = g->peekOffset(u);
             e < g->peekOffset(u + 1); ++e) {
            const GNode v = g->peekNeighbor(e);
            const std::uint32_t cand = d + g->weight(e);
            if (cand < dist[v]) {
                dist[v] = cand;
                pq.push({cand, v});
            }
        }
    }
    std::uint64_t reached = 0, sum = 0;
    for (std::uint32_t d : dist) {
        if (d != kInf) {
            ++reached;
            sum += d;
        }
    }
    EXPECT_EQ(r.reached, reached);
    EXPECT_EQ(r.distanceSum, sum);
}

// --- Driver ------------------------------------------------------------------------

TEST(DriverTest, KernelNames)
{
    EXPECT_STREQ(kernelName(Kernel::BFS), "bfs");
    EXPECT_STREQ(kernelName(Kernel::TC), "tc");
}

TEST(DriverTest, RunsTrialsAndReportsTimes)
{
    auto sim = makeSim();
    GapbsConfig cfg;
    cfg.scale = 8;
    cfg.degree = 4;
    cfg.trials = 2;
    cfg.prIters = 3;
    GapbsDriver driver(*sim, cfg);
    const GapbsResult r = driver.run(Kernel::PR);
    EXPECT_EQ(r.kernel, "pr");
    ASSERT_EQ(r.trialSeconds.size(), 2u);
    EXPECT_GT(r.trialSeconds[0], 0.0);
    EXPECT_GT(r.avgTrialSeconds(), 0.0);
}

TEST(DriverDeathTest, ZeroTrialsRejected)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    auto sim = makeSim();
    GapbsConfig cfg;
    cfg.trials = 0;
    EXPECT_DEATH({ GapbsDriver driver(*sim, cfg); }, "trials must be > 0");
}

TEST(DriverTest, TcUsesSmallerUniformGraph)
{
    auto sim = makeSim();
    GapbsConfig cfg;
    cfg.scale = 10;
    cfg.degree = 8;
    cfg.trials = 1;
    cfg.tcScale = 6;
    cfg.tcDegree = 4;
    GapbsDriver driver(*sim, cfg);
    const GapbsResult r = driver.run(Kernel::TC);
    EXPECT_EQ(r.kernel, "tc");
    EXPECT_EQ(r.trialSeconds.size(), 1u);
}

}  // namespace
}  // namespace gapbs
}  // namespace workloads
}  // namespace mclock
