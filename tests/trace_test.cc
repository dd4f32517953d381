/**
 * @file
 * Unit tests for tracing: AccessTrace, Heatmap (Fig. 1 machinery),
 * and the observation/performance window analysis (Fig. 2 machinery).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "base/units.hh"
#include "policies/static_tiering.hh"
#include "sim/machine.hh"
#include "sim/simulator.hh"
#include "workloads/synthetic.hh"
#include "trace/access_trace.hh"
#include "trace/heatmap.hh"
#include "trace/window_analysis.hh"

namespace mclock {
namespace trace {
namespace {

// --- AccessTrace -----------------------------------------------------------

TEST(AccessTraceTest, RecordsInOrder)
{
    AccessTrace trace;
    EXPECT_TRUE(trace.empty());
    trace.record(3, 10);
    trace.record(5, 20);
    EXPECT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace.events()[0].page, 3u);
    EXPECT_EQ(trace.endTime(), 20u);
    trace.clear();
    EXPECT_TRUE(trace.empty());
    EXPECT_EQ(trace.endTime(), 0u);
}

// --- Heatmap ----------------------------------------------------------------

TEST(HeatmapTest, SamplesRequestedPages)
{
    AccessTrace trace;
    for (std::uint32_t p = 0; p < 100; ++p)
        trace.record(p, p * 100);
    HeatmapConfig cfg;
    cfg.sampledPages = 10;
    cfg.timeBuckets = 4;
    const Heatmap hm = Heatmap::build(trace, 100, cfg);
    EXPECT_EQ(hm.numRows(), 10u);
    EXPECT_EQ(hm.numBuckets(), 4u);
    // Rows sorted ascending by page id.
    for (std::size_t r = 1; r < hm.numRows(); ++r)
        EXPECT_LT(hm.pageAt(r - 1), hm.pageAt(r));
}

TEST(HeatmapTest, CountsLandInRightBucket)
{
    AccessTrace trace;
    // Page 0: early accesses; page 1: late accesses.
    for (int i = 0; i < 5; ++i)
        trace.record(0, 10);
    for (int i = 0; i < 7; ++i)
        trace.record(1, 990);
    trace.record(2, 1000);  // defines endTime
    HeatmapConfig cfg;
    cfg.sampledPages = 3;  // samples all 3 pages
    cfg.timeBuckets = 10;
    const Heatmap hm = Heatmap::build(trace, 3, cfg);
    ASSERT_EQ(hm.numRows(), 3u);
    EXPECT_EQ(hm.count(0, 0), 5u);
    EXPECT_EQ(hm.count(1, 9), 7u);
    std::uint64_t total = 0;
    for (std::size_t r = 0; r < 3; ++r) {
        for (std::size_t b = 0; b < 10; ++b)
            total += hm.count(r, b);
    }
    EXPECT_EQ(total, 13u);
}

TEST(HeatmapTest, CsvOutput)
{
    AccessTrace trace;
    trace.record(0, 1);
    trace.record(1, 2);
    HeatmapConfig cfg;
    cfg.sampledPages = 2;
    cfg.timeBuckets = 2;
    const Heatmap hm = Heatmap::build(trace, 2, cfg);
    CsvWriter csv;
    hm.writeCsv(csv);
    const std::string out = csv.str();
    EXPECT_NE(out.find("page,t0,t1"), std::string::npos);
    EXPECT_NE(out.find("\n0,"), std::string::npos);
}

TEST(HeatmapTest, RenderProducesRows)
{
    AccessTrace trace;
    trace.record(0, 1);
    HeatmapConfig cfg;
    cfg.sampledPages = 1;
    cfg.timeBuckets = 8;
    const Heatmap hm = Heatmap::build(trace, 1, cfg);
    std::ostringstream os;
    hm.render(os);
    EXPECT_NE(os.str().find('#'), std::string::npos);
}

// --- Window analysis -----------------------------------------------------------

TEST(WindowAnalysisTest, SeparatesSingleAndMulti)
{
    AccessTrace trace;
    // Pair 0: observation [0,100), performance [100,200).
    // Page 1: accessed once in obs, 3 times in perf.
    trace.record(1, 10);
    trace.record(1, 110);
    trace.record(1, 120);
    trace.record(1, 130);
    // Page 2: accessed 3 times in obs, 6 times in perf.
    for (SimTime t : {20u, 30u, 40u})
        trace.record(2, t);
    for (SimTime t : {110u, 120u, 130u, 140u, 150u, 160u})
        trace.record(2, t);
    const WindowAnalysisResult r = analyzeWindows(trace, 100, 100);
    EXPECT_EQ(r.singleSamples, 1u);
    EXPECT_EQ(r.multiSamples, 1u);
    EXPECT_DOUBLE_EQ(r.singleMeanPerfAccesses, 3.0);
    EXPECT_DOUBLE_EQ(r.multiMeanPerfAccesses, 6.0);
    EXPECT_DOUBLE_EQ(r.ratio(), 2.0);
}

TEST(WindowAnalysisTest, MultipleWindowPairs)
{
    AccessTrace trace;
    // Pair 0: page 1 accessed twice in obs, once in perf.
    trace.record(1, 10);
    trace.record(1, 20);
    trace.record(1, 150);
    // Pair 1 (starts at 200): page 1 accessed once in obs, 0 in perf.
    trace.record(1, 210);
    const WindowAnalysisResult r = analyzeWindows(trace, 100, 100);
    EXPECT_EQ(r.multiSamples, 1u);
    EXPECT_EQ(r.singleSamples, 1u);
    EXPECT_DOUBLE_EQ(r.multiMeanPerfAccesses, 1.0);
    EXPECT_DOUBLE_EQ(r.singleMeanPerfAccesses, 0.0);
}

TEST(WindowAnalysisTest, PerfOnlyPagesIgnored)
{
    AccessTrace trace;
    trace.record(7, 150);  // performance window only
    const WindowAnalysisResult r = analyzeWindows(trace, 100, 100);
    EXPECT_EQ(r.singleSamples, 0u);
    EXPECT_EQ(r.multiSamples, 0u);
    EXPECT_DOUBLE_EQ(r.ratio(), 0.0);
}

TEST(WindowAnalysisTest, EmptyTraceYieldsZeroes)
{
    AccessTrace trace;
    const WindowAnalysisResult r = analyzeWindows(trace, 100, 100);
    EXPECT_EQ(r.singleSamples, 0u);
    EXPECT_EQ(r.multiSamples, 0u);
    EXPECT_DOUBLE_EQ(r.singleMeanPerfAccesses, 0.0);
    EXPECT_DOUBLE_EQ(r.multiMeanPerfAccesses, 0.0);
    EXPECT_DOUBLE_EQ(r.ratio(), 0.0);
}

TEST(WindowAnalysisTest, ObsOnlyAccessesCountWithZeroPerfMean)
{
    AccessTrace trace;
    // Single pair, both pages touched only during observation: they
    // still produce samples (one single, one multi) whose performance
    // means are zero, so the ratio stays zero rather than dividing by
    // a zero single-window mean.
    trace.record(1, 10);
    trace.record(2, 20);
    trace.record(2, 30);
    const WindowAnalysisResult r = analyzeWindows(trace, 100, 100);
    EXPECT_EQ(r.singleSamples, 1u);
    EXPECT_EQ(r.multiSamples, 1u);
    EXPECT_DOUBLE_EQ(r.singleMeanPerfAccesses, 0.0);
    EXPECT_DOUBLE_EQ(r.multiMeanPerfAccesses, 0.0);
    EXPECT_DOUBLE_EQ(r.ratio(), 0.0);
}

TEST(WindowAnalysisTest, TraceShorterThanOnePeriod)
{
    AccessTrace trace;
    // All events fit inside the first observation window; the partial
    // pair is still analyzed.
    trace.record(5, 1);
    trace.record(5, 2);
    trace.record(6, 3);
    const WindowAnalysisResult r =
        analyzeWindows(trace, 1000, 1000);
    EXPECT_EQ(r.multiSamples, 1u);
    EXPECT_EQ(r.singleSamples, 1u);
    EXPECT_DOUBLE_EQ(r.multiMeanPerfAccesses, 0.0);
    EXPECT_DOUBLE_EQ(r.singleMeanPerfAccesses, 0.0);
}

TEST(WindowAnalysisTest, AsymmetricWindowBoundaries)
{
    AccessTrace trace;
    // obs=10, perf=90: period 100. An access at t=10 is already in
    // the performance window, so page 1 is perf-only in pair 0 and
    // ignored there; its obs access in pair 1 (t=105) makes it a
    // single sample with 2 perf accesses (t=115, 160).
    trace.record(1, 10);
    trace.record(1, 105);
    trace.record(1, 115);
    trace.record(1, 160);
    const WindowAnalysisResult r = analyzeWindows(trace, 10, 90);
    EXPECT_EQ(r.singleSamples, 1u);
    EXPECT_EQ(r.multiSamples, 0u);
    EXPECT_DOUBLE_EQ(r.singleMeanPerfAccesses, 2.0);
}


// --- Cross-module: the motivation pipeline end-to-end -------------------------

TEST(MotivationPipelineTest, TierFriendlyGroupsAlternateInHeatmap)
{
    // Run a synthetic profile, build its heatmap, and verify the
    // bimodal structure the paper's Fig. 1 motivates: a tier-friendly
    // page is hot in some time buckets and silent in others, while a
    // DRAM-friendly page is hot throughout.
    sim::Simulator sim(sim::tinyTestMachine());
    sim.setPolicy(std::make_unique<policies::StaticTieringPolicy>());
    workloads::SyntheticConfig cfg;
    cfg.numPages = 200;
    cfg.duration = 40_s;
    cfg.step = 20_ms;
    workloads::SyntheticWorkload workload(
        sim, workloads::SyntheticProfile::Rubis, cfg);
    AccessTrace trace;
    workload.run(trace);

    // Rubis shape: 15% DRAM-friendly ([0,30)), 45% infrequent
    // ([30,120)), tier-friendly groups from 120, 4 groups x 20 s
    // phases over a 40 s run -> only groups 0 and 1 ever activate.
    HeatmapConfig hmCfg;
    hmCfg.sampledPages = 200;  // sample everything
    hmCfg.timeBuckets = 8;     // 5 s buckets
    const Heatmap hm = Heatmap::build(trace, cfg.numPages, hmCfg);

    auto rowOf = [&](std::uint32_t page) {
        for (std::size_t r = 0; r < hm.numRows(); ++r) {
            if (hm.pageAt(r) == page)
                return r;
        }
        ADD_FAILURE() << "page not sampled";
        return std::size_t{0};
    };

    // DRAM-friendly page 0: active in every bucket.
    const std::size_t dramRow = rowOf(0);
    for (std::size_t b = 0; b < hm.numBuckets(); ++b)
        EXPECT_GT(hm.count(dramRow, b), 0u) << "bucket " << b;

    // A page of tier-friendly group 0 (starts at index 120): hot in
    // the first phase, idle in the second.
    const std::size_t g0 = rowOf(120);
    std::uint64_t firstHalf = 0, secondHalf = 0;
    for (std::size_t b = 0; b < 4; ++b)
        firstHalf += hm.count(g0, b);
    for (std::size_t b = 4; b < 8; ++b)
        secondHalf += hm.count(g0, b);
    EXPECT_GT(firstHalf, 0u);
    EXPECT_GT(firstHalf, secondHalf * 5);

    // And the window analysis confirms the Fig. 2 hypothesis on the
    // same trace.
    const auto wa = analyzeWindows(trace, 2_s, 2_s);
    EXPECT_GT(wa.multiMeanPerfAccesses, wa.singleMeanPerfAccesses);
}

}  // namespace
}  // namespace trace
}  // namespace mclock
