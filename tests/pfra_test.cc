/**
 * @file
 * Unit tests for the PFRA substrate: LRU lists, watermarks, vmscan.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "base/units.hh"
#include "pfra/lru_lists.hh"
#include "pfra/vmscan.hh"
#include "pfra/watermarks.hh"
#include "vm/page.hh"

namespace mclock {
namespace pfra {
namespace {

std::unique_ptr<Page>
makePage(PageNum vpn, bool anon = true)
{
    return std::make_unique<Page>(vpn, anon);
}

// --- NodeLists -----------------------------------------------------------------

TEST(NodeListsTest, AddSetsMembership)
{
    NodeLists lists;
    auto pg = makePage(0);
    lists.add(pg.get(), LruListKind::InactiveAnon);
    EXPECT_EQ(pg->list(), LruListKind::InactiveAnon);
    EXPECT_EQ(lists.inactiveSize(true), 1u);
    EXPECT_EQ(lists.totalPages(), 1u);
    lists.remove(pg.get());
}

TEST(NodeListsTest, MoveBetweenLists)
{
    NodeLists lists;
    auto pg = makePage(0);
    lists.add(pg.get(), LruListKind::InactiveAnon);
    lists.moveTo(pg.get(), LruListKind::ActiveAnon);
    EXPECT_EQ(pg->list(), LruListKind::ActiveAnon);
    EXPECT_EQ(lists.inactiveSize(true), 0u);
    EXPECT_EQ(lists.activeSize(true), 1u);
    lists.moveTo(pg.get(), LruListKind::PromoteAnon);
    EXPECT_EQ(lists.promoteSize(true), 1u);
    lists.remove(pg.get());
    EXPECT_EQ(pg->list(), LruListKind::None);
}

TEST(NodeListsTest, AddToFrontAndBack)
{
    NodeLists lists;
    auto a = makePage(0);
    auto b = makePage(1);
    lists.add(a.get(), LruListKind::InactiveFile);
    lists.add(b.get(), LruListKind::InactiveFile, /*toFront=*/false);
    EXPECT_EQ(lists.list(LruListKind::InactiveFile).front(), a.get());
    EXPECT_EQ(lists.list(LruListKind::InactiveFile).back(), b.get());
    lists.remove(a.get());
    lists.remove(b.get());
}

TEST(NodeListsTest, KindHelpers)
{
    EXPECT_EQ(NodeLists::inactiveKind(true), LruListKind::InactiveAnon);
    EXPECT_EQ(NodeLists::inactiveKind(false), LruListKind::InactiveFile);
    EXPECT_EQ(NodeLists::activeKind(true), LruListKind::ActiveAnon);
    EXPECT_EQ(NodeLists::promoteKind(false), LruListKind::PromoteFile);
}

TEST(NodeListsTest, RotateToFront)
{
    NodeLists lists;
    auto a = makePage(0);
    auto b = makePage(1);
    lists.add(a.get(), LruListKind::ActiveAnon);        // front
    lists.add(b.get(), LruListKind::ActiveAnon, false); // back
    lists.rotateToFront(b.get());
    EXPECT_EQ(lists.list(LruListKind::ActiveAnon).front(), b.get());
    lists.remove(a.get());
    lists.remove(b.get());
}

// --- Watermarks -------------------------------------------------------------------

TEST(WatermarksTest, Ordering)
{
    const auto wm = Watermarks::compute(16384);
    EXPECT_GT(wm.min, 0u);
    EXPECT_LT(wm.min, wm.low);
    EXPECT_LT(wm.low, wm.high);
    EXPECT_LT(wm.high, 16384u);
}

TEST(WatermarksTest, ScalesSublinearly)
{
    const auto small = Watermarks::compute(1024);
    const auto big = Watermarks::compute(1024 * 100);
    EXPECT_GT(big.min, small.min);
    // sqrt scaling: 100x memory -> ~10x watermark.
    EXPECT_LT(big.min, small.min * 20);
}

TEST(WatermarksTest, TinyNodeStillHasReserve)
{
    const auto wm = Watermarks::compute(64);
    EXPECT_GE(wm.min, 1u);
    EXPECT_LE(wm.high, 64u);
}

TEST(WatermarksTest, InactiveRatio)
{
    // Small nodes: ratio 1. The kernel formula sqrt(10 * GB).
    EXPECT_EQ(inactiveRatio(16384), 1u);                  // 64 MiB
    const std::size_t frames4GiB = 4_GiB / kPageSize;
    EXPECT_EQ(inactiveRatio(frames4GiB), 6u);             // sqrt(40)~6.3
}

// --- vmscan ---------------------------------------------------------------------

class VmscanTest : public ::testing::Test
{
  protected:
    void
    addPages(std::size_t n, LruListKind kind, bool anon = true)
    {
        for (std::size_t i = 0; i < n; ++i) {
            pages_.push_back(makePage(pages_.size(), anon));
            lists_.add(pages_.back().get(), kind);
        }
    }

    NodeLists lists_;
    std::vector<std::unique_ptr<Page>> pages_;
};

TEST_F(VmscanTest, TestAndClearReferencedConsumesBothBits)
{
    auto pg = makePage(99);
    pg->setPteReferenced(true);
    pg->setReferenced(true);
    EXPECT_TRUE(testAndClearReferenced(pg.get()));
    EXPECT_FALSE(pg->pteReferenced());
    EXPECT_FALSE(pg->referenced());
    EXPECT_FALSE(testAndClearReferenced(pg.get()));
}

TEST_F(VmscanTest, ShrinkActiveDeactivatesUnreferenced)
{
    addPages(10, LruListKind::ActiveAnon);
    for (auto &pg : pages_)
        pg->setActive(true);
    const ScanStats stats = shrinkActiveList(lists_, true, 10);
    EXPECT_EQ(stats.scanned, 10u);
    EXPECT_EQ(stats.deactivated, 10u);
    EXPECT_EQ(lists_.activeSize(true), 0u);
    EXPECT_EQ(lists_.inactiveSize(true), 10u);
    for (auto &pg : pages_)
        EXPECT_FALSE(pg->active());
}

TEST_F(VmscanTest, ShrinkActiveRotatesReferenced)
{
    addPages(4, LruListKind::ActiveAnon);
    pages_[0]->setPteReferenced(true);  // tail page (added to front 1st)
    // pages_[0] is at the back (first added to front... order: adds push
    // front, so pages_[3] is front, pages_[0] is back).
    const ScanStats stats = shrinkActiveList(lists_, true, 1);
    EXPECT_EQ(stats.rotated, 1u);
    EXPECT_EQ(lists_.activeSize(true), 4u);
    EXPECT_EQ(lists_.list(LruListKind::ActiveAnon).front(),
              pages_[0].get());
}

TEST_F(VmscanTest, BalanceStopsAtRatio)
{
    addPages(12, LruListKind::ActiveAnon);
    addPages(4, LruListKind::InactiveAnon);
    balanceActiveInactive(lists_, true, 100, /*ratio=*/1);
    EXPECT_LE(lists_.activeSize(true),
              lists_.inactiveSize(true) * 1u);
}

TEST_F(VmscanTest, BalanceNoopWhenAlreadyBalanced)
{
    addPages(4, LruListKind::ActiveAnon);
    addPages(8, LruListKind::InactiveAnon);
    const ScanStats stats = balanceActiveInactive(lists_, true, 100, 1);
    EXPECT_EQ(stats.scanned, 0u);
}

TEST_F(VmscanTest, CollectTakesUnreferencedOnly)
{
    addPages(6, LruListKind::InactiveAnon);
    pages_[0]->setPteReferenced(true);  // back of the list
    std::vector<Page *> victims;
    const ScanStats stats =
        collectInactiveCandidates(lists_, true, 6, victims);
    EXPECT_EQ(stats.scanned, 6u);
    EXPECT_EQ(victims.size(), 5u);
    EXPECT_EQ(stats.rotated, 1u);
    // The referenced page stayed, marked referenced.
    EXPECT_TRUE(pages_[0]->referenced());
    EXPECT_EQ(lists_.inactiveSize(true), 1u);
    for (Page *v : victims)
        EXPECT_EQ(v->list(), LruListKind::None);
}

TEST_F(VmscanTest, CollectActivatesSecondReference)
{
    addPages(1, LruListKind::InactiveAnon);
    Page *pg = pages_[0].get();
    pg->setPteReferenced(true);
    std::vector<Page *> victims;
    collectInactiveCandidates(lists_, true, 1, victims);
    EXPECT_TRUE(victims.empty());
    EXPECT_TRUE(pg->referenced());
    // Referenced again: second pass activates.
    pg->setPteReferenced(true);
    collectInactiveCandidates(lists_, true, 1, victims);
    EXPECT_TRUE(victims.empty());
    EXPECT_EQ(pg->list(), LruListKind::ActiveAnon);
    EXPECT_TRUE(pg->active());
}

TEST_F(VmscanTest, CollectSkipsLockedAndUnevictable)
{
    addPages(2, LruListKind::InactiveAnon);
    pages_[0]->setLocked(true);
    pages_[1]->setUnevictable(true);
    std::vector<Page *> victims;
    const ScanStats stats =
        collectInactiveCandidates(lists_, true, 2, victims);
    EXPECT_TRUE(victims.empty());
    EXPECT_EQ(stats.rotated, 2u);
    EXPECT_EQ(lists_.inactiveSize(true), 2u);
}

}  // namespace
}  // namespace pfra
}  // namespace mclock
