/**
 * @file
 * Unit tests for the vm module: pages, address spaces, swap.
 */

#include <gtest/gtest.h>

#include "vm/address_space.hh"
#include "vm/page.hh"
#include "vm/swap.hh"

namespace mclock {
namespace {

// --- Page --------------------------------------------------------------------

TEST(PageTest, InitialState)
{
    Page pg(12, /*anon=*/true);
    EXPECT_EQ(pg.vpn(), 12u);
    EXPECT_EQ(pg.vaddr(), 12u * kPageSize);
    EXPECT_TRUE(pg.isAnon());
    EXPECT_FALSE(pg.resident());
    EXPECT_FALSE(pg.referenced());
    EXPECT_FALSE(pg.active());
    EXPECT_FALSE(pg.promoteFlag());
    EXPECT_FALSE(pg.dirty());
    EXPECT_FALSE(pg.pteReferenced());
    EXPECT_EQ(pg.list(), LruListKind::None);
    EXPECT_FALSE(pg.onLru());
}

TEST(PageTest, HoldsTheLargestVpn)
{
    Page pg(Page::kMaxVpn, true);
    EXPECT_EQ(pg.vpn(), Page::kMaxVpn);
    EXPECT_EQ(pg.vaddr(), Page::kMaxVpn << kPageShift);
}

TEST(PageTest, PlacementRoundTrip)
{
    Page pg(0, true);
    pg.placeOn(2, 0x5000);
    EXPECT_TRUE(pg.resident());
    EXPECT_EQ(pg.node(), 2);
    EXPECT_EQ(pg.paddr(), 0x5000u);
    pg.unplace();
    EXPECT_FALSE(pg.resident());
}

TEST(PageTest, TestAndClearPteReferenced)
{
    Page pg(0, true);
    EXPECT_FALSE(pg.testAndClearPteReferenced());
    pg.setPteReferenced(true);
    EXPECT_TRUE(pg.testAndClearPteReferenced());
    EXPECT_FALSE(pg.pteReferenced());
    EXPECT_FALSE(pg.testAndClearPteReferenced());
}

TEST(PageTest, HistoryShifting)
{
    Page pg(0, true);
    pg.shiftHistory(true);
    pg.shiftHistory(false);
    pg.shiftHistory(true);
    EXPECT_EQ(pg.historyBits(), 0b101);
    for (int i = 0; i < 8; ++i)
        pg.shiftHistory(false);
    EXPECT_EQ(pg.historyBits(), 0);
}

TEST(PageTest, ListKindPredicates)
{
    EXPECT_TRUE(isPromoteList(LruListKind::PromoteAnon));
    EXPECT_TRUE(isPromoteList(LruListKind::PromoteFile));
    EXPECT_FALSE(isPromoteList(LruListKind::ActiveAnon));
    EXPECT_TRUE(isActiveList(LruListKind::ActiveFile));
    EXPECT_TRUE(isInactiveList(LruListKind::InactiveAnon));
    EXPECT_FALSE(isInactiveList(LruListKind::Unevictable));
}

TEST(PageTest, ListNames)
{
    EXPECT_STREQ(lruListName(LruListKind::PromoteAnon), "promote_anon");
    EXPECT_STREQ(lruListName(LruListKind::InactiveFile),
                 "inactive_file");
    EXPECT_STREQ(lruListName(LruListKind::None), "none");
}

// --- AddressSpace ---------------------------------------------------------------

TEST(AddressSpaceTest, MmapRoundsToPages)
{
    AddressSpace space;
    const Vaddr a = space.mmap(1);
    const Vaddr b = space.mmap(kPageSize + 1);
    EXPECT_EQ(a % kPageSize, 0u);
    EXPECT_EQ(b, a + kPageSize);  // first region occupied one page
    EXPECT_EQ(space.regions().size(), 2u);
    EXPECT_EQ(space.regions()[1].bytes, 2 * kPageSize);
}

TEST(AddressSpaceTest, RegionLookup)
{
    AddressSpace space;
    const Vaddr a = space.mmap(4 * kPageSize, /*anon=*/true, "heap");
    const Region *r = space.regionOf(a + 3 * kPageSize);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->name, "heap");
    EXPECT_EQ(space.regionOf(a + 4 * kPageSize), nullptr);
}

TEST(AddressSpaceTest, LazyPageCreation)
{
    AddressSpace space;
    const Vaddr a = space.mmap(2 * kPageSize, /*anon=*/false, "file");
    const PageNum vpn = pageNumOf(a);
    EXPECT_EQ(space.lookup(vpn), nullptr);
    Page *pg = space.createPage(vpn);
    ASSERT_NE(pg, nullptr);
    EXPECT_EQ(space.lookup(vpn), pg);
    EXPECT_FALSE(pg->isAnon());  // inherits the region's file backing
    EXPECT_EQ(space.pageCount(), 1u);
}

TEST(AddressSpaceTest, DestroyPage)
{
    AddressSpace space;
    const Vaddr a = space.mmap(kPageSize);
    Page *pg = space.createPage(pageNumOf(a));
    ASSERT_NE(pg, nullptr);
    space.destroyPage(pageNumOf(a));
    EXPECT_EQ(space.lookup(pageNumOf(a)), nullptr);
    EXPECT_EQ(space.pageCount(), 0u);
}

TEST(AddressSpaceTest, MunmapForgetsRegion)
{
    AddressSpace space;
    const Vaddr a = space.mmap(kPageSize, true, "tmp");
    space.munmap(a);
    EXPECT_EQ(space.regionOf(a), nullptr);
}

TEST(AddressSpaceTest, ForEachPageVisitsLivePages)
{
    AddressSpace space;
    const Vaddr a = space.mmap(8 * kPageSize);
    space.createPage(pageNumOf(a));
    space.createPage(pageNumOf(a) + 3);
    int count = 0;
    space.forEachPage([&](Page *) { ++count; });
    EXPECT_EQ(count, 2);
}

TEST(AddressSpaceDeathTest, MmapRefusesVpnsPastPageField)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    AddressSpace space;
    space.mmap(kPageSize);
    // Refused before the vpn table grows: this region's last vpn is
    // past Page::kMaxVpn (2^32 - 1).
    EXPECT_DEATH(space.mmap(std::size_t{1} << 44), "passes the last vpn");
}

// --- SwapDevice ---------------------------------------------------------------

TEST(SwapDeviceTest, AnonConsumesSlots)
{
    SwapDevice swap(2);
    Page a(0, /*anon=*/true);
    Page b(1, /*anon=*/true);
    EXPECT_TRUE(swap.hasSpace());
    swap.pageOut(&a);
    swap.pageOut(&b);
    EXPECT_FALSE(swap.hasSpace());
    EXPECT_EQ(swap.usedSlots(), 2u);
    swap.pageIn(&a);
    EXPECT_TRUE(swap.hasSpace());
    EXPECT_EQ(swap.slotFrees(), 1u);
}

TEST(SwapDeviceTest, FilePagesDontConsumeSlots)
{
    SwapDevice swap(1);
    Page f(0, /*anon=*/false);
    swap.pageOut(&f);
    EXPECT_EQ(swap.usedSlots(), 0u);
    EXPECT_TRUE(swap.hasSpace());
}

TEST(SwapDeviceTest, UnlimitedCapacity)
{
    SwapDevice swap(0);
    Page a(0, true);
    for (int i = 0; i < 100; ++i)
        EXPECT_TRUE(swap.hasSpace());
    swap.pageOut(&a);
    EXPECT_TRUE(swap.hasSpace());
}

TEST(SwapDeviceTest, SlotFreedByPageInIsReusable)
{
    SwapDevice swap(1);
    Page a(0, true);
    Page b(1, true);
    swap.pageOut(&a);
    EXPECT_FALSE(swap.hasSpace());
    swap.pageIn(&a);
    // The freed slot serves a different page.
    EXPECT_TRUE(swap.hasSpace());
    swap.pageOut(&b);
    EXPECT_EQ(swap.usedSlots(), 1u);
    EXPECT_FALSE(swap.hasSpace());
}

TEST(SwapDeviceTest, ExhaustionCycleKeepsCumulativeCounters)
{
    SwapDevice swap(2);
    Page a(0, true);
    Page b(1, true);
    // Three full out/in cycles through a 2-slot device: occupancy
    // returns to zero each cycle while the slot-free count accumulates.
    for (int cycle = 0; cycle < 3; ++cycle) {
        swap.pageOut(&a);
        swap.pageOut(&b);
        EXPECT_FALSE(swap.hasSpace());
        EXPECT_EQ(swap.usedSlots(), 2u);
        swap.pageIn(&b);
        swap.pageIn(&a);
        EXPECT_EQ(swap.usedSlots(), 0u);
    }
    EXPECT_EQ(swap.slotFrees(), 6u);
}

TEST(SwapDeviceTest, PageInWithoutSlotIsHarmless)
{
    SwapDevice swap(1);
    Page a(0, true);
    // A file-backed-style page-in (or a page never swapped out) must
    // not underflow the slot accounting.
    swap.pageIn(&a);
    EXPECT_EQ(swap.usedSlots(), 0u);
    EXPECT_EQ(swap.slotFrees(), 0u);
    EXPECT_TRUE(swap.hasSpace());
}

}  // namespace
}  // namespace mclock
