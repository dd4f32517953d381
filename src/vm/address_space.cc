#include "vm/address_space.hh"

#include "base/logging.hh"

namespace mclock {

AddressSpace::AddressSpace() = default;

Vaddr
AddressSpace::mmap(std::size_t bytes, bool anon, const std::string &name,
                   MemCgroupId memcg)
{
    MCLOCK_ASSERT(bytes > 0);
    // Every vpn of the region must fit Page's 32-bit field.
    constexpr Vaddr kVaLimit = (Page::kMaxVpn + 1) << kPageShift;
    if (bytes > kVaLimit - nextFree_)
        MCLOCK_FATAL("mmap of %zu bytes (\"%s\") passes the last vpn a "
                     "Page can hold (0x%llx)",
                     bytes, name.c_str(),
                     static_cast<unsigned long long>(Page::kMaxVpn));
    const std::size_t rounded = (bytes + kPageSize - 1) & ~(kPageSize - 1);
    const Vaddr start = nextFree_;
    nextFree_ += rounded;
    regions_.push_back(Region{start, rounded, anon, name, memcg});
    const PageNum limit = pageNumOf(nextFree_);
    if (pages_.size() < limit)
        pages_.resize(limit, nullptr);
    return start;
}

void
AddressSpace::munmap(Vaddr start)
{
    for (auto it = regions_.begin(); it != regions_.end(); ++it) {
        if (it->start == start) {
            regions_.erase(it);
            return;
        }
    }
    MCLOCK_PANIC("munmap of unknown region at 0x%llx",
                 static_cast<unsigned long long>(start));
}

Page *
AddressSpace::createPage(PageNum vpn)
{
    MCLOCK_ASSERT(vpn < pages_.size());
    MCLOCK_ASSERT(!pages_[vpn]);
    const Region *region = regionOf(vpn << kPageShift);
    MCLOCK_ASSERT(region != nullptr);
    pages_[vpn] = arena_.create(vpn, region->anon);
    pages_[vpn]->setMemcg(region->memcg);
    ++livePages_;
    return pages_[vpn];
}

void
AddressSpace::destroyPage(PageNum vpn)
{
    MCLOCK_ASSERT(vpn < pages_.size() && pages_[vpn]);
    MCLOCK_ASSERT(!pages_[vpn]->onLru());
    arena_.destroy(pages_[vpn]);
    pages_[vpn] = nullptr;
    MCLOCK_ASSERT(livePages_ > 0);
    --livePages_;
}

const Region *
AddressSpace::regionOf(Vaddr va) const
{
    for (const auto &r : regions_) {
        if (va >= r.start && va < r.end())
            return &r;
    }
    return nullptr;
}

}  // namespace mclock
