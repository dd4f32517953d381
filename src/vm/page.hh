/**
 * @file
 * The simulated analogue of the kernel's struct page.
 *
 * A Page describes one resident (or swapped-out) virtual page: which NUMA
 * node holds its frame, its LRU list membership, and its flag bits. The
 * flag set mirrors Linux 5.3 plus the one flag MULTI-CLOCK adds
 * (PagePromote), and the PTE-level state (accessed/dirty/present bits)
 * that the hardware maintains in the process page table is folded in as
 * well, since our pages are singly mapped.
 *
 * Layout discipline: like the kernel's struct page, a Page is one
 * 64-byte host cache line (aligned to it, so the address space's slab
 * arena never splits one across two lines), and one line fill serves
 * every field the access fast path reads or writes. All boolean
 * page/PTE state is packed into one flag word, exactly like the
 * kernel's page->flags. Pages are allocated from the arena in
 * first-touch order, so sequential vpns sit contiguously in memory.
 */

#ifndef MCLOCK_VM_PAGE_HH_
#define MCLOCK_VM_PAGE_HH_

#include <cstdint>

#include "base/intrusive_list.hh"
#include "base/logging.hh"
#include "base/types.hh"

namespace mclock {

/** Which per-node LRU list a page currently lives on. */
enum class LruListKind : std::uint8_t {
    None = 0,        ///< not on any list (being migrated, or isolated)
    InactiveAnon,
    ActiveAnon,
    PromoteAnon,     ///< MULTI-CLOCK's new list (anonymous pages)
    InactiveFile,
    ActiveFile,
    PromoteFile,     ///< MULTI-CLOCK's new list (file-backed pages)
    Unevictable,
};

constexpr int kNumLruLists = 8;

/** Human-readable list name ("inactive_anon", ...). */
const char *lruListName(LruListKind kind);

/** True for the two lists introduced by MULTI-CLOCK. */
inline bool
isPromoteList(LruListKind kind)
{
    return kind == LruListKind::PromoteAnon ||
           kind == LruListKind::PromoteFile;
}

inline bool
isActiveList(LruListKind kind)
{
    return kind == LruListKind::ActiveAnon ||
           kind == LruListKind::ActiveFile;
}

inline bool
isInactiveList(LruListKind kind)
{
    return kind == LruListKind::InactiveAnon ||
           kind == LruListKind::InactiveFile;
}

/** struct page: flags, placement, and list linkage for one virtual page. */
class alignas(64) Page
{
  public:
    /** Largest vpn a Page can hold (AddressSpace::mmap enforces it). */
    static constexpr PageNum kMaxVpn = UINT32_MAX;

    Page(PageNum vpn, bool anon)
        : flags_(anon ? kAnon : 0u), vpn_(static_cast<std::uint32_t>(vpn))
    {
        MCLOCK_ASSERT(vpn <= kMaxVpn);
    }

    Page(const Page &) = delete;
    Page &operator=(const Page &) = delete;

    PageNum vpn() const { return vpn_; }
    Vaddr vaddr() const { return PageNum{vpn_} << kPageShift; }

    /** File-backed vs anonymous mapping (fixed at creation). */
    bool isAnon() const { return flag(kAnon); }

    /** Owning memory control group (inherited from the region). */
    MemCgroupId memcg() const { return memcg_; }
    void setMemcg(MemCgroupId id) { memcg_ = id; }

    // --- Frame placement -------------------------------------------------
    NodeId node() const { return node_; }
    Paddr paddr() const { return paddr_; }
    bool resident() const { return node_ != kInvalidNode; }

    void
    placeOn(NodeId node, Paddr paddr)
    {
        MCLOCK_ASSERT(node >= 0 && node <= INT16_MAX);
        node_ = static_cast<std::int16_t>(node);
        paddr_ = paddr;
    }

    void
    unplace()
    {
        node_ = kInvalidNode;
        paddr_ = 0;
    }

    // --- Software page flags (struct page flags) -------------------------
    bool referenced() const { return flag(kReferenced); }
    void setReferenced(bool v) { setFlag(kReferenced, v); }

    bool active() const { return flag(kActive); }
    void setActive(bool v) { setFlag(kActive, v); }

    /** MULTI-CLOCK's PagePromote flag. */
    bool promoteFlag() const { return flag(kPromote); }
    void setPromoteFlag(bool v) { setFlag(kPromote, v); }

    bool dirty() const { return flag(kDirty); }
    void setDirty(bool v) { setFlag(kDirty, v); }

    bool unevictable() const { return flag(kUnevictable); }
    void setUnevictable(bool v) { setFlag(kUnevictable, v); }

    /** Page is pinned/locked and may not be migrated right now. */
    bool locked() const { return flag(kLocked); }
    void setLocked(bool v) { setFlag(kLocked, v); }

    // --- PTE-level state (maintained by the "hardware") ------------------
    /** Accessed bit the CPU sets in the PTE on a page-table walk. */
    bool pteReferenced() const { return flag(kPteReferenced); }
    void setPteReferenced(bool v) { setFlag(kPteReferenced, v); }

    /** Test-and-clear, as the kernel's page_referenced() rmap walk does. */
    bool
    testAndClearPteReferenced()
    {
        const bool was = flag(kPteReferenced);
        flags_ &= static_cast<std::uint16_t>(~kPteReferenced);
        return was;
    }

    bool pteDirty() const { return flag(kPteDirty); }
    void setPteDirty(bool v) { setFlag(kPteDirty, v); }

    /**
     * Fast-path combination of setPteReferenced(true) and, for stores,
     * setPteDirty(true) + setDirty(true): one read-modify-write of the
     * flag word instead of three.
     */
    void
    markAccessed(bool write)
    {
        flags_ |= write ? (kPteReferenced | kPteDirty | kDirty)
                        : kPteReferenced;
    }

    /**
     * PTE poisoned for NUMA-hint fault tracking (PROT_NONE). The next
     * access traps into the policy instead of completing directly.
     */
    bool hintPoisoned() const { return flag(kHintPoisoned); }
    void setHintPoisoned(bool v) { setFlag(kHintPoisoned, v); }

    // --- LRU list membership ---------------------------------------------
    LruListKind list() const { return list_; }
    void setList(LruListKind kind) { list_ = kind; }
    bool onLru() const { return list_ != LruListKind::None; }

    /** Intrusive linkage used by pfra::LruLists. */
    ListHook lruHook;

    /**
     * Conservative LLC line-residency filter for this page's current
     * frame: bit i set means line i MAY be cached. Maintained by
     * CacheModel::access and consumed (and zeroed) by
     * CacheModel::invalidatePage, which skips the set scan for every
     * clear bit. Purely a host-side accelerator; no simulated state.
     */
    std::uint64_t *llcLineMask() { return &llcLines_; }

    // --- Policy scratch state --------------------------------------------
    /** AutoTiering-OPM's n-bit access-history vector. */
    std::uint8_t historyBits() const { return history_; }

    /**
     * Shift the history left by one, inserting @p accessed, as
     * AutoTiering-OPM does on each profiling pass.
     */
    void
    shiftHistory(bool accessed)
    {
        history_ = static_cast<std::uint8_t>((history_ << 1) |
                                             (accessed ? 1u : 0u));
    }

    /** Hint fault seen since the last profiling pass (OPM history). */
    bool hintFaultedSinceScan() const { return flag(kHintSinceScan); }
    void setHintFaultedSinceScan(bool v) { setFlag(kHintSinceScan, v); }

    /** Time of the last memory-visible access (AMP-LRU selection). */
    SimTime lastAccess() const { return lastAccess_; }
    void setLastAccess(SimTime t) { lastAccess_ = t; }

    /** Epoch of the most recent promotion (for re-access accounting). */
    std::uint64_t promotedEpoch() const { return promotedEpoch_; }
    void
    setPromotedEpoch(std::uint64_t e)
    {
        MCLOCK_ASSERT(e <= UINT32_MAX);
        promotedEpoch_ = static_cast<std::uint32_t>(e);
    }

    /** Total memory-visible accesses (stats and AMP-LFU selection). */
    std::uint64_t accessCount() const { return accessCount_; }
    void bumpAccessCount() { ++accessCount_; }
    void setAccessCount(std::uint64_t c) { accessCount_ = c; }

  private:
    // One bit per boolean page/PTE state, kernel page->flags style.
    static constexpr std::uint16_t kAnon          = 1u << 0;
    static constexpr std::uint16_t kReferenced    = 1u << 1;
    static constexpr std::uint16_t kActive        = 1u << 2;
    static constexpr std::uint16_t kPromote       = 1u << 3;
    static constexpr std::uint16_t kDirty         = 1u << 4;
    static constexpr std::uint16_t kUnevictable   = 1u << 5;
    static constexpr std::uint16_t kLocked        = 1u << 6;
    static constexpr std::uint16_t kPteReferenced = 1u << 7;
    static constexpr std::uint16_t kPteDirty      = 1u << 8;
    static constexpr std::uint16_t kHintPoisoned  = 1u << 9;
    static constexpr std::uint16_t kHintSinceScan = 1u << 10;

    bool flag(std::uint16_t bit) const { return (flags_ & bit) != 0; }

    void
    setFlag(std::uint16_t bit, bool v)
    {
        if (v)
            flags_ |= bit;
        else
            flags_ &= static_cast<std::uint16_t>(~bit);
    }

    // The public lruHook leads (offset 0, list moves only). The fields
    // the access path reads or writes follow (placement, stamps, memcg,
    // flags), then list state, policy scratch and identity. Narrowed
    // fields are checked where they are written; their accessors keep
    // the wide types.
    Paddr paddr_ = 0;
    std::uint64_t llcLines_ = 0;
    SimTime lastAccess_ = 0;
    std::uint64_t accessCount_ = 0;
    std::uint32_t promotedEpoch_ = 0;
    std::int16_t node_ = kInvalidNode;
    MemCgroupId memcg_ = kRootMemcg;
    std::uint16_t flags_;
    LruListKind list_ = LruListKind::None;
    std::uint8_t history_ = 0;
    std::uint32_t vpn_;
};

static_assert(sizeof(Page) == 64 && alignof(Page) == 64,
              "a Page is one host cache line");

}  // namespace mclock

#endif  // MCLOCK_VM_PAGE_HH_
