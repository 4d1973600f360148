/**
 * @file
 * A small software TLB model.
 *
 * Caches (context, va page) -> shadow entry so the common case of a
 * repeated access charges only CostParams::memAccess. Capacity-bounded
 * with FIFO replacement. Invalidation is targeted: by (asid, VA) for
 * guest PTE changes, by ASID, and by machine frame when a frame changes
 * cloaking state (a multi-shadowing shootdown), plus a full flush.
 *
 * The table is a set of at most `capacity` slots. Each live slot sits on
 * three intrusive doubly linked lists, linked by slot number:
 *   - the FIFO, in insertion order; eviction takes its head;
 *   - its frame's chain (every slot whose entry maps that frame);
 *   - its (asid, vaPage) chain (every view and privilege level of one
 *     page), which also serves lookups: the chain is short, so a
 *     lookup walks it for the exact context.
 * The frame and (asid, vaPage) chains hang off exact-keyed maps, so a
 * frame or VA shootdown visits only the slots it removes and one that
 * finds nothing costs one map probe. invalidateAsid and flushAll walk
 * the live FIFO, never all of `capacity`. Free slots are chained
 * through their FIFO links.
 *
 * A hit is served in two host-side steps, in the style of QEMU's
 * softmmu: a 64-entry direct-mapped front cache indexed by VA page,
 * then the table. The front cache is a host-speed device only. A front
 * hit and a table hit return the same entry and count the same "hits",
 * so no simulated cycle or counter can tell them apart. Each front slot
 * records the epoch it was filled in, and one epoch bump retires all
 * slots at once. The epoch is bumped by every insert (which may
 * overwrite or evict) and by every invalidation that removes at least
 * one entry; a shootdown that removes nothing leaves the front cache
 * alone, which stays a subset of the table. A front slot matches only
 * on the full (asid, view, kernelMode) context, so one view can never
 * be served another view's translation.
 */

#ifndef OSH_VMM_TLB_HH
#define OSH_VMM_TLB_HH

#include "base/stats.hh"
#include "base/types.hh"
#include "vmm/context.hh"
#include "vmm/shadow.hh"

#include <array>
#include <optional>
#include <unordered_map>
#include <vector>

namespace osh::vmm
{

/** Capacity-bounded translation cache. */
class Tlb
{
  public:
    /**
     * @param capacity Entries the cache holds.
     * @param name Stat-group name; per-vCPU instances get distinct
     *   names ("tlb", "tlb1", ...) so their counters stay separable.
     */
    explicit Tlb(std::size_t capacity = 256, const char* name = "tlb");

    // The interned counters point into this object's own stat group.
    Tlb(const Tlb&) = delete;
    Tlb& operator=(const Tlb&) = delete;

    std::optional<ShadowEntry>
    lookup(const Context& ctx, GuestVA va_page)
    {
        const FrontSlot& slot = front_[frontIndex(va_page)];
        if (slot.epoch == epoch_ && slot.vaPage == va_page &&
            slot.ctx == ctx) {
            hits_->inc();
            return slot.entry;
        }
        return lookupSlow(ctx, va_page);
    }

    void insert(const Context& ctx, GuestVA va_page,
                const ShadowEntry& entry);

    void invalidateVa(Asid asid, GuestVA va_page);
    void invalidateAsid(Asid asid);

    /** Targeted shootdown of every entry mapping a machine frame. */
    void invalidateMpa(Mpa frame_base);

    void flushAll();

    std::size_t size() const { return live_; }

    StatGroup& stats() { return stats_; }

  private:
    /** Slot number meaning "no slot" (list end, empty head). */
    static constexpr std::uint32_t nil = ~std::uint32_t{0};

    /** One slot's links on one list. */
    struct Links
    {
        std::uint32_t prev = nil;
        std::uint32_t next = nil;
    };

    struct Slot
    {
        Context ctx;
        GuestVA vaPage = badAddr;
        ShadowEntry entry;
        Links fifo;  ///< Insertion order; the free list while unused.
        Links frame; ///< Slots mapping the same machine frame.
        Links va;    ///< Slots of the same (asid, vaPage).
    };

    /** Exact key of an (asid, vaPage) chain. */
    struct VaKey
    {
        Asid asid;
        GuestVA vaPage;

        bool operator==(const VaKey&) const = default;
    };

    struct VaKeyHash
    {
        std::size_t
        operator()(const VaKey& k) const noexcept
        {
            return std::hash<std::uint64_t>{}(
                pageNumber(k.vaPage) ^
                (std::uint64_t{k.asid} * 0x9e3779b97f4a7c15ull));
        }
    };

    /** One front-cache slot; live only while `epoch` == Tlb::epoch_. */
    struct FrontSlot
    {
        Context ctx;
        GuestVA vaPage = badAddr;
        std::uint64_t epoch = 0;
        ShadowEntry entry;
    };

    static constexpr std::size_t frontSlots = 64;

    static std::size_t
    frontIndex(GuestVA va_page)
    {
        return pageNumber(va_page) & (frontSlots - 1);
    }

    static Mpa frameOf(const Slot& s) { return pageBase(s.entry.mpa); }
    static VaKey vaKeyOf(const Slot& s) { return {s.ctx.asid, s.vaPage}; }

    /** Table lookup behind a front-cache miss; fills the slot on a hit. */
    std::optional<ShadowEntry> lookupSlow(const Context& ctx,
                                          GuestVA va_page);

    /** The slot holding (ctx, va_page), or nil. */
    std::uint32_t find(const Context& ctx, GuestVA va_page) const;

    /** Push @p s onto the front of the chain @p heads[key]. */
    template <Links Slot::*L, typename Map, typename K>
    void linkChain(Map& heads, const K& key, std::uint32_t s);

    /** Take @p s off the chain @p heads[key], dropping an empty head. */
    template <Links Slot::*L, typename Map, typename K>
    void unlinkChain(Map& heads, const K& key, std::uint32_t s);

    void unlinkFifo(std::uint32_t s);
    void unlinkFrame(std::uint32_t s);
    void unlinkVa(std::uint32_t s);

    /** Return @p s to the free list. */
    void release(std::uint32_t s);

    /** Take @p s off all three lists and free it. */
    void erase(std::uint32_t s);

    std::array<FrontSlot, frontSlots> front_{};
    /** Starts above every slot's initial epoch, so no slot is live. */
    std::uint64_t epoch_ = 1;

    std::size_t capacity_;
    /** Grows on demand up to capacity_; slot numbers are stable. */
    std::vector<Slot> slots_;
    std::size_t live_ = 0;
    std::uint32_t fifoHead_ = nil;
    std::uint32_t fifoTail_ = nil;
    std::uint32_t freeHead_ = nil;
    std::unordered_map<Mpa, std::uint32_t> byFrame_;
    std::unordered_map<VaKey, std::uint32_t, VaKeyHash> byVa_;

    StatGroup stats_;
    Counter* hits_;
    Counter* misses_;
    /** Resolved on first use, so they join the key set only then. */
    Counter* evictions_ = nullptr;
    Counter* fullFlushes_ = nullptr;
};

} // namespace osh::vmm

#endif // OSH_VMM_TLB_HH
