/**
 * @file
 * A small software TLB model.
 *
 * Caches (context, va page) -> shadow entry so the common case of a
 * repeated access charges only CostParams::memAccess. Capacity-bounded
 * with FIFO replacement. Invalidation is conservative: targeted drops
 * for VA/ASID events, full flush when a machine frame changes cloaking
 * state (modelling a TLB shootdown).
 *
 * A hit is served in two host-side steps, in the style of QEMU's
 * softmmu: a 64-entry direct-mapped front cache indexed by VA page,
 * then the full table. The front cache is a host-speed device only.
 * A front hit and a table hit return the same entry and count the
 * same "hits", so no simulated cycle or counter can tell them apart.
 * Each front slot records the epoch it was filled in; every change
 * that can remove or rewrite a table entry (insert, each invalidation,
 * a flush) bumps the epoch, which retires all slots at once. A slot
 * matches only on the full (asid, view, kernelMode) context, so one
 * view can never be served another view's translation.
 */

#ifndef OSH_VMM_TLB_HH
#define OSH_VMM_TLB_HH

#include "base/stats.hh"
#include "base/types.hh"
#include "vmm/context.hh"
#include "vmm/shadow.hh"

#include <array>
#include <deque>
#include <optional>
#include <unordered_map>

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

    std::size_t size() const { return entries_.size(); }

    /**
     * Length of the replacement queue, including stale occurrences left
     * behind by targeted invalidations (bounded by compaction; exposed
     * for the regression tests).
     */
    std::size_t queueLength() const { return fifo_.size(); }

    StatGroup& stats() { return stats_; }

  private:
    struct Key
    {
        Context ctx;
        GuestVA vaPage;

        bool operator==(const Key&) const = default;
    };

    struct KeyHash
    {
        std::size_t
        operator()(const Key& k) const noexcept
        {
            return std::hash<Context>{}(k.ctx) ^
                   std::hash<GuestVA>{}(k.vaPage << 1);
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

    /** Table lookup behind a front-cache miss; fills the slot on a hit. */
    std::optional<ShadowEntry> lookupSlow(const Context& ctx,
                                          GuestVA va_page);

    void evictOne();
    void compactFifo();

    std::array<FrontSlot, frontSlots> front_{};
    /** Starts above every slot's initial epoch, so no slot is live. */
    std::uint64_t epoch_ = 1;

    std::size_t capacity_;
    std::unordered_map<Key, ShadowEntry, KeyHash> entries_;
    std::deque<Key> fifo_;
    /**
     * Occurrences of each key in fifo_. Invalidations only erase
     * entries_; a later re-insert queues the key again, so the queue can
     * briefly hold duplicates. Eviction skips any occurrence that is not
     * the key's newest (count > 0 after the pop), which keeps stale
     * duplicates from evicting a live entry.
     */
    std::unordered_map<Key, std::uint32_t, KeyHash> queued_;
    StatGroup stats_;
    Counter* hits_;
    Counter* misses_;
    /** Resolved on first use, so they join the key set only then. */
    Counter* evictions_ = nullptr;
    Counter* fifoCompactions_ = nullptr;
    Counter* fullFlushes_ = nullptr;
};

} // namespace osh::vmm

#endif // OSH_VMM_TLB_HH
