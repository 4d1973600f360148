#include "vmm/tlb.hh"

namespace osh::vmm
{

Tlb::Tlb(std::size_t capacity, const char* name)
    : capacity_(capacity), stats_(name), hits_(&stats_.counter("hits")),
      misses_(&stats_.counter("misses"))
{
    osh_assert(capacity > 0 && capacity < nil, "TLB needs capacity");
}

std::uint32_t
Tlb::find(const Context& ctx, GuestVA va_page) const
{
    auto it = byVa_.find(VaKey{ctx.asid, va_page});
    if (it == byVa_.end())
        return nil;
    for (std::uint32_t s = it->second; s != nil; s = slots_[s].va.next) {
        if (slots_[s].ctx == ctx)
            return s;
    }
    return nil;
}

std::optional<ShadowEntry>
Tlb::lookupSlow(const Context& ctx, GuestVA va_page)
{
    std::uint32_t s = find(ctx, va_page);
    if (s == nil) {
        misses_->inc();
        return std::nullopt;
    }
    hits_->inc();
    const ShadowEntry& entry = slots_[s].entry;
    front_[frontIndex(va_page)] = FrontSlot{ctx, va_page, epoch_, entry};
    return entry;
}

template <Tlb::Links Tlb::Slot::*L, typename Map, typename K>
void
Tlb::linkChain(Map& heads, const K& key, std::uint32_t s)
{
    Links& l = slots_[s].*L;
    auto [it, fresh] = heads.try_emplace(key, s);
    l.prev = nil;
    l.next = fresh ? nil : it->second;
    if (!fresh) {
        (slots_[it->second].*L).prev = s;
        it->second = s;
    }
}

template <Tlb::Links Tlb::Slot::*L, typename Map, typename K>
void
Tlb::unlinkChain(Map& heads, const K& key, std::uint32_t s)
{
    const Links& l = slots_[s].*L;
    if (l.next != nil)
        (slots_[l.next].*L).prev = l.prev;
    if (l.prev != nil) {
        (slots_[l.prev].*L).next = l.next;
        return;
    }
    // Only a chain head touches the map.
    auto it = heads.find(key);
    if (l.next != nil)
        it->second = l.next;
    else
        heads.erase(it);
}

void
Tlb::unlinkFifo(std::uint32_t s)
{
    const Links& l = slots_[s].fifo;
    (l.prev != nil ? slots_[l.prev].fifo.next : fifoHead_) = l.next;
    (l.next != nil ? slots_[l.next].fifo.prev : fifoTail_) = l.prev;
}

void
Tlb::unlinkFrame(std::uint32_t s)
{
    unlinkChain<&Slot::frame>(byFrame_, frameOf(slots_[s]), s);
}

void
Tlb::unlinkVa(std::uint32_t s)
{
    unlinkChain<&Slot::va>(byVa_, vaKeyOf(slots_[s]), s);
}

void
Tlb::release(std::uint32_t s)
{
    slots_[s].fifo.next = freeHead_;
    freeHead_ = s;
    --live_;
}

void
Tlb::erase(std::uint32_t s)
{
    unlinkFifo(s);
    unlinkFrame(s);
    unlinkVa(s);
    release(s);
}

void
Tlb::insert(const Context& ctx, GuestVA va_page, const ShadowEntry& entry)
{
    // May overwrite the key or evict another: retire the front cache.
    ++epoch_;
    std::uint32_t s = find(ctx, va_page);
    if (s != nil) {
        // Overwrite in place; the FIFO position stays.
        bool new_frame = pageBase(entry.mpa) != frameOf(slots_[s]);
        if (new_frame)
            unlinkFrame(s);
        slots_[s].entry = entry;
        if (new_frame)
            linkChain<&Slot::frame>(byFrame_, frameOf(slots_[s]), s);
        return;
    }

    if (live_ >= capacity_) {
        erase(fifoHead_);
        stats_.counter(evictions_, "evictions").inc();
    }
    if (freeHead_ != nil) {
        s = freeHead_;
        freeHead_ = slots_[s].fifo.next;
    } else {
        s = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    ++live_;

    Slot& slot = slots_[s];
    slot.ctx = ctx;
    slot.vaPage = va_page;
    slot.entry = entry;
    slot.fifo = Links{fifoTail_, nil};
    (fifoTail_ != nil ? slots_[fifoTail_].fifo.next : fifoHead_) = s;
    fifoTail_ = s;
    linkChain<&Slot::frame>(byFrame_, frameOf(slot), s);
    linkChain<&Slot::va>(byVa_, vaKeyOf(slot), s);
}

void
Tlb::invalidateVa(Asid asid, GuestVA va_page)
{
    auto it = byVa_.find(VaKey{asid, pageBase(va_page)});
    if (it == byVa_.end())
        return;
    ++epoch_;
    std::uint32_t s = it->second;
    byVa_.erase(it); // The whole chain goes.
    while (s != nil) {
        std::uint32_t next = slots_[s].va.next;
        unlinkFifo(s);
        unlinkFrame(s);
        release(s);
        s = next;
    }
}

void
Tlb::invalidateMpa(Mpa frame_base)
{
    auto it = byFrame_.find(pageBase(frame_base));
    if (it == byFrame_.end())
        return;
    ++epoch_;
    std::uint32_t s = it->second;
    byFrame_.erase(it); // The whole chain goes.
    while (s != nil) {
        std::uint32_t next = slots_[s].frame.next;
        unlinkFifo(s);
        unlinkVa(s);
        release(s);
        s = next;
    }
}

void
Tlb::invalidateAsid(Asid asid)
{
    bool removed = false;
    for (std::uint32_t s = fifoHead_; s != nil;) {
        std::uint32_t next = slots_[s].fifo.next;
        if (slots_[s].ctx.asid == asid) {
            erase(s);
            removed = true;
        }
        s = next;
    }
    if (removed)
        ++epoch_;
}

void
Tlb::flushAll()
{
    stats_.counter(fullFlushes_, "full_flushes").inc();
    if (live_ == 0)
        return;
    ++epoch_;
    // Hand the whole FIFO to the free list; the chains go with the maps.
    slots_[fifoTail_].fifo.next = freeHead_;
    freeHead_ = fifoHead_;
    fifoHead_ = fifoTail_ = nil;
    live_ = 0;
    byFrame_.clear();
    byVa_.clear();
}

} // namespace osh::vmm
