#include "vmm/vcpu.hh"

#include "base/logging.hh"

#include <algorithm>

namespace osh::vmm
{

Vcpu::Vcpu(Vmm& vmm, const Context& ctx) : vmm_(vmm), ctx_(ctx)
{
}

void
Vcpu::setPreemptHook(std::function<void()> hook, std::uint64_t ops_per_tick)
{
    preemptHook_ = std::move(hook);
    opsPerTick_ = ops_per_tick;
    opsSinceTick_ = 0;
}

void
Vcpu::firePreempt()
{
    opsSinceTick_ = 0;
    inPreempt_ = true;
    preemptHook_();
    inPreempt_ = false;
}

ShadowEntry
Vcpu::translateMiss(GuestVA va_page, AccessType access)
{
    // The hardware walker consults the shadow page table.
    if (auto sh = vmm_.shadows().lookup(ctx_, va_page)) {
        bool ok = (access == AccessType::Write) ? sh->canWrite
                                                : sh->canRead;
        if (ok) {
            auto& cost = vmm_.machine().cost();
            cost.charge(cost.params().tlbMissWalk, "tlb_fill");
            vmm_.tlb(cpu_).insert(ctx_, va_page, *sh);
            return *sh;
        }
    }

    // Shadow miss or permission fault: VMM takes over.
    return vmm_.resolve(*this, ctx_, va_page, access);
}

std::uint64_t
Vcpu::loadCrossing(GuestVA va, std::size_t size)
{
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < size; ++i) {
        ShadowEntry e = translatePage(va + i, AccessType::Read);
        v |= std::uint64_t{vmm_.machine().memory().read8(
                 e.mpa + pageOffset(va + i))}
             << (8 * i);
    }
    return v;
}

void
Vcpu::storeCrossing(GuestVA va, std::size_t size, std::uint64_t v)
{
    for (std::size_t i = 0; i < size; ++i) {
        ShadowEntry e = translatePage(va + i, AccessType::Write);
        vmm_.machine().memory().write8(
            e.mpa + pageOffset(va + i),
            static_cast<std::uint8_t>(v >> (8 * i)));
    }
}

void
Vcpu::readBytes(GuestVA va, std::span<std::uint8_t> out)
{
    auto& cost = vmm_.machine().cost();
    std::size_t done = 0;
    while (done < out.size()) {
        GuestVA cur = va + done;
        std::size_t in_page =
            std::min<std::size_t>(out.size() - done,
                                  pageSize - pageOffset(cur));
        ShadowEntry e = translatePage(cur, AccessType::Read);
        vmm_.machine().memory().read(e.mpa + pageOffset(cur),
                                     out.subspan(done, in_page));
        // Bulk transfers cost one access per cache line.
        std::uint64_t units = (in_page + 63) / 64;
        cost.charge(cost.params().memAccess * units);
        chargeOp(units);
        done += in_page;
    }
}

void
Vcpu::writeBytes(GuestVA va, std::span<const std::uint8_t> data)
{
    auto& cost = vmm_.machine().cost();
    std::size_t done = 0;
    while (done < data.size()) {
        GuestVA cur = va + done;
        std::size_t in_page =
            std::min<std::size_t>(data.size() - done,
                                  pageSize - pageOffset(cur));
        ShadowEntry e = translatePage(cur, AccessType::Write);
        vmm_.machine().memory().write(e.mpa + pageOffset(cur),
                                      data.subspan(done, in_page));
        std::uint64_t units = (in_page + 63) / 64;
        cost.charge(cost.params().memAccess * units);
        chargeOp(units);
        done += in_page;
    }
}

std::string
Vcpu::readCString(GuestVA va, std::size_t max_len)
{
    std::string out;
    for (std::size_t i = 0; i < max_len; ++i) {
        std::uint8_t c = load8(va + i);
        if (c == 0)
            return out;
        out.push_back(static_cast<char>(c));
    }
    return out;
}

std::int64_t
Vcpu::hypercall(Hypercall num, std::span<const std::uint64_t> args)
{
    return vmm_.hypercall(*this, num, args);
}

} // namespace osh::vmm
