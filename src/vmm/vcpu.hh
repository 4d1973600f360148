/**
 * @file
 * Virtual CPU: the MMU front end guest code uses for every access.
 *
 * Each guest thread owns a Vcpu carrying its architectural registers and
 * its current execution context (ASID, view, privilege). All loads and
 * stores funnel through translatePage(), so shadow faults, guest page
 * faults and cloaking transitions happen exactly where real hardware
 * would take them.
 *
 * The hit path is inline, in the style of QEMU's softmmu: a scalar
 * access charges its cycle, probes the TLB front cache and reads or
 * writes machine memory without calling out. The TLB table, the shadow
 * walk, VMM resolution, page-crossing accesses and the preemption hook
 * stay out of line.
 *
 * A configurable preemption hook models timer interrupts: after every N
 * user-mode operations the hook runs, which the system layer uses to
 * drive the guest scheduler — exercising the paper's "asynchronous
 * interrupt while cloaked" path.
 */

#ifndef OSH_VMM_VCPU_HH
#define OSH_VMM_VCPU_HH

#include "base/types.hh"
#include "vmm/context.hh"
#include "vmm/registers.hh"
#include "vmm/shadow.hh"
#include "vmm/vmm.hh"

#include <functional>
#include <span>
#include <string>

namespace osh::vmm
{

/** One virtual CPU (one per guest thread in this simulator). */
class Vcpu
{
  public:
    Vcpu(Vmm& vmm, const Context& ctx);

    Vmm& vmm() { return vmm_; }
    Context& context() { return ctx_; }
    const Context& context() const { return ctx_; }
    RegisterFile& regs() { return regs_; }

    /**
     * The physical-core slot this vCPU currently runs on. The guest
     * scheduler assigns it at dispatch; translations hit the slot's
     * private TLB. Always 0 in single-core runs.
     */
    std::uint32_t cpu() const { return cpu_; }
    void setCpu(std::uint32_t cpu) { cpu_ = cpu; }

    /** Fixed-width guest memory accesses (any alignment). */
    std::uint8_t
    load8(GuestVA va)
    {
        return loadScalar<std::uint8_t, &sim::MachineMemory::read8>(va);
    }

    std::uint16_t
    load16(GuestVA va)
    {
        return loadScalar<std::uint16_t, &sim::MachineMemory::read16>(va);
    }

    std::uint32_t
    load32(GuestVA va)
    {
        return loadScalar<std::uint32_t, &sim::MachineMemory::read32>(va);
    }

    std::uint64_t
    load64(GuestVA va)
    {
        return loadScalar<std::uint64_t, &sim::MachineMemory::read64>(va);
    }

    void
    store8(GuestVA va, std::uint8_t v)
    {
        storeScalar<std::uint8_t, &sim::MachineMemory::write8>(va, v);
    }

    void
    store16(GuestVA va, std::uint16_t v)
    {
        storeScalar<std::uint16_t, &sim::MachineMemory::write16>(va, v);
    }

    void
    store32(GuestVA va, std::uint32_t v)
    {
        storeScalar<std::uint32_t, &sim::MachineMemory::write32>(va, v);
    }

    void
    store64(GuestVA va, std::uint64_t v)
    {
        storeScalar<std::uint64_t, &sim::MachineMemory::write64>(va, v);
    }

    /** Bulk guest memory accesses (page-crossing handled). */
    void readBytes(GuestVA va, std::span<std::uint8_t> out);
    void writeBytes(GuestVA va, std::span<const std::uint8_t> data);

    /** Read a NUL-terminated string (bounded). */
    std::string readCString(GuestVA va, std::size_t max_len = 4096);

    /** Issue a hypercall to the VMM. */
    std::int64_t hypercall(Hypercall num,
                           std::span<const std::uint64_t> args);

    /**
     * Install the timer-preemption hook: after every @p ops_per_tick
     * user-mode operations the hook is invoked (kernel mode never
     * preempts). Pass an empty function to disable.
     */
    void setPreemptHook(std::function<void()> hook,
                        std::uint64_t ops_per_tick);

    /** Total user+kernel memory operations executed (for stats). */
    std::uint64_t opCount() const { return totalOps_; }

  private:
    /**
     * Translate the page of @p va for the given access, faulting as
     * needed. The TLB hit is inline; everything else is translateMiss.
     */
    ShadowEntry translatePage(GuestVA va, AccessType access);

    /**
     * The rest of a translation after the TLB gave no usable entry (a
     * miss, or a hit without the permission): the shadow walk, then VMM
     * resolution. It never probes the TLB again, so a permission miss
     * counts one TLB hit, not two.
     */
    ShadowEntry translateMiss(GuestVA va_page, AccessType access);

    /** Charge one operation and maybe fire the preemption hook. */
    void chargeOp(std::uint64_t cost_units = 1);

    /** Run the preemption hook for one expired tick. */
    void firePreempt();

    template <typename T, T (sim::MachineMemory::*ReadFn)(Mpa) const>
    T loadScalar(GuestVA va);

    template <typename T, void (sim::MachineMemory::*WriteFn)(Mpa, T)>
    void storeScalar(GuestVA va, T v);

    /** A @p size-byte access that crosses a page, byte by byte. */
    std::uint64_t loadCrossing(GuestVA va, std::size_t size);
    void storeCrossing(GuestVA va, std::size_t size, std::uint64_t v);

    Vmm& vmm_;
    Context ctx_;
    RegisterFile regs_;
    std::uint32_t cpu_ = 0;

    std::function<void()> preemptHook_;
    std::uint64_t opsPerTick_ = 0;
    std::uint64_t opsSinceTick_ = 0;
    std::uint64_t totalOps_ = 0;
    bool inPreempt_ = false;
};

inline void
Vcpu::chargeOp(std::uint64_t cost_units)
{
    totalOps_ += cost_units;
    if (!preemptHook_ || opsPerTick_ == 0 || ctx_.kernelMode || inPreempt_)
        return;
    opsSinceTick_ += cost_units;
    if (opsSinceTick_ >= opsPerTick_) [[unlikely]]
        firePreempt();
}

inline ShadowEntry
Vcpu::translatePage(GuestVA va, AccessType access)
{
    GuestVA va_page = pageBase(va);
    if (auto hit = vmm_.tlb(cpu_).lookup(ctx_, va_page)) {
        bool ok = (access == AccessType::Write) ? hit->canWrite
                                                : hit->canRead;
        if (ok) [[likely]]
            return *hit;
        // Permission miss (e.g. write to a clean cloaked page): fall
        // through to full resolution.
    }
    return translateMiss(va_page, access);
}

template <typename T, T (sim::MachineMemory::*ReadFn)(Mpa) const>
inline T
Vcpu::loadScalar(GuestVA va)
{
    auto& cost = vmm_.machine().cost();
    cost.charge(cost.params().memAccess);
    chargeOp();
    if (pageOffset(va) + sizeof(T) > pageSize) [[unlikely]]
        return static_cast<T>(loadCrossing(va, sizeof(T)));
    ShadowEntry e = translatePage(va, AccessType::Read);
    return (vmm_.machine().memory().*ReadFn)(e.mpa + pageOffset(va));
}

template <typename T, void (sim::MachineMemory::*WriteFn)(Mpa, T)>
inline void
Vcpu::storeScalar(GuestVA va, T v)
{
    auto& cost = vmm_.machine().cost();
    cost.charge(cost.params().memAccess);
    chargeOp();
    if (pageOffset(va) + sizeof(T) > pageSize) [[unlikely]] {
        storeCrossing(va, sizeof(T), v);
        return;
    }
    ShadowEntry e = translatePage(va, AccessType::Write);
    (vmm_.machine().memory().*WriteFn)(e.mpa + pageOffset(va), v);
}

} // namespace osh::vmm

#endif // OSH_VMM_VCPU_HH
