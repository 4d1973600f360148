/**
 * @file
 * Machine physical memory.
 *
 * A flat array of 4 KiB frames addressed by machine physical address
 * (MPA). Only the VMM hands out frames; the guest OS sees guest physical
 * addresses which the VMM's pmap translates to MPAs. Accesses are bounds
 * checked — an out-of-range MPA is a simulator bug (panic), because all
 * guest-originated addresses are validated earlier in the walk.
 */

#ifndef OSH_SIM_MEMORY_HH
#define OSH_SIM_MEMORY_HH

#include "base/bytes.hh"
#include "base/types.hh"

#include <cstdint>
#include <span>
#include <vector>

namespace osh::sim
{

/** Flat simulated machine memory. */
class MachineMemory
{
  public:
    /** @param num_frames Number of 4 KiB machine frames. */
    explicit MachineMemory(std::uint64_t num_frames);

    std::uint64_t numFrames() const { return numFrames_; }
    std::uint64_t sizeBytes() const { return numFrames_ * pageSize; }

    /** Read bytes at an MPA. The range must lie inside memory. */
    void read(Mpa addr, std::span<std::uint8_t> out) const;

    /** Write bytes at an MPA. The range must lie inside memory. */
    void write(Mpa addr, std::span<const std::uint8_t> data);

    /**
     * Fixed-width accessors, little-endian on every host. Inline: every
     * guest load and store that hits the TLB ends here.
     */
    std::uint8_t
    read8(Mpa addr) const
    {
        check(addr, 1);
        return data_[addr];
    }

    std::uint16_t
    read16(Mpa addr) const
    {
        check(addr, 2);
        return loadLe16(data_.data() + addr);
    }

    std::uint32_t
    read32(Mpa addr) const
    {
        check(addr, 4);
        return loadLe32(data_.data() + addr);
    }

    std::uint64_t
    read64(Mpa addr) const
    {
        check(addr, 8);
        return loadLe64(data_.data() + addr);
    }

    void
    write8(Mpa addr, std::uint8_t v)
    {
        check(addr, 1);
        data_[addr] = v;
    }

    void
    write16(Mpa addr, std::uint16_t v)
    {
        check(addr, 2);
        storeLe16(data_.data() + addr, v);
    }

    void
    write32(Mpa addr, std::uint32_t v)
    {
        check(addr, 4);
        storeLe32(data_.data() + addr, v);
    }

    void
    write64(Mpa addr, std::uint64_t v)
    {
        check(addr, 8);
        storeLe64(data_.data() + addr, v);
    }

    /**
     * Direct mutable view of one whole frame. Used by the VMM/cloak
     * engine to encrypt or hash a page in place; never handed to guest
     * code.
     */
    std::span<std::uint8_t> framePlain(Mpa frame_base);
    std::span<const std::uint8_t> framePlain(Mpa frame_base) const;

    /** Zero a whole frame. */
    void zeroFrame(Mpa frame_base);

  private:
    /** Panic unless [addr, addr + len) lies inside memory. */
    void
    check(Mpa addr, std::uint64_t len) const
    {
        if (addr + len > data_.size() || addr + len < addr) [[unlikely]]
            outOfRange(addr, len);
    }

    [[noreturn, gnu::cold]] void outOfRange(Mpa addr,
                                            std::uint64_t len) const;

    std::uint64_t numFrames_;
    std::vector<std::uint8_t> data_;
};

} // namespace osh::sim

#endif // OSH_SIM_MEMORY_HH
