#include "sim/memory.hh"

#include "base/logging.hh"

#include <cstring>

namespace osh::sim
{

MachineMemory::MachineMemory(std::uint64_t num_frames)
    : numFrames_(num_frames), data_(num_frames * pageSize, 0)
{
    osh_assert(num_frames > 0, "machine must have at least one frame");
}

void
MachineMemory::outOfRange(Mpa addr, std::uint64_t len) const
{
    osh_panic("machine memory access out of range: "
              "addr=0x%llx len=%llu size=%zu",
              static_cast<unsigned long long>(addr),
              static_cast<unsigned long long>(len), data_.size());
}

void
MachineMemory::read(Mpa addr, std::span<std::uint8_t> out) const
{
    check(addr, out.size());
    std::memcpy(out.data(), data_.data() + addr, out.size());
}

void
MachineMemory::write(Mpa addr, std::span<const std::uint8_t> data)
{
    check(addr, data.size());
    std::memcpy(data_.data() + addr, data.data(), data.size());
}

std::span<std::uint8_t>
MachineMemory::framePlain(Mpa frame_base)
{
    osh_assert(pageOffset(frame_base) == 0,
               "frame base must be page aligned");
    check(frame_base, pageSize);
    return {data_.data() + frame_base, pageSize};
}

std::span<const std::uint8_t>
MachineMemory::framePlain(Mpa frame_base) const
{
    osh_assert(pageOffset(frame_base) == 0,
               "frame base must be page aligned");
    check(frame_base, pageSize);
    return {data_.data() + frame_base, pageSize};
}

void
MachineMemory::zeroFrame(Mpa frame_base)
{
    auto frame = framePlain(frame_base);
    std::memset(frame.data(), 0, frame.size());
}

} // namespace osh::sim
