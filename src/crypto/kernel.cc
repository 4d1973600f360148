#include "crypto/kernel.hh"

namespace osh::crypto
{

const char*
kernelName(Kernel kernel)
{
    switch (kernel) {
      case Kernel::Reference:
        return "reference";
      case Kernel::Portable:
        return "portable";
      case Kernel::Hardware:
        return "hardware";
    }
    return "unknown";
}

#if defined(__x86_64__)

bool
aesHardwareAvailable()
{
    static const bool available = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("aes") != 0;
    }();
    return available;
}

bool
shaHardwareAvailable()
{
    static const bool available = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("sha") != 0 &&
               __builtin_cpu_supports("ssse3") != 0 &&
               __builtin_cpu_supports("sse4.1") != 0;
    }();
    return available;
}

#else

bool
aesHardwareAvailable()
{
    return false;
}

bool
shaHardwareAvailable()
{
    return false;
}

#endif

} // namespace osh::crypto
