/**
 * @file
 * Crypto kernel selection: which implementation of a primitive runs.
 *
 * AES-128 and SHA-256 each select among three kernels that compute
 * the same function, bit for bit:
 *
 *  - Reference: a straight transcription of the spec (byte-wise
 *    FIPS-197 AES, the plain FIPS 180-4 compression loop). The anchor
 *    for known-answer and differential tests.
 *  - Portable: C++ with no intrinsics that runs on every host. For AES
 *    it is T-table code, four blocks interleaved; for SHA-256 it is the
 *    reference loop, which no unrolled variant measured beat.
 *  - Hardware: x86-64 AES-NI (eight blocks interleaved through
 *    aesenc) and SHA-NI (sha256rnds2 / msg1 / msg2).
 *
 * Each primitive starts on Hardware when the CPU reports the extension
 * and on Portable otherwise; the CPUID probe runs once per process.
 * Tests and bench_crypto switch kernels through Aes128::setKernel and
 * Sha256::setCompression; the simulator itself never does. Simulated
 * crypto cost is charged by the cost model, not measured, so the kernel
 * changes host time only: ciphertexts, MACs and every simulated cycle
 * are the same under all three.
 */

#ifndef OSH_CRYPTO_KERNEL_HH
#define OSH_CRYPTO_KERNEL_HH

#include <cstdint>

namespace osh::crypto
{

enum class Kernel : std::uint8_t
{
    Reference,
    Portable,
    Hardware,
};

/** "reference", "portable" or "hardware". */
const char* kernelName(Kernel kernel);

/** The CPU has AES-NI (probed once per process). */
bool aesHardwareAvailable();

/** The CPU has SHA-NI, SSSE3 and SSE4.1 (probed once per process). */
bool shaHardwareAvailable();

} // namespace osh::crypto

#endif // OSH_CRYPTO_KERNEL_HH
