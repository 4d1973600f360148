/**
 * @file
 * SHA-256, implemented from scratch per FIPS 180-4.
 *
 * Overshadow uses SHA-256 for page-integrity hashes, metadata sealing and
 * application identity. The streaming interface (update/final) supports
 * hashing pages directly out of simulated machine memory.
 *
 * The compression function runs on one of two implementations (see
 * crypto/kernel.hh), selected process-wide with setCompression():
 *
 *  - Hardware (the default when the CPU has SHA-NI): sha256rnds2 for
 *    the rounds, sha256msg1 / sha256msg2 for the message schedule;
 *  - Portable and Reference: the straightforward FIPS 180-4 loop. An
 *    unrolled rolling-schedule variant measured no faster than this
 *    loop under g++ -O2, so Portable runs the reference code.
 *
 * Whole blocks are compressed in runs (a 4 KiB page is 64 blocks), so
 * the hardware kernel keeps the state in registers across a page.
 * Known-answer and differential tests pin the kernels against each
 * other. Host-speed only: simulated SHA cycles are charged by the
 * cost model whatever kernel runs.
 */

#ifndef OSH_CRYPTO_SHA256_HH
#define OSH_CRYPTO_SHA256_HH

#include "crypto/kernel.hh"

#include <array>
#include <cstdint>
#include <span>
#include <string>

namespace osh::crypto
{

constexpr std::size_t sha256DigestSize = 32;
constexpr std::size_t sha256BlockSize = 64;

using Digest = std::array<std::uint8_t, sha256DigestSize>;

/** Streaming SHA-256 context. */
class Sha256
{
  public:
    Sha256();

    /** Absorb more message bytes. */
    void update(std::span<const std::uint8_t> data);

    /** Convenience overload for string data. */
    void update(const std::string& s);

    /** Finish and produce the digest. The context must not be reused. */
    Digest final();

    /** One-shot convenience. */
    static Digest hash(std::span<const std::uint8_t> data);

    /**
     * Select the compression kernel process-wide (tests,
     * bench_crypto). Selecting Kernel::Hardware when
     * shaHardwareAvailable() is false is a programming error. Atomic:
     * host threads may hash concurrently.
     */
    static void setCompression(Kernel kernel);
    static Kernel compression();

    /** Hardware when the CPU has SHA-NI, otherwise Portable. */
    static Kernel defaultCompression();

  private:
    /** Compress `nblocks` consecutive 64-byte blocks into state_. */
    void processBlocks(const std::uint8_t* data, std::size_t nblocks);
    void processBlockReference(const std::uint8_t* block);

    std::array<std::uint32_t, 8> state_;
    std::array<std::uint8_t, sha256BlockSize> buffer_;
    std::size_t bufferLen_;
    std::uint64_t totalLen_;
};

} // namespace osh::crypto

#endif // OSH_CRYPTO_SHA256_HH
