/**
 * @file
 * SHA-256, implemented from scratch per FIPS 180-4.
 *
 * Overshadow uses SHA-256 for page-integrity hashes, metadata sealing and
 * application identity. The streaming interface (update/final) supports
 * hashing pages directly out of simulated machine memory.
 *
 * Two compression kernels exist: the straightforward FIPS 180-4
 * transcription (the reference), and an accelerated one that keeps the
 * message schedule in a rolling 16-word ring and unrolls the rounds in
 * register-rotated groups of eight, so no state shuffle or 64-word
 * spill survives into the hot loop. setReferenceCompression() selects
 * process-wide; known-answer and differential tests pin the two
 * kernels against each other. Host-speed only — simulated SHA cycles
 * are charged by the cost model either way.
 */

#ifndef OSH_CRYPTO_SHA256_HH
#define OSH_CRYPTO_SHA256_HH

#include <array>
#include <atomic>
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
     * Select the plain FIPS 180-4 compression loop process-wide
     * (differential tests, host-speed ablation). Off (the default)
     * uses the unrolled rolling-schedule kernel. Atomic: host threads
     * may hash concurrently.
     */
    static void setReferenceCompression(bool on)
    {
        referenceCompression_.store(on, std::memory_order_relaxed);
    }
    static bool referenceCompression()
    {
        return referenceCompression_.load(std::memory_order_relaxed);
    }

  private:
    void processBlock(const std::uint8_t* block);
    void processBlockReference(const std::uint8_t* block);
    void processBlockFast(const std::uint8_t* block);

    inline static std::atomic<bool> referenceCompression_{false};

    std::array<std::uint32_t, 8> state_;
    std::array<std::uint8_t, sha256BlockSize> buffer_;
    std::size_t bufferLen_;
    std::uint64_t totalLen_;
};

} // namespace osh::crypto

#endif // OSH_CRYPTO_SHA256_HH
