/**
 * @file
 * AES-128 block cipher, implemented from scratch per FIPS-197.
 *
 * Overshadow's VMM encrypts cloaked pages with AES-128; this is the
 * simulator's real implementation (pages really are ciphertext in the
 * kernel's view). Encryption runs on one of three kernels (see
 * crypto/kernel.hh), selected process-wide with setKernel():
 *
 *  - Hardware (the default when the CPU has AES-NI): aesenc /
 *    aesenclast over the round-key bytes, eight blocks interleaved so
 *    the instruction's latency overlaps across independent blocks;
 *  - Portable: four precomputed 256x32-bit T-tables fold SubBytes +
 *    ShiftRows + MixColumns into four loads and XORs per column per
 *    round, and encryptBlocks() runs four blocks interleaved through
 *    each round (single-block tail), so the host pipelines the table
 *    loads instead of waiting out one block's round chain;
 *  - Reference: the byte-wise S-box + xtime transcription of the
 *    FIPS-197 pseudocode, kept so known-answer and differential tests
 *    pin both fast kernels against the spec.
 *
 * CTR keystream generation (a page is 256 independent blocks) is
 * exactly the bulk shape encryptBlocks() is built for. Decryption has
 * only the byte-wise path: CTR mode never decrypts a block.
 *
 * Simulated crypto *cost* is still charged by the cycle model; host
 * speed only affects how long the simulation itself takes to run.
 */

#ifndef OSH_CRYPTO_AES_HH
#define OSH_CRYPTO_AES_HH

#include "crypto/kernel.hh"

#include <array>
#include <cstdint>
#include <span>

namespace osh::crypto
{

/** AES-128 key and block sizes in bytes. */
constexpr std::size_t aesKeySize = 16;
constexpr std::size_t aesBlockSize = 16;

using AesKey = std::array<std::uint8_t, aesKeySize>;
using AesBlock = std::array<std::uint8_t, aesBlockSize>;

/**
 * An expanded AES-128 key. Construct once per key; encryptBlock() may
 * then be called any number of times.
 */
class Aes128
{
  public:
    /** Expand the given 128-bit key. */
    explicit Aes128(const AesKey& key);

    /** Encrypt one 16-byte block: out = E_k(in). in may alias out. */
    void encryptBlock(const std::uint8_t* in, std::uint8_t* out) const;

    /**
     * Encrypt `nblocks` consecutive 16-byte blocks. The bulk entry
     * point for CTR keystream generation; in may alias out.
     */
    void encryptBlocks(const std::uint8_t* in, std::uint8_t* out,
                       std::size_t nblocks) const;

    /** Decrypt one 16-byte block: out = D_k(in). in may alias out. */
    void decryptBlock(const std::uint8_t* in, std::uint8_t* out) const;

    /**
     * The byte-wise FIPS-197 reference encryption, always available
     * whatever kernel() is. Differential tests compare the fast kernels
     * against this.
     */
    void encryptBlockReference(const std::uint8_t* in,
                               std::uint8_t* out) const;

    /**
     * Select the encrypt kernel of every instance, process-wide
     * (tests, bench_crypto). Selecting Kernel::Hardware when
     * aesHardwareAvailable() is false is a programming error. Atomic:
     * host threads may encrypt concurrently.
     */
    static void setKernel(Kernel kernel);
    static Kernel kernel();

    /** Hardware when the CPU has AES-NI, otherwise Portable. */
    static Kernel defaultKernel();

  private:
    static constexpr int numRounds = 10;

    void encryptBlockFast(const std::uint8_t* in, std::uint8_t* out) const;

    /** Four blocks, lockstep-interleaved through every round. */
    void encryptBlocks4Fast(const std::uint8_t* in,
                            std::uint8_t* out) const;

    /** Portable kernel: four-way bulk, single-block tail. */
    void encryptBlocksPortable(const std::uint8_t* in, std::uint8_t* out,
                               std::size_t nblocks) const;

    /** Round keys: (numRounds + 1) x 16 bytes. */
    std::array<std::uint8_t, (numRounds + 1) * aesBlockSize> roundKeys_;

    /** Same round keys as big-endian column words for the T-table path. */
    std::array<std::uint32_t, (numRounds + 1) * 4> roundKeyWords_;
};

} // namespace osh::crypto

#endif // OSH_CRYPTO_AES_HH
