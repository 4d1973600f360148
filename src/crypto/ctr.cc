#include "crypto/ctr.hh"

#include "base/bytes.hh"
#include "base/logging.hh"

#include <cstring>

namespace osh::crypto
{

namespace
{

// Keystream batch size: 16 AES blocks (256 bytes) are encrypted per
// cipher call, so every kernel gets whole interleaved groups, then
// XORed into the payload a uint64 at a time. memcpy-based loads/stores
// keep the word XOR alignment-safe under UBSan.
constexpr std::size_t ctrBatchBlocks = 16;
constexpr std::size_t ctrBatchBytes = ctrBatchBlocks * aesBlockSize;

inline void
xorWords(const std::uint8_t* in, const std::uint8_t* ks,
         std::uint8_t* out, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        std::uint64_t a, b;
        std::memcpy(&a, in + i, 8);
        std::memcpy(&b, ks + i, 8);
        a ^= b;
        std::memcpy(out + i, &a, 8);
    }
    for (; i < n; ++i)
        out[i] = in[i] ^ ks[i];
}

} // namespace

void
aesCtrXcrypt(const Aes128& cipher, const Iv& iv,
             std::span<const std::uint8_t> in, std::span<std::uint8_t> out)
{
    osh_assert(in.size() == out.size(),
               "CTR input/output length mismatch");
    // Counter block = the IV's high 64 bits, then its low 64 bits
    // (big-endian) plus the block index, modulo 2^64: the increment of
    // NIST SP 800-38A appendix B.1 with the carry kept inside the low
    // half.
    std::uint64_t low = (static_cast<std::uint64_t>(loadBe32(&iv[8]))
                         << 32) |
                        loadBe32(&iv[12]);
    std::uint8_t counters[ctrBatchBytes];
    std::uint8_t keystream[ctrBatchBytes];
    std::size_t pos = 0;
    while (pos < in.size()) {
        std::size_t remaining = in.size() - pos;
        std::size_t nblocks =
            std::min(ctrBatchBlocks,
                     (remaining + aesBlockSize - 1) / aesBlockSize);
        for (std::size_t b = 0; b < nblocks; ++b) {
            std::memcpy(counters + b * aesBlockSize, iv.data(), 8);
            storeBe64(counters + b * aesBlockSize + 8, low++);
        }
        cipher.encryptBlocks(counters, keystream, nblocks);
        std::size_t n = std::min(nblocks * aesBlockSize, remaining);
        xorWords(in.data() + pos, keystream, out.data() + pos, n);
        pos += n;
    }
}

void
aesCtrXcryptInPlace(const Aes128& cipher, const Iv& iv,
                    std::span<std::uint8_t> buf)
{
    aesCtrXcrypt(cipher, iv, buf, buf);
}

} // namespace osh::crypto
