#include "crypto/sha256.hh"

#include "base/bytes.hh"
#include "base/logging.hh"

#include <atomic>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace osh::crypto
{

namespace
{

constexpr std::uint32_t k[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5,
    0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
    0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3,
    0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5,
    0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

inline std::uint32_t
rotr(std::uint32_t x, int n)
{
    return (x >> n) | (x << (32 - n));
}

/** The process-wide kernel, resolved from CPUID on first use. */
std::atomic<Kernel>&
kernelSlot()
{
    static std::atomic<Kernel> slot{Sha256::defaultCompression()};
    return slot;
}

#if defined(__x86_64__)

/**
 * SHA-NI kernel. The state lives in two registers as (A,B,E,F) and
 * (C,D,G,H), the layout sha256rnds2 works on. Each group of four
 * rounds adds four constants to four schedule words and runs two
 * rnds2 (two rounds each); msg1 and msg2 extend the schedule four
 * words at a time, sixteen words ahead in a ring of four registers.
 */
__attribute__((target("sha,ssse3,sse4.1"))) void
compressShaNi(std::uint32_t* state, const std::uint8_t* data,
              std::size_t nblocks)
{
    // pshufb mask: big-endian message bytes to host-order words.
    const __m128i bswap =
        _mm_set_epi64x(0x0c0d0e0f08090a0bll, 0x0405060700010203ll);
    const auto* kv = reinterpret_cast<const __m128i*>(k);

    // Lane comments list words from the high lane down.
    __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
    __m128i cdgh =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
    tmp = _mm_shuffle_epi32(tmp, 0xb1);           // C D A B
    cdgh = _mm_shuffle_epi32(cdgh, 0x1b);         // E F G H
    __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8); // A B E F
    cdgh = _mm_blend_epi16(cdgh, tmp, 0xf0);      // C D G H

    for (std::size_t n = 0; n < nblocks; ++n, data += sha256BlockSize) {
        const __m128i abef_in = abef;
        const __m128i cdgh_in = cdgh;
        __m128i w[4];
        for (int i = 0; i < 4; ++i)
            w[i] = _mm_shuffle_epi8(
                _mm_loadu_si128(
                    reinterpret_cast<const __m128i*>(data + 16 * i)),
                bswap);

#pragma GCC unroll 16
        for (int g = 0; g < 16; ++g) {
            __m128i msg =
                _mm_add_epi32(w[g & 3], _mm_loadu_si128(kv + g));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
            if (g >= 3 && g < 15) {
                // Finish the words W[t] of group g + 1: the msg1 part
                // (W[t-16] + s0(W[t-15])) plus W[t-7], then msg2 adds
                // s1(W[t-2]).
                __m128i& next = w[(g + 1) & 3];
                next = _mm_add_epi32(
                    next, _mm_alignr_epi8(w[g & 3], w[(g - 1) & 3], 4));
                next = _mm_sha256msg2_epu32(next, w[g & 3]);
            }
            abef = _mm_sha256rnds2_epu32(abef, cdgh,
                                         _mm_shuffle_epi32(msg, 0x0e));
            if (g >= 1 && g < 13) {
                // Start group g + 3 from the words of groups g - 1, g.
                w[(g - 1) & 3] =
                    _mm_sha256msg1_epu32(w[(g - 1) & 3], w[g & 3]);
            }
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    tmp = _mm_shuffle_epi32(abef, 0x1b);     // F E B A
    cdgh = _mm_shuffle_epi32(cdgh, 0xb1);    // D C H G
    abef = _mm_blend_epi16(tmp, cdgh, 0xf0); // D C B A
    cdgh = _mm_alignr_epi8(cdgh, tmp, 8);    // H G F E
    _mm_storeu_si128(reinterpret_cast<__m128i*>(state), abef);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), cdgh);
}

#else

void
compressShaNi(std::uint32_t*, const std::uint8_t*, std::size_t)
{
    osh_panic("SHA-NI kernel selected on a non-x86-64 host");
}

#endif

} // namespace

Kernel
Sha256::defaultCompression()
{
    return shaHardwareAvailable() ? Kernel::Hardware : Kernel::Portable;
}

Kernel
Sha256::compression()
{
    return kernelSlot().load(std::memory_order_relaxed);
}

void
Sha256::setCompression(Kernel kernel)
{
    osh_assert(kernel != Kernel::Hardware || shaHardwareAvailable(),
               "SHA-256 hardware kernel selected without SHA-NI");
    kernelSlot().store(kernel, std::memory_order_relaxed);
}

Sha256::Sha256()
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19},
      bufferLen_(0), totalLen_(0)
{
}

void
Sha256::processBlocks(const std::uint8_t* data, std::size_t nblocks)
{
    switch (compression()) {
      case Kernel::Hardware:
        compressShaNi(state_.data(), data, nblocks);
        return;
      case Kernel::Portable:
      case Kernel::Reference:
        for (std::size_t b = 0; b < nblocks; ++b)
            processBlockReference(data + b * sha256BlockSize);
        return;
    }
}

void
Sha256::processBlockReference(const std::uint8_t* block)
{
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i)
        w[i] = loadBe32(block + i * 4);
    for (int i = 16; i < 64; ++i) {
        std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^
                           (w[i - 15] >> 3);
        std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^
                           (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state_[0], b = state_[1], c = state_[2],
                  d = state_[3], e = state_[4], f = state_[5],
                  g = state_[6], h = state_[7];

    for (int i = 0; i < 64; ++i) {
        std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
        std::uint32_t ch = (e & f) ^ (~e & g);
        std::uint32_t temp1 = h + s1 + ch + k[i] + w[i];
        std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
        std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
        std::uint32_t temp2 = s0 + maj;
        h = g;
        g = f;
        f = e;
        e = d + temp1;
        d = c;
        c = b;
        b = a;
        a = temp1 + temp2;
    }

    state_[0] += a;
    state_[1] += b;
    state_[2] += c;
    state_[3] += d;
    state_[4] += e;
    state_[5] += f;
    state_[6] += g;
    state_[7] += h;
}

void
Sha256::update(std::span<const std::uint8_t> data)
{
    totalLen_ += data.size();
    std::size_t pos = 0;
    if (bufferLen_ > 0) {
        std::size_t take =
            std::min(data.size(), sha256BlockSize - bufferLen_);
        std::memcpy(buffer_.data() + bufferLen_, data.data(), take);
        bufferLen_ += take;
        pos = take;
        if (bufferLen_ == sha256BlockSize) {
            processBlocks(buffer_.data(), 1);
            bufferLen_ = 0;
        }
    }
    std::size_t whole = (data.size() - pos) / sha256BlockSize;
    if (whole > 0) {
        processBlocks(data.data() + pos, whole);
        pos += whole * sha256BlockSize;
    }
    if (pos < data.size()) {
        std::memcpy(buffer_.data(), data.data() + pos, data.size() - pos);
        bufferLen_ = data.size() - pos;
    }
}

void
Sha256::update(const std::string& s)
{
    update(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

Digest
Sha256::final()
{
    std::uint64_t bit_len = totalLen_ * 8;
    // Pad in place in a single pass: 0x80, zeros up to byte 56 of the
    // final block (spilling into one extra block when fewer than nine
    // bytes remain), then the big-endian bit length.
    buffer_[bufferLen_++] = 0x80;
    if (bufferLen_ > 56) {
        std::memset(buffer_.data() + bufferLen_, 0,
                    sha256BlockSize - bufferLen_);
        processBlocks(buffer_.data(), 1);
        bufferLen_ = 0;
    }
    std::memset(buffer_.data() + bufferLen_, 0, 56 - bufferLen_);
    storeBe64(buffer_.data() + 56, bit_len);
    processBlocks(buffer_.data(), 1);
    bufferLen_ = 0;

    Digest out;
    for (int i = 0; i < 8; ++i)
        storeBe32(out.data() + i * 4, state_[i]);
    return out;
}

Digest
Sha256::hash(std::span<const std::uint8_t> data)
{
    Sha256 ctx;
    ctx.update(data);
    return ctx.final();
}

} // namespace osh::crypto
