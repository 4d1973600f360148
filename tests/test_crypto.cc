/**
 * @file
 * Crypto validation against published test vectors:
 *   - AES-128: FIPS-197 appendix B/C and NIST SP 800-38A.
 *   - AES-CTR: NIST SP 800-38A F.5.1.
 *   - SHA-256: FIPS 180-4 / NIST CAVP short messages.
 *   - HMAC-SHA256: RFC 4231.
 * Plus property tests (round trips, incrementality) and KeyManager
 * behaviour.
 *
 * Every AES, CTR, SHA-256 and HMAC test runs once per kernel
 * (reference, portable, hardware; see crypto/kernel.hh), and the
 * randomized differentials pin each kernel to the reference byte for
 * byte. A hardware case skips, with its reason, on a CPU without the
 * extension; the portable kernel is tested on every host.
 */

#include "base/bytes.hh"
#include "base/rng.hh"
#include "crypto/aes.hh"
#include "crypto/ctr.hh"
#include "crypto/hmac.hh"
#include "crypto/keys.hh"
#include "crypto/sha256.hh"

#include <gtest/gtest.h>

#include <ostream>

namespace osh::crypto
{

/** gtest prints a kernel parameter by name. */
void
PrintTo(Kernel kernel, std::ostream* os)
{
    *os << kernelName(kernel);
}

namespace
{

AesKey
keyFromHex(const std::string& hex)
{
    auto v = fromHex(hex);
    AesKey k{};
    std::copy(v.begin(), v.end(), k.begin());
    return k;
}

const Kernel allKernels[] = {Kernel::Reference, Kernel::Portable,
                             Kernel::Hardware};

std::string
kernelParamName(const ::testing::TestParamInfo<Kernel>& info)
{
    return kernelName(info.param);
}

/** Run @p f with the AES kernel set to @p kernel, then restore it. */
template <typename F>
void
withAesKernel(Kernel kernel, F&& f)
{
    Kernel prev = Aes128::kernel();
    Aes128::setKernel(kernel);
    f();
    Aes128::setKernel(prev);
}

/** Run @p f with the SHA-256 kernel set to @p kernel, then restore it. */
template <typename F>
void
withShaKernel(Kernel kernel, F&& f)
{
    Kernel prev = Sha256::compression();
    Sha256::setCompression(kernel);
    f();
    Sha256::setCompression(prev);
}

/** An AES (or AES-CTR) test, run with the AES kernel set to the param. */
class AesOnKernel : public ::testing::TestWithParam<Kernel>
{
  protected:
    void
    SetUp() override
    {
        if (GetParam() == Kernel::Hardware && !aesHardwareAvailable())
            GTEST_SKIP() << "CPU lacks AES-NI: no hardware AES kernel";
        Aes128::setKernel(GetParam());
    }

    void TearDown() override { Aes128::setKernel(Aes128::defaultKernel()); }
};

/** A SHA-256 (or HMAC) test, run with the SHA kernel set to the param. */
class ShaOnKernel : public ::testing::TestWithParam<Kernel>
{
  protected:
    void
    SetUp() override
    {
        if (GetParam() == Kernel::Hardware && !shaHardwareAvailable())
            GTEST_SKIP() << "CPU lacks SHA-NI: no hardware SHA-256 kernel";
        Sha256::setCompression(GetParam());
    }

    void
    TearDown() override
    {
        Sha256::setCompression(Sha256::defaultCompression());
    }
};

using Aes = AesOnKernel;
using Ctr = AesOnKernel;
using Sha = ShaOnKernel;
using Hmac = ShaOnKernel;

INSTANTIATE_TEST_SUITE_P(Kernels, Aes, ::testing::ValuesIn(allKernels),
                         kernelParamName);
INSTANTIATE_TEST_SUITE_P(Kernels, Ctr, ::testing::ValuesIn(allKernels),
                         kernelParamName);
INSTANTIATE_TEST_SUITE_P(Kernels, Sha, ::testing::ValuesIn(allKernels),
                         kernelParamName);
INSTANTIATE_TEST_SUITE_P(Kernels, Hmac, ::testing::ValuesIn(allKernels),
                         kernelParamName);

TEST(CryptoKernel, DefaultIsHardwareExactlyWhenCpuHasIt)
{
    bool aes_ni = false;
    bool sha_ni = false;
#if defined(__x86_64__)
    __builtin_cpu_init();
    aes_ni = __builtin_cpu_supports("aes") != 0;
    sha_ni = __builtin_cpu_supports("sha") != 0 &&
             __builtin_cpu_supports("ssse3") != 0 &&
             __builtin_cpu_supports("sse4.1") != 0;
#endif
    EXPECT_EQ(aesHardwareAvailable(), aes_ni);
    EXPECT_EQ(shaHardwareAvailable(), sha_ni);
    EXPECT_EQ(Aes128::defaultKernel(),
              aes_ni ? Kernel::Hardware : Kernel::Portable);
    EXPECT_EQ(Sha256::defaultCompression(),
              sha_ni ? Kernel::Hardware : Kernel::Portable);
    // Every test restores the default, so the process still runs it.
    EXPECT_EQ(Aes128::kernel(), Aes128::defaultKernel());
    EXPECT_EQ(Sha256::compression(), Sha256::defaultCompression());
}

TEST(CryptoKernel, Names)
{
    EXPECT_STREQ(kernelName(Kernel::Reference), "reference");
    EXPECT_STREQ(kernelName(Kernel::Portable), "portable");
    EXPECT_STREQ(kernelName(Kernel::Hardware), "hardware");
}

TEST_P(Aes, Fips197VectorEncrypt)
{
    // FIPS-197 appendix C.1.
    Aes128 aes(keyFromHex("000102030405060708090a0b0c0d0e0f"));
    auto pt = fromHex("00112233445566778899aabbccddeeff");
    std::uint8_t ct[16];
    aes.encryptBlock(pt.data(), ct);
    EXPECT_EQ(toHex(std::span<const std::uint8_t>(ct, 16)),
              "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(AesDecrypt, Fips197Vector)
{
    Aes128 aes(keyFromHex("000102030405060708090a0b0c0d0e0f"));
    auto ct = fromHex("69c4e0d86a7b0430d8cdb78070b4c55a");
    std::uint8_t pt[16];
    aes.decryptBlock(ct.data(), pt);
    EXPECT_EQ(toHex(std::span<const std::uint8_t>(pt, 16)),
              "00112233445566778899aabbccddeeff");
}

TEST_P(Aes, Sp80038aEcbVectors)
{
    // NIST SP 800-38A F.1.1 (ECB-AES128.Encrypt), all four blocks.
    Aes128 aes(keyFromHex("2b7e151628aed2a6abf7158809cf4f3c"));
    struct { const char* pt; const char* ct; } cases[] = {
        {"6bc1bee22e409f96e93d7e117393172a",
         "3ad77bb40d7a3660a89ecaf32466ef97"},
        {"ae2d8a571e03ac9c9eb76fac45af8e51",
         "f5d3d58503b9699de785895a96fdbaaf"},
        {"30c81c46a35ce411e5fbc1191a0a52ef",
         "43b1cd7f598ece23881b00e3ed030688"},
        {"f69f2445df4f9b17ad2b417be66c3710",
         "7b0c785e27e8ad3f8223207104725dd4"},
    };
    for (const auto& c : cases) {
        auto pt = fromHex(c.pt);
        std::uint8_t ct[16];
        aes.encryptBlock(pt.data(), ct);
        EXPECT_EQ(toHex(std::span<const std::uint8_t>(ct, 16)), c.ct);
        std::uint8_t back[16];
        aes.decryptBlock(ct, back);
        EXPECT_EQ(toHex(std::span<const std::uint8_t>(back, 16)), c.pt);
    }
    // The same vectors through the bulk entry point, repeated to 12
    // blocks: one eight-block group, one four-block group, and every
    // block count in between through the tails.
    for (std::size_t nblocks = 1; nblocks <= 12; ++nblocks) {
        std::string pt_hex, ct_hex;
        for (std::size_t b = 0; b < nblocks; ++b) {
            pt_hex += cases[b % 4].pt;
            ct_hex += cases[b % 4].ct;
        }
        auto buf = fromHex(pt_hex);
        aes.encryptBlocks(buf.data(), buf.data(), nblocks);
        EXPECT_EQ(toHex(buf), ct_hex) << nblocks << " blocks";
    }
}

TEST_P(Aes, EncryptDecryptRoundTripRandom)
{
    Rng rng(123);
    for (int trial = 0; trial < 50; ++trial) {
        AesKey key;
        rng.fill(key);
        Aes128 aes(key);
        AesBlock pt, ct, back;
        rng.fill(pt);
        aes.encryptBlock(pt.data(), ct.data());
        aes.decryptBlock(ct.data(), back.data());
        EXPECT_EQ(pt, back);
        EXPECT_NE(pt, ct);
    }
}

TEST_P(Aes, InPlaceAliasedBuffers)
{
    Aes128 aes(keyFromHex("000102030405060708090a0b0c0d0e0f"));
    auto buf = fromHex("00112233445566778899aabbccddeeff");
    aes.encryptBlock(buf.data(), buf.data());
    EXPECT_EQ(toHex(buf), "69c4e0d86a7b0430d8cdb78070b4c55a");
    aes.decryptBlock(buf.data(), buf.data());
    EXPECT_EQ(toHex(buf), "00112233445566778899aabbccddeeff");
}

TEST(AesReference, Fips197Vector)
{
    // The byte-wise reference path is always callable, whatever the
    // selected kernel — the differential anchor for the fast kernels.
    Aes128 aes(keyFromHex("000102030405060708090a0b0c0d0e0f"));
    auto pt = fromHex("00112233445566778899aabbccddeeff");
    std::uint8_t ct[16];
    aes.encryptBlockReference(pt.data(), ct);
    EXPECT_EQ(toHex(std::span<const std::uint8_t>(ct, 16)),
              "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST_P(Aes, BlockMatchesReferenceRandom)
{
    Rng rng(2026);
    for (int trial = 0; trial < 1000; ++trial) {
        AesKey key;
        rng.fill(key);
        Aes128 aes(key);
        AesBlock pt, fast, ref;
        rng.fill(pt);
        aes.encryptBlock(pt.data(), fast.data());
        aes.encryptBlockReference(pt.data(), ref.data());
        ASSERT_EQ(fast, ref) << "trial " << trial;
        AesBlock back;
        aes.decryptBlock(fast.data(), back.data());
        ASSERT_EQ(back, pt) << "trial " << trial;
    }
}

TEST_P(Aes, EncryptBlocksMatchesPerBlock)
{
    Rng rng(404);
    AesKey key;
    rng.fill(key);
    Aes128 aes(key);
    for (std::size_t nblocks :
         {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 12u, 15u, 16u, 17u, 256u}) {
        std::vector<std::uint8_t> in(nblocks * aesBlockSize);
        rng.fill(in);
        std::vector<std::uint8_t> bulk(in.size());
        aes.encryptBlocks(in.data(), bulk.data(), nblocks);
        std::vector<std::uint8_t> single(in.size());
        for (std::size_t b = 0; b < nblocks; ++b)
            aes.encryptBlock(in.data() + b * aesBlockSize,
                             single.data() + b * aesBlockSize);
        EXPECT_EQ(bulk, single) << nblocks << " blocks";
        // Aliased in/out must give the same result.
        std::vector<std::uint8_t> aliased(in);
        aes.encryptBlocks(aliased.data(), aliased.data(), nblocks);
        EXPECT_EQ(aliased, bulk) << nblocks << " blocks aliased";
    }
}

TEST_P(Aes, BlocksMatchReferenceRandom)
{
    // 1000 random cases: the bulk entry point must be byte-identical to
    // the byte-wise reference at every block count from 1 to 13, which
    // covers the eight-way and four-way groups and every tail, both out
    // of place at a random buffer offset and in place.
    Rng rng(0xb41c);
    std::vector<std::uint8_t> arena(13 * aesBlockSize + 16);
    for (int trial = 0; trial < 1000; ++trial) {
        AesKey key;
        rng.fill(key);
        Aes128 aes(key);
        std::size_t nblocks = 1 + static_cast<std::size_t>(
                                      rng.nextBounded(13));
        std::size_t offset = static_cast<std::size_t>(rng.nextBounded(16));
        std::uint8_t* in = arena.data() + offset;
        rng.fill(std::span<std::uint8_t>(in, nblocks * aesBlockSize));
        std::vector<std::uint8_t> a(nblocks * aesBlockSize),
            r(nblocks * aesBlockSize);
        aes.encryptBlocks(in, a.data(), nblocks);
        for (std::size_t blk = 0; blk < nblocks; ++blk)
            aes.encryptBlockReference(in + blk * aesBlockSize,
                                      r.data() + blk * aesBlockSize);
        ASSERT_EQ(a, r) << "trial " << trial << " blocks " << nblocks;
        aes.encryptBlocks(in, in, nblocks);
        ASSERT_TRUE(std::equal(r.begin(), r.end(), in))
            << "trial " << trial << " blocks " << nblocks << " aliased";
    }
}

TEST_P(Ctr, Sp80038aF511)
{
    // NIST SP 800-38A F.5.1 CTR-AES128.Encrypt.
    Aes128 aes(keyFromHex("2b7e151628aed2a6abf7158809cf4f3c"));
    Iv iv;
    auto ivv = fromHex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
    std::copy(ivv.begin(), ivv.end(), iv.begin());

    auto pt = fromHex(
        "6bc1bee22e409f96e93d7e117393172a"
        "ae2d8a571e03ac9c9eb76fac45af8e51"
        "30c81c46a35ce411e5fbc1191a0a52ef"
        "f69f2445df4f9b17ad2b417be66c3710");
    std::vector<std::uint8_t> ct(pt.size());
    aesCtrXcrypt(aes, iv, pt, ct);
    EXPECT_EQ(toHex(ct),
              "874d6191b620e3261bef6864990db6ce"
              "9806f66b7970fdff8617187bb9fffdff"
              "5ae4df3edbd5d35e5b4f09020db03eab"
              "1e031dda2fbe03d1792170a0f3009cee");
}

TEST_P(Ctr, MatchesReferenceRandom)
{
    // 1000 random (key, IV, length, offset) cases: the CTR pipeline on
    // this kernel must be byte-identical to the byte-wise reference,
    // for unaligned buffers, lengths 0-4096 that are not multiples of
    // the batch or block size, and in-place (aliased) operation.
    Rng rng(0xd1ff);
    std::vector<std::uint8_t> arena(4096 + 64);
    for (int trial = 0; trial < 1000; ++trial) {
        AesKey key;
        rng.fill(key);
        Aes128 aes(key);
        Iv iv;
        rng.fill(iv);
        std::size_t offset = static_cast<std::size_t>(rng.nextBounded(64));
        std::size_t len = static_cast<std::size_t>(
            rng.nextBounded(trial % 10 == 0 ? 4097 : 301));
        rng.fill(std::span<std::uint8_t>(arena.data() + offset, len));
        std::span<std::uint8_t> pt(arena.data() + offset, len);
        std::vector<std::uint8_t> a(len), ref(len);
        aesCtrXcrypt(aes, iv, pt, a);
        withAesKernel(Kernel::Reference,
                      [&] { aesCtrXcrypt(aes, iv, pt, ref); });
        ASSERT_EQ(a, ref) << "trial " << trial << " len " << len
                          << " offset " << offset;
        aesCtrXcryptInPlace(aes, iv, pt);
        ASSERT_TRUE(std::equal(ref.begin(), ref.end(), pt.begin()))
            << "trial " << trial << " len " << len << " aliased";
    }
}

TEST_P(Ctr, RoundTripArbitraryLengths)
{
    Rng rng(77);
    AesKey key;
    rng.fill(key);
    Aes128 aes(key);
    for (std::size_t len : {0u, 1u, 15u, 16u, 17u, 100u, 4096u}) {
        std::vector<std::uint8_t> pt(len);
        rng.fill(pt);
        Iv iv;
        rng.fill(iv);
        std::vector<std::uint8_t> ct(pt);
        aesCtrXcryptInPlace(aes, iv, ct);
        if (len >= 16) {
            EXPECT_NE(pt, ct);
        }
        aesCtrXcryptInPlace(aes, iv, ct);
        EXPECT_EQ(pt, ct);
    }
}

TEST_P(Ctr, DifferentIvsGiveDifferentCiphertext)
{
    Rng rng(9);
    AesKey key;
    rng.fill(key);
    Aes128 aes(key);
    std::vector<std::uint8_t> pt(64, 0xaa);
    Iv iv1{}, iv2{};
    iv2[15] = 1;
    std::vector<std::uint8_t> c1(pt), c2(pt);
    aesCtrXcryptInPlace(aes, iv1, c1);
    aesCtrXcryptInPlace(aes, iv2, c2);
    EXPECT_NE(c1, c2);
}

TEST_P(Ctr, CounterCarryPropagates)
{
    // IV ending in ff..ff must carry into higher counter bytes rather
    // than repeating the keystream block.
    AesKey key{};
    Aes128 aes(key);
    Iv iv{};
    for (int i = 8; i < 16; ++i)
        iv[static_cast<std::size_t>(i)] = 0xff;
    std::vector<std::uint8_t> zeros(48, 0);
    std::vector<std::uint8_t> ks(48);
    aesCtrXcrypt(aes, iv, zeros, ks);
    // Keystream blocks must be pairwise distinct.
    EXPECT_NE(std::vector<std::uint8_t>(ks.begin(), ks.begin() + 16),
              std::vector<std::uint8_t>(ks.begin() + 16, ks.begin() + 32));
    EXPECT_NE(std::vector<std::uint8_t>(ks.begin() + 16, ks.begin() + 32),
              std::vector<std::uint8_t>(ks.begin() + 32, ks.end()));
}

TEST_P(Sha, Fips180Vectors)
{
    struct { const char* msg; const char* digest; } cases[] = {
        {"",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
        {"abc",
         "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
        {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
         "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
    };
    for (const auto& c : cases) {
        Sha256 ctx;
        ctx.update(std::string(c.msg));
        EXPECT_EQ(toHex(ctx.final()), c.digest);
    }
}

TEST_P(Sha, MillionAs)
{
    // FIPS 180-4: one million repetitions of 'a'.
    Sha256 ctx;
    std::vector<std::uint8_t> chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i)
        ctx.update(chunk);
    EXPECT_EQ(toHex(ctx.final()),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST_P(Sha, MatchesReferenceRandom)
{
    // 1000 random (length, content, split) cases: this kernel must
    // match the plain FIPS 180-4 loop across block boundaries, the
    // padding tail, multi-block runs and partially buffered updates.
    Rng rng(0x5a25);
    for (int trial = 0; trial < 1000; ++trial) {
        std::size_t len = static_cast<std::size_t>(
            rng.nextBounded(trial % 10 == 0 ? 4097 : 300));
        std::vector<std::uint8_t> data(len);
        rng.fill(data);
        std::size_t split = static_cast<std::size_t>(
            rng.nextBounded(len + 1));
        Sha256 ctx;
        ctx.update(std::span<const std::uint8_t>(data.data(), split));
        ctx.update(std::span<const std::uint8_t>(data.data() + split,
                                                 len - split));
        Digest got = ctx.final();
        Digest ref;
        withShaKernel(Kernel::Reference,
                      [&] { ref = Sha256::hash(data); });
        ASSERT_EQ(got, ref) << "trial " << trial << " len " << len
                            << " split " << split;
    }
}

TEST_P(Sha, IncrementalMatchesOneShot)
{
    Rng rng(31);
    std::vector<std::uint8_t> data(1000);
    rng.fill(data);
    Digest oneshot = Sha256::hash(data);
    // Split at many odd boundaries.
    for (std::size_t split : {1u, 7u, 63u, 64u, 65u, 500u, 999u}) {
        Sha256 ctx;
        ctx.update(std::span<const std::uint8_t>(data.data(), split));
        ctx.update(std::span<const std::uint8_t>(data.data() + split,
                                                 data.size() - split));
        EXPECT_EQ(ctx.final(), oneshot);
    }
}

TEST_P(Hmac, Rfc4231Case1)
{
    std::vector<std::uint8_t> key(20, 0x0b);
    std::string msg = "Hi There";
    auto mac = hmacSha256(key, std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()));
    EXPECT_EQ(toHex(mac),
              "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST_P(Hmac, Rfc4231Case2)
{
    std::string key = "Jefe";
    std::string msg = "what do ya want for nothing?";
    auto mac = hmacSha256(
        std::span<const std::uint8_t>(
            reinterpret_cast<const std::uint8_t*>(key.data()), key.size()),
        std::span<const std::uint8_t>(
            reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()));
    EXPECT_EQ(toHex(mac),
              "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST_P(Hmac, Rfc4231Case3)
{
    std::vector<std::uint8_t> key(20, 0xaa);
    std::vector<std::uint8_t> msg(50, 0xdd);
    auto mac = hmacSha256(key, msg);
    EXPECT_EQ(toHex(mac),
              "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST_P(Hmac, Rfc4231Case6LongKey)
{
    // Key longer than the block size must be hashed first.
    std::vector<std::uint8_t> key(131, 0xaa);
    std::string msg = "Test Using Larger Than Block-Size Key - Hash Key First";
    auto mac = hmacSha256(key, std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()));
    EXPECT_EQ(toHex(mac),
              "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST_P(Hmac, MidstateMatchesOneShotRfc4231)
{
    // Every RFC 4231 vector must hold through the prepared-key
    // midstate path and the streaming context as well.
    struct { std::vector<std::uint8_t> key, msg; const char* mac; } cases[] = {
        {std::vector<std::uint8_t>(20, 0x0b),
         {'H', 'i', ' ', 'T', 'h', 'e', 'r', 'e'},
         "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
        {{'J', 'e', 'f', 'e'},
         {'w', 'h', 'a', 't', ' ', 'd', 'o', ' ', 'y', 'a', ' ', 'w',
          'a', 'n', 't', ' ', 'f', 'o', 'r', ' ', 'n', 'o', 't', 'h',
          'i', 'n', 'g', '?'},
         "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
        {std::vector<std::uint8_t>(20, 0xaa),
         std::vector<std::uint8_t>(50, 0xdd),
         "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
    };
    for (const auto& c : cases) {
        HmacKey prepared{std::span<const std::uint8_t>(c.key)};
        EXPECT_EQ(toHex(hmacSha256(prepared, c.msg)), c.mac);
        HmacSha256 ctx(prepared);
        for (std::uint8_t byte : c.msg)
            ctx.update(std::span<const std::uint8_t>(&byte, 1));
        EXPECT_EQ(toHex(ctx.final()), c.mac);
    }
}

TEST_P(Hmac, MidstateReusableAcrossMessages)
{
    // One prepared key, many MACs: each must equal the one-shot MAC,
    // including for keys longer than the block size (hashed first).
    Rng rng(555);
    for (std::size_t key_len : {1u, 32u, 64u, 65u, 131u}) {
        std::vector<std::uint8_t> key(key_len);
        rng.fill(key);
        HmacKey prepared{std::span<const std::uint8_t>(key)};
        for (std::size_t msg_len : {0u, 1u, 55u, 64u, 200u, 1096u}) {
            std::vector<std::uint8_t> msg(msg_len);
            rng.fill(msg);
            EXPECT_EQ(hmacSha256(prepared, msg), hmacSha256(key, msg))
                << "key " << key_len << " msg " << msg_len;
        }
    }
}

TEST(Keys, StableDerivation)
{
    KeyManager km(1234);
    const Aes128& c1 = km.pageCipher(7);
    const Aes128& c1_again = km.pageCipher(7);
    EXPECT_EQ(&c1, &c1_again);
    EXPECT_EQ(km.derivedKeyCount(), 1u);
}

TEST(Keys, DistinctResourcesGetDistinctKeys)
{
    KeyManager km(1234);
    AesBlock zero{};
    AesBlock c1, c2;
    km.pageCipher(1).encryptBlock(zero.data(), c1.data());
    km.pageCipher(2).encryptBlock(zero.data(), c2.data());
    EXPECT_NE(c1, c2);
}

TEST(Keys, DifferentMasterSeedsDiffer)
{
    KeyManager a(1), b(2);
    AesBlock zero{};
    AesBlock ca, cb;
    a.pageCipher(1).encryptBlock(zero.data(), ca.data());
    b.pageCipher(1).encryptBlock(zero.data(), cb.data());
    EXPECT_NE(ca, cb);
    EXPECT_NE(a.sealingKey(1), b.sealingKey(1));
}

TEST(Keys, SealingKeyDiffersFromPageKey)
{
    KeyManager km(99);
    // Sealing key and page key are derived with different labels; check
    // the sealing keys for two resources differ too.
    EXPECT_NE(km.sealingKey(1), km.sealingKey(2));
}

// Parameterized property sweep: CTR round-trips across sizes and seeds.
class CtrRoundTrip : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(CtrRoundTrip, Holds)
{
    auto [seed, len] = GetParam();
    Rng rng(static_cast<std::uint64_t>(seed));
    AesKey key;
    rng.fill(key);
    Aes128 aes(key);
    Iv iv;
    rng.fill(iv);
    std::vector<std::uint8_t> pt(static_cast<std::size_t>(len));
    rng.fill(pt);
    std::vector<std::uint8_t> ct(pt);
    aesCtrXcryptInPlace(aes, iv, ct);
    aesCtrXcryptInPlace(aes, iv, ct);
    EXPECT_EQ(ct, pt);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CtrRoundTrip,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(1, 16, 255, 4096)));

} // namespace
} // namespace osh::crypto
