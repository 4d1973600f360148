#include "crypto/keys.hh"

#include "base/bytes.hh"

#include <cstring>

namespace osh::crypto
{

KeyManager::KeyManager(std::uint64_t master_seed)
{
    std::uint8_t seed_bytes[16] = {};
    storeLe64(seed_bytes, master_seed);
    std::memcpy(seed_bytes + 8, "OSHMSTR!", 8);
    master_ = Sha256::hash(seed_bytes);
    masterHmac_ = HmacKey(master_);
}

AesKey
KeyManager::deriveAesKey(ResourceId resource) const
{
    std::uint8_t info[16] = {};
    storeLe64(info, resource);
    std::memcpy(info + 8, "pagekey\0", 8);
    Digest d = hmacSha256(masterHmac_, info);
    AesKey key;
    std::memcpy(key.data(), d.data(), key.size());
    return key;
}

Digest
KeyManager::deriveSealingKey(ResourceId resource) const
{
    std::uint8_t info[16] = {};
    storeLe64(info, resource);
    std::memcpy(info + 8, "sealkey\0", 8);
    return hmacSha256(masterHmac_, info);
}

const Aes128&
KeyManager::cipherLocked(ResourceId resource)
{
    auto it = ciphers_.find(resource);
    if (it == ciphers_.end()) {
        it = ciphers_
                 .emplace(resource, std::make_unique<Aes128>(
                                        deriveAesKey(resource)))
                 .first;
    }
    return *it->second;
}

const HmacKey&
KeyManager::sealingHmacLocked(ResourceId resource) const
{
    auto it = sealingHmacs_.find(resource);
    if (it == sealingHmacs_.end()) {
        auto kit = sealingKeys_.find(resource);
        if (kit == sealingKeys_.end()) {
            kit = sealingKeys_
                      .emplace(resource, deriveSealingKey(resource))
                      .first;
        }
        it = sealingHmacs_.emplace(resource, HmacKey(kit->second))
                 .first;
    }
    return it->second;
}

KeyHandle
KeyManager::acquire(ResourceId resource)
{
    std::lock_guard<std::mutex> lk(lock_);
    KeyHandle h;
    h.cipher_ = &cipherLocked(resource);
    h.sealingHmac_ = &sealingHmacLocked(resource);
    h.keyId_ = resource;
    return h;
}

const Aes128&
KeyManager::pageCipher(ResourceId resource)
{
    std::lock_guard<std::mutex> lk(lock_);
    return cipherLocked(resource);
}

Digest
KeyManager::sealingKey(ResourceId resource) const
{
    std::lock_guard<std::mutex> lk(lock_);
    auto it = sealingKeys_.find(resource);
    if (it == sealingKeys_.end()) {
        it = sealingKeys_.emplace(resource, deriveSealingKey(resource))
                 .first;
    }
    return it->second;
}

Digest
KeyManager::migrationKey(std::uint64_t nonce) const
{
    std::uint8_t info[16] = {};
    storeLe64(info, nonce);
    std::memcpy(info + 8, "migrkey\0", 8);
    return hmacSha256(masterHmac_, info);
}

const HmacKey&
KeyManager::sealingHmacKey(ResourceId resource) const
{
    std::lock_guard<std::mutex> lk(lock_);
    return sealingHmacLocked(resource);
}

std::size_t
KeyManager::derivedKeyCount() const
{
    std::lock_guard<std::mutex> lk(lock_);
    return ciphers_.size();
}

} // namespace osh::crypto
