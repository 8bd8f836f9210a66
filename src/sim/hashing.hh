/**
 * @file
 * Hash helpers for hot-path tables and run digests.
 *
 * libstdc++'s std::hash<uint64_t> is the identity, so tables keyed
 * by block addresses (low bits always zero) or packed ids cluster
 * into few buckets. U64MixHash finalizes with a multiplicative
 * mixer so any key shape spreads evenly; packKey builds a single
 * u64 out of an (id, tag) pair so maps avoid pair keys entirely.
 * fnvMix is the one FNV-1a step behind every run digest (the stress
 * harness's step digest and memory fingerprint, the sharded engine's
 * step digest), so sequential and sharded digests agree by
 * construction.
 */

#ifndef CENJU_SIM_HASHING_HH
#define CENJU_SIM_HASHING_HH

#include <cstddef>
#include <cstdint>

namespace cenju
{

/** splitmix64 finalizer; cheap and well distributed. */
struct U64MixHash
{
    std::size_t
    operator()(std::uint64_t x) const noexcept
    {
        x ^= x >> 33;
        x *= 0xff51afd7ed558ccdull;
        x ^= x >> 33;
        x *= 0xc4ceb9fe1a85ec53ull;
        x ^= x >> 33;
        return static_cast<std::size_t>(x);
    }
};

/** Pack an (id, tag) pair into one map key. */
constexpr std::uint64_t
packKey(std::uint32_t hi, std::int32_t lo)
{
    return (static_cast<std::uint64_t>(hi) << 32) |
           static_cast<std::uint32_t>(lo);
}

/** FNV-1a offset basis: the digest of an empty input. */
constexpr std::uint64_t fnvBasis = 14695981039346656037ull;

/** Fold the 8 bytes of @p v, low byte first, into FNV-1a digest @p h. */
constexpr std::uint64_t
fnvMix(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace cenju

#endif // CENJU_SIM_HASHING_HH
