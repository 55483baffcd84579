/**
 * @file
 * CRC-32 (IEEE 802.3 polynomial) — the light-weight line fingerprint.
 *
 * DeWrite summarizes each 256 B line with CRC-32 (Section III-B1): the
 * hash is cheap (15 ns in hardware per Table Ia) but collisions are
 * possible, so a hash match is always confirmed with a byte-wise compare
 * of the candidate line.
 *
 * Host-side implementation notes (simulation throughput only — the
 * modelled hardware latency is the hash catalog's, hash_latency.hh):
 *
 *  - crc32() is the paper's fingerprint and must stay bit-identical on
 *    every machine. It runs a portable slice-by-8 kernel, upgraded at
 *    runtime to a PCLMULQDQ carry-less-multiply folding kernel where
 *    the CPU supports it; both produce exactly the reference result.
 *  - crc32c() (Castagnoli polynomial) is *not* the paper's fingerprint;
 *    it exists because SSE4.2 implements it in one instruction
 *    (_mm_crc32_u64), making it the cheapest strong 32-bit mix the host
 *    has. Line::contentDigest() uses it for hash-map keying. The
 *    portable slice-by-8 fallback computes the identical polynomial, so
 *    digests are deterministic across machines either way.
 *  - the *Reference() variants are the original bytewise table loops,
 *    kept as the cross-check oracle the fast kernels are tested against.
 */

#ifndef DEWRITE_COMMON_CRC32_HH
#define DEWRITE_COMMON_CRC32_HH

#include <cstddef>
#include <cstdint>

#include "common/line.hh"

namespace dewrite {

/** CRC-32 over an arbitrary buffer (init/final XOR 0xffffffff). */
std::uint32_t crc32(const std::uint8_t *data, std::size_t size);

/** CRC-32 of a full 256 B memory line. */
std::uint32_t crc32(const Line &line);

/**
 * Bytewise table CRC-32 — the reference implementation the fast
 * kernels are validated against (tests/common, tests/crypto).
 */
std::uint32_t crc32Reference(const std::uint8_t *data, std::size_t size);

/** CRC-32C (Castagnoli, init/final XOR 0xffffffff). */
std::uint32_t crc32c(const std::uint8_t *data, std::size_t size);

/** CRC-32C of a full 256 B memory line. */
std::uint32_t crc32c(const Line &line);

/** Bytewise table CRC-32C reference for cross-checking. */
std::uint32_t crc32cReference(const std::uint8_t *data, std::size_t size);

} // namespace dewrite

#endif // DEWRITE_COMMON_CRC32_HH
