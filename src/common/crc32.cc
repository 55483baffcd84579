/**
 * @file
 * CRC-32 kernels: bytewise reference, portable slice-by-8, and
 * hardware fast paths (PCLMULQDQ folding for the IEEE polynomial,
 * SSE4.2 _mm_crc32_u64 for CRC-32C), selected once at startup.
 *
 * Every kernel of a polynomial produces bit-identical results; the
 * tests cross-check the dispatched entry points against the bytewise
 * references on random buffers of every size and alignment class.
 */

#include "common/crc32.hh"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define DEWRITE_X86 1
#endif

namespace dewrite {

namespace {

/** Reflected IEEE 802.3 polynomial. */
constexpr std::uint32_t kPolynomial = 0xedb88320u;

/** Reflected Castagnoli polynomial (iSCSI / SSE4.2 crc32 instruction). */
constexpr std::uint32_t kPolynomialC = 0x82f63b78u;

/**
 * Slice-by-8 table set: table[0] is the classic bytewise table;
 * table[k][b] extends the remainder of byte b through k additional
 * zero bytes, letting eight bytes fold in per step.
 */
using SliceTables = std::array<std::array<std::uint32_t, 256>, 8>;

SliceTables
makeSliceTables(std::uint32_t polynomial)
{
    SliceTables tables{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t crc = i;
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc >> 1) ^ ((crc & 1) ? polynomial : 0);
        tables[0][i] = crc;
    }
    for (std::size_t k = 1; k < 8; ++k) {
        for (std::uint32_t i = 0; i < 256; ++i) {
            const std::uint32_t prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xff];
        }
    }
    return tables;
}

const SliceTables kIeee = makeSliceTables(kPolynomial);
const SliceTables kCastagnoli = makeSliceTables(kPolynomialC);

/** Bytewise update starting from raw state @p crc (no init/final xor). */
// dewrite-lint: hot
inline std::uint32_t
updateBytewise(const SliceTables &tables, std::uint32_t crc,
               const std::uint8_t *data, std::size_t size)
{
    for (std::size_t i = 0; i < size; ++i)
        crc = (crc >> 8) ^ tables[0][(crc ^ data[i]) & 0xff];
    return crc;
}

/** Slice-by-8 update from raw state (little-endian hosts only). */
// dewrite-lint: hot
std::uint32_t
updateSliced(const SliceTables &tables, std::uint32_t crc,
             const std::uint8_t *data, std::size_t size)
{
    if constexpr (std::endian::native != std::endian::little)
        return updateBytewise(tables, crc, data, size);

    while (size >= 8) {
        std::uint32_t lo, hi;
        std::memcpy(&lo, data, 4);
        std::memcpy(&hi, data + 4, 4);
        lo ^= crc;
        crc = tables[7][lo & 0xff] ^ tables[6][(lo >> 8) & 0xff] ^
              tables[5][(lo >> 16) & 0xff] ^ tables[4][lo >> 24] ^
              tables[3][hi & 0xff] ^ tables[2][(hi >> 8) & 0xff] ^
              tables[1][(hi >> 16) & 0xff] ^ tables[0][hi >> 24];
        data += 8;
        size -= 8;
    }
    return updateBytewise(tables, crc, data, size);
}

#ifdef DEWRITE_X86

/**
 * PCLMULQDQ folding for the reflected IEEE polynomial, after Gopal et
 * al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ"
 * (the zlib/Chromium kernel). Processes 16-byte blocks; the caller
 * handles tails. Constants are x^(8·k) mod P precomputed for the
 * reflected polynomial.
 */
__attribute__((target("pclmul,sse4.1"))) std::uint32_t
updateClmul(std::uint32_t crc, const std::uint8_t *data, std::size_t size)
{
    // size >= 64 and a multiple of 16, guaranteed by the dispatcher.
    const __m128i k1k2 = _mm_set_epi64x(0x00000001c6e41596, // x^(64*9)
                                        0x0000000154442bd4); // x^(64*8)
    const __m128i k3k4 = _mm_set_epi64x(0x00000000ccaa009e, // x^(64*3)
                                        0x00000001751997d0); // x^(64*2)

    __m128i x1 = _mm_loadu_si128(reinterpret_cast<const __m128i *>(data));
    __m128i x2 =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(data + 16));
    __m128i x3 =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(data + 32));
    __m128i x4 =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(data + 48));
    x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128(static_cast<int>(crc)));
    data += 64;
    size -= 64;

    // Fold four 16-byte lanes in parallel, 64 bytes per iteration.
    while (size >= 64) {
        __m128i t1 = _mm_clmulepi64_si128(x1, k1k2, 0x00);
        __m128i t2 = _mm_clmulepi64_si128(x2, k1k2, 0x00);
        __m128i t3 = _mm_clmulepi64_si128(x3, k1k2, 0x00);
        __m128i t4 = _mm_clmulepi64_si128(x4, k1k2, 0x00);
        x1 = _mm_clmulepi64_si128(x1, k1k2, 0x11);
        x2 = _mm_clmulepi64_si128(x2, k1k2, 0x11);
        x3 = _mm_clmulepi64_si128(x3, k1k2, 0x11);
        x4 = _mm_clmulepi64_si128(x4, k1k2, 0x11);
        x1 = _mm_xor_si128(
            _mm_xor_si128(x1, t1),
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(data)));
        x2 = _mm_xor_si128(
            _mm_xor_si128(x2, t2),
            _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(data + 16)));
        x3 = _mm_xor_si128(
            _mm_xor_si128(x3, t3),
            _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(data + 32)));
        x4 = _mm_xor_si128(
            _mm_xor_si128(x4, t4),
            _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(data + 48)));
        data += 64;
        size -= 64;
    }

    // Merge the four lanes into one.
    __m128i t = _mm_clmulepi64_si128(x1, k3k4, 0x00);
    x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, t), x2);
    t = _mm_clmulepi64_si128(x1, k3k4, 0x00);
    x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, t), x3);
    t = _mm_clmulepi64_si128(x1, k3k4, 0x00);
    x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, t), x4);

    // Remaining whole 16-byte blocks.
    while (size >= 16) {
        t = _mm_clmulepi64_si128(x1, k3k4, 0x00);
        x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
        x1 = _mm_xor_si128(
            _mm_xor_si128(x1, t),
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(data)));
        data += 16;
        size -= 16;
    }

    // Fold 128 -> 64 bits.
    const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);
    t = _mm_clmulepi64_si128(x1, k3k4, 0x10);
    x1 = _mm_srli_si128(x1, 8);
    x1 = _mm_xor_si128(x1, t);

    const __m128i k5 = _mm_set_epi64x(0, 0x0000000163cd6124); // x^(64+32)
    t = _mm_srli_si128(x1, 4);
    x1 = _mm_and_si128(x1, mask32);
    x1 = _mm_clmulepi64_si128(x1, k5, 0x00);
    x1 = _mm_xor_si128(x1, t);

    // Barrett reduction 64 -> 32 bits.
    const __m128i poly = _mm_set_epi64x(0x00000001f7011641,  // mu
                                        0x00000001db710641); // P'
    t = _mm_and_si128(x1, mask32);
    t = _mm_clmulepi64_si128(t, poly, 0x10);
    t = _mm_and_si128(t, mask32);
    t = _mm_clmulepi64_si128(t, poly, 0x00);
    x1 = _mm_xor_si128(x1, t);
    return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}

__attribute__((target("sse4.2"))) std::uint32_t
updateCrc32cHw(std::uint32_t crc, const std::uint8_t *data,
               std::size_t size)
{
    std::uint64_t state = crc;
    while (size >= 8) {
        std::uint64_t word;
        std::memcpy(&word, data, 8);
        state = _mm_crc32_u64(state, word);
        data += 8;
        size -= 8;
    }
    std::uint32_t crc32 = static_cast<std::uint32_t>(state);
    while (size--)
        crc32 = _mm_crc32_u8(crc32, *data++);
    return crc32;
}

bool
cpuHasClmul()
{
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
}

bool
cpuHasSse42()
{
    return __builtin_cpu_supports("sse4.2");
}

#else // !DEWRITE_X86

bool cpuHasClmul() { return false; }
bool cpuHasSse42() { return false; }

#endif // DEWRITE_X86

const bool kUseClmul = cpuHasClmul();
const bool kUseSse42Crc = cpuHasSse42();

} // namespace

std::uint32_t
crc32(const std::uint8_t *data, std::size_t size)
{
    std::uint32_t crc = 0xffffffffu;
#ifdef DEWRITE_X86
    if (kUseClmul && size >= 64) {
        const std::size_t folded = size & ~std::size_t{ 15 };
        crc = updateClmul(crc, data, folded);
        data += folded;
        size -= folded;
    }
#endif
    return updateSliced(kIeee, crc, data, size) ^ 0xffffffffu;
}

std::uint32_t
crc32(const Line &line)
{
    return crc32(line.data(), kLineSize);
}

std::uint32_t
crc32Reference(const std::uint8_t *data, std::size_t size)
{
    return updateBytewise(kIeee, 0xffffffffu, data, size) ^ 0xffffffffu;
}

std::uint32_t
crc32c(const std::uint8_t *data, std::size_t size)
{
    const std::uint32_t init = 0xffffffffu;
#ifdef DEWRITE_X86
    if (kUseSse42Crc)
        return updateCrc32cHw(init, data, size) ^ 0xffffffffu;
#endif
    return updateSliced(kCastagnoli, init, data, size) ^ 0xffffffffu;
}

std::uint32_t
crc32c(const Line &line)
{
    return crc32c(line.data(), kLineSize);
}

std::uint32_t
crc32cReference(const std::uint8_t *data, std::size_t size)
{
    return updateBytewise(kCastagnoli, 0xffffffffu, data, size) ^
           0xffffffffu;
}

} // namespace dewrite
