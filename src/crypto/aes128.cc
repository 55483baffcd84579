/**
 * @file
 * AES-128 implementation (FIPS-197).
 *
 * The S-box is generated at static-initialization time from the AES
 * field inverse and affine map rather than pasted as a 256-entry table,
 * which both documents where the values come from and removes a class
 * of transcription errors.
 *
 * Three kernels share the expanded key: the byte-oriented reference
 * (the spec, kept as the testing oracle), a four-T-table software
 * kernel with construction-time word round keys, and hardware AES-NI.
 * The fast entry points dispatch once at startup on CPU capability;
 * all kernels are bit-identical.
 */

#include "crypto/aes128.hh"

#include <bit>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define DEWRITE_X86 1
#endif

namespace dewrite {

namespace {

/** Multiplication in GF(2^8) with the AES reduction polynomial 0x11b. */
std::uint8_t
gfMul(std::uint8_t a, std::uint8_t b)
{
    std::uint8_t result = 0;
    while (b) {
        if (b & 1)
            result ^= a;
        const bool high = a & 0x80;
        a <<= 1;
        if (high)
            a ^= 0x1b;
        b >>= 1;
    }
    return result;
}

struct SBoxTables
{
    std::array<std::uint8_t, 256> fwd;
    std::array<std::uint8_t, 256> inv;

    SBoxTables()
    {
        // Build the multiplicative inverse table by exhaustion (the
        // field is tiny), then apply the affine transformation.
        std::array<std::uint8_t, 256> inverse{};
        for (int a = 1; a < 256; ++a) {
            for (int b = 1; b < 256; ++b) {
                if (gfMul(static_cast<std::uint8_t>(a),
                          static_cast<std::uint8_t>(b)) == 1) {
                    inverse[a] = static_cast<std::uint8_t>(b);
                    break;
                }
            }
        }
        for (int x = 0; x < 256; ++x) {
            const std::uint8_t i = inverse[x];
            std::uint8_t s = 0;
            for (int bit = 0; bit < 8; ++bit) {
                const int v = ((i >> bit) & 1) ^
                              ((i >> ((bit + 4) % 8)) & 1) ^
                              ((i >> ((bit + 5) % 8)) & 1) ^
                              ((i >> ((bit + 6) % 8)) & 1) ^
                              ((i >> ((bit + 7) % 8)) & 1) ^
                              ((0x63 >> bit) & 1);
                s |= static_cast<std::uint8_t>(v << bit);
            }
            fwd[x] = s;
            inv[s] = static_cast<std::uint8_t>(x);
        }
    }
};

const SBoxTables kSBox;

/**
 * Encryption T-tables: te[0][x] packs MixColumns applied to S[x] as
 * the big-endian column (2*S[x], S[x], S[x], 3*S[x]); te[1..3] are its
 * byte rotations, precomputed so the round loop is pure loads and
 * xors.
 */
struct TeTable
{
    std::array<std::array<std::uint32_t, 256>, 4> te;

    TeTable()
    {
        for (int x = 0; x < 256; ++x) {
            const std::uint8_t s = kSBox.fwd[x];
            const std::uint8_t s2 = gfMul(s, 2);
            const std::uint8_t s3 = static_cast<std::uint8_t>(s2 ^ s);
            const std::uint32_t w =
                (static_cast<std::uint32_t>(s2) << 24) |
                (static_cast<std::uint32_t>(s) << 16) |
                (static_cast<std::uint32_t>(s) << 8) |
                static_cast<std::uint32_t>(s3);
            te[0][x] = w;
            te[1][x] = std::rotr(w, 8);
            te[2][x] = std::rotr(w, 16);
            te[3][x] = std::rotr(w, 24);
        }
    }
};

const TeTable kTe;

void
subBytes(AesBlock &state)
{
    for (auto &b : state)
        b = kSBox.fwd[b];
}

void
invSubBytes(AesBlock &state)
{
    for (auto &b : state)
        b = kSBox.inv[b];
}

// State layout: state[r + 4*c] is row r, column c (FIPS-197 column-major).

void
shiftRows(AesBlock &state)
{
    AesBlock out;
    for (int r = 0; r < 4; ++r) {
        for (int c = 0; c < 4; ++c)
            out[r + 4 * c] = state[r + 4 * ((c + r) % 4)];
    }
    state = out;
}

void
invShiftRows(AesBlock &state)
{
    AesBlock out;
    for (int r = 0; r < 4; ++r) {
        for (int c = 0; c < 4; ++c)
            out[r + 4 * ((c + r) % 4)] = state[r + 4 * c];
    }
    state = out;
}

void
mixColumns(AesBlock &state)
{
    for (int c = 0; c < 4; ++c) {
        std::uint8_t *col = state.data() + 4 * c;
        const std::uint8_t a0 = col[0], a1 = col[1];
        const std::uint8_t a2 = col[2], a3 = col[3];
        col[0] = gfMul(a0, 2) ^ gfMul(a1, 3) ^ a2 ^ a3;
        col[1] = a0 ^ gfMul(a1, 2) ^ gfMul(a2, 3) ^ a3;
        col[2] = a0 ^ a1 ^ gfMul(a2, 2) ^ gfMul(a3, 3);
        col[3] = gfMul(a0, 3) ^ a1 ^ a2 ^ gfMul(a3, 2);
    }
}

void
invMixColumns(AesBlock &state)
{
    for (int c = 0; c < 4; ++c) {
        std::uint8_t *col = state.data() + 4 * c;
        const std::uint8_t a0 = col[0], a1 = col[1];
        const std::uint8_t a2 = col[2], a3 = col[3];
        col[0] = gfMul(a0, 14) ^ gfMul(a1, 11) ^ gfMul(a2, 13) ^
                 gfMul(a3, 9);
        col[1] = gfMul(a0, 9) ^ gfMul(a1, 14) ^ gfMul(a2, 11) ^
                 gfMul(a3, 13);
        col[2] = gfMul(a0, 13) ^ gfMul(a1, 9) ^ gfMul(a2, 14) ^
                 gfMul(a3, 11);
        col[3] = gfMul(a0, 11) ^ gfMul(a1, 13) ^ gfMul(a2, 9) ^
                 gfMul(a3, 14);
    }
}

void
addRoundKey(AesBlock &state, const std::uint8_t *round_key)
{
    for (int i = 0; i < 16; ++i)
        state[i] ^= round_key[i];
}

bool
cpuHasAesni()
{
#ifdef DEWRITE_X86
    return __builtin_cpu_supports("aes") &&
           __builtin_cpu_supports("sse2");
#else
    return false;
#endif
}

const bool kUseAesni = cpuHasAesni();

} // namespace

Aes128::Aes128(const AesKey &key)
{
    expandKey(key);
}

void
Aes128::expandKey(const AesKey &key)
{
    // Round constants for AES-128 key expansion.
    static constexpr std::uint8_t rcon[10] = {
        0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36
    };

    std::memcpy(roundKeys_.data(), key.data(), 16);
    for (int word = 4; word < 4 * (kRounds + 1); ++word) {
        std::uint8_t temp[4];
        std::memcpy(temp, roundKeys_.data() + 4 * (word - 1), 4);
        if (word % 4 == 0) {
            // RotWord + SubWord + Rcon.
            const std::uint8_t t0 = temp[0];
            temp[0] = static_cast<std::uint8_t>(kSBox.fwd[temp[1]] ^
                                                rcon[word / 4 - 1]);
            temp[1] = kSBox.fwd[temp[2]];
            temp[2] = kSBox.fwd[temp[3]];
            temp[3] = kSBox.fwd[t0];
        }
        for (int i = 0; i < 4; ++i) {
            roundKeys_[4 * word + i] =
                roundKeys_[4 * (word - 4) + i] ^ temp[i];
        }
    }

    // Pre-swap every round key into the big-endian column words the
    // T-table kernel consumes, once instead of on every block.
    for (int w = 0; w < 4 * (kRounds + 1); ++w) {
        const std::uint8_t *p = roundKeys_.data() + 4 * w;
        encKeys_[w] = (static_cast<std::uint32_t>(p[0]) << 24) |
                      (static_cast<std::uint32_t>(p[1]) << 16) |
                      (static_cast<std::uint32_t>(p[2]) << 8) |
                      static_cast<std::uint32_t>(p[3]);
    }

    // Equivalent-inverse-cipher keys for AES-NI decryption: the middle
    // round keys passed through InvMixColumns (FIPS-197 Section 5.3.5).
    imcKeys_.fill(0);
    if (kUseAesni) {
        for (int round = 1; round < kRounds; ++round) {
            AesBlock k;
            std::memcpy(k.data(), roundKeys_.data() + 16 * round, 16);
            invMixColumns(k);
            std::memcpy(imcKeys_.data() + 16 * (round - 1), k.data(),
                        16);
        }
    }
}

AesBlock
Aes128::encryptBlock(const AesBlock &plaintext) const
{
#ifdef DEWRITE_X86
    if (kUseAesni)
        return encryptBlockAesni(plaintext);
#endif
    return encryptBlockTables(plaintext);
}

void
Aes128::encryptBlocks(const AesBlock *in, AesBlock *out,
                      std::size_t count) const
{
#ifdef DEWRITE_X86
    if (kUseAesni) {
        encryptBlocksAesni(in, out, count);
        return;
    }
#endif
    for (std::size_t i = 0; i < count; ++i)
        out[i] = encryptBlockTables(in[i]);
}

AesBlock
Aes128::decryptBlock(const AesBlock &ciphertext) const
{
#ifdef DEWRITE_X86
    if (kUseAesni)
        return decryptBlockAesni(ciphertext);
#endif
    return decryptBlockReference(ciphertext);
}

#ifdef DEWRITE_X86

// dewrite-lint: hot
__attribute__((target("aes,sse2"))) AesBlock
Aes128::encryptBlockAesni(const AesBlock &plaintext) const
{
    const auto *keys = reinterpret_cast<const __m128i *>(
        roundKeys_.data());
    __m128i state = _mm_loadu_si128(
        reinterpret_cast<const __m128i *>(plaintext.data()));
    state = _mm_xor_si128(state, _mm_loadu_si128(keys));
    for (int round = 1; round < kRounds; ++round)
        state = _mm_aesenc_si128(state, _mm_loadu_si128(keys + round));
    state = _mm_aesenclast_si128(state, _mm_loadu_si128(keys + kRounds));

    AesBlock out;
    _mm_storeu_si128(reinterpret_cast<__m128i *>(out.data()), state);
    return out;
}

__attribute__((target("aes,sse2"))) void
Aes128::encryptBlocksAesni(const AesBlock *in, AesBlock *out,
                           std::size_t count) const
{
    const auto *keys = reinterpret_cast<const __m128i *>(
        roundKeys_.data());
    __m128i rk[kRounds + 1];
    for (int round = 0; round <= kRounds; ++round)
        rk[round] = _mm_loadu_si128(keys + round);

    auto load = [](const AesBlock &b) {
        return _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(b.data()));
    };
    auto store = [](AesBlock &b, __m128i v) {
        _mm_storeu_si128(reinterpret_cast<__m128i *>(b.data()), v);
    };

    std::size_t i = 0;
    for (; i + 8 <= count; i += 8) {
        // Eight independent streams: aesenc has multi-cycle latency but
        // pipelined throughput, so interleaving keeps the unit busy.
        __m128i s0 = _mm_xor_si128(load(in[i + 0]), rk[0]);
        __m128i s1 = _mm_xor_si128(load(in[i + 1]), rk[0]);
        __m128i s2 = _mm_xor_si128(load(in[i + 2]), rk[0]);
        __m128i s3 = _mm_xor_si128(load(in[i + 3]), rk[0]);
        __m128i s4 = _mm_xor_si128(load(in[i + 4]), rk[0]);
        __m128i s5 = _mm_xor_si128(load(in[i + 5]), rk[0]);
        __m128i s6 = _mm_xor_si128(load(in[i + 6]), rk[0]);
        __m128i s7 = _mm_xor_si128(load(in[i + 7]), rk[0]);
        for (int round = 1; round < kRounds; ++round) {
            const __m128i k = rk[round];
            s0 = _mm_aesenc_si128(s0, k);
            s1 = _mm_aesenc_si128(s1, k);
            s2 = _mm_aesenc_si128(s2, k);
            s3 = _mm_aesenc_si128(s3, k);
            s4 = _mm_aesenc_si128(s4, k);
            s5 = _mm_aesenc_si128(s5, k);
            s6 = _mm_aesenc_si128(s6, k);
            s7 = _mm_aesenc_si128(s7, k);
        }
        const __m128i last = rk[kRounds];
        store(out[i + 0], _mm_aesenclast_si128(s0, last));
        store(out[i + 1], _mm_aesenclast_si128(s1, last));
        store(out[i + 2], _mm_aesenclast_si128(s2, last));
        store(out[i + 3], _mm_aesenclast_si128(s3, last));
        store(out[i + 4], _mm_aesenclast_si128(s4, last));
        store(out[i + 5], _mm_aesenclast_si128(s5, last));
        store(out[i + 6], _mm_aesenclast_si128(s6, last));
        store(out[i + 7], _mm_aesenclast_si128(s7, last));
    }
    for (; i < count; ++i) {
        __m128i s = _mm_xor_si128(load(in[i]), rk[0]);
        for (int round = 1; round < kRounds; ++round)
            s = _mm_aesenc_si128(s, rk[round]);
        store(out[i], _mm_aesenclast_si128(s, rk[kRounds]));
    }
}

__attribute__((target("aes,sse2"))) AesBlock
Aes128::decryptBlockAesni(const AesBlock &ciphertext) const
{
    const auto *keys = reinterpret_cast<const __m128i *>(
        roundKeys_.data());
    const auto *imc = reinterpret_cast<const __m128i *>(
        imcKeys_.data());
    __m128i state = _mm_loadu_si128(
        reinterpret_cast<const __m128i *>(ciphertext.data()));
    state = _mm_xor_si128(state, _mm_loadu_si128(keys + kRounds));
    for (int round = kRounds - 1; round >= 1; --round)
        state = _mm_aesdec_si128(state,
                                 _mm_loadu_si128(imc + (round - 1)));
    state = _mm_aesdeclast_si128(state, _mm_loadu_si128(keys));

    AesBlock out;
    _mm_storeu_si128(reinterpret_cast<__m128i *>(out.data()), state);
    return out;
}

#else // !DEWRITE_X86

AesBlock
Aes128::encryptBlockAesni(const AesBlock &plaintext) const
{
    return encryptBlockTables(plaintext);
}

void
Aes128::encryptBlocksAesni(const AesBlock *in, AesBlock *out,
                           std::size_t count) const
{
    for (std::size_t i = 0; i < count; ++i)
        out[i] = encryptBlockTables(in[i]);
}

AesBlock
Aes128::decryptBlockAesni(const AesBlock &ciphertext) const
{
    return decryptBlockReference(ciphertext);
}

#endif // DEWRITE_X86

// dewrite-lint: hot
AesBlock
Aes128::encryptBlockTables(const AesBlock &plaintext) const
{
    auto load = [](const std::uint8_t *p) {
        return (static_cast<std::uint32_t>(p[0]) << 24) |
               (static_cast<std::uint32_t>(p[1]) << 16) |
               (static_cast<std::uint32_t>(p[2]) << 8) |
               static_cast<std::uint32_t>(p[3]);
    };

    const std::uint32_t *rk = encKeys_.data();
    std::uint32_t s0 = load(plaintext.data() + 0) ^ rk[0];
    std::uint32_t s1 = load(plaintext.data() + 4) ^ rk[1];
    std::uint32_t s2 = load(plaintext.data() + 8) ^ rk[2];
    std::uint32_t s3 = load(plaintext.data() + 12) ^ rk[3];

    auto column = [](std::uint32_t a, std::uint32_t b, std::uint32_t c,
                     std::uint32_t d) {
        return kTe.te[0][a >> 24] ^ kTe.te[1][(b >> 16) & 0xff] ^
               kTe.te[2][(c >> 8) & 0xff] ^ kTe.te[3][d & 0xff];
    };

    for (int round = 1; round < kRounds; ++round) {
        const std::uint32_t t0 = column(s0, s1, s2, s3) ^ rk[4 * round];
        const std::uint32_t t1 =
            column(s1, s2, s3, s0) ^ rk[4 * round + 1];
        const std::uint32_t t2 =
            column(s2, s3, s0, s1) ^ rk[4 * round + 2];
        const std::uint32_t t3 =
            column(s3, s0, s1, s2) ^ rk[4 * round + 3];
        s0 = t0;
        s1 = t1;
        s2 = t2;
        s3 = t3;
    }

    // Final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns.
    auto final_word = [&](std::uint32_t a, std::uint32_t b,
                          std::uint32_t c, std::uint32_t d,
                          std::uint32_t key) {
        return ((static_cast<std::uint32_t>(kSBox.fwd[a >> 24]) << 24) |
                (static_cast<std::uint32_t>(
                     kSBox.fwd[(b >> 16) & 0xff]) << 16) |
                (static_cast<std::uint32_t>(
                     kSBox.fwd[(c >> 8) & 0xff]) << 8) |
                static_cast<std::uint32_t>(kSBox.fwd[d & 0xff])) ^ key;
    };

    const std::uint32_t o0 =
        final_word(s0, s1, s2, s3, rk[4 * kRounds]);
    const std::uint32_t o1 =
        final_word(s1, s2, s3, s0, rk[4 * kRounds + 1]);
    const std::uint32_t o2 =
        final_word(s2, s3, s0, s1, rk[4 * kRounds + 2]);
    const std::uint32_t o3 =
        final_word(s3, s0, s1, s2, rk[4 * kRounds + 3]);

    AesBlock out;
    auto store = [](std::uint8_t *p, std::uint32_t w) {
        p[0] = static_cast<std::uint8_t>(w >> 24);
        p[1] = static_cast<std::uint8_t>(w >> 16);
        p[2] = static_cast<std::uint8_t>(w >> 8);
        p[3] = static_cast<std::uint8_t>(w);
    };
    store(out.data() + 0, o0);
    store(out.data() + 4, o1);
    store(out.data() + 8, o2);
    store(out.data() + 12, o3);
    return out;
}

AesBlock
Aes128::encryptBlockReference(const AesBlock &plaintext) const
{
    AesBlock state = plaintext;
    addRoundKey(state, roundKeys_.data());
    for (int round = 1; round < kRounds; ++round) {
        subBytes(state);
        shiftRows(state);
        mixColumns(state);
        addRoundKey(state, roundKeys_.data() + 16 * round);
    }
    subBytes(state);
    shiftRows(state);
    addRoundKey(state, roundKeys_.data() + 16 * kRounds);
    return state;
}

AesBlock
Aes128::decryptBlockReference(const AesBlock &ciphertext) const
{
    AesBlock state = ciphertext;
    addRoundKey(state, roundKeys_.data() + 16 * kRounds);
    for (int round = kRounds - 1; round >= 1; --round) {
        invShiftRows(state);
        invSubBytes(state);
        addRoundKey(state, roundKeys_.data() + 16 * round);
        invMixColumns(state);
    }
    invShiftRows(state);
    invSubBytes(state);
    addRoundKey(state, roundKeys_.data());
    return state;
}

} // namespace dewrite
