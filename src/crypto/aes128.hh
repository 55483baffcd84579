/**
 * @file
 * AES-128 block cipher (FIPS-197), implemented from scratch.
 *
 * DeWrite's memory encryption is built on AES in two modes: counter mode
 * for data lines (the OTP generator of Figure 1) and direct block
 * encryption for the metadata region (Section III-B1). This is a
 * straightforward table-free byte-oriented implementation — the simulator
 * charges AES *time* from TimingConfig, so software speed only matters
 * for simulation throughput, and correctness is what the tests verify
 * (FIPS-197 Appendix C vectors).
 */

#ifndef DEWRITE_CRYPTO_AES128_HH
#define DEWRITE_CRYPTO_AES128_HH

#include <array>
#include <cstdint>

namespace dewrite {

/** A 16-byte AES block. */
using AesBlock = std::array<std::uint8_t, 16>;

/** A 16-byte AES-128 key. */
using AesKey = std::array<std::uint8_t, 16>;

/**
 * AES-128 with a fixed key; the round keys are expanded once at
 * construction, both as bytes (for the reference path and AES-NI
 * loads) and as pre-swapped column words (for the T-table path, so
 * encryptBlock never re-derives them per call).
 */
class Aes128
{
  public:
    explicit Aes128(const AesKey &key);

    /**
     * Encrypts one 16-byte block — the simulator's hottest function:
     * every line encryption, OTP, and dedup confirmation runs 16 of
     * these. Dispatches once at startup to hardware AES-NI where the
     * CPU has it, and to a four-T-table software kernel otherwise;
     * both are property-tested against encryptBlockReference.
     */
    AesBlock encryptBlock(const AesBlock &plaintext) const;

    /**
     * Byte-oriented straight-from-the-spec encryption, kept as the
     * reference the fast paths are property-tested against.
     */
    AesBlock encryptBlockReference(const AesBlock &plaintext) const;

    /**
     * Encrypts @p count independent blocks in one call. On AES-NI the
     * blocks are interleaved eight-wide so the aesenc pipeline stays
     * full — counter-mode pads (16 independent seed blocks per line)
     * run several times faster than 16 serial encryptBlock() calls.
     * Produces byte-identical output to per-block encryption.
     */
    void encryptBlocks(const AesBlock *in, AesBlock *out,
                       std::size_t count) const;

    /** Decrypts one 16-byte block (AES-NI when available). */
    AesBlock decryptBlock(const AesBlock &ciphertext) const;

    /** Straight-from-the-spec decryption, the cross-check oracle. */
    AesBlock decryptBlockReference(const AesBlock &ciphertext) const;

  private:
    static constexpr int kRounds = 10;

    /** Expanded round keys: (kRounds + 1) x 16 bytes. */
    std::array<std::uint8_t, 16 * (kRounds + 1)> roundKeys_;

    /** The same keys as big-endian column words for the T-table path. */
    std::array<std::uint32_t, 4 * (kRounds + 1)> encKeys_;

    /**
     * InvMixColumns-transformed middle round keys (rounds 1..9) for the
     * AES-NI equivalent-inverse-cipher decrypt; filled only when AES-NI
     * is available.
     */
    std::array<std::uint8_t, 16 * (kRounds - 1)> imcKeys_;

    void expandKey(const AesKey &key);

    AesBlock encryptBlockTables(const AesBlock &plaintext) const;
    AesBlock encryptBlockAesni(const AesBlock &plaintext) const;
    void encryptBlocksAesni(const AesBlock *in, AesBlock *out,
                            std::size_t count) const;
    AesBlock decryptBlockAesni(const AesBlock &ciphertext) const;
};

} // namespace dewrite

#endif // DEWRITE_CRYPTO_AES128_HH
