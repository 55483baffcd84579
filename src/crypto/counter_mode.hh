/**
 * @file
 * Counter-mode encryption (CME) for 256 B memory lines (Figure 1).
 *
 * The one-time pad for a line is generated by encrypting, with a secret
 * key, the tuple (line address, per-line write counter, block index) for
 * each of the line's sixteen 128-bit blocks. Security rests on never
 * reusing an OTP: the address separates lines in space and the counter,
 * bumped on every write, separates rewrites of the same line in time.
 */

#ifndef DEWRITE_CRYPTO_COUNTER_MODE_HH
#define DEWRITE_CRYPTO_COUNTER_MODE_HH

#include <array>
#include <cstdint>

#include "common/flat_map.hh"
#include "common/line.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "crypto/aes128.hh"

namespace dewrite {

/**
 * Generates OTPs and encrypts/decrypts lines under a fixed secret key.
 *
 * The engine is purely functional; the time and energy of the AES
 * circuit are charged by the memory controllers from SystemConfig, so a
 * single engine can serve any number of simulated components.
 */
class CounterModeEngine
{
  public:
    explicit CounterModeEngine(const AesKey &key);

    /**
     * Generates the 256 B one-time pad for (@p addr, @p counter).
     *
     * Exposed separately from encryptLine() because the controllers
     * overlap OTP generation with NVM reads (the CME latency-hiding
     * trick) and with duplication detection (Figure 3b).
     */
    Line makePad(LineAddr addr, std::uint64_t counter) const;

    /** Encrypts @p plaintext for storage at @p addr with @p counter. */
    Line encryptLine(const Line &plaintext, LineAddr addr,
                     std::uint64_t counter) const;

    /** Decrypts @p ciphertext read from @p addr with @p counter. */
    Line decryptLine(const Line &ciphertext, LineAddr addr,
                     std::uint64_t counter) const;

  private:
    Aes128 cipher_;
};

/**
 * Direct-mapped host-side memo of recently generated pads, keyed by the
 * exact (addr, counter) pair. Pads are pure functions of that pair, so
 * a hit is always correct. Purely a host optimization: simulated AES
 * time and energy are charged by the controllers from their own latency
 * model, never from here.
 */
class PadCache
{
  public:
    /**
     * The pad for (@p addr, @p counter), generated through @p cme on a
     * miss and memoized. The reference is valid until the next get()
     * call.
     */
    // dewrite-lint: hot
    const Line &
    get(const CounterModeEngine &cme, LineAddr addr, std::uint64_t counter)
    {
        Entry &entry = entries_[indexOf(addr, counter)];
        if (!entry.valid || entry.addr != addr ||
            entry.counter != counter) {
            misses_.increment();
            entry.pad = cme.makePad(addr, counter);
            entry.addr = addr;
            entry.counter = counter;
            entry.valid = true;
        } else {
            hits_.increment();
        }
        return entry.pad;
    }

    /**
     * @{ Host-side effectiveness accounting: get() hits and misses.
     * Exposed as Counter references so the owning component registers
     * them under its own registry scope without crypto depending on
     * obs. Neither carries a legacy StatSet name, so result signatures
     * are untouched.
     */
    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    const Counter &hitCounter() const { return hits_; }
    const Counter &missCounter() const { return misses_; }
    /** @} */

  private:
    struct Entry
    {
        LineAddr addr = 0;
        std::uint64_t counter = 0;
        bool valid = false;
        Line pad;
    };

    // 128 entries * ~280 B stays L2-resident; direct-mapped because
    // conflicts only cost a redo.
    static constexpr std::size_t kEntries = 128;

    static std::size_t
    indexOf(LineAddr addr, std::uint64_t counter)
    {
        return flatMix64(addr * 0x9e3779b97f4a7c15ULL + counter) &
            (kEntries - 1);
    }

    std::array<Entry, kEntries> entries_{};

    Counter hits_;
    Counter misses_;
};

} // namespace dewrite

#endif // DEWRITE_CRYPTO_COUNTER_MODE_HH
