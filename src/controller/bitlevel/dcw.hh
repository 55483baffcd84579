/**
 * @file
 * Full-line and Data-Comparison-Write reducers.
 *
 * DCW [Yang et al.] reads the old cell contents before a write and
 * programs only the cells whose value changes. On encrypted NVMM the
 * diffusion property makes ~50% of bits differ on every rewrite, which
 * is exactly the effect Figure 13 quantifies.
 */

#ifndef DEWRITE_CONTROLLER_BITLEVEL_DCW_HH
#define DEWRITE_CONTROLLER_BITLEVEL_DCW_HH

#include "common/dense_line_store.hh"
#include "controller/bitlevel/bitflip.hh"
#include "crypto/counter_mode.hh"

namespace dewrite {

/** Baseline: every cell of the line is programmed on every write. */
class NoneReducer : public BitLevelReducer
{
  public:
    std::size_t
    onWrite(LineAddr, const Line &, std::uint64_t) override
    {
        return kLineBits;
    }

    BitTechnique technique() const override { return BitTechnique::None; }
};

/** DCW: program only the differing cells of the ciphertext image. */
class DcwReducer : public BitLevelReducer
{
  public:
    explicit DcwReducer(const CounterModeEngine &cme) : cme_(cme) {}

    void reserveSlots(std::uint64_t expected) override
    {
        images_.reserve(expected);
    }

    std::size_t onWrite(LineAddr slot, const Line &new_pt,
                        std::uint64_t counter) override;

    BitTechnique technique() const override { return BitTechnique::Dcw; }

  private:
    const CounterModeEngine &cme_;
    DenseLineStore images_; //!< Cell image per slot; unwritten = zeros.
};

} // namespace dewrite

#endif // DEWRITE_CONTROLLER_BITLEVEL_DCW_HH
