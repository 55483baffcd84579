/**
 * @file
 * The traditional secure-NVM controller (the paper's baseline).
 *
 * Counter-mode encryption with an on-chip counter cache and no
 * deduplication: every write bumps the line's counter, encrypts, and
 * programs the line; every read fetches the counter (OTP generation
 * overlaps the array read on a counter-cache hit) and XORs.
 *
 * Options compose the Figure 13 comparison points: a bit-level
 * reduction technique for the cells actually programmed, and Silent
 * Shredder's zero-line elimination.
 */

#ifndef DEWRITE_CONTROLLER_SECURE_BASELINE_HH
#define DEWRITE_CONTROLLER_SECURE_BASELINE_HH

#include <memory>

#include "cache/counter_cache.hh"
#include "common/paged_array.hh"
#include "common/timing.hh"
#include "controller/bitlevel/bitflip.hh"
#include "controller/bitlevel/shredder.hh"
#include "controller/mem_controller.hh"
#include "crypto/counter_mode.hh"
#include "nvm/nvm_device.hh"

namespace dewrite {

class SecureBaselineController : public MemController
{
  public:
    struct Options
    {
        BitTechnique technique = BitTechnique::None;
        bool shredZeroLines = false; //!< Silent Shredder composition.
    };

    SecureBaselineController(const SystemConfig &config, NvmDevice &device,
                             const AesKey &key, Options options);

    SecureBaselineController(const SystemConfig &config, NvmDevice &device,
                             const AesKey &key);

    CtrlWriteResult write(LineAddr addr, const Line &data,
                          Time now) override;
    CtrlReadResult read(LineAddr addr, Time now) override;
    CtrlReadResult readTiming(LineAddr addr, Time now) override;

    std::string name() const override;
    Energy controllerEnergy() const override;

  protected:
    void registerSchemeMetrics(obs::MetricRegistry &registry)
        const override;

  private:
    /** Shared read body; @p want_data false skips the host decrypt. */
    CtrlReadResult readImpl(LineAddr addr, Time now, bool want_data);

    const SystemConfig &config_;
    NvmDevice &device_;
    CounterModeEngine cme_;
    CounterCache counterCache_;
    Options options_;
    std::unique_ptr<BitLevelReducer> reducer_;
    ZeroLineDirectory zeros_;

    /** Per-line encryption counters; a wrap panics (checkedIncrement). */
    PagedArray<std::uint32_t> counters_;
    PadCache padCache_;
    Energy aesEnergy_ = 0;
};

} // namespace dewrite

#endif // DEWRITE_CONTROLLER_SECURE_BASELINE_HH
