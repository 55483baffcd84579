/**
 * @file
 * The shared golden experiment matrix and its seed fingerprints.
 *
 * One matrix, two consumers: golden_parity_test proves the flat
 * data-structure migration reproduces the seed implementation bit for
 * bit, and batch_parity_test proves the write-batch former does too
 * at every DEWRITE_BATCH setting. The constants were generated by
 * running this exact matrix against the pre-migration library
 * (node-based std::unordered_map / std::unordered_set everywhere) and
 * fingerprinting every cell with resultFingerprint().
 */

#ifndef DEWRITE_TESTS_SIM_GOLDEN_MATRIX_HH
#define DEWRITE_TESTS_SIM_GOLDEN_MATRIX_HH

#include <gtest/gtest.h>

#include <vector>

#include "sim/parallel_runner.hh"
#include "trace/app_catalog.hh"

namespace dewrite {

// (app x scheme) row-major, 4 apps x 5 schemes; produced by the seed
// (pre-FlatMap) library at numLines=1<<18, 4000 events, threads=1.
constexpr std::uint32_t kGoldenMatrix[] = {
    0xf13203f0u, // bzip2/plain-nvm
    0x687d8456u, // bzip2/secure-baseline
    0x8421dc83u, // bzip2/dewrite-direct
    0x13edb50au, // bzip2/dewrite-parallel
    0x9e4de4c9u, // bzip2/dewrite-predicted
    0xfc87816eu, // cactusADM/plain-nvm
    0xffaa3b18u, // cactusADM/secure-baseline
    0xbfed8ea5u, // cactusADM/dewrite-direct
    0xc46fe485u, // cactusADM/dewrite-parallel
    0xc2f81a15u, // cactusADM/dewrite-predicted
    0x916f8df5u, // lbm/plain-nvm
    0xa578a3f4u, // lbm/secure-baseline
    0xa29269e8u, // lbm/dewrite-direct
    0x32c4ac18u, // lbm/dewrite-parallel
    0x57e983dcu, // lbm/dewrite-predicted
    0x153aae00u, // ferret/plain-nvm
    0x81a2b11bu, // ferret/secure-baseline
    0x01c12235u, // ferret/dewrite-direct
    0x2901cc99u, // ferret/dewrite-parallel
    0x03edd6a1u, // ferret/dewrite-predicted
};

inline SystemConfig
goldenConfig()
{
    SystemConfig config;
    config.memory.numLines = 1 << 18;
    return config;
}

inline std::vector<AppProfile>
goldenApps()
{
    const std::vector<AppProfile> &catalog = appCatalog();
    std::vector<AppProfile> apps;
    for (std::size_t i : { 0ul, 5ul, 10ul, 15ul })
        apps.push_back(catalog[i % catalog.size()]);
    return apps;
}

inline std::vector<SchemeOptions>
goldenSchemes()
{
    return {
        plainScheme(),
        secureBaselineScheme(),
        dewriteScheme(DedupMode::Direct),
        dewriteScheme(DedupMode::Parallel),
        dewriteScheme(DedupMode::Predicted),
    };
}

inline void
checkMatrix(unsigned threads)
{
    const auto cells =
        runMatrix(goldenApps(), goldenSchemes(), goldenConfig(), 4000,
                  threads);
    ASSERT_EQ(cells.size(), std::size(kGoldenMatrix));
    for (std::size_t i = 0; i < cells.size(); ++i) {
        EXPECT_EQ(resultFingerprint(cells[i]), kGoldenMatrix[i])
            << "cell " << i << " (" << cells[i].app << "/"
            << cells[i].scheme << ") diverged from the seed;"
            << " signature: " << resultSignature(cells[i]);
    }
}

} // namespace dewrite

#endif // DEWRITE_TESTS_SIM_GOLDEN_MATRIX_HH
