/**
 * @file
 * Property-based tests: invariants that must hold for any workload,
 * swept with parameterized seeds and schemes.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <unordered_map>

#include "common/hash_latency.hh"
#include "common/rng.hh"
#include "controller/dewrite_controller.hh"
#include "sim/system.hh"

namespace dewrite {
namespace {

SystemConfig
smallConfig()
{
    SystemConfig config;
    config.memory.numLines = 1 << 16;
    return config;
}

/**
 * Random mixed workload against a reference map, any scheme. The
 * fields after the seed default to the schemes' own defaults.
 */
struct PropertyCase
{
    SchemeKind kind;
    DedupMode mode;       //!< Only for DeWrite.
    BitTechnique technique;
    std::uint64_t seed;
    DetectPolicy detect = DetectPolicy::ConfirmRead; //!< DeWrite only.
    bool pna = true;                                 //!< DeWrite only.
    HashFunction hash = HashFunction::Crc32;         //!< DeWrite only.
    bool shredder = false; //!< Secure baseline only.
};

class RoundTripProperty : public ::testing::TestWithParam<PropertyCase>
{
};

TEST_P(RoundTripProperty, EveryReadReturnsLastWrite)
{
    const PropertyCase &param = GetParam();
    SchemeOptions scheme;
    scheme.kind = param.kind;
    scheme.dewrite.mode = param.mode;
    scheme.dewrite.technique = param.technique;
    scheme.dewrite.detect = param.detect;
    scheme.dewrite.pnaEnabled = param.pna;
    scheme.dewrite.hashFunction = param.hash;
    scheme.baseline.technique = param.technique;
    scheme.baseline.shredZeroLines = param.shredder;

    SystemConfig config = smallConfig();
    config.memory.hashDigestBits = hashSpec(param.hash).digestBits;
    System system(config, scheme);
    Rng rng(param.seed);
    std::unordered_map<LineAddr, Line> reference;
    std::vector<Line> pool;

    for (int op = 0; op < 600; ++op) {
        const LineAddr addr = rng.nextBelow(96);
        if (reference.empty() || rng.chance(0.6)) {
            Line data;
            const double selector = rng.nextDouble();
            if (!pool.empty() && selector < 0.4) {
                data = pool[rng.nextBelow(pool.size())]; // Duplicate.
            } else if (selector < 0.5) {
                data = Line(); // Zero line.
            } else if (selector < 0.7 && reference.contains(addr)) {
                data = reference[addr]; // Silent store or mutation base.
                data.setWord64(rng.nextBelow(32), rng.next64());
            } else {
                data = Line::random(rng);
            }
            pool.push_back(data);
            system.write(addr, data);
            reference[addr] = data;
        } else {
            auto it = reference.begin();
            std::advance(it, rng.nextBelow(reference.size()));
            const CtrlReadResult read = system.read(it->first);
            ASSERT_TRUE(read.valid);
            ASSERT_EQ(read.data, it->second)
                << "addr " << it->first << " op " << op;
        }
    }
    // Final sweep: every line readable and exact.
    for (const auto &[addr, expected] : reference) {
        const CtrlReadResult read = system.read(addr);
        ASSERT_TRUE(read.valid);
        ASSERT_EQ(read.data, expected) << "addr " << addr;
    }
}

std::vector<PropertyCase>
roundTripCases()
{
    std::vector<PropertyCase> cases;
    for (std::uint64_t seed : { 1ULL, 2ULL, 3ULL }) {
        cases.push_back({ SchemeKind::Plain, DedupMode::Predicted,
                          BitTechnique::None, seed });
        cases.push_back({ SchemeKind::SecureBaseline,
                          DedupMode::Predicted, BitTechnique::None,
                          seed });
        for (DedupMode mode : { DedupMode::Direct, DedupMode::Parallel,
                                DedupMode::Predicted }) {
            cases.push_back({ SchemeKind::DeWrite, mode,
                              BitTechnique::None, seed });
        }
        cases.push_back({ SchemeKind::DeWrite, DedupMode::Predicted,
                          BitTechnique::Deuce, seed });
        cases.push_back({ SchemeKind::SecureBaseline,
                          DedupMode::Predicted, BitTechnique::Fnw,
                          seed });

        // Compositions of the predicted mode with one non-default
        // option each, and the baseline with Silent Shredder.
        PropertyCase predicted{ SchemeKind::DeWrite, DedupMode::Predicted,
                                BitTechnique::None, seed };
        PropertyCase weak_strong = predicted;
        weak_strong.detect = DetectPolicy::WeakStrong;
        PropertyCase no_pna = predicted;
        no_pna.pna = false;
        PropertyCase md5 = predicted;
        md5.hash = HashFunction::Md5;
        PropertyCase secret = predicted;
        secret.technique = BitTechnique::Secret;
        PropertyCase shredder{ SchemeKind::SecureBaseline,
                               DedupMode::Predicted, BitTechnique::None,
                               seed };
        shredder.shredder = true;
        cases.insert(cases.end(),
                     { weak_strong, no_pna, md5, secret, shredder });
    }
    return cases;
}

/**
 * Prints a case as its kind, mode, technique and seed, e.g.
 * "DeWrite_predicted_DEUCE_seed2", then one suffix per non-default
 * option ("_weakstrong", "_noPNA", "_MD5", "_shredder"). This also
 * names the test. gtest's default printer would dump the struct's
 * bytes, uninitialized padding included.
 */
void
PrintTo(const PropertyCase &c, std::ostream *os)
{
    switch (c.kind) {
      case SchemeKind::Plain:
        *os << "Plain";
        break;
      case SchemeKind::SecureBaseline:
        *os << "SecureBaseline";
        break;
      case SchemeKind::DeWrite:
        *os << "DeWrite";
        break;
    }
    *os << '_' << dedupModeName(c.mode) << '_'
        << bitTechniqueName(c.technique) << "_seed" << c.seed;
    // gtest names allow only letters, digits and '_', so the suffixes
    // are spelled out rather than taken from the hyphenated names.
    if (c.detect != DetectPolicy::ConfirmRead)
        *os << (c.detect == DetectPolicy::WeakStrong ? "_weakstrong"
                                                     : "_weakonly");
    if (!c.pna)
        *os << "_noPNA";
    if (c.hash != HashFunction::Crc32)
        *os << (c.hash == HashFunction::Md5 ? "_MD5" : "_SHA1");
    if (c.shredder)
        *os << "_shredder";
}

INSTANTIATE_TEST_SUITE_P(Schemes, RoundTripProperty,
                         ::testing::ValuesIn(roundTripCases()),
                         ::testing::PrintToStringParamName());

class EngineInvariants : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(EngineInvariants, StructuralConsistencyAfterRandomWorkload)
{
    SystemConfig config = smallConfig();
    NvmDevice device(config);
    DeWriteController ctrl(config, device, defaultAesKey(), {});
    Rng rng(GetParam());

    std::vector<Line> pool;
    for (int op = 0; op < 800; ++op) {
        const LineAddr addr = rng.nextBelow(128);
        Line data;
        if (!pool.empty() && rng.chance(0.5)) {
            data = pool[rng.nextBelow(pool.size())];
        } else {
            data = Line::random(rng);
            pool.push_back(data);
        }
        ctrl.write(addr, data, 0);
    }

    const DedupEngine &engine = ctrl.engine();

    // Invariant 1: total hash-store references equal the number of
    // logical lines with live data (each references exactly one slot),
    // unless saturation pinned something (not reachable in 800 ops
    // over this pool size).
    std::uint64_t total_refs = 0;
    engine.hashStore().forEach(
        [&](std::uint32_t, const HashEntry &entry) {
            total_refs += entry.reference;
        });

    std::uint64_t live_logicals = 0;
    for (LineAddr addr = 0; addr < 128; ++addr)
        live_logicals += ctrl.read(addr, 0).valid;
    EXPECT_EQ(total_refs, live_logicals);

    // Invariant 2: every hash-store record's slot holds data and its
    // inverted-hash entry matches the record's hash.
    engine.hashStore().forEach(
        [&](std::uint32_t hash, const HashEntry &entry) {
            const LineRecord &record = engine.lines().at(entry.realAddr);
            EXPECT_TRUE(record.holdsData());
            EXPECT_EQ(record.hash(), hash);
            EXPECT_FALSE(engine.freeSpace().isFree(entry.realAddr));
        });

    // Invariant 3: data-slot count agrees between the inverted hash
    // table and the hash store.
    std::size_t data_slots = 0;
    engine.lines().forEachDataSlot(
        [&](LineAddr, std::uint64_t) { ++data_slots; });
    EXPECT_EQ(data_slots, engine.hashStore().size());

    // Invariant 4: allocated slot count equals data slots (every
    // allocation holds live data once the write committed).
    EXPECT_EQ(engine.freeSpace().capacity() -
                  engine.freeSpace().freeCount(),
              data_slots);

    // Invariant 5: counter colocation overflow is bounded (tiny
    // relative to traffic; see DESIGN.md Section 5).
    EXPECT_LT(engine.overflowCounters(), 64u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineInvariants,
                         ::testing::Values(11, 22, 33, 44, 55));

class PredictorSweep : public ::testing::TestWithParam<unsigned>
{
};

namespace {

double
stickyStreamAccuracy(unsigned window_bits)
{
    DupPredictor predictor(window_bits);
    Rng rng(7);
    bool phase = false;
    for (int i = 0; i < 20000; ++i) {
        if (!rng.chance(0.99))
            phase = !phase;
        const bool state = rng.chance(0.04) ? !phase : phase;
        predictor.recordAndScore(state);
    }
    return predictor.accuracy();
}

} // namespace

TEST_P(PredictorSweep, SmallWindowsTrackStickyStreams)
{
    // The paper's operating range (k <= 5): well above chance.
    EXPECT_GT(stickyStreamAccuracy(GetParam()), 0.85);
}

INSTANTIATE_TEST_SUITE_P(Windows, PredictorSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(PredictorSweepTest, OversizedWindowsLagPhaseChanges)
{
    // Why the paper stops at 3 bits: a long window smooths glitches
    // but pays ~k/2 errors on every phase flip, so accuracy falls off.
    EXPECT_LT(stickyStreamAccuracy(32), stickyStreamAccuracy(3));
}

} // namespace
} // namespace dewrite
