/**
 * @file
 * Table I — traditional fingerprint deduplication vs DeWrite.
 *
 * Part (a) prints the hash-function hardware catalog. Part (b)
 * measures duplication-detection latency on the live engine for a
 * duplicate and a non-duplicate line, and compares with what a
 * cryptographic-fingerprint scheme would pay (hash latency alone
 * exceeds the NVM write it tries to avoid).
 *
 * Paper's shape: traditional >= 312 ns either way; DeWrite ~91 ns for
 * a duplicate (CRC + confirm read + compare) and ~15 ns-class for a
 * non-duplicate.
 */

#include <cstdio>

#include "cache/metadata_cache.hh"
#include "common/hash_latency.hh"
#include "common/rng.hh"
#include "common/table_printer.hh"
#include "crypto/counter_mode.hh"
#include "dedup/dedup_engine.hh"
#include "nvm/nvm_device.hh"
#include "sim/system.hh"

using namespace dewrite;

int
main()
{
    std::printf("Table I(a): hash-function hardware characteristics\n\n");
    TablePrinter spec_table({ "function", "latency", "digest",
                              "needs confirm read" });
    for (const HashSpec &spec : allHashSpecs()) {
        spec_table.addRow(
            { std::string(spec.name),
              TablePrinter::num(
                  static_cast<double>(spec.latency) / kNanoSecond, 0) +
                  " ns",
              TablePrinter::num(spec.digestBits, 0) + " bits",
              spec.cryptographic ? "no" : "yes" });
    }
    spec_table.print();

    std::printf("\nTable I(b): duplication detection latency\n\n");

    SystemConfig config;
    config.memory.numLines = 1 << 16;
    NvmDevice device(config);
    CounterModeEngine cme(defaultAesKey());
    MetadataCache metadata(config, device, config.memory.numLines);
    DedupEngine engine(config, device, metadata, cme);

    Rng rng(1);
    const Line duplicate_content = Line::random(rng);
    // Store the line so a duplicate exists, then warm the metadata.
    const DetectOutcome seed =
        engine.detect(duplicate_content, 0, true);
    WriteCommit commit = engine.commitUnique(1, duplicate_content,
                                             seed.hash, seed.done,
                                             seed.done);
    Time now = commit.done;

    const DetectOutcome dup = engine.detect(duplicate_content, now, true);
    now = dup.done;

    Line unseen = Line::random(rng);
    engine.detect(unseen, now, true); // Warm the hash block.
    const DetectOutcome non_dup = engine.detect(unseen, now, true);

    // A second engine configured as the traditional comparator: MD5
    // fingerprints, trusted without confirmation reads.
    SystemConfig md5_config = config;
    md5_config.memory.hashDigestBits = 128;
    NvmDevice md5_device(md5_config);
    MetadataCache md5_metadata(md5_config, md5_device,
                               md5_config.memory.numLines);
    DedupEngine md5_engine(
        md5_config, md5_device, md5_metadata, cme,
        DedupEngine::Options{ DetectPolicy::ConfirmRead, nullptr, 4,
                              HashFunction::Md5 });

    const DetectOutcome md5_seed =
        md5_engine.detect(duplicate_content, 0, true);
    const WriteCommit md5_commit = md5_engine.commitUnique(
        1, duplicate_content, md5_seed.hash, md5_seed.done,
        md5_seed.done);
    const DetectOutcome md5_dup =
        md5_engine.detect(duplicate_content, md5_commit.done, true);
    md5_engine.detect(unseen, md5_dup.done, true); // Warm.
    const DetectOutcome md5_non_dup =
        md5_engine.detect(unseen, md5_dup.done, true);

    TablePrinter lat_table({ "method", "duplicate line",
                             "non-duplicate line" });
    lat_table.addRow(
        { "traditional MD5 (measured)",
          TablePrinter::num(
              static_cast<double>(md5_dup.done - md5_commit.done) /
                  kNanoSecond,
              1) + " ns",
          TablePrinter::num(
              static_cast<double>(md5_non_dup.done - md5_dup.done) /
                  kNanoSecond,
              1) + " ns" });
    lat_table.addRow(
        { "DeWrite CRC-32 (measured)",
          TablePrinter::num(
              static_cast<double>(dup.done - commit.done) / kNanoSecond,
              1) + " ns",
          TablePrinter::num(
              static_cast<double>(non_dup.done - now) / kNanoSecond, 1) +
              " ns" });
    lat_table.print();

    std::printf("\nNVM write latency for reference: %.0f ns — the "
                "cryptographic fingerprint alone costs more than the "
                "write it would eliminate.\n",
                static_cast<double>(config.timing.nvmWrite) /
                    kNanoSecond);
    std::printf("paper: DeWrite ~91 ns + tQ' (duplicate), "
                "~15 ns + tQ' (non-duplicate)\n");

    return 0;
}
