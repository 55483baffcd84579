/**
 * @file
 * Micro-benchmarks of the functional kernels (google-benchmark).
 *
 * These measure host-side simulation throughput of the AES, CME, and
 * CRC implementations — relevant to how fast experiments run, not to
 * the modelled hardware latencies (those are constants from
 * TimingConfig).
 */

#include <benchmark/benchmark.h>

#include "common/crc32.hh"
#include "common/rng.hh"
#include "crypto/aes128.hh"
#include "crypto/counter_mode.hh"
#include "crypto/strong_fingerprint.hh"
#include "sim/system.hh"

namespace {

using namespace dewrite;

void
BM_AesEncryptBlock(benchmark::State &state)
{
    const Aes128 aes(defaultAesKey());
    AesBlock block{};
    for (auto _ : state) {
        block = aes.encryptBlock(block);
        benchmark::DoNotOptimize(block);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_AesEncryptBlock);

void
BM_AesEncryptBlockReference(benchmark::State &state)
{
    const Aes128 aes(defaultAesKey());
    AesBlock block{};
    for (auto _ : state) {
        block = aes.encryptBlockReference(block);
        benchmark::DoNotOptimize(block);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_AesEncryptBlockReference);

void
BM_AesDecryptBlock(benchmark::State &state)
{
    const Aes128 aes(defaultAesKey());
    AesBlock block{};
    for (auto _ : state) {
        block = aes.decryptBlock(block);
        benchmark::DoNotOptimize(block);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_AesDecryptBlock);

void
BM_AesDecryptBlockReference(benchmark::State &state)
{
    const Aes128 aes(defaultAesKey());
    AesBlock block{};
    for (auto _ : state) {
        block = aes.decryptBlockReference(block);
        benchmark::DoNotOptimize(block);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_AesDecryptBlockReference);

void
BM_CmeEncryptLine(benchmark::State &state)
{
    const CounterModeEngine cme(defaultAesKey());
    Rng rng(1);
    const Line line = Line::random(rng);
    std::uint64_t counter = 0;
    for (auto _ : state) {
        Line ct = cme.encryptLine(line, 7, ++counter);
        benchmark::DoNotOptimize(ct);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * kLineSize);
}
BENCHMARK(BM_CmeEncryptLine);

void
BM_Crc32Line(benchmark::State &state)
{
    Rng rng(3);
    const Line line = Line::random(rng);
    for (auto _ : state) {
        std::uint32_t hash = crc32(line);
        benchmark::DoNotOptimize(hash);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * kLineSize);
}
BENCHMARK(BM_Crc32Line);

void
BM_Crc32LineReference(benchmark::State &state)
{
    Rng rng(3);
    const Line line = Line::random(rng);
    for (auto _ : state) {
        std::uint32_t hash = crc32Reference(line.data(), kLineSize);
        benchmark::DoNotOptimize(hash);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * kLineSize);
}
BENCHMARK(BM_Crc32LineReference);

void
BM_Crc32cLine(benchmark::State &state)
{
    Rng rng(3);
    const Line line = Line::random(rng);
    for (auto _ : state) {
        std::uint32_t hash = crc32c(line);
        benchmark::DoNotOptimize(hash);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * kLineSize);
}
BENCHMARK(BM_Crc32cLine);

void
BM_StrongFingerprintLine(benchmark::State &state)
{
    Rng rng(3);
    const Line line = Line::random(rng);
    for (auto _ : state) {
        StrongFp fp = strongFingerprint(line);
        benchmark::DoNotOptimize(fp);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * kLineSize);
}
BENCHMARK(BM_StrongFingerprintLine);

void
BM_StrongFingerprintLineReference(benchmark::State &state)
{
    Rng rng(3);
    const Line line = Line::random(rng);
    for (auto _ : state) {
        StrongFp fp = strongFingerprintReference(line);
        benchmark::DoNotOptimize(fp);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * kLineSize);
}
BENCHMARK(BM_StrongFingerprintLineReference);

void
BM_ContentDigest(benchmark::State &state)
{
    Rng rng(3);
    const Line line = Line::random(rng);
    for (auto _ : state) {
        std::uint64_t digest = line.contentDigest();
        benchmark::DoNotOptimize(digest);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * kLineSize);
}
BENCHMARK(BM_ContentDigest);

void
BM_LineCompare(benchmark::State &state)
{
    Rng rng(4);
    const Line a = Line::random(rng);
    const Line b = a;
    for (auto _ : state) {
        bool equal = a == b;
        benchmark::DoNotOptimize(equal);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * kLineSize);
}
BENCHMARK(BM_LineCompare);

void
BM_LineCompareLastWordDiffers(benchmark::State &state)
{
    Rng rng(4);
    const Line a = Line::random(rng);
    Line b = a;
    b.setByte(kLineSize - 1, b.byte(kLineSize - 1) ^ 1);
    for (auto _ : state) {
        bool equal = a == b;
        benchmark::DoNotOptimize(equal);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * kLineSize);
}
BENCHMARK(BM_LineCompareLastWordDiffers);

} // namespace

BENCHMARK_MAIN();
