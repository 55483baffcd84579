/**
 * @file
 * Service telemetry plane tests: per-tenant histogram accounting must
 * reconcile exactly with the run's simulated totals, the JSONL
 * snapshot stream must round-trip through a real JSON parse (with a
 * per-tenant p99 for every tenant), the Prometheus exposition must
 * carry the skew gauges, and — the load-bearing invariant — enabling
 * the sink must not move a single shard fingerprint.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/telemetry.hh"
#include "service/dedup_service.hh"

#include "scoped_env.hh"

namespace dewrite {
namespace {

/**
 * Minimal recursive-descent JSON reader — just enough to round-trip
 * the telemetry snapshots (objects, arrays, strings without escapes
 * beyond \", numbers, bools, null). Test-only oracle; the production
 * writer stays the single JSON producer.
 */
struct Json
{
    enum class Kind { Null, Bool, Number, String, Object, Array };
    Kind kind = Kind::Null;
    bool b = false;
    double num = 0.0;
    std::string str;
    std::map<std::string, Json> object;
    std::vector<Json> array;

    const Json &
    at(const std::string &key) const
    {
        static const Json missing;
        const auto it = object.find(key);
        EXPECT_NE(it, object.end()) << "missing key " << key;
        return it == object.end() ? missing : it->second;
    }
    bool has(const std::string &key) const
    {
        return object.count(key) != 0;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    bool
    parse(Json &out)
    {
        skipWs();
        if (!value(out))
            return false;
        skipWs();
        return pos_ == text_.size();
    }

  private:
    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::string(word).size();
        if (text_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool
    string(std::string &out)
    {
        if (text_[pos_] != '"')
            return false;
        ++pos_;
        out.clear();
        while (pos_ < text_.size() && text_[pos_] != '"') {
            if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) {
                ++pos_;
                switch (text_[pos_]) {
                case 'n': out += '\n'; break;
                case 't': out += '\t'; break;
                default: out += text_[pos_]; break;
                }
            } else {
                out += text_[pos_];
            }
            ++pos_;
        }
        if (pos_ >= text_.size())
            return false;
        ++pos_; // closing quote
        return true;
    }

    bool
    value(Json &out)
    {
        skipWs();
        if (pos_ >= text_.size())
            return false;
        const char c = text_[pos_];
        if (c == '{') {
            out.kind = Json::Kind::Object;
            ++pos_;
            skipWs();
            if (pos_ < text_.size() && text_[pos_] == '}')
                return ++pos_, true;
            while (true) {
                skipWs();
                std::string key;
                if (!string(key))
                    return false;
                skipWs();
                if (pos_ >= text_.size() || text_[pos_++] != ':')
                    return false;
                if (!value(out.object[key]))
                    return false;
                skipWs();
                if (pos_ >= text_.size())
                    return false;
                if (text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                return text_[pos_++] == '}';
            }
        }
        if (c == '[') {
            out.kind = Json::Kind::Array;
            ++pos_;
            skipWs();
            if (pos_ < text_.size() && text_[pos_] == ']')
                return ++pos_, true;
            while (true) {
                out.array.emplace_back();
                if (!value(out.array.back()))
                    return false;
                skipWs();
                if (pos_ >= text_.size())
                    return false;
                if (text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                return text_[pos_++] == ']';
            }
        }
        if (c == '"') {
            out.kind = Json::Kind::String;
            return string(out.str);
        }
        if (c == 't') {
            out.kind = Json::Kind::Bool;
            out.b = true;
            return literal("true");
        }
        if (c == 'f') {
            out.kind = Json::Kind::Bool;
            out.b = false;
            return literal("false");
        }
        if (c == 'n') {
            out.kind = Json::Kind::Null;
            return literal("null");
        }
        out.kind = Json::Kind::Number;
        char *end = nullptr;
        out.num = std::strtod(text_.c_str() + pos_, &end);
        if (end == text_.c_str() + pos_)
            return false;
        pos_ = static_cast<std::size_t>(end - text_.c_str());
        return true;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

ServiceOptions
smallOptions(std::size_t shards)
{
    ServiceOptions options;
    options.shards = shards;
    options.threads = 2;
    options.tenants = 16;
    options.linesPerTenant = 1024;
    options.burstMax = 8;
    options.roundEvents = 1024;
    options.totalEvents = 16000;
    return options;
}

std::string
tempPath(const char *name)
{
    return ::testing::TempDir() + name;
}

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            lines.push_back(line);
    return lines;
}

std::string
readAll(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

TEST(ServiceTelemetry, PerTenantTotalsReconcileWithRunAccounting)
{
    const ServiceOptions options = smallOptions(4);
    DedupService service(options);
    const ServiceResult result = service.run();

    std::uint64_t writes = 0, reads = 0, eliminated = 0;
    for (const ShardOutcome &shard : result.shards) {
        writes += shard.cell.run.writes;
        reads += shard.cell.run.reads;
        eliminated += shard.cell.run.writesEliminated;
    }

    std::uint64_t tele_writes = 0, tele_reads = 0;
    std::uint64_t tele_eliminated = 0, tele_batches = 0;
    for (std::size_t k = 0; k < service.shards(); ++k) {
        const obs::ShardTelemetry &shard = service.shardTelemetry(k);
        tele_writes += shard.writes();
        tele_reads += shard.readHist().count();
        tele_eliminated += shard.writesEliminated();
        tele_batches += shard.batchHist().count();

        // Per-tenant rows partition the shard's histograms exactly.
        ASSERT_EQ(shard.tenants(), options.tenants);
        std::uint64_t tenant_writes = 0, tenant_reads = 0;
        std::uint64_t tenant_eliminated = 0;
        for (std::uint64_t t = 0; t < shard.tenants(); ++t) {
            tenant_writes += shard.tenantWrites(t);
            tenant_reads += shard.tenantReadHist(t).count();
            tenant_eliminated += shard.tenantWritesEliminated(t);
        }
        EXPECT_EQ(tenant_writes, shard.writes());
        EXPECT_EQ(tenant_reads, shard.readHist().count());
        EXPECT_EQ(tenant_eliminated, shard.writesEliminated());
    }

    // Telemetry is pure observation of the simulated run: same totals.
    EXPECT_EQ(tele_writes, writes);
    EXPECT_EQ(tele_reads, reads);
    EXPECT_EQ(tele_eliminated, eliminated);
    EXPECT_GT(tele_batches, 0u);
    EXPECT_GT(writes, 0u);
    EXPECT_GT(reads, 0u);
}

TEST(ServiceTelemetry, SkewGaugesAppearInMergedSnapshot)
{
    DedupService service(smallOptions(4));
    service.run();

    double min = -1, mean = -1, max = -1, cv = -1;
    for (const obs::MetricSample &s : service.registrySnapshot()) {
        if (s.path == "service.skew.round_min")
            min = s.value;
        else if (s.path == "service.skew.round_mean")
            mean = s.value;
        else if (s.path == "service.skew.round_max")
            max = s.value;
        else if (s.path == "service.skew.total_cv")
            cv = s.value;
    }
    ASSERT_GE(min, 0.0);
    ASSERT_GE(cv, 0.0);
    EXPECT_LE(min, mean);
    EXPECT_LE(mean, max);
    EXPECT_GT(service.skewMonitor().rounds(), 0u);
}

TEST(ServiceTelemetry, FingerprintsInvariantUnderTelemetry)
{
    for (const std::size_t shards : { std::size_t{ 1 },
                                      std::size_t{ 8 } }) {
        const ServiceOptions options = smallOptions(shards);

        ::unsetenv("DEWRITE_TELEMETRY");
        DedupService off(options);
        const ServiceResult base = off.run();
        EXPECT_FALSE(off.telemetrySink().enabled());

        const std::string path = tempPath("invariance.jsonl");
        std::remove(path.c_str());
        std::vector<std::uint32_t> on_fingerprints;
        {
            ScopedEnv tele("DEWRITE_TELEMETRY", path.c_str());
            ScopedEnv every("DEWRITE_TELEMETRY_EVERY", "2");
            DedupService on(options);
            const ServiceResult traced = on.run();
            EXPECT_TRUE(on.telemetrySink().enabled());
            EXPECT_TRUE(on.telemetrySink().ok());
            EXPECT_GT(on.telemetrySnapshots(), 0u);
            for (const ShardOutcome &shard : traced.shards)
                on_fingerprints.push_back(shard.fingerprint);
        }

        ASSERT_EQ(on_fingerprints.size(), base.shards.size());
        for (std::size_t k = 0; k < base.shards.size(); ++k)
            EXPECT_EQ(on_fingerprints[k], base.shards[k].fingerprint)
                << "shards=" << shards << " shard=" << k;
        std::remove(path.c_str());
        std::remove((path + ".prom").c_str());
    }
}

TEST(ServiceTelemetry, JsonlSnapshotsRoundTripWithPerTenantP99)
{
    const std::string path = tempPath("telemetry.jsonl");
    std::remove(path.c_str());
    ScopedEnv tele("DEWRITE_TELEMETRY", path.c_str());
    ScopedEnv every("DEWRITE_TELEMETRY_EVERY", "2");

    const ServiceOptions options = smallOptions(4);
    DedupService service(options);
    service.run();
    ASSERT_TRUE(service.telemetrySink().ok());

    const std::vector<std::string> lines = readLines(path);
    ASSERT_EQ(lines.size(), service.telemetrySnapshots());
    ASSERT_GT(lines.size(), 1u);

    for (std::size_t i = 0; i < lines.size(); ++i) {
        Json snapshot;
        ASSERT_TRUE(JsonParser(lines[i]).parse(snapshot))
            << "line " << i << ": " << lines[i];
        EXPECT_EQ(snapshot.at("type").str, "telemetry");
        EXPECT_EQ(snapshot.at("final").b, i + 1 == lines.size());
        EXPECT_EQ(snapshot.at("shards").num, 4.0);
        EXPECT_EQ(snapshot.at("tenants").num,
                  static_cast<double>(options.tenants));

        // Skew block: a full min/mean/max/cv triple per window.
        const Json &skew = snapshot.at("skew");
        for (const char *window : { "round", "window", "total" }) {
            const Json &stats = skew.at(window);
            EXPECT_LE(stats.at("min").num, stats.at("mean").num);
            EXPECT_LE(stats.at("mean").num, stats.at("max").num);
            EXPECT_GE(stats.at("cv").num, 0.0);
        }
        EXPECT_EQ(skew.at("alert").kind, Json::Kind::Bool);

        EXPECT_EQ(snapshot.at("per_shard").array.size(), 4u);
        for (const Json &shard : snapshot.at("per_shard").array) {
            EXPECT_GE(shard.at("dup_ratio").num, 0.0);
            EXPECT_LE(shard.at("dup_ratio").num, 1.0);
            EXPECT_LE(shard.at("dup_ratio_epoch").num, 1.0);
            shard.at("batch_span_ps");
        }

        // Every tenant reports, each with a parsed latency p99.
        const Json &tenants = snapshot.at("per_tenant");
        ASSERT_EQ(tenants.array.size(), options.tenants);
        for (std::uint64_t t = 0; t < options.tenants; ++t) {
            const Json &row = tenants.array[t];
            EXPECT_EQ(row.at("tenant").num, static_cast<double>(t));
            const Json &write = row.at("write_latency_ps");
            EXPECT_GE(write.at("p99").num, write.at("p50").num);
            EXPECT_GE(write.at("max").num, write.at("p99").num);
            row.at("read_latency_ps").at("p99");
        }
    }

    // The final frame accounts every ingested event across shards.
    Json last;
    ASSERT_TRUE(JsonParser(lines.back()).parse(last));
    double shard_events = 0;
    for (const Json &shard : last.at("per_shard").array)
        shard_events += shard.at("events").num;
    EXPECT_EQ(shard_events, last.at("events").num);
    EXPECT_EQ(last.at("events").num,
              static_cast<double>(options.totalEvents));

    std::remove(path.c_str());
    std::remove((path + ".prom").c_str());
}

TEST(ServiceTelemetry, PromExpositionCarriesSkewAndLatencyGauges)
{
    const std::string path = tempPath("telemetry_prom.jsonl");
    std::remove(path.c_str());
    ScopedEnv tele("DEWRITE_TELEMETRY", path.c_str());
    ScopedEnv every("DEWRITE_TELEMETRY_EVERY", "4");

    DedupService service(smallOptions(2));
    service.run();
    ASSERT_TRUE(service.telemetrySink().ok());

    const std::string prom = readAll(service.telemetrySink().promPath());
    EXPECT_NE(prom.find("# TYPE dewrite_service_skew_round_cv gauge"),
              std::string::npos);
    EXPECT_NE(prom.find("dewrite_service_skew_alert"),
              std::string::npos);
    EXPECT_NE(
        prom.find("dewrite_shard0_telemetry_write_latency_p99_ps"),
        std::string::npos);
    EXPECT_NE(
        prom.find("dewrite_shard1_telemetry_write_latency_p99_ps"),
        std::string::npos);
    EXPECT_NE(prom.find("dewrite_shard0_telemetry_dup_ratio"),
              std::string::npos);
    // Counters keep their Prometheus type.
    EXPECT_NE(prom.find("# TYPE dewrite_service_rounds counter"),
              std::string::npos);

    std::remove(path.c_str());
    std::remove(service.telemetrySink().promPath().c_str());
}

TEST(ServiceTelemetryDeathTest, RejectsMalformedEmitCadence)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    ScopedEnv every("DEWRITE_TELEMETRY_EVERY", "abc");
    EXPECT_EXIT(obs::TelemetryConfig::fromEnv(),
                ::testing::ExitedWithCode(1),
                "DEWRITE_TELEMETRY_EVERY");
}

TEST(ServiceTelemetryDeathTest, RejectsZeroEmitCadence)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    ScopedEnv every("DEWRITE_TELEMETRY_EVERY", "0");
    EXPECT_EXIT(obs::TelemetryConfig::fromEnv(),
                ::testing::ExitedWithCode(1),
                "DEWRITE_TELEMETRY_EVERY");
}

} // namespace
} // namespace dewrite
