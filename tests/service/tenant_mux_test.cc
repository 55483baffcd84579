/**
 * @file
 * TenantMux unit tests. The service/reference parity contract rests on
 * the mux's canonical order: tenants visited cyclically in bounded
 * bursts, the whole sequence a function of the construction
 * parameters, and each tenant's events exactly its own standalone
 * synthetic stream.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <set>
#include <vector>

#include "service/tenant_mux.hh"
#include "trace/app_catalog.hh"

namespace dewrite {
namespace {

constexpr unsigned kBurstMax = 8;
constexpr std::size_t kEvents = 20000;

std::vector<TenantSpec>
specs(std::uint64_t tenants)
{
    std::vector<TenantSpec> out;
    for (std::uint64_t t = 0; t < tenants; ++t) {
        TenantSpec spec;
        spec.profile = appCatalog()[t % appCatalog().size()];
        spec.profile.workingSetLines = 512;
        spec.seed = 1000 + t;
        out.push_back(spec);
    }
    return out;
}

bool
sameEvent(const MemEvent &a, const MemEvent &b)
{
    return a.isWrite == b.isWrite && a.addr == b.addr &&
           a.instGap == b.instGap && (!a.isWrite || a.data == b.data);
}

TEST(TenantMux, VisitsTenantsCyclicallyInBoundedBursts)
{
    const std::uint64_t tenants = 5;
    TenantMux mux(specs(tenants), kBurstMax);
    ASSERT_EQ(mux.tenants(), tenants);

    // Collapse the tenant sequence into bursts. With more than one
    // tenant, consecutive bursts belong to different tenants, so each
    // run of one tenant is exactly one burst (the last may be cut).
    std::vector<std::uint64_t> burstTenant;
    std::vector<unsigned> burstLen;
    MemEvent event;
    std::uint64_t tenant = 0;
    for (std::size_t i = 0; i < kEvents; ++i) {
        mux.next(event, tenant);
        if (burstTenant.empty() || burstTenant.back() != tenant) {
            burstTenant.push_back(tenant);
            burstLen.push_back(0);
        }
        ++burstLen.back();
    }

    std::set<unsigned> lengths;
    for (std::size_t b = 0; b < burstTenant.size(); ++b) {
        ASSERT_EQ(burstTenant[b], b % tenants) << "burst " << b;
        ASSERT_GE(burstLen[b], 1u) << "burst " << b;
        ASSERT_LE(burstLen[b], kBurstMax) << "burst " << b;
        lengths.insert(burstLen[b]);
    }
    // Bursty, not a fixed-length rotation.
    EXPECT_GT(lengths.size(), 1u);
}

TEST(TenantMux, SameSpecsGiveIdenticalSequences)
{
    TenantMux a(specs(4), kBurstMax);
    TenantMux b(specs(4), kBurstMax);
    MemEvent ea, eb;
    std::uint64_t ta = 0, tb = 0;
    for (std::size_t i = 0; i < kEvents; ++i) {
        a.next(ea, ta);
        b.next(eb, tb);
        ASSERT_EQ(ta, tb) << "event " << i;
        ASSERT_TRUE(sameEvent(ea, eb)) << "event " << i;
    }
}

TEST(TenantMux, EachTenantReplaysItsStandaloneStream)
{
    // Per-tenant producers may generate ahead of the mux only because
    // a tenant's events, in order, are its own stream and nothing else.
    const std::vector<TenantSpec> tenants = specs(3);
    std::deque<SyntheticWorkload> standalone;
    for (const TenantSpec &spec : tenants)
        standalone.emplace_back(spec.profile, spec.seed);

    TenantMux mux(tenants, kBurstMax);
    std::vector<std::size_t> drawn(tenants.size(), 0);
    MemEvent event, expected;
    std::uint64_t tenant = 0;
    for (std::size_t i = 0; i < kEvents; ++i) {
        mux.next(event, tenant);
        ASSERT_LT(tenant, tenants.size());
        ASSERT_TRUE(standalone[tenant].next(expected));
        ASSERT_TRUE(sameEvent(event, expected))
            << "tenant " << tenant << " event " << drawn[tenant];
        ++drawn[tenant];
    }
    for (const std::size_t n : drawn)
        EXPECT_GT(n, 0u);
}

TEST(TenantMuxDeathTest, RejectsNoTenants)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(TenantMux({}, kBurstMax),
                 "mux needs at least one tenant");
}

TEST(TenantMuxDeathTest, RejectsZeroBurstLength)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(TenantMux(specs(2), 0),
                 "burst length must be at least one");
}

} // namespace
} // namespace dewrite
