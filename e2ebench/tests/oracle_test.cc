/**
 * @file
 * The oracle's own tests: a clean answer stream passes, and each
 * corrupted answer is caught by the check made for it — a wrong value,
 * a farther neighbour, a miss on an exact re-query, a hit on an id no
 * put returned, a counter off by one, a broken conservation law, a
 * dropout rate outside its interval, and a shm upgrade the daemon
 * refused.
 *
 *   cmake --build .bench_build --target oracle_test && .bench_build/oracle_test
 */
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "obs/registry.h"
#include "oracle.h"
#include "runner.h"

using e2e::DaemonCounters;
using e2e::Oracle;
using e2e::OracleConfig;
using potluck::FeatureVector;
using potluck::Value;

namespace {

int g_failures = 0;

#define CHECK(cond)                                                          \
    do {                                                                     \
        if (!(cond)) {                                                       \
            std::printf("  FAILED: %s (line %d)\n", #cond, __LINE__);        \
            ++g_failures;                                                    \
        }                                                                    \
    } while (0)

/** Four keys on a line (0, 1, 3, 10) plus an exact copy of key 1. */
struct Fixture
{
    std::vector<FeatureVector> keys = {{0.0f, 0.0f}, {1.0f, 0.0f},
                                       {3.0f, 0.0f}, {10.0f, 0.0f},
                                       {1.0f, 0.0f}};
    std::vector<Value> truth = {potluck::encodeString("a"),
                                potluck::encodeString("b"),
                                potluck::encodeString("c"),
                                potluck::encodeString("d"),
                                potluck::encodeString("b")};
    std::vector<double> cost = {10, 20, 30, 40, 20};

    Oracle
    make(OracleConfig cfg = {}) const
    {
        cfg.dropout_p = 0.0; // exact tallies; dropout has its own test
        return Oracle(keys, truth, cost, cfg);
    }
};

/** Puts keys 0..2 as ids 1..3 from app 0 and 1. */
void
putThree(Oracle &o, const Fixture &f)
{
    o.notePut(0, 0, 1, f.truth[0]);
    o.notePut(1, 1, 2, f.truth[1]);
    o.notePut(2, 0, 3, f.truth[2]);
}

DaemonCounters
countersFor(uint64_t lookups, uint64_t hits, uint64_t misses, uint64_t puts)
{
    DaemonCounters d;
    d.lookups = lookups;
    d.hits = hits;
    d.misses = misses;
    d.puts = puts;
    d.entries = puts;
    return d;
}

void
testCleanStreamPasses()
{
    Fixture f;
    OracleConfig cfg;
    cfg.check_nearest = true;
    Oracle o = f.make(cfg);
    putThree(o, f);
    o.noteAnswer(1, 0, true, false, 2, f.truth[1]); // exact, cross-app
    o.noteAnswer(4, 1, true, false, 2, f.truth[1]); // identical bytes
    o.noteAnswer(3, 1, false, false, 0, nullptr);   // far key misses
    o.checkCounters(countersFor(3, 2, 1, 3));
    CHECK(o.ok());
    CHECK(o.crossAppHits() == 1);
    CHECK(o.wrongHits() == 0);
    CHECK(o.savedComputeUs() == 40.0);
}

void
testWrongValueCaught()
{
    Fixture f;
    Oracle o = f.make();
    putThree(o, f);
    // Near-duplicate lookup of key 3 (10,0) answered with id 3 but the
    // bytes of another entry.
    o.noteAnswer(3, 0, true, false, 3, potluck::encodeString("x"));
    CHECK(!o.ok());
    CHECK(o.byCheck().count("value") == 1);
}

void
testFartherNeighbourCaught()
{
    Fixture f;
    OracleConfig cfg;
    cfg.check_nearest = true;
    Oracle o = f.make(cfg);
    putThree(o, f);
    // Query (10,0): the nearest key put is (3,0) = id 3; (1,0) = id 2
    // is farther.
    o.noteAnswer(3, 0, true, false, 2, f.truth[1]);
    CHECK(o.byCheck().count("nearest") == 1);
    // The true nearest neighbour passes.
    Oracle good = f.make(cfg);
    putThree(good, f);
    good.noteAnswer(3, 0, true, false, 3, f.truth[2]);
    CHECK(good.byCheck().count("nearest") == 0);
}

void
testMissOnExactRequeryCaught()
{
    Fixture f;
    Oracle o = f.make();
    putThree(o, f);
    o.noteAnswer(2, 1, false, false, 0, nullptr);
    CHECK(o.byCheck().count("requery") == 1);
    // A dropped re-query is allowed to miss.
    Oracle dropped = f.make();
    putThree(dropped, f);
    dropped.noteAnswer(2, 1, false, true, 0, nullptr);
    CHECK(dropped.byCheck().count("requery") == 0);
}

void
testUnknownIdCaught()
{
    Fixture f;
    Oracle o = f.make();
    putThree(o, f);
    o.noteAnswer(3, 0, true, false, 99, f.truth[3]);
    CHECK(o.byCheck().count("unknown") == 1);
}

void
testCounterOffByOneCaught()
{
    Fixture f;
    const std::vector<std::function<void(DaemonCounters &)>> skews = {
        [](DaemonCounters &d) { ++d.lookups; },
        [](DaemonCounters &d) { --d.hits; },
        [](DaemonCounters &d) { ++d.misses; },
        [](DaemonCounters &d) { ++d.dropouts; },
        [](DaemonCounters &d) { --d.puts; ++d.evictions; },
    };
    for (const auto &skew : skews) {
        Oracle o = f.make();
        putThree(o, f);
        o.noteAnswer(0, 1, true, false, 1, f.truth[0]);
        o.noteAnswer(3, 1, false, false, 0, nullptr);
        DaemonCounters d = countersFor(2, 1, 1, 3);
        skew(d);
        o.checkCounters(d);
        CHECK(o.byCheck().count("counters") == 1);
    }
}

void
testConservationCaught()
{
    Fixture f;
    Oracle o = f.make();
    putThree(o, f);
    DaemonCounters d = countersFor(0, 0, 0, 3);
    d.entries = 2; // one entry vanished without an eviction
    o.checkCounters(d);
    CHECK(o.byCheck().count("conservation") == 1);
}

void
testTieredRestartAndPromotion()
{
    Fixture f;
    OracleConfig cfg;
    cfg.tiered = true;
    cfg.max_entries = 2;
    Oracle o = f.make(cfg);
    putThree(o, f);
    o.daemonRestarted();
    // Recovered key 1 comes back under a fresh id: accepted, then
    // checked by id from then on.
    o.noteAnswer(1, 0, true, false, 7, f.truth[1]);
    o.noteAnswer(1, 1, true, false, 7, f.truth[1]);
    DaemonCounters d = countersFor(2, 2, 0, 0);
    d.promotions = 1;
    d.entries = 1;
    d.cold_records = 2;
    o.checkCounters(d);
    CHECK(o.ok());

    // A recovered key answered with another key's value.
    Oracle bad = f.make(cfg);
    putThree(bad, f);
    bad.daemonRestarted();
    bad.noteAnswer(1, 0, true, false, 7, f.truth[2]);
    CHECK(bad.byCheck().count("requery") == 1);

    // A record lost across RAM and disk, and RAM over its bound.
    Oracle lost = f.make(cfg);
    putThree(lost, f);
    DaemonCounters l = countersFor(0, 0, 0, 3);
    l.cold_records = 1; // 3 RAM + 1 cold != 3 keys, and 3 > max 2
    lost.checkCounters(l);
    CHECK(lost.byCheck().count("conservation") == 1);
    CHECK(lost.violations() == 2);
}

void
testDropoutIntervalCaught()
{
    Fixture f;
    OracleConfig cfg;
    Oracle o(f.keys, f.truth, f.cost, cfg); // dropout_p = 0.1
    for (int i = 0; i < 1000; ++i)
        o.noteAnswer(3, 0, false, i % 10 == 0, 0, nullptr);
    DaemonCounters d = countersFor(1000, 0, 900, 0);
    d.dropouts = 100;
    o.checkCounters(d);
    CHECK(o.ok());

    Oracle skewed(f.keys, f.truth, f.cost, cfg);
    for (int i = 0; i < 1000; ++i)
        skewed.noteAnswer(3, 0, false, i % 4 == 0, 0, nullptr);
    DaemonCounters s = countersFor(1000, 0, 750, 0);
    s.dropouts = 250;
    skewed.checkCounters(s);
    CHECK(skewed.byCheck().count("dropout") == 1);
}

void
testRefusedShmCaught()
{
    potluck::obs::MetricsRegistry granted;
    granted.counter("ipc.shm_connections").inc(2);
    CHECK(e2e::shmShortfall(granted.snapshot(), 2).empty());

    potluck::obs::MetricsRegistry refused;
    refused.counter("ipc.shm_connections").inc(1);
    refused.counter("ipc.shm_refused").inc(1);
    CHECK(!e2e::shmShortfall(refused.snapshot(), 2).empty());
    CHECK(!e2e::shmShortfall(potluck::obs::MetricsRegistry().snapshot(), 2)
               .empty());
}

} // namespace

int
main()
{
    const std::vector<std::pair<const char *, void (*)()>> tests = {
        {"clean stream passes", testCleanStreamPasses},
        {"wrong value caught", testWrongValueCaught},
        {"farther neighbour caught", testFartherNeighbourCaught},
        {"miss on exact re-query caught", testMissOnExactRequeryCaught},
        {"unknown id caught", testUnknownIdCaught},
        {"counter off by one caught", testCounterOffByOneCaught},
        {"conservation caught", testConservationCaught},
        {"tiered restart and promotion", testTieredRestartAndPromotion},
        {"dropout interval caught", testDropoutIntervalCaught},
        {"refused shm upgrade caught", testRefusedShmCaught},
    };
    for (const auto &[name, fn] : tests) {
        const int before = g_failures;
        fn();
        std::printf("%s %s\n", g_failures == before ? "ok  " : "FAIL", name);
    }
    std::printf("%s\n", g_failures ? "oracle_test: FAILED" : "oracle_test: ok");
    return g_failures ? 1 : 0;
}
