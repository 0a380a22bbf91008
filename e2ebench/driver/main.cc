/**
 * @file
 * potluck_e2e: the load driver of the end-to-end benchmark.
 *
 *   potluck_e2e --daemon PATH --workload NAME --seed N --seconds S
 *               --trace 0|1
 *
 * Run from an empty scratch directory (the daemon's socket, log and
 * store directories are created there). --trace 0 runs whole rounds of
 * the workload until the timed phases add up to S seconds and prints
 * the end-to-end metrics; --trace 1 prints the per-layer metrics
 * (traced.cc). The last line of stdout is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}. Exit status 0 means
 * the run completed (correct or not); anything else is a harness
 * failure and prints no result.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <string>

#include "daemon.h"
#include "report.h"
#include "runner.h"
#include "stats.h"
#include "traced.h"
#include "workload.h"

namespace {

/** Captured before main() runs: set-up time counts from here. */
const uint64_t g_process_start_ns = e2e::nowNs();

struct Args
{
    std::string daemon;
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

[[noreturn]] void
usage()
{
    std::cerr << "usage: potluck_e2e --daemon PATH --workload "
                 "recog_uds|hot_shm|cold_tier --seed N --seconds S "
                 "--trace 0|1\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage();
        std::string v = argv[++i];
        if (flag == "--daemon")
            a.daemon = v;
        else if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = std::stoull(v);
        else if (flag == "--seconds")
            a.seconds = std::stod(v);
        else if (flag == "--trace")
            a.trace = v == "1";
        else
            usage();
    }
    if (a.daemon.empty() || a.workload.empty() || a.seconds <= 0)
        usage();
    return a;
}

/**
 * Every latency percentile and the throughput are taken per round and
 * reported as their median over the run's rounds, so a burst of
 * interference (a disk flush, a noisy neighbour) that slows one round
 * moves them little.
 */
int
runEndToEnd(const e2e::Workload &w, const Args &args)
{
    std::vector<double> lookup_p50, lookup_p99, mget_p50, put_p50, put_p99,
        ops_per_s;
    size_t lookups = 0, puts = 0;
    uint64_t key_ops = 0, failed = 0;
    double timed_s = 0.0, setup_s = 0.0, saved_us = 0.0, warmup_s = 0.0;
    long vm_hwm_kb = 0;
    bool correct = true;
    int rounds = 0, warmup_rounds = 0;
    uint64_t t0 = g_process_start_ns;
    while (rounds == 0 || timed_s < args.seconds) {
        e2e::RoundResult r =
            e2e::runRound(w, args.daemon, rounds + warmup_rounds, t0);
        t0 = e2e::nowNs();
        if (rounds + warmup_rounds == 0)
            setup_s = r.setup_s; // the one cold set-up of the process
        key_ops += r.key_ops;
        failed += r.failed;
        if (!r.correct) {
            correct = false;
            for (const std::string &v : r.violations)
                std::cerr << "e2e: round " << rounds + warmup_rounds << ": "
                          << v << "\n";
        }
        if (warmup_s < e2e::kWarmupSeconds) {
            warmup_s += r.timed_s;
            ++warmup_rounds;
            continue;
        }
        lookups += r.lookup_us.size();
        puts += r.put_us.size();
        lookup_p50.push_back(e2e::percentile(r.lookup_us, 50));
        lookup_p99.push_back(e2e::percentile(r.lookup_us, 99));
        mget_p50.push_back(e2e::percentile(r.mget_item_us, 50));
        put_p50.push_back(e2e::percentile(r.put_us, 50));
        put_p99.push_back(e2e::percentile(r.put_us, 99));
        ops_per_s.push_back(static_cast<double>(r.key_ops - r.failed) /
                            r.timed_s);
        timed_s += r.timed_s;
        saved_us += r.saved_us;
        vm_hwm_kb = r.vm_hwm_kb;
        std::cerr << "e2e: " << w.name << " round " << rounds + warmup_rounds
                  << ": "
                  << r.key_ops << " ops in " << r.timed_s << " s, set-up "
                  << r.setup_s << " s, hits " << r.hits << " (wrong "
                  << r.wrong_hits << ", cross-app " << r.cross_app_hits
                  << "), entries " << r.daemon.entries << ", evictions "
                  << r.daemon.evictions << ", dropouts " << r.daemon.dropouts
                  << (r.correct ? "" : ", INCORRECT") << "\n";
        if (w.kill_and_restart) {
            const auto &snap = r.snapshot;
            std::cerr << "e2e:   store: promotions "
                      << snap.counterValue("store.promotions") << ", demotions "
                      << snap.counterValue("store.demotions")
                      << ", compactions "
                      << snap.counterValue("store.compactions")
                      << ", value crc failures "
                      << snap.counterValue("store.value_crc_failures")
                      << ", scrub corrupt "
                      << snap.counterValue("store.scrub.corrupt")
                      << ", quarantined "
                      << snap.gaugeValue("store.scrub.quarantined") << "\n";
        }
        ++rounds;
    }

    e2e::Report report;
    report.correct = correct;
    report.attempted = key_ops;
    report.failed = failed;
    report.add("lookup_p50_us", e2e::median(lookup_p50), "us");
    report.add("mget_item_p50_us", e2e::median(mget_p50), "us");
    report.add("put_p50_us", e2e::median(put_p50), "us");
    report.add("ops_per_s", e2e::median(ops_per_s), "1/s");
    // Every round replays the same inputs: report one round's benefit.
    report.add("saved_compute_s", saved_us * 1e-6 / rounds, "s");
    report.add("daemon_peak_rss_mb", static_cast<double>(vm_hwm_kb) / 1024.0,
               "MB");
    report.add("setup_s", setup_s, "s");
    std::cerr << "e2e: " << warmup_rounds << " warm-up rounds, " << rounds
              << " rounds, " << timed_s << " s timed; samples: " << lookups
              << " lookups, " << puts << " puts\n";
    // The tails are printed, not reported: their spread over seeds went
    // past the widest bound a metric may have (see README.md).
    std::cerr << "e2e: lookup p99 " << e2e::median(lookup_p99)
              << " us, put p99 " << e2e::median(put_p99) << " us\n";
    report.print(std::cout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    e2e::splitCpus();
    try {
        e2e::Workload w = e2e::makeWorkload(args.workload, args.seed);
        std::cerr << "e2e: " << w.describe() << "\n";
        if (args.trace)
            return e2e::runTraced(w, args.daemon, args.seed, g_process_start_ns);
        return runEndToEnd(w, args);
    } catch (const std::exception &e) {
        std::cerr << "e2e: " << e.what() << "\n";
        return 1;
    }
}
