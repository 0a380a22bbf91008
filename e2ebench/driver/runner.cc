#include "runner.h"

#include <filesystem>
#include <memory>
#include <stdexcept>
#include <sys/stat.h>

#include "daemon.h"
#include "ipc/client.h"
#include "stats.h"

namespace e2e {

namespace {

using potluck::FeatureVector;
using potluck::PotluckClient;

constexpr const char *kSocket = "pd.sock";
constexpr const char *kLog = "potluckd.log";

using Clients = std::vector<std::unique_ptr<PotluckClient>>;

/** One client per app, each on its own connection, registered. */
Clients
connectApps(const Workload &w)
{
    potluck::RetryPolicy policy;
    // A failure must surface as an exception the benchmark counts,
    // not as a silent degraded-mode miss.
    policy.degraded_mode = false;
    potluck::TransportOptions transport;
    transport.try_shm = w.use_shm;
    Clients clients;
    for (const std::string &app : w.apps) {
        clients.push_back(std::make_unique<PotluckClient>(
            app, kSocket, policy, potluck::obs::TraceConfig{}, transport));
        clients.back()->registerFunction(w.function, w.key_type, w.metric,
                                         w.index_kind);
    }
    return clients;
}

std::vector<std::string>
daemonArgs(const Workload &w, const std::string &store_dir)
{
    std::vector<std::string> args;
    for (const std::string &a : w.daemon_args)
        args.push_back(a == "{store}" ? store_dir : a);
    return args;
}

DaemonCounters
readCounters(PotluckClient &client, potluck::ServiceStats &stats,
             potluck::obs::RegistrySnapshot &snapshot)
{
    PotluckClient::RemoteMetrics m = client.fetchMetrics();
    DaemonCounters d;
    d.lookups = m.stats.lookups;
    d.hits = m.stats.hits;
    d.misses = m.stats.misses;
    d.dropouts = m.stats.dropouts;
    d.puts = m.stats.puts;
    d.evictions = m.stats.evictions;
    d.expirations = m.stats.expirations;
    d.entries = m.num_entries;
    // Cold records from the store's counters: the store.cold_entries
    // gauge is not refreshed when a demotion only flips a record's
    // residency, so it can lag by one.
    d.promotions = m.snapshot.counterValue("store.promotions");
    d.cold_records = m.snapshot.counterValue("store.recovered_records") +
                     m.snapshot.counterValue("store.demotions") -
                     d.promotions;
    stats = m.stats;
    snapshot = std::move(m.snapshot);
    return d;
}

double
elapsedUs(uint64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) * 1e-3;
}

/** Removes a directory tree when the round ends, however it ends. */
struct DirGuard
{
    std::string dir;
    ~DirGuard()
    {
        if (!dir.empty()) {
            std::error_code ec;
            std::filesystem::remove_all(dir, ec);
        }
    }
};

} // namespace

/** Disk blocks in use under a directory, in bytes. */
uint64_t
diskBytes(const std::string &dir)
{
    uint64_t total = 0;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::recursive_directory_iterator(dir, ec)) {
        struct stat st;
        if (::lstat(entry.path().c_str(), &st) == 0 && S_ISREG(st.st_mode))
            total += static_cast<uint64_t>(st.st_blocks) * 512;
    }
    return total;
}

std::string
shmShortfall(const potluck::obs::RegistrySnapshot &snapshot,
             uint64_t connections)
{
    const uint64_t granted = snapshot.counterValue("ipc.shm_connections");
    const uint64_t refused = snapshot.counterValue("ipc.shm_refused");
    if (granted == connections && refused == 0)
        return {};
    return "shm: the daemon granted " + std::to_string(granted) +
           " ring(s) and refused " + std::to_string(refused) + " for " +
           std::to_string(connections) + " client(s)";
}

RoundResult
runRound(const Workload &w, const std::string &daemon_binary, int round,
         uint64_t t0_ns)
{
    RoundResult r;
    DirGuard store;
    if (w.kill_and_restart)
        store.dir = "store_r" + std::to_string(round);
    const std::vector<std::string> args = daemonArgs(w, store.dir);

    auto daemon = std::make_unique<Daemon>(daemon_binary, kSocket, args, kLog);
    r.rss_ready_kb = daemon->statusKb("VmRSS");
    Clients clients = connectApps(w);

    auto put = [&](uint8_t app, uint32_t key, bool setup) {
        const uint64_t t = nowNs();
        potluck::EntryId id = clients[app]->put(
            w.function, w.key_type, w.keys[key], w.truth[key], std::nullopt,
            w.cost_us[key]);
        if (!setup)
            r.put_us.push_back(elapsedUs(t));
        r.user_bytes += w.keys[key].sizeBytes() + potluck::valueSize(w.truth[key]);
        Event e;
        e.kind = Event::Put;
        e.app = app;
        e.setup = setup;
        e.key = key;
        e.id = id;
        e.value = w.truth[key];
        r.log.push_back(std::move(e));
    };

    // Set-up: prefill from the first app, then (cold_tier) a crash and
    // a warm restart on the same store directory.
    for (uint32_t key : w.prefill)
        put(0, key, /*setup=*/true);
    if (w.kill_and_restart) {
        clients.clear();
        daemon.reset();
        Event restart;
        restart.kind = Event::Restart;
        r.log.push_back(restart);
        const uint64_t t = nowNs();
        daemon = std::make_unique<Daemon>(daemon_binary, kSocket, args, kLog);
        r.rss_ready_kb = daemon->statusKb("VmRSS");
        clients = connectApps(w);
        r.restart_s = static_cast<double>(nowNs() - t) * 1e-9;
    }

    // Timed phase.
    const uint64_t t_first = nowNs();
    r.setup_s = static_cast<double>(t_first - t0_ns) * 1e-9;
    std::vector<FeatureVector> batch;
    for (const Step &step : w.steps) {
        PotluckClient &client = *clients[step.app];
        if (step.kind == StepKind::Put) {
            ++r.key_ops;
            try {
                put(step.app, step.keys[0], false);
            } catch (const potluck::FatalError &) {
                ++r.failed;
            }
            continue;
        }
        std::vector<uint32_t> missed;
        if (step.kind == StepKind::Lookup) {
            const uint32_t key = step.keys[0];
            ++r.key_ops;
            const uint64_t t = nowNs();
            potluck::LookupResult res;
            try {
                res = client.lookup(w.function, w.key_type, w.keys[key]);
            } catch (const potluck::FatalError &) {
                ++r.failed;
                continue;
            }
            r.lookup_us.push_back(elapsedUs(t));
            Event e;
            e.app = step.app;
            e.hit = res.hit;
            e.dropped = res.dropped;
            e.key = key;
            e.id = res.id;
            e.value = res.value;
            r.log.push_back(std::move(e));
            if (!res.hit)
                missed.push_back(key);
        } else {
            batch.clear();
            for (uint32_t key : step.keys)
                batch.push_back(w.keys[key]);
            r.key_ops += batch.size();
            const uint64_t t = nowNs();
            std::vector<potluck::BatchLookupItem> items;
            try {
                items = client.lookupBatch(w.function, w.key_type, batch);
            } catch (const potluck::FatalError &) {
                r.failed += batch.size();
                continue;
            }
            r.mget_item_us.push_back(elapsedUs(t) /
                                     static_cast<double>(batch.size()));
            r.mget_sizes.push_back(batch.size());
            for (size_t i = 0; i < items.size() && i < step.keys.size(); ++i) {
                Event e;
                e.app = step.app;
                e.batch = true;
                e.hit = items[i].hit;
                e.dropped = items[i].dropped;
                e.key = step.keys[i];
                e.id = items[i].id;
                e.value = items[i].value;
                r.log.push_back(std::move(e));
                if (!items[i].hit)
                    missed.push_back(step.keys[i]);
            }
            if (items.size() != step.keys.size())
                r.failed += step.keys.size() - std::min(items.size(),
                                                        step.keys.size());
        }
        if (step.put_on_miss && step.kind == StepKind::Lookup) {
            for (uint32_t key : missed) {
                ++r.key_ops;
                try {
                    put(step.app, key, false);
                } catch (const potluck::FatalError &) {
                    ++r.failed;
                }
            }
        } else if (step.put_on_miss && !missed.empty()) {
            // The crops an mget missed go back in one putBatch().
            r.key_ops += missed.size();
            std::vector<potluck::BatchPutItem> items;
            for (uint32_t key : missed)
                items.push_back({w.keys[key], w.truth[key]});
            std::vector<potluck::EntryId> ids;
            try {
                ids = client.putBatch(w.function, w.key_type,
                                      std::move(items), std::nullopt,
                                      w.cost_us[missed.front()]);
            } catch (const potluck::FatalError &) {
                r.failed += missed.size();
                continue;
            }
            if (ids.size() != missed.size()) {
                r.failed += missed.size();
                continue;
            }
            for (size_t i = 0; i < missed.size(); ++i) {
                const uint32_t key = missed[i];
                r.user_bytes += w.keys[key].sizeBytes() +
                                potluck::valueSize(w.truth[key]);
                Event e;
                e.kind = Event::Put;
                e.app = step.app;
                e.batch = true;
                e.key = key;
                e.id = ids[i];
                e.value = w.truth[key];
                r.log.push_back(std::move(e));
            }
        }
    }
    r.timed_s = static_cast<double>(nowNs() - t_first) * 1e-9;

    // The daemon's view, then the oracle's verdict.
    r.daemon = readCounters(*clients[0], r.stats, r.snapshot);
    r.recovered = r.snapshot.counterValue("store.recovered_records");
    r.rss_end_kb = daemon->statusKb("VmRSS");
    r.vm_hwm_kb = daemon->statusKb("VmHWM");
    if (!store.dir.empty())
        r.store_disk_bytes = diskBytes(store.dir);
    clients.clear();
    daemon.reset();

    OracleConfig cfg;
    cfg.check_nearest = w.check_nearest;
    cfg.tiered = w.kill_and_restart;
    cfg.max_entries = w.max_entries;
    Oracle oracle(w.keys, w.truth, w.cost_us, cfg);
    for (const Event &e : r.log) {
        if (e.kind == Event::Put)
            oracle.notePut(e.key, e.app, e.id, e.value);
        else if (e.kind == Event::Restart)
            oracle.daemonRestarted();
        else
            oracle.noteAnswer(e.key, e.app, e.hit, e.dropped, e.id, e.value);
    }
    oracle.checkCounters(r.daemon);
    r.correct = oracle.ok();
    r.violations = oracle.messages();
    if (w.use_shm) {
        const std::string shm = shmShortfall(r.snapshot, w.apps.size());
        if (!shm.empty()) {
            r.correct = false;
            r.violations.push_back(shm);
        }
    }
    r.hits = oracle.hits();
    r.cross_app_hits = oracle.crossAppHits();
    r.wrong_hits = oracle.wrongHits();
    r.saved_us = oracle.savedComputeUs();
    return r;
}

} // namespace e2e
