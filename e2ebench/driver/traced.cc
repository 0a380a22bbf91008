#include "traced.h"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <csignal>
#include <stdexcept>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>
#include <unordered_map>
#include <unordered_set>

#include "core/potluck_service.h"
#include "daemon.h"
#include "features/downsample.h"
#include "ipc/client.h"
#include "ipc/message.h"
#include "ipc/shm_ring.h"
#include "ipc/transport.h"
#include "obs/trace.h"
#include "report.h"
#include "stats.h"
#include "store/tiered_store.h"
#include "util/rng.h"

namespace e2e {

namespace {

using potluck::FeatureVector;
using potluck::Reply;
using potluck::Request;
using potluck::RequestType;

/// @name Benchmark spans.
/// Kept in memory, written out once the run ends. A span's layer is
/// the part of its name before the first dot; a span may stand for
/// `count` identical calls timed together.
/// @{
struct Span
{
    const char *name;
    uint64_t start_ns;
    uint64_t end_ns;
    int32_t parent; ///< index of the enclosing span, -1 for a root
    uint32_t count;
};

class SpanLog
{
  public:
    class Scope
    {
      public:
        Scope(SpanLog &log, const char *name, uint32_t count = 1)
            : log_(log), index_(static_cast<int32_t>(log.spans_.size())),
              saved_(log.current_)
        {
            log.spans_.push_back({name, 0, 0, log.current_, count});
            log.current_ = index_;
            log.spans_[index_].start_ns = nowNs();
        }
        ~Scope()
        {
            log_.spans_[index_].end_ns = nowNs();
            log_.current_ = saved_;
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog &log_;
        int32_t index_;
        int32_t saved_;
    };

    /** Per-call durations (ns) of every span with this name. */
    std::vector<double>
    perCallNs(const std::string &name) const
    {
        std::vector<double> out;
        for (const Span &s : spans_) {
            if (name == s.name)
                out.push_back(static_cast<double>(s.end_ns - s.start_ns) /
                              s.count);
        }
        return out;
    }

    /** Self time per layer (ms): each span's duration minus what its
     * children cover. */
    std::map<std::string, double>
    selfMsByLayer() const
    {
        std::vector<uint64_t> child_ns(spans_.size(), 0);
        for (const Span &s : spans_) {
            if (s.parent >= 0)
                child_ns[s.parent] += s.end_ns - s.start_ns;
        }
        std::map<std::string, double> out;
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::string name = s.name;
            std::string layer = name.substr(0, name.find('.'));
            const uint64_t dur = s.end_ns - s.start_ns;
            out[layer] +=
                static_cast<double>(dur - std::min(dur, child_ns[i])) * 1e-6;
        }
        return out;
    }

    void
    write(const std::string &path) const
    {
        std::ofstream out(path);
        for (const Span &s : spans_) {
            out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
                << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
                << ",\"count\":" << s.count << "}\n";
        }
    }

  private:
    std::vector<Span> spans_;
    int32_t current_ = -1;
};
/// @}

/** ColdTier that forwards to a real TieredStore, timing each hook. */
class TimedColdTier : public potluck::ColdTier
{
  public:
    TimedColdTier(potluck::store::TieredStore &store, SpanLog &spans)
        : store_(store), spans_(spans)
    {
    }

    void
    admit(const potluck::CacheEntry &entry) override
    {
        SpanLog::Scope s(spans_, "store.admit");
        store_.admit(entry);
    }
    void
    demote(potluck::CacheEntry &&entry) override
    {
        SpanLog::Scope s(spans_, "store.demote");
        store_.demote(std::move(entry));
    }
    bool
    promote(const std::string &function, const std::string &key_type,
            const FeatureVector &key, double threshold,
            potluck::ColdPromotion &out) override
    {
        SpanLog::Scope s(spans_, "store.promote");
        return store_.promote(function, key_type, key, threshold, out);
    }
    void
    forget(const potluck::CacheEntry &entry) override
    {
        store_.forget(entry);
    }
    void
    noteRegistration(const std::string &function,
                     const potluck::KeyTypeConfig &cfg) override
    {
        store_.noteRegistration(function, cfg);
    }

  private:
    potluck::store::TieredStore &store_;
    SpanLog &spans_;
};

/** One timed-phase client operation rebuilt from the round's log. */
struct Op
{
    StepKind kind;
    uint8_t app;
    std::vector<const Event *> events; ///< 1 event, or one per mget item
};

std::vector<Op>
timedOps(const RoundResult &r)
{
    std::vector<Op> ops;
    size_t mget = 0;
    for (size_t i = 0; i < r.log.size(); ++i) {
        const Event &e = r.log[i];
        if (e.setup || e.kind == Event::Restart)
            continue;
        if (e.kind == Event::Put) {
            ops.push_back({StepKind::Put, e.app, {&e}});
        } else if (!e.batch) {
            ops.push_back({StepKind::Lookup, e.app, {&e}});
        } else {
            Op op{StepKind::Mget, e.app, {}};
            const size_t n = r.mget_sizes.at(mget++);
            for (size_t k = 0; k < n; ++k)
                op.events.push_back(&r.log[i + k]);
            i += n - 1;
            ops.push_back(std::move(op));
        }
    }
    return ops;
}

/** The request and reply the client and daemon exchanged for `op`. */
std::pair<Request, Reply>
wireMessages(const Workload &w, const Op &op)
{
    Request req;
    req.app = w.apps[op.app];
    req.function = w.function;
    req.key_type = w.key_type;
    Reply rep;
    rep.ok = true;
    const Event &e = *op.events.front();
    if (op.kind == StepKind::Put) {
        req.type = rep.type = RequestType::Put;
        req.key = w.keys[e.key];
        req.value = e.value;
        req.compute_overhead_us = w.cost_us[e.key];
        rep.entry_id = e.id;
    } else if (op.kind == StepKind::Lookup) {
        req.type = rep.type = RequestType::Lookup;
        req.key = w.keys[e.key];
        rep.hit = e.hit;
        rep.dropped = e.dropped;
        rep.value = e.value;
        rep.entry_id = e.id;
    } else {
        req.type = rep.type = RequestType::LookupBatch;
        for (const Event *item : op.events) {
            req.batch_keys.push_back(w.keys[item->key]);
            rep.batch_lookups.push_back(
                {item->hit, item->dropped, item->value, item->id});
        }
    }
    return {std::move(req), std::move(rep)};
}

const char *
codecSpanName(StepKind kind, bool encode)
{
    switch (kind) {
      case StepKind::Lookup:
        return encode ? "ipc.codec.lookup_encode" : "ipc.codec.lookup_decode";
      case StepKind::Mget:
        return encode ? "ipc.codec.mget_encode" : "ipc.codec.mget_decode";
      case StepKind::Put:
        return encode ? "ipc.codec.put_encode" : "ipc.codec.put_decode";
    }
    return "";
}

constexpr uint32_t kCodecRepeat = 8;
constexpr size_t kCodecOpsPerKind = 3000;

/** Codec cost per operation kind: encode = encodeRequest +
 * encodeReply, decode = decodeRequest + decodeReply. */
void
timeCodec(const Workload &w, const std::vector<Op> &ops, SpanLog &spans,
          std::vector<double> &request_bytes, std::vector<double> &reply_bytes)
{
    std::map<StepKind, size_t> seen;
    for (const Op &op : ops) {
        if (op.kind == StepKind::Put && op.events.front()->batch)
            continue; // a putBatch item; no codec metric covers those
        auto [req, rep] = wireMessages(w, op);
        request_bytes.push_back(
            static_cast<double>(potluck::requestWireSize(req)));
        reply_bytes.push_back(static_cast<double>(potluck::replyWireSize(rep)));
        if (seen[op.kind]++ >= kCodecOpsPerKind)
            continue;
        std::vector<uint8_t> req_bytes, rep_bytes;
        {
            SpanLog::Scope s(spans, codecSpanName(op.kind, true), kCodecRepeat);
            for (uint32_t i = 0; i < kCodecRepeat; ++i) {
                req_bytes = potluck::encodeRequest(req);
                rep_bytes = potluck::encodeReply(rep);
            }
        }
        SpanLog::Scope s(spans, codecSpanName(op.kind, false), kCodecRepeat);
        for (uint32_t i = 0; i < kCodecRepeat; ++i) {
            Request back = potluck::decodeRequest(req_bytes);
            Reply rback = potluck::decodeReply(rep_bytes);
        }
    }
}

/**
 * Bare frame round trips over the workload's transport to an echo peer
 * the benchmark forks (a process of its own, like the daemon), at the
 * given request and reply sizes. Returns false when a shm workload's
 * upgrade was declined and the round trips ran over the socket.
 */
bool
timeTransport(const Workload &w, size_t request_size, size_t reply_size,
              SpanLog &spans)
{
    constexpr int kRoundTrips = 4000;
    const std::string path = "echo.sock";
    potluck::ListenSocket listener = potluck::listenUnix(path);
    const pid_t peer = ::fork();
    if (peer < 0)
        throw std::runtime_error("fork of the echo peer failed");
    if (peer == 0) {
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        useDaemonCpus();
        try {
            potluck::FrameSocket sock = listener.accept();
            std::unique_ptr<potluck::Transport> t;
            std::vector<uint8_t> frame;
            if (w.use_shm) {
                if (!sock.recvFrame(frame))
                    ::_exit(0);
                t = potluck::shm::acceptUpgrade(std::move(sock), frame, true,
                                                1u << 20);
            } else {
                t = std::make_unique<potluck::FrameSocket>(std::move(sock));
            }
            const std::vector<uint8_t> reply(reply_size, 0x5a);
            while (t->recvFrame(frame))
                t->sendFrame(reply);
        } catch (...) {
            // The benchmark hung up.
        }
        ::_exit(0);
    }
    auto reap = [peer] {
        ::kill(peer, SIGKILL);
        int status = 0;
        ::waitpid(peer, &status, 0);
    };
    bool granted = false;
    try {
        potluck::FrameSocket sock = potluck::connectUnix(path);
        std::unique_ptr<potluck::Transport> t;
        if (w.use_shm)
            t = potluck::shm::negotiate(std::move(sock), 1u << 20);
        else
            t = std::make_unique<potluck::FrameSocket>(std::move(sock));
        granted = !w.use_shm ||
                  dynamic_cast<potluck::shm::ShmTransport *>(t.get());
        const std::vector<uint8_t> request(request_size, 0xa5);
        std::vector<uint8_t> reply;
        for (int i = 0; i < kRoundTrips; ++i) {
            SpanLog::Scope s(spans, "ipc.transport.rt");
            t->sendFrame(request);
            t->recvFrame(reply);
        }
        t->close();
    } catch (...) {
        reap();
        throw;
    }
    reap();
    return granted;
}

potluck::PotluckConfig
daemonConfig(const Workload &w)
{
    potluck::PotluckConfig cfg; // potluckd's defaults
    if (w.max_entries)
        cfg.max_entries = w.max_entries;
    return cfg;
}

/** An in-process service registered like the daemon's. */
std::unique_ptr<potluck::PotluckService>
makeService(const Workload &w)
{
    auto svc = std::make_unique<potluck::PotluckService>(daemonConfig(w));
    for (const std::string &app : w.apps)
        svc->registerApp(app);
    potluck::KeyTypeConfig kt;
    kt.name = w.key_type;
    kt.metric = w.metric;
    kt.index_kind = w.index_kind;
    svc->registerKeyType(w.function, kt);
    return svc;
}

/**
 * The round's operations replayed into an in-process PotluckService
 * with the daemon's config, on the daemon's CPUs. On cold_tier a
 * TimedColdTier forwards to a real TieredStore, and the prefill is
 * followed by a dirty close and a reopen, as the daemon's SIGKILL and
 * restart.
 */
void
replayService(const Workload &w, const RoundResult &r,
              const std::vector<Op> &ops, SpanLog &spans)
{
    using potluck::store::StoreConfig;
    using potluck::store::TieredStore;
    const std::string store_dir = "replay_store";
    std::filesystem::remove_all(store_dir);
    const OnDaemonCpus cpus;

    auto svc = makeService(w);
    std::unique_ptr<TieredStore> store;
    std::unique_ptr<TimedColdTier> tier;
    auto openStore = [&] {
        StoreConfig sc;
        sc.dir = store_dir;
        store = std::make_unique<TieredStore>(sc);
        store->attach(*svc);
        tier = std::make_unique<TimedColdTier>(*store, spans);
        svc->setColdTier(tier.get());
    };
    if (w.kill_and_restart)
        openStore();

    auto put = [&](const Event &e, const char *name) {
        potluck::PutOptions opt;
        opt.app = w.apps[e.app];
        opt.compute_overhead_us = w.cost_us[e.key];
        SpanLog::Scope s(spans, name);
        svc->put(w.function, w.key_type, w.keys[e.key], e.value, opt);
    };
    for (const Event &e : r.log) {
        if (e.setup)
            put(e, "core.service.setup_put");
    }
    if (w.kill_and_restart) {
        svc->setColdTier(nullptr);
        store->closeDirty();
        tier.reset();
        store.reset();
        svc = makeService(w);
        openStore();
    }
    std::vector<FeatureVector> batch;
    for (const Op &op : ops) {
        const Event &e = *op.events.front();
        const std::string &app = w.apps[op.app];
        if (op.kind == StepKind::Put) {
            // The daemon serves a putBatch as one put per item.
            put(e, e.batch ? "core.service.batch_put" : "core.service.put");
        } else if (op.kind == StepKind::Lookup) {
            SpanLog::Scope s(spans, "core.service.lookup");
            svc->lookup(app, w.function, w.key_type, w.keys[e.key]);
        } else {
            batch.clear();
            for (const Event *item : op.events)
                batch.push_back(w.keys[item->key]);
            SpanLog::Scope s(spans, "core.service.mget",
                             static_cast<uint32_t>(batch.size()));
            svc->lookupBatch(app, w.function, w.key_type, batch);
        }
    }
    if (store) {
        svc->setColdTier(nullptr);
        store->close();
        tier.reset();
        store.reset();
    }
    svc.reset();

    std::filesystem::remove_all(store_dir);
}

/** Store timings for the report: from the daemon round on cold_tier,
 * from standaloneStore() on the workloads whose daemon has no store. */
struct StoreFacts
{
    double restart_ms = 0.0;
    double bytes_per_user_byte = 0.0;
};

/**
 * A TieredStore fed this workload's own entries directly: every put
 * admitted, the first half demoted and promoted back by exact key,
 * then a clean close and a timed reopen (recovery). The replay fixes
 * how many records move, so those counts are checked, not reported: a
 * shortfall is added to `violations`.
 */
StoreFacts
standaloneStore(const Workload &w, const RoundResult &r, SpanLog &spans,
                std::vector<std::string> &violations)
{
    using potluck::store::StoreConfig;
    using potluck::store::TieredStore;
    StoreFacts facts;
    size_t promotions = 0, recovered = 0, puts_made = 0;
    StoreConfig sc;
    sc.dir = "standalone_store";
    std::filesystem::remove_all(sc.dir);
    double user_bytes = 0.0;
    {
        potluck::PotluckService host(daemonConfig(w));
        TieredStore st(sc);
        st.attach(host);
        TimedColdTier timed(st, spans);
        potluck::KeyTypeConfig kt;
        kt.name = w.key_type;
        kt.metric = w.metric;
        kt.index_kind = w.index_kind;
        timed.noteRegistration(w.function, kt);
        // Each distinct key once: the store keeps one record per
        // content identity, so equal keys put twice are one record.
        std::vector<const Event *> puts;
        std::unordered_set<uint64_t> seen;
        for (const Event &e : r.log) {
            if (e.kind == Event::Put && seen.insert(w.keys[e.key].hash()).second)
                puts.push_back(&e);
        }
        auto entryOf = [&](const Event &e) {
            potluck::CacheEntry entry;
            entry.id = e.id;
            entry.function = w.function;
            entry.keys[w.key_type] = w.keys[e.key];
            entry.value = e.value;
            entry.app = w.apps[e.app];
            entry.compute_overhead_us = w.cost_us[e.key];
            entry.expiry_us = host.nowUs() + host.config().default_ttl_us;
            return entry;
        };
        for (const Event *e : puts) {
            timed.admit(entryOf(*e));
            user_bytes += static_cast<double>(w.keys[e->key].sizeBytes() +
                                              potluck::valueSize(e->value));
        }
        puts_made = puts.size();
        const size_t half = puts.size() / 2;
        for (size_t i = 0; i < half; ++i)
            timed.demote(entryOf(*puts[i]));
        for (size_t i = 0; i < half; ++i) {
            potluck::ColdPromotion promo;
            if (timed.promote(w.function, w.key_type, w.keys[puts[i]->key],
                              0.0, promo))
                ++promotions;
        }
        if (promotions != half)
            violations.push_back("store: " + std::to_string(promotions) +
                                 " of " + std::to_string(half) +
                                 " demoted records promoted back");
        st.close();
    }
    facts.bytes_per_user_byte =
        user_bytes > 0 ? static_cast<double>(diskBytes(sc.dir)) / user_bytes
                       : 0.0;
    {
        potluck::PotluckService host(daemonConfig(w));
        const uint64_t t = nowNs();
        TieredStore st(sc);
        st.attach(host);
        facts.restart_ms = static_cast<double>(nowNs() - t) * 1e-6;
        recovered = st.recovery().records;
        st.close();
    }
    if (recovered != puts_made)
        violations.push_back("store: reopen recovered " +
                             std::to_string(recovered) + " of " +
                             std::to_string(puts_made) + " records");
    std::filesystem::remove_all(sc.dir);
    return facts;
}

/**
 * What PotluckClient::lookup adds around the service when bound to it
 * in-process (client API, request/reply objects, AppListener dispatch;
 * no codec, no transport): loopback lookups and direct service lookups
 * of the same keys, alternated, on a small service of the workload's
 * index kind. Returns the difference of the medians in microseconds.
 */
double
timeClientDispatch(const Workload &w, const RoundResult &r, SpanLog &spans)
{
    constexpr size_t kKeys = 64, kLookups = 4000;
    auto svc = makeService(w);
    std::vector<uint32_t> keys;
    for (const Event &e : r.log) {
        if (e.kind == Event::Put && keys.size() < kKeys) {
            keys.push_back(e.key);
            svc->put(w.function, w.key_type, w.keys[e.key], e.value);
        }
    }
    potluck::PotluckClient client(w.apps[0], *svc);
    for (size_t i = 0; i < kLookups; ++i) {
        const FeatureVector &key = w.keys[keys[i % keys.size()]];
        {
            SpanLog::Scope s(spans, "ipc.client_loopback");
            client.lookup(w.function, w.key_type, key);
        }
        SpanLog::Scope s(spans, "core.service.direct_lookup");
        svc->lookup(w.apps[0], w.function, w.key_type, key);
    }
    return (median(spans.perCallNs("ipc.client_loopback")) -
            median(spans.perCallNs("core.service.direct_lookup"))) *
           1e-3;
}

/** The round's keys replayed, in operation order, into a standalone
 * index of the workload's kind (no eviction). */
size_t
replayIndex(const Workload &w, const RoundResult &r, SpanLog &spans)
{
    auto index = potluck::makeIndex(w.index_kind, w.metric, 1);
    potluck::EntryId next = 1;
    for (const Event &e : r.log) {
        if (e.kind == Event::Put) {
            SpanLog::Scope s(spans, "core.index.insert");
            index->insert(next++, w.keys[e.key]);
        } else if (e.kind == Event::Answer) {
            SpanLog::Scope s(spans, "core.index.nearest");
            index->nearest(w.keys[e.key], 1);
        }
    }
    return index->size();
}

void
timeFeatures(const Workload &w, uint64_t seed, SpanLog &spans)
{
    constexpr size_t kImages = 2000;
    potluck::DownsampleExtractor extractor(w.extract_w, w.extract_h, true);
    for (size_t i = 0; i < w.images.size() && i < kImages; ++i) {
        SpanLog::Scope s(spans, "features.extract");
        extractor.extract(w.images[i]);
    }
    constexpr uint32_t kPairs = 100;
    potluck::Rng rng(seed);
    double sink = 0.0;
    for (int b = 0; b < 300; ++b) {
        std::vector<std::pair<size_t, size_t>> pairs;
        for (uint32_t i = 0; i < kPairs; ++i)
            pairs.push_back({rng.uniformInt(0, w.keys.size() - 1),
                             rng.uniformInt(0, w.keys.size() - 1)});
        SpanLog::Scope s(spans, "features.distance", kPairs);
        for (const auto &[a, c] : pairs)
            sink += potluck::distance(w.keys[a], w.keys[c], w.metric);
    }
    if (sink < 0)
        std::cerr << sink;
}

void
timeSpans(SpanLog &spans)
{
    constexpr uint32_t kPairs = 100;
    potluck::obs::FlightRecorder recorder;
    for (int b = 0; b < 300; ++b) {
        SpanLog::Scope s(spans, "obs.span_pair", kPairs);
        for (uint32_t i = 0; i < kPairs; ++i) {
            potluck::obs::TraceScope root(&recorder, "bench.root", {},
                                          potluck::obs::kProcService);
            potluck::obs::TracedSpan child("bench.child", nullptr);
        }
    }
}

/**
 * Spans the daemon's flight recorder holds per single lookup, with
 * every trace kept (--trace-sample-prob 1): a short run of the
 * workload's first keys against a daemon of its own.
 */
double
spansPerLookup(const Workload &w, const std::string &daemon_binary,
               const RoundResult &r, std::vector<std::string> &violations)
{
    constexpr size_t kPuts = 64, kLookups = 128;
    std::vector<std::string> args;
    for (const std::string &a : w.daemon_args)
        args.push_back(a == "{store}" ? "spans_store" : a);
    args.insert(args.end(), {"--trace-sample-prob", "1"});
    double per_lookup = 0.0;
    {
        Daemon daemon(daemon_binary, "spans.sock", args, "potluckd.log");
        potluck::RetryPolicy policy;
        policy.degraded_mode = false;
        potluck::TransportOptions transport;
        transport.try_shm = w.use_shm;
        potluck::PotluckClient client(w.apps[0], "spans.sock", policy, {},
                                      transport);
        client.registerFunction(w.function, w.key_type, w.metric,
                                w.index_kind);
        std::vector<uint32_t> keys;
        for (const Event &e : r.log) {
            if (e.kind == Event::Put && keys.size() < kPuts)
                keys.push_back(e.key);
        }
        for (uint32_t k : keys)
            client.put(w.function, w.key_type, w.keys[k], w.truth[k]);
        for (size_t i = 0; i < kLookups; ++i)
            client.lookup(w.function, w.key_type, w.keys[keys[i % keys.size()]]);
        // Trace ids of service-side lookups, then every span of them.
        if (w.use_shm) {
            const std::string shm =
                shmShortfall(client.fetchMetrics().snapshot, 1);
            if (!shm.empty())
                violations.push_back(shm);
        }
        std::vector<potluck::obs::TraceRecord> recs = client.fetchTrace();
        std::unordered_map<uint64_t, size_t> spans_of;
        for (const auto &rec : recs) {
            if (rec.kind == potluck::obs::RecordKind::Span &&
                std::string(rec.name) == "service.lookup")
                spans_of[rec.trace_id] = 0;
        }
        for (const auto &rec : recs) {
            auto it = spans_of.find(rec.trace_id);
            if (rec.kind == potluck::obs::RecordKind::Span &&
                it != spans_of.end())
                ++it->second;
        }
        size_t total = 0;
        for (const auto &[id, n] : spans_of)
            total += n;
        per_lookup = spans_of.empty() ? 0.0
                                      : static_cast<double>(total) /
                                            static_cast<double>(spans_of.size());
    }
    std::filesystem::remove_all("spans_store");
    return per_lookup;
}

double
medianNs(const SpanLog &spans, const std::string &name)
{
    return median(spans.perCallNs(name));
}

} // namespace

int
runTraced(const Workload &w, const std::string &daemon, uint64_t seed,
          uint64_t t0_ns)
{
    // The daemon round: counters, memory, the client-observed lookups
    // and the operation log every replay below reuses. It follows the
    // same warm-up as the end-to-end runs; the warm-up rounds are
    // checked but not reported.
    std::vector<std::string> warmup_violations;
    int round = 0;
    for (double warmup_s = 0.0; warmup_s < kWarmupSeconds; ++round) {
        RoundResult warm = runRound(w, daemon, round, t0_ns);
        t0_ns = nowNs();
        warmup_s += warm.timed_s;
        for (const std::string &v : warm.violations)
            warmup_violations.push_back("warm-up round " +
                                        std::to_string(round) + ": " + v);
    }
    RoundResult r = runRound(w, daemon, round, t0_ns);
    const std::vector<Op> ops = timedOps(r);

    SpanLog spans;
    std::vector<double> request_bytes, reply_bytes;
    timeCodec(w, ops, spans, request_bytes, reply_bytes);

    // The transport at the median single-lookup request and reply size.
    std::vector<double> lookup_req, lookup_rep;
    for (const Op &op : ops) {
        if (op.kind != StepKind::Lookup)
            continue;
        auto [req, rep] = wireMessages(w, op);
        lookup_req.push_back(static_cast<double>(potluck::requestWireSize(req)));
        lookup_rep.push_back(static_cast<double>(potluck::replyWireSize(rep)));
    }
    std::vector<std::string> violations = r.violations;
    violations.insert(violations.end(), warmup_violations.begin(),
                      warmup_violations.end());
    if (!timeTransport(w, static_cast<size_t>(median(lookup_req)),
                       static_cast<size_t>(median(lookup_rep)), spans))
        violations.push_back("shm: the echo peer declined the ring");

    replayService(w, r, ops, spans);
    StoreFacts store;
    if (w.kill_and_restart) {
        store.restart_ms = r.restart_s * 1e3;
        store.bytes_per_user_byte =
            r.user_bytes ? static_cast<double>(r.store_disk_bytes) /
                               static_cast<double>(r.user_bytes)
                         : 0.0;
    } else {
        store = standaloneStore(w, r, spans, violations);
    }
    const double dispatch_us = timeClientDispatch(w, r, spans);
    const size_t index_entries = replayIndex(w, r, spans);
    timeFeatures(w, seed, spans);
    timeSpans(spans);
    const double spans_per_lookup = spansPerLookup(w, daemon, r, violations);
    spans.write("spans.jsonl");

    Report report;
    report.correct = r.correct && violations.empty();
    report.attempted = r.key_ops;
    report.failed = r.failed;
    for (const std::string &v : violations)
        std::cerr << "e2e: " << v << "\n";

    const char *codec[] = {"lookup", "mget", "put"};
    for (const char *kind : codec) {
        for (const char *dir : {"encode", "decode"}) {
            const std::string name =
                std::string("ipc.codec.") + kind + "_" + dir;
            report.add(name + "_ns", medianNs(spans, name), "ns");
        }
    }
    const double rt_us = medianNs(spans, "ipc.transport.rt") * 1e-3;
    report.add("ipc.transport.rt_us", rt_us, "us");
    report.add("ipc.client_dispatch_us", dispatch_us, "us");
    report.add("ipc.request_bytes", median(request_bytes), "B");
    report.add("ipc.reply_bytes", median(reply_bytes), "B");
    const potluck::obs::HistogramSnapshot *daemon_lookup =
        r.snapshot.findHistogram("lookup.total_ns");
    report.add("ipc.daemon_lookup_p50_us",
               daemon_lookup ? daemon_lookup->percentile(50) * 1e-3 : 0.0,
               "us");

    const double service_lookup_us =
        medianNs(spans, "core.service.lookup") * 1e-3;
    report.add("core.service.lookup_us", service_lookup_us, "us");
    report.add("core.service.put_us", medianNs(spans, "core.service.put") * 1e-3,
               "us");
    report.add("core.service.mget_item_us",
               medianNs(spans, "core.service.mget") * 1e-3, "us");
    report.add("core.index.insert_us",
               medianNs(spans, "core.index.insert") * 1e-3, "us");
    report.add("core.index.nearest_us",
               medianNs(spans, "core.index.nearest") * 1e-3, "us");
    report.add("core.index.entries_at_end", static_cast<double>(index_entries),
               "count");
    report.add("core.hits", static_cast<double>(r.stats.hits), "count");
    report.add("core.misses", static_cast<double>(r.stats.misses), "count");
    report.add("core.dropouts", static_cast<double>(r.stats.dropouts), "count");
    report.add("core.evictions", static_cast<double>(r.stats.evictions),
               "count");
    report.add("core.tighten_events",
               static_cast<double>(r.stats.tighten_events), "count");
    report.add("core.loosen_events", static_cast<double>(r.stats.loosen_events),
               "count");
    report.add("core.cross_app_hits", static_cast<double>(r.cross_app_hits),
               "count");
    report.add("core.wrong_hits", static_cast<double>(r.wrong_hits), "count");
    report.add("core.rss_bytes_per_entry",
               r.daemon.entries
                   ? static_cast<double>(r.rss_end_kb - r.rss_ready_kb) *
                         1024.0 / static_cast<double>(r.daemon.entries)
                   : 0.0,
               "B");

    report.add("features.extract_us",
               medianNs(spans, "features.extract") * 1e-3, "us");
    report.add("features.distance_ns", medianNs(spans, "features.distance"),
               "ns");

    report.add("store.admit_us", medianNs(spans, "store.admit") * 1e-3, "us");
    report.add("store.demote_us", medianNs(spans, "store.demote") * 1e-3, "us");
    report.add("store.promote_us", medianNs(spans, "store.promote") * 1e-3,
               "us");
    // The daemon's own store counters: zero where it runs without one.
    report.add("store.promotions",
               static_cast<double>(r.snapshot.counterValue("store.promotions")),
               "count");
    report.add("store.demotions",
               static_cast<double>(r.snapshot.counterValue("store.demotions")),
               "count");
    report.add("store.recovered_records", static_cast<double>(r.recovered),
               "count");
    report.add("store.warm_restart_ms", store.restart_ms, "ms");
    report.add("store.bytes_per_user_byte", store.bytes_per_user_byte,
               "ratio");

    report.add("obs.span_pair_ns", medianNs(spans, "obs.span_pair"), "ns");
    report.add("obs.spans_per_lookup", spans_per_lookup, "count");

    std::map<std::string, double> self = spans.selfMsByLayer();
    for (const char *layer : {"ipc", "core", "features", "store", "obs"})
        report.add(std::string(layer) + ".self_ms", self[layer], "ms");

    // Independent-path cross-check on single lookups: the replay ran
    // the same lookups in the same order, so the two totals cover the
    // same work whatever the shape of the latency distribution.
    const double codec_us = (medianNs(spans, "ipc.codec.lookup_encode") +
                             medianNs(spans, "ipc.codec.lookup_decode")) *
                            1e-3;
    const double fixed_us = codec_us + rt_us + dispatch_us;
    const std::vector<double> replayed_ns =
        spans.perCallNs("core.service.lookup");
    double observed_total_us = 0.0, layer_total_us = 0.0;
    for (double us : r.lookup_us)
        observed_total_us += us;
    for (double ns : replayed_ns)
        layer_total_us += fixed_us + ns * 1e-3;
    const double ratio =
        observed_total_us > 0 ? layer_total_us / observed_total_us : 0.0;
    report.add("ipc.layer_sum_over_observed", ratio, "ratio");
    const bool agree = replayed_ns.size() == r.lookup_us.size() &&
                       std::fabs(ratio - 1.0) <= kCrossCheckTolerance;
    std::cerr << "e2e: cross-check " << w.name << ": " << r.lookup_us.size()
              << " single lookups observed in " << observed_total_us * 1e-3
              << " ms; per lookup codec " << codec_us << " + transport "
              << rt_us << " + client/dispatch " << dispatch_us
              << " us, service replay " << replayed_ns.size()
              << " lookups; layer total " << layer_total_us * 1e-3
              << " ms; ratio " << ratio
              << (agree ? " (agrees" : " (DISAGREES") << " within +/-"
              << kCrossCheckTolerance * 100 << "%)\n";
    report.print(std::cout);
    return 0;
}

} // namespace e2e
