// serve_chat and serve_diag: the cluster serving simulator driven by
// an open-loop request stream that the benchmark generates from its
// seed and hands over as an explicit trace (arrival in virtual time,
// prompt and output lengths), so the program never sees the seed.
#include "common.hpp"

#include "collective/api.hpp"
#include "fabric/env.hpp"
#include "gpu/machine.hpp"
#include "serving/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <set>

namespace perfbench {
namespace {

using namespace mscclpp;
using namespace mscclpp::serving;

/** Traffic shape: open loop, arrivals in virtual time. */
struct Traffic
{
    int requests = 0;
    double ratePerSec = 0;
    bool bursty = false;
    /// Bursty: the on-phase runs at ratePerSec x burstFactor for
    /// burstDuty of every burstPeriodSec; the mean rate is ratePerSec.
    double burstFactor = 4.0;
    double burstPeriodSec = 0.5;
    double burstDuty = 0.25;
    /// Independent streams of `requests` each, served one after
    /// another on fresh clusters and pooled.
    int streams = 1;
};

/**
 * The open-loop request stream as a trace spec
 * ("at_us:prompt:output;..."): exponential gaps (Poisson, or Poisson
 * within the on-phases of a bursty cycle) and the length mix, drawn
 * by stratified sampling so that a few hundred requests already have
 * the stream's intended rate and mix whatever the seed.
 */
std::string
generateTrace(const Traffic& t, std::uint64_t seed, const std::string& tag)
{
    std::mt19937_64 rng = seededRng(seed, tag);
    const std::vector<double> gaps = stratified(rng, t.requests);
    const std::vector<Lengths> lengths =
        sampleLengths(rng, t.requests, /*stratifyWithinClass=*/true);
    const double rate = t.bursty ? t.ratePerSec * t.burstFactor : t.ratePerSec;
    const double onLen = t.burstPeriodSec * t.burstDuty;
    double onTime = 0;
    std::string out;
    for (std::size_t i = 0; i < gaps.size(); ++i) {
        onTime += -std::log1p(-gaps[i]) / rate;
        double at = onTime;
        if (t.bursty) {
            // Map on-phase time onto the wall clock: whole on-phases
            // completed, plus the offset into the current one.
            const double cycles = std::floor(onTime / onLen);
            at = cycles * t.burstPeriodSec + (onTime - cycles * onLen);
        }
        out += std::to_string(static_cast<std::uint64_t>(at * 1e6)) + ":" +
               std::to_string(lengths[i].prompt) + ":" +
               std::to_string(lengths[i].output);
        if (i + 1 < gaps.size()) {
            out += ';';
        }
    }
    return out;
}

/** Regular files in the working directory, where the obs dumps land. */
std::set<std::filesystem::path>
listFiles()
{
    std::set<std::filesystem::path> out;
    for (const auto& e : std::filesystem::directory_iterator(".")) {
        if (e.is_regular_file()) {
            out.insert(e.path());
        }
    }
    return out;
}

/** Link degradations and recoveries the SLO monitor stamped. */
double
faultStamps(const ServingCluster& cluster)
{
    if (!cluster.slomon().enabled()) {
        return 0;
    }
    const std::string json = cluster.slomon().toJson();
    const std::size_t begin = json.find("\"faults\": [");
    const std::size_t end = json.find(']', begin);
    double n = 0;
    for (std::size_t at = json.find("\"replica\"", begin);
         begin != std::string::npos && at < end;
         at = json.find("\"replica\"", at + 1)) {
        ++n;
    }
    return n;
}

/**
 * The TP AllReduce grid (1 KiB..64 MiB) on one replica-sized node of
 * the serving environment, tuned like the replicas. Gives the
 * collective metrics their meaning on a serving workload; runs after
 * the timed phase, on its own machine so it cannot change what the
 * timed phase does.
 */
void
fabricProbe(fabric::EnvConfig env, std::uint64_t seed, Rep& rep)
{
    env.simprofEnabled = false;
    env.metricsEnabled = false;
    gpu::Machine m(env, 1, gpu::DataMode::Timed);
    CollectiveComm::Options opt;
    opt.maxBytes = 64u << 20;
    opt.tunerCacheFile = "";
    CollectiveComm comm(m, opt);
    std::mt19937_64 rng = seededRng(seed, "serving.fabric_probe");
    std::vector<double> small;
    std::vector<double> large;
    for (std::size_t bytes :
         jitteredGrid(rng, static_cast<std::size_t>(comm.size()) * 64)) {
        const double us = sim::toUs(
            comm.allReduce(bytes, gpu::DataType::F16, gpu::ReduceOp::Sum));
        rep.sim["probe.allreduce." + std::to_string(bytes)] = us;
        if (bytes <= (64u << 10)) {
            small.push_back(us);
        }
        if (bytes >= (1u << 20) / 8 * 7) {
            large.push_back(static_cast<double>(bytes) / us / 1e3);
        }
    }
    rep.sim["coll_small_us"] = geomean(small);
    rep.sim["coll_large_gbps"] = geomean(large);
}

/** What the streams of one rep add up to. */
struct Pool
{
    std::vector<RequestStats> requests; ///< every stream's requests
    std::uint64_t sent = 0;
    sim::Time makespan = 0; ///< sum of the streams' makespans
    std::uint64_t prefillSteps = 0;
    std::uint64_t decodeSteps = 0;
    std::uint64_t migrations = 0;
    std::uint64_t planHits = 0;
    std::uint64_t planLookups = 0;
    double traceEvents = 0;
    double profilePoints = 0;
    double faults = 0;
    double dumpBytes = 0;
    std::map<obs::ReqCategory, double> ttftBuckets;
    double ttftTotal = 0;
};

/**
 * One stream: build a cluster for @p trace (set-up), run it and tear
 * it down (timed), check its requests and add its counters to @p pool.
 */
void
serveStream(const RunArgs& args, Checks& checks, ServingConfig cfg,
            std::string trace, Rep& rep, Pool& pool)
{
    const std::set<std::filesystem::path> filesBefore = listFiles();
    {
        Timed t(args.spans, "request stream", &rep.setup);
        cfg.workload.mode = ArrivalMode::Trace;
        cfg.workload.trace = std::move(trace);
        cfg.validate();
    }
    std::unique_ptr<ServingCluster> cluster;
    {
        Timed t(args.spans, "ServingCluster", &rep.setup);
        cluster = std::make_unique<ServingCluster>(cfg);
    }
    std::vector<std::uint64_t> before;
    for (int i = 0; i < cluster->numReplicas(); ++i) {
        before.push_back(
            cluster->replica(i).machine().scheduler().eventsProcessed());
    }

    ServingReport report;
    {
        Timed t(args.spans, "ServingCluster::run", &rep.timed);
        report = cluster->run();
    }

    // ---- outputs and counters (untimed) -------------------------------
    const std::vector<RequestStats>& reqs = cluster->requests();
    const std::size_t sent = cluster->workload().size();
    checks.check(report.requests + report.dropped == sent,
                 "completed + dropped != sent");
    for (const RequestStats& r : reqs) {
        const bool ordered = r.dropped || (r.arrival <= r.firstToken &&
                                           r.firstToken <= r.completed);
        checks.check(ordered && !r.dropped,
                     "request " + std::to_string(r.id) +
                         (r.dropped ? " dropped" : " out of order"));
    }
    pool.requests.insert(pool.requests.end(), reqs.begin(), reqs.end());
    pool.sent += sent;
    pool.makespan += report.makespan;
    pool.prefillSteps += report.prefillSteps;
    pool.decodeSteps += report.decodeSteps;
    pool.migrations += report.migrations;

    for (int i = 0; i < cluster->numReplicas(); ++i) {
        gpu::Machine& m = cluster->replica(i).machine();
        rep.events += m.scheduler().eventsProcessed() - before[i];
        rep.maxQueueDepth = std::max<std::uint64_t>(
            rep.maxQueueDepth, m.scheduler().maxQueueDepth());
        obs::MetricsRegistry& reg = m.obs().metrics();
        const std::uint64_t hits = reg.counter("tuner.plan_cache.hit").value();
        pool.planHits += hits;
        pool.planLookups +=
            hits + reg.counter("tuner.plan_cache.miss").value();
        pool.traceEvents += static_cast<double>(m.obs().tracer().size());
        pool.profilePoints +=
            static_cast<double>(reg.counter("tuner.profile_points").value());
    }
    pool.faults += faultStamps(*cluster);
    const obs::RequestTracer& rt = cluster->reqtrace();
    if (rt.enabled()) {
        // Bucket shares of the worst-TTFT exemplars' first-token time.
        for (const obs::RequestTrace& t : rt.exemplars("ttft")) {
            for (obs::ReqCategory c : obs::kReqCategories) {
                pool.ttftBuckets[c] += static_cast<double>(t.ttftBucket(c));
            }
            pool.ttftTotal += static_cast<double>(t.ttft());
        }
    }
    {
        // Teardown writes the obs dumps, so it is part of the timed
        // phase (obs cost includes the files it writes).
        Timed t(args.spans, "ServingCluster::~ServingCluster", &rep.timed);
        cluster.reset();
    }
    // The dumps this stream wrote: measured, then deleted unless the
    // traced run keeps them for its per-layer numbers.
    for (const std::filesystem::path& f : listFiles()) {
        if (filesBefore.count(f) == 0) {
            pool.dumpBytes += static_cast<double>(std::filesystem::file_size(f));
            if (args.mode != Mode::Traced) {
                std::filesystem::remove(f);
            }
        }
    }
}

/**
 * Serve @p traffic as traffic.streams independent streams, each on a
 * cluster of its own, and report them as one pooled sample: latency
 * percentiles over every request, throughput over the summed
 * makespans.
 */
Rep
serve(const RunArgs& args, Checks& checks, ServingConfig cfg,
      const Traffic& traffic, const char* tag)
{
    Rep rep;
    if (args.mode == Mode::Traced) {
        cfg.env.simprofEnabled = true;
        cfg.env.metricsEnabled = true;
    }
    if (args.mode == Mode::ObsOn) {
        cfg.reqtrace = true;
        cfg.slomon = true;
        cfg.env.metricsEnabled = true;
    }
    cfg.backend = inference::CommBackend::Mscclpp;
    Pool pool;
    for (int s = 0; s < traffic.streams; ++s) {
        serveStream(args, checks, cfg,
                    generateTrace(traffic, args.seed,
                                  std::string(tag) + "." + std::to_string(s)),
                    rep, pool);
    }

    const ServingReport all =
        summarize(pool.requests, cfg.sloTtft, cfg.sloTpot);
    std::uint64_t met = 0;
    std::uint64_t outputTokens = 0;
    std::uint64_t decodeTokens = 0;
    for (const RequestStats& r : pool.requests) {
        if (!r.dropped) {
            met += (r.ttft() <= cfg.sloTtft && r.tpot() <= cfg.sloTpot) ? 1 : 0;
            outputTokens += static_cast<std::uint64_t>(r.outputLen);
            decodeTokens += static_cast<std::uint64_t>(
                r.outputLen > 1 ? r.outputLen - 1 : 0);
        }
    }
    rep.sim["ttft_p50_ms"] = sim::toMs(all.ttftP50);
    rep.sim["ttft_p90_ms"] = sim::toMs(all.ttftP90);
    rep.sim["ttft_p99_ms"] = sim::toMs(all.ttftP99);
    rep.sim["tpot_p50_ms"] = sim::toMs(all.tpotP50);
    rep.sim["tpot_p90_ms"] = sim::toMs(all.tpotP90);
    rep.sim["tpot_p99_ms"] = sim::toMs(all.tpotP99);
    rep.sim["tok_per_s"] = pool.makespan > 0
                               ? static_cast<double>(outputTokens) /
                                     sim::toSec(pool.makespan)
                               : 0;
    rep.sim["slo_attain"] = pool.sent > 0 ? static_cast<double>(met) /
                                                static_cast<double>(pool.sent)
                                          : 0;
    rep.sim["makespan_ms"] = sim::toMs(pool.makespan);
    for (const auto& [c, ns] : pool.ttftBuckets) {
        rep.sim[std::string("reqtrace.") + obs::toString(c) + "_share"] =
            pool.ttftTotal > 0 ? ns / pool.ttftTotal : 0;
    }

    const std::uint64_t steps = pool.prefillSteps + pool.decodeSteps;
    rep.layers["serving.sent"] = static_cast<double>(pool.sent);
    rep.layers["serving.completed"] = static_cast<double>(all.requests);
    rep.layers["serving.dropped"] = static_cast<double>(all.dropped);
    rep.layers["serving.preemptions"] = static_cast<double>(all.preemptions);
    rep.layers["serving.migrations"] = static_cast<double>(pool.migrations);
    rep.layers["inference.steps"] = static_cast<double>(steps);
    rep.layers["inference.host_us_per_step"] =
        steps > 0 ? rep.timed.hostS * 1e6 / static_cast<double>(steps) : 0;
    rep.layers["inference.decode_batch_mean"] =
        pool.decodeSteps > 0 ? static_cast<double>(decodeTokens) /
                                   static_cast<double>(pool.decodeSteps)
                             : 0;
    rep.layers["tuner.profile_points"] = pool.profilePoints;
    rep.layers["fabric.faults"] = pool.faults;
    rep.layers["tuner.plan_cache_hit_ratio"] =
        pool.planLookups > 0 ? static_cast<double>(pool.planHits) /
                                   static_cast<double>(pool.planLookups)
                             : 0;
    rep.layers["obs.trace_events"] = pool.traceEvents;
    rep.layers["obs.dump_mb"] = pool.dumpBytes / (1024.0 * 1024.0);
    fabricProbe(cfg.env, args.seed, rep);
    return rep;
}

} // namespace

Rep
runServeChat(const RunArgs& args, Checks& checks)
{
    ServingConfig cfg;
    cfg.env = fabric::makeA100_80G();
    // Each replica profiles its collectives when it is built, as a
    // deployment would: the set-up phase then does real work.
    cfg.env.tunerMode = "profile";
    cfg.replicas = 2;
    // 1536 requests as four streams of 384: four shorter timed calls
    // give the per-call minimum more chances to land in a quiet moment
    // of a shared host than one long call, and four cluster builds make
    // set-up real work. At 3 req/s the backlog stays flat, so a stream
    // of 384 (128 s of virtual time) is past its start-up in seconds.
    Traffic t;
    t.requests = 384;
    t.streams = 4;
    t.ratePerSec = 3.0;
    return serve(args, checks, cfg, t, "serve_chat");
}

Rep
runServeDiag(const RunArgs& args, Checks& checks)
{
    ServingConfig cfg;
    cfg.env = fabric::makeH100();
    cfg.replicas = 3;
    cfg.prefillReplicas = 1;
    cfg.faults.push_back(FaultSpec{1, "gpu3.tx", 0.15, 40, 160});
    Traffic t;
    t.requests = 100;
    t.ratePerSec = 6.0;
    t.bursty = true;
    return serve(args, checks, cfg, t, "serve_diag");
}

} // namespace perfbench
