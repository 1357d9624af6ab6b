// coll_grid: every collective the library offers for inference
// (AllReduce, AllGather, ReduceScatter) over 1 KiB..64 MiB on three
// environments, plus the matching DSL programs, each cell run once.
// Cells up to 1 MiB on single-node environments run in Functional
// mode and are checked bit for bit against a host reference.
#include "common.hpp"

#include "collective/api.hpp"
#include "dsl/algorithms.hpp"
#include "dsl/executor.hpp"
#include "fabric/env.hpp"
#include "gpu/machine.hpp"
#include "inference/llm.hpp"
#include "serving/stats.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <memory>
#include <string>

namespace perfbench {
namespace {

using namespace mscclpp;
using gpu::DataMode;
using gpu::DataType;
using gpu::ReduceOp;

constexpr std::size_t kFunctionalMax = 1u << 20;
constexpr std::size_t kGridMax = 64u << 20;

enum class Op
{
    AllReduce,
    AllGather,
    ReduceScatter,
};

const char*
opName(Op op)
{
    switch (op) {
      case Op::AllReduce:
        return "allreduce";
      case Op::AllGather:
        return "allgather";
      case Op::ReduceScatter:
        return "reducescatter";
    }
    return "?";
}

/** Machine config with the traced run's dump names for @p tag. */
fabric::EnvConfig
envFor(fabric::EnvConfig env, const std::string& tag, Mode mode)
{
    if (mode == Mode::Traced) {
        env.simprofEnabled = true;
        env.metricsEnabled = true;
        env.simprofFile = tag + ".simprof.json";
        env.metricsFile = tag + ".metrics.json";
        env.traceFile = tag + ".trace.json";
    }
    return env;
}

/** One machine with its communicator, built in the set-up phase. */
struct Node
{
    std::unique_ptr<gpu::Machine> machine;
    std::unique_ptr<CollectiveComm> comm;
    std::uint64_t eventsBefore = 0;
};

Node
buildNode(const std::string& tag, const fabric::EnvConfig& env, int nodes,
          DataMode mode, std::size_t maxBytes, const char* tunerMode,
          const RunArgs& args, Rep& rep)
{
    Node n;
    {
        Timed t(args.spans, "Machine", &rep.setup);
        n.machine = std::make_unique<gpu::Machine>(envFor(env, tag, args.mode),
                                                   nodes, mode);
    }
    CollectiveComm::Options opt;
    opt.maxBytes = maxBytes;
    opt.tunerMode = tunerMode;
    opt.tunerCacheFile = "";
    Timed t(args.spans, "CollectiveComm", &rep.setup);
    n.comm = std::make_unique<CollectiveComm>(*n.machine, opt);
    rep.layers["tuner.setup_ms"] += t.elapsed() * 1e3;
    return n;
}

// ---- Functional inputs and host references (F16 small integers, so
// ---- every sum is exact and the check can be bit for bit) ------------

/** Seeded F16 inputs 0..31: five bits of a 64-bit draw each. */
void
fillInputs(gpu::DeviceBuffer b, std::size_t bytes, std::mt19937_64& rng)
{
    static const std::array<std::uint16_t, 32> kHalf = [] {
        std::array<std::uint16_t, 32> h{};
        for (std::size_t v = 0; v < h.size(); ++v) {
            h[v] = gpu::Half(static_cast<float>(v)).bits;
        }
        return h;
    }();
    std::uint16_t* p = b.as<std::uint16_t>();
    std::uint64_t word = 0;
    for (std::size_t i = 0; i < bytes / 2; ++i) {
        if (i % 12 == 0) {
            word = rng();
        }
        p[i] = kHalf[(word >> (5 * (i % 12))) & 31];
    }
}

/**
 * Seed the inputs of @p op over @p bytes on every rank and compute the
 * host reference from them; @return a checker that compares every
 * rank's output with it afterwards.
 */
std::function<bool()>
prepareCheck(Op op, const std::vector<gpu::DeviceBuffer>& bufs,
             std::size_t bytes, std::mt19937_64& rng)
{
    const std::size_t n = bufs.size();
    const std::size_t elems = bytes / 2;
    const std::size_t shard = elems / n;
    for (const gpu::DeviceBuffer& b : bufs) {
        fillInputs(b, bytes, rng);
    }
    // AllGather: rank src's shard of its own input lands at the same
    // offset on every rank. AllReduce and ReduceScatter: the sum.
    std::vector<std::uint16_t> ref(elems);
    if (op == Op::AllGather) {
        for (std::size_t src = 0; src < n; ++src) {
            const std::uint16_t* p = bufs[src].as<std::uint16_t>();
            std::copy(p + src * shard, p + (src + 1) * shard,
                      ref.begin() + static_cast<std::ptrdiff_t>(src * shard));
        }
    } else {
        for (std::size_t i = 0; i < elems; ++i) {
            float sum = 0;
            for (const gpu::DeviceBuffer& b : bufs) {
                sum += gpu::Half::toFloat(b.as<std::uint16_t>()[i]);
            }
            ref[i] = gpu::Half(sum).bits;
        }
    }
    return [op, bufs, ref = std::move(ref), n, shard] {
        for (std::size_t r = 0; r < n; ++r) {
            // ReduceScatter defines only rank r's own shard.
            const std::size_t first = op == Op::ReduceScatter ? r * shard : 0;
            const std::size_t last =
                op == Op::ReduceScatter ? (r + 1) * shard : n * shard;
            const std::uint16_t* p = bufs[r].as<std::uint16_t>();
            if (!std::equal(p + first, p + last,
                            ref.begin() + static_cast<std::ptrdiff_t>(first))) {
                return false;
            }
        }
        return true;
    };
}

std::vector<gpu::DeviceBuffer>
dataBuffers(const CollectiveComm& c)
{
    std::vector<gpu::DeviceBuffer> out;
    for (int r = 0; r < c.size(); ++r) {
        out.push_back(c.dataBuffer(r));
    }
    return out;
}

std::vector<gpu::DeviceBuffer>
dataBuffers(const dsl::Executor& e)
{
    std::vector<gpu::DeviceBuffer> out;
    for (int r = 0; r < e.size(); ++r) {
        out.push_back(e.dataBuffer(r));
    }
    return out;
}

sim::Time
runOp(CollectiveComm& c, Op op, std::size_t bytes)
{
    const std::size_t n = static_cast<std::size_t>(c.size());
    switch (op) {
      case Op::AllReduce:
        return c.allReduce(bytes, DataType::F16, ReduceOp::Sum);
      case Op::AllGather:
        return c.allGather(bytes / n);
      case Op::ReduceScatter:
        return c.reduceScatter(bytes, DataType::F16, ReduceOp::Sum);
    }
    return 0;
}

std::string
cellKey(const std::string& tag, const char* what, std::size_t bytes)
{
    return "cell." + tag + "." + what + "." + std::to_string(bytes);
}

/**
 * Isolated-request LLM latency on one A100-40G node (Fig 10's method:
 * a prefill, then one decode step at the mid-output context, per
 * request of the serving length mix, no queueing). Gives the serving
 * metrics their meaning on a workload with no request stream; runs
 * after the timed phase. 1024 requests leave 10 samples beyond p99.
 */
void
inferenceProbe(const RunArgs& args, Rep& rep)
{
    gpu::Machine m(fabric::makeA100_40G(), 1, DataMode::Timed);
    inference::InferenceSim llm(m, inference::InferenceConfig{});
    std::mt19937_64 rng = seededRng(args.seed, "coll_grid.llm");
    const sim::Time sloTtft = sim::msec(2000);
    const sim::Time sloTpot = sim::msec(200);
    std::vector<sim::Time> ttft;
    std::vector<sim::Time> tpot;
    double tokens = 0;
    double busyMs = 0;
    int met = 0;
    const int kRequests = 1024;
    for (const Lengths& l :
         sampleLengths(rng, kRequests, /*stratifyWithinClass=*/false)) {
        const sim::Time first =
            llm.prefill(1, l.prompt, inference::CommBackend::Mscclpp).total();
        const sim::Time step =
            llm.decodeStep(1, l.prompt + l.output / 2,
                           inference::CommBackend::Mscclpp)
                .total();
        ttft.push_back(first);
        tpot.push_back(step);
        tokens += l.output;
        busyMs += sim::toMs(first) + sim::toMs(step) * (l.output - 1);
        met += (first <= sloTtft && step <= sloTpot) ? 1 : 0;
    }
    rep.sim["ttft_p50_ms"] = sim::toMs(serving::percentile(ttft, 0.50));
    rep.sim["ttft_p90_ms"] = sim::toMs(serving::percentile(ttft, 0.90));
    rep.sim["ttft_p99_ms"] = sim::toMs(serving::percentile(ttft, 0.99));
    rep.sim["tpot_p50_ms"] = sim::toMs(serving::percentile(tpot, 0.50));
    rep.sim["tpot_p90_ms"] = sim::toMs(serving::percentile(tpot, 0.90));
    rep.sim["tpot_p99_ms"] = sim::toMs(serving::percentile(tpot, 0.99));
    rep.sim["tok_per_s"] = tokens / (busyMs * 1e-3);
    rep.sim["slo_attain"] = static_cast<double>(met) / kRequests;
}

} // namespace

Rep
runCollGrid(const RunArgs& args, Checks& checks)
{
    Rep rep;

    // ---- set-up: machines, communicators, tuner profiling ---------------
    std::vector<Node> nodes;
    nodes.push_back(buildNode("a100_8n", fabric::makeA100_40G(), 8,
                              DataMode::Timed, kGridMax, "profile", args,
                              rep));
    for (auto [tag, env] :
         {std::pair{"h100", fabric::makeH100()},
          std::pair{"mi300x", fabric::makeMI300x()}}) {
        nodes.push_back(buildNode(std::string(tag) + "_func", env, 1,
                                  DataMode::Functional, kFunctionalMax,
                                  "profile", args, rep));
        nodes.push_back(buildNode(std::string(tag) + "_timed", env, 1,
                                  DataMode::Timed, kGridMax, "profile", args,
                                  rep));
    }
    // The DSL leg and its library twin share one Functional A100 node;
    // algorithms are explicit there, so the tuner stays static.
    Node dslNode = buildNode("a100_dsl", fabric::makeA100_40G(), 1,
                             DataMode::Functional, kFunctionalMax, "static",
                             args, rep);
    std::unique_ptr<dsl::Executor> executor;
    {
        Timed t(args.spans, "Executor", &rep.setup);
        executor =
            std::make_unique<dsl::Executor>(*dslNode.machine, kFunctionalMax);
    }
    for (Node& n : nodes) {
        n.eventsBefore = n.machine->scheduler().eventsProcessed();
    }
    dslNode.eventsBefore = dslNode.machine->scheduler().eventsProcessed();

    // ---- timed phase: every grid cell once --------------------------------
    std::mt19937_64 data = seededRng(args.seed, "coll_grid.data");
    std::vector<double> small;
    std::vector<double> large;
    std::map<Op, std::vector<double>> perOp;
    std::uint64_t calls = 0;
    double callHost = 0;
    struct EnvGrid
    {
        const char* tag;
        Node* functional;
        Node* timed;
    };
    const EnvGrid grids[] = {{"a100_8n", nullptr, &nodes[0]},
                             {"h100", &nodes[1], &nodes[2]},
                             {"mi300x", &nodes[3], &nodes[4]}};
    for (const EnvGrid& g : grids) {
        for (Op op : {Op::AllReduce, Op::AllGather, Op::ReduceScatter}) {
            const std::size_t ranks =
                static_cast<std::size_t>(g.timed->comm->size());
            std::mt19937_64 sizes =
                seededRng(args.seed, std::string(g.tag) + opName(op));
            for (std::size_t bytes : jitteredGrid(sizes, ranks * 64)) {
                Node& node = (g.functional != nullptr && bytes <= kFunctionalMax)
                                 ? *g.functional
                                 : *g.timed;
                std::function<bool()> verify;
                if (node.machine->dataMode() == DataMode::Functional) {
                    verify = prepareCheck(op, dataBuffers(*node.comm), bytes,
                                          data);
                }
                sim::Time lat = 0;
                std::string err;
                {
                    Timed t(args.spans, "collective", &rep.timed);
                    try {
                        lat = runOp(*node.comm, op, bytes);
                    } catch (const std::exception& e) {
                        err = e.what();
                    }
                    callHost += t.elapsed();
                    ++calls;
                }
                const std::string key = cellKey(g.tag, opName(op), bytes);
                checks.check(err.empty() && lat > 0,
                             key + (err.empty() ? " returned no time"
                                                : ": " + err));
                if (verify) {
                    checks.check(err.empty() && verify(),
                                 key + " output differs from reference");
                }
                if (!err.empty() || lat <= 0) {
                    continue;
                }
                const double us = sim::toUs(lat);
                rep.sim[key] = us;
                perOp[op].push_back(us);
                if (bytes <= (64u << 10)) {
                    small.push_back(us);
                }
                if (bytes >= (1u << 20) / 8 * 7) {
                    // bytes / us = MB/s; / 1e3 = GB/s.
                    large.push_back(static_cast<double>(bytes) / us / 1e3);
                }
            }
        }
    }

    // DSL programs and the library algorithm each one mirrors.
    struct DslCase
    {
        const char* name;
        Op op;
        AllReduceAlgo arAlgo;
        dsl::Program (*build)(int, std::size_t);
    };
    const DslCase dslCases[] = {
        {"ar_2pa_ll", Op::AllReduce, AllReduceAlgo::AllPairs2PLL,
         dsl::buildAllPairs2PAllReduceLL},
        {"ar_2pa_hb", Op::AllReduce, AllReduceAlgo::AllPairs2PHB,
         dsl::buildAllPairs2PAllReduceHB},
        {"ag_hb", Op::AllGather, AllReduceAlgo::Auto,
         dsl::buildAllPairsAllGather},
    };
    std::vector<double> overheads;
    double dslHost = 0;
    std::uint64_t dslRuns = 0;
    const int n = executor->size();
    for (const DslCase& c : dslCases) {
        std::mt19937_64 sizes = seededRng(args.seed, c.name);
        for (std::size_t bytes :
             jitteredGrid(sizes, static_cast<std::size_t>(n) * 64,
                          kFunctionalMax)) {
            const std::string key = cellKey("a100_dsl", c.name, bytes);
            const std::size_t arg =
                c.op == Op::AllGather ? bytes / static_cast<std::size_t>(n)
                                      : bytes;
            // Library twin.
            std::function<bool()> verify =
                prepareCheck(c.op, dataBuffers(*dslNode.comm), bytes, data);
            sim::Time lib = 0;
            std::string err;
            {
                Timed t(args.spans, "collective", &rep.timed);
                try {
                    lib = c.op == Op::AllGather
                              ? dslNode.comm->allGather(
                                    arg, AllGatherAlgo::AllPairsHB)
                              : dslNode.comm->allReduce(arg, DataType::F16,
                                                        ReduceOp::Sum,
                                                        c.arAlgo);
                } catch (const std::exception& e) {
                    err = e.what();
                }
                callHost += t.elapsed();
                ++calls;
            }
            checks.check(err.empty() && lib > 0 && verify(),
                         key + ".lib " + (err.empty() ? "wrong output" : err));
            // DSL program.
            verify = prepareCheck(c.op, dataBuffers(*executor), bytes, data);
            sim::Time prog = 0;
            err.clear();
            try {
                std::shared_ptr<const dsl::ExecutionPlan> plan;
                {
                    Timed t(args.spans, "Executor::prepare", &rep.timed);
                    plan = executor->prepare(c.build(n, arg));
                }
                Timed t(args.spans, "Executor::run", &rep.timed);
                prog = executor->run(*plan, DataType::F16, ReduceOp::Sum);
                dslHost += t.elapsed();
                ++dslRuns;
            } catch (const std::exception& e) {
                err = e.what();
            }
            checks.check(err.empty() && prog > 0 && verify(),
                         key + ".dsl " + (err.empty() ? "wrong output" : err));
            if (lib > 0 && prog > 0) {
                rep.sim[key + ".lib"] = sim::toUs(lib);
                rep.sim[key + ".dsl"] = sim::toUs(prog);
                overheads.push_back(100.0 * (static_cast<double>(prog) /
                                                 static_cast<double>(lib) -
                                             1.0));
            }
        }
    }

    // ---- results ----------------------------------------------------------
    nodes.push_back(std::move(dslNode));
    std::uint64_t hits = 0;
    std::uint64_t lookups = 0;
    double profilePoints = 0;
    for (Node& node : nodes) {
        sim::Scheduler& s = node.machine->scheduler();
        rep.events += s.eventsProcessed() - node.eventsBefore;
        rep.maxQueueDepth =
            std::max<std::uint64_t>(rep.maxQueueDepth, s.maxQueueDepth());
        hits += node.comm->planCache().hits();
        lookups += node.comm->planCache().hits() + node.comm->planCache().misses();
        profilePoints += static_cast<double>(
            node.machine->obs().metrics().counter("tuner.profile_points").value());
    }
    hits += executor->planCache().hits();
    lookups += executor->planCache().hits() + executor->planCache().misses();

    rep.sim["coll_small_us"] = geomean(small);
    rep.sim["coll_large_gbps"] = geomean(large);
    rep.sim["collective.allreduce_us"] = geomean(perOp[Op::AllReduce]);
    rep.sim["collective.allgather_us"] = geomean(perOp[Op::AllGather]);
    rep.sim["collective.reducescatter_us"] = geomean(perOp[Op::ReduceScatter]);
    double meanOver = 0;
    for (double o : overheads) {
        meanOver += o / static_cast<double>(overheads.size());
    }
    rep.sim["dsl.overhead_pct"] = meanOver;
    rep.layers["collective.calls"] = static_cast<double>(calls);
    rep.layers["collective.host_us_per_call"] =
        calls > 0 ? callHost * 1e6 / static_cast<double>(calls) : 0;
    rep.layers["dsl.host_us_per_run"] =
        dslRuns > 0 ? dslHost * 1e6 / static_cast<double>(dslRuns) : 0;
    rep.layers["tuner.profile_points"] = profilePoints;
    rep.layers["tuner.plan_cache_hit_ratio"] =
        lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                    : 0;

    executor.reset();
    nodes.clear();
    inferenceProbe(args, rep);
    return rep;
}

} // namespace perfbench
