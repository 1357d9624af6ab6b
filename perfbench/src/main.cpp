// perfbench: runs one workload through the simulator's public APIs
// and prints the raw measurements of every rep as one JSON object on
// stdout. run.py builds this binary, drives it and turns the reps into
// the benchmark's metrics.
//
//   perfbench --workload coll_grid|serve_chat --seed N --seconds S
//             --trace 0|1
//
// With --trace 0, reps of the plain (untraced) leg repeat until S
// seconds have passed (at least kMinReps). With --trace 1, each leg of
// the traced run (tracedLegs) runs once, in order. The working
// directory receives the obs dumps. A reference clock (RefClock) runs
// on a second thread for the whole process; each rep reports its
// metered calls' reference seconds per wall second (ref_rate).
#include "common.hpp"

#include <sys/resource.h>

#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

namespace {

using namespace perfbench;

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonMap(const std::map<std::string, double>& m)
{
    std::string out = "{";
    bool first = true;
    for (const auto& [k, v] : m) {
        out += (first ? "" : ", ") + jsonString(k) + ": " + num(v);
        first = false;
    }
    return out + "}";
}

std::string
jsonList(const std::vector<double>& v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        out += (i == 0 ? "" : ", ") + num(v[i]);
    }
    return out + "]";
}

std::string
repJson(const std::string& leg, const Rep& r)
{
    std::ostringstream o;
    o << "{\"leg\": " << jsonString(leg)
      << ", \"setup_calls\": " << jsonList(r.setup.callS)
      << ", \"host_s\": " << num(r.timed.hostS)
      << ", \"host_calls\": " << jsonList(r.timed.callS)
      << ", \"ref_rate\": "
      << num((r.setup.refS + r.timed.refS) / (r.setup.hostS + r.timed.hostS))
      << ", \"events\": " << r.events << ", \"allocs\": " << r.timed.allocs
      << ", \"alloc_bytes\": " << r.timed.allocBytes
      << ", \"frames\": " << r.timed.frames
      << ", \"max_queue_depth\": " << r.maxQueueDepth
      << ", \"sim\": " << jsonMap(r.sim)
      << ", \"layers\": " << jsonMap(r.layers) << "}";
    return o.str();
}

using RunFn = Rep (*)(const RunArgs&, Checks&);

/// Reps per untraced run, at least: the determinism check compares them.
constexpr int kMinReps = 2;

/** A leg of a traced run: which workload function, in which mode. */
struct Leg
{
    const char* name;
    RunFn run;
    Mode mode;
};

/**
 * The traced run: an untraced rep (the reference for the tracing
 * overhead), the traced rep, and on serve_chat serve_diag's
 * configuration with obs on and off (see perfbench/METRICS.md).
 */
std::vector<Leg>
tracedLegs(RunFn workload)
{
    std::vector<Leg> legs = {{"plain", workload, Mode::Plain},
                             {"traced", workload, Mode::Traced}};
    if (workload == runServeChat) {
        legs.push_back({"diag", runServeDiag, Mode::ObsOn});
        legs.push_back({"diag_obsoff", runServeDiag, Mode::Plain});
    }
    return legs;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 0;
    bool traced = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const std::string v = argv[i + 1];
        if (k == "--workload") {
            workload = v;
        } else if (k == "--seed") {
            seed = std::stoull(v);
        } else if (k == "--seconds") {
            seconds = std::stod(v);
        } else if (k == "--trace") {
            traced = v == "1";
        } else {
            std::fprintf(stderr, "perfbench: unknown argument %s\n", k.c_str());
            return 2;
        }
    }
    RunFn run = nullptr;
    if (workload == "coll_grid") {
        run = runCollGrid;
    } else if (workload == "serve_chat") {
        run = runServeChat;
    } else {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     workload.c_str());
        return 2;
    }

    const RefClock refClock;
    gRefClock = &refClock;
    Checks checks;
    std::vector<std::string> reps;
    try {
        if (!traced) {
            const Clock::time_point start = Clock::now();
            while (static_cast<int>(reps.size()) < kMinReps ||
                   secondsBetween(start, Clock::now()) < seconds) {
                const Rep r = run({seed, Mode::Plain, nullptr}, checks);
                reps.push_back(repJson("plain", r));
            }
        } else {
            for (const Leg& leg : tracedLegs(run)) {
                Spans spans;
                Rep r = leg.run({seed, leg.mode,
                                 leg.mode == Mode::Traced ? &spans : nullptr},
                                checks);
                if (leg.mode == Mode::Traced) {
                    spans.write("spans.json");
                }
                reps.push_back(repJson(leg.name, r));
            }
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }

    // The reference clock's state is resident throughout, so it sits in
    // the process's peak exactly once; the program's own peak is the rest.
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double peakRssMb =
        (static_cast<double>(ru.ru_maxrss) * 1024.0 -
         static_cast<double>(refClock.residentBytes())) /
        (1024.0 * 1024.0);
    std::string errors = "[";
    for (std::size_t i = 0; i < checks.errors.size(); ++i) {
        errors += (i == 0 ? "" : ", ") + jsonString(checks.errors[i]);
    }
    errors += "]";
    std::printf("{\"workload\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"errors\": %s, \"peak_rss_mb\": %s, \"reps\": [\n%s",
                jsonString(workload).c_str(),
                static_cast<unsigned long long>(checks.attempted),
                static_cast<unsigned long long>(checks.failed), errors.c_str(),
                num(peakRssMb).c_str(),
                reps.empty() ? "" : reps[0].c_str());
    for (std::size_t i = 1; i < reps.size(); ++i) {
        std::printf(",\n%s", reps[i].c_str());
    }
    std::printf("\n]}\n");
    return 0;
}
