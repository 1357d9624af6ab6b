#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

// ---- reference clock -----------------------------------------------------

/**
 * A clock that advances at the speed of a fixed reference loop: a
 * background thread runs the skeleton of a discrete-event simulator
 * (binary-heap event queue, state in a hash table larger than a
 * core's L2, an indirect call per event) and counts its iterations.
 * Seconds read from it are the ticks counted over an interval divided
 * by a fixed nominal rate.
 *
 * On a host shared with other tenants, the cores and the caches and
 * memory behind them slow down for seconds to minutes at a time. Work
 * shaped like the simulator's slows with it, so wall times scaled by
 * the loop's rate over the same interval move far less between runs
 * than wall times (see perfbench/METRICS.md).
 */
class RefClock
{
  public:
    /// Nominal rate in ticks per second. A constant, so readings
    /// compare across runs; the loop ran at 1.3-1.9 times this on the
    /// 4-vCPU Xeon the benchmark was tuned on.
    static constexpr double kTicksPerSecond = 6e4;

    /** Fill the queue and table, then start the thread. */
    RefClock();
    /** Stop the thread and wait for it to end. */
    ~RefClock();
    RefClock(const RefClock&) = delete;
    RefClock& operator=(const RefClock&) = delete;

    std::uint64_t ticks() const
    {
        return ticks_.load(std::memory_order_relaxed);
    }

    /** Bytes of the queue and table, resident from construction on. */
    std::size_t residentBytes() const
    {
        return slots_.size() * sizeof(slots_[0]) +
               queue_.size() * sizeof(queue_[0]);
    }

  private:
    struct Event
    {
        std::uint64_t at;
        std::uint64_t id;
        bool operator>(const Event& o) const { return at > o.at; }
    };
    static constexpr int kSlotBits = 19; ///< 4 MiB of state
    static constexpr std::size_t kQueued = 4096;

    void spin();

    std::atomic<std::uint64_t> ticks_{0};
    std::atomic<bool> stop_{false};
    std::uint64_t sink_ = 0;
    /// Allocated before the thread starts, and never resized, so the
    /// thread never touches the heap (the benchmark counts heap calls
    /// process-wide).
    std::vector<std::uint64_t> slots_;
    std::vector<Event> queue_;
    std::thread thread_;
};

/** The process's reference clock; null until main() starts one. */
extern const RefClock* gRefClock;

// ---- heap counting (alloc_count.cpp) --------------------------------------

/** Calls to the global operator new made while counting was on. */
struct AllocCounts
{
    std::uint64_t calls = 0;
    std::uint64_t bytes = 0;
};

/** Turn counting on or off (off at start). Counts accumulate. */
void setAllocCounting(bool on);
AllocCounts allocCounts();

/** Host time, heap allocations and coroutine frames of metered calls. */
struct Meter
{
    double hostS = 0;
    std::uint64_t allocs = 0;
    std::uint64_t allocBytes = 0;
    std::uint64_t frames = 0;
    /// Wall time of each timed call, in call order.
    std::vector<double> callS;
    /// Reference-clock seconds of all metered calls.
    double refS = 0;
};

// ---- spans ---------------------------------------------------------------

/**
 * The benchmark's own in-memory spans around each call into a module
 * (traced run only). Written out once at the end; never consulted
 * while timing.
 */
class Spans
{
  public:
    Spans() : origin_(Clock::now()) { spans_.reserve(1 << 14); }

    /** Open a span; @return its index. */
    int begin(const char* name);
    void end(int idx);

    /** Write the spans as a Chrome trace_events file. */
    void write(const std::string& path) const;

  private:
    struct Span
    {
        const char* name;
        std::int64_t beginNs;
        std::int64_t endNs;
        int parent;
    };
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span + meter around one program call. */
class Timed
{
  public:
    Timed(Spans* spans, const char* name, Meter* meter = nullptr);
    ~Timed();
    Timed(const Timed&) = delete;
    Timed& operator=(const Timed&) = delete;

    /** Seconds since construction. */
    double elapsed() const;

  private:
    Spans* spans_;
    Meter* meter_;
    int idx_;
    std::uint64_t frames0_;
    AllocCounts allocs0_;
    std::uint64_t ticks0_ = 0;
    Clock::time_point t0_;
};

// ---- results -------------------------------------------------------------

/** Outcome checks: every operation attempted, and the ones that failed. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;

    /** Count one operation; record @p why when @p ok is false. */
    void check(bool ok, const std::string& why);
};

/** One complete run of a workload: set-up plus the timed phase. */
struct Rep
{
    Meter setup;             ///< the set-up calls
    Meter timed;             ///< the timed phase
    std::uint64_t events = 0; ///< scheduler events in the timed phase
    std::uint64_t maxQueueDepth = 0;
    /// Simulated (virtual-time) results: exact, compared bit for bit
    /// between reps of one run.
    std::map<std::string, double> sim;
    /// Per-layer numbers of this rep (host-timed or counted).
    std::map<std::string, double> layers;
};

/** How a rep runs. */
enum class Mode
{
    Plain,  ///< tracing off (end-to-end metrics)
    Traced, ///< simprof + metrics dumps + spans on
    ObsOn,  ///< serving with request tracing, SLO monitor and metrics on
};

struct RunArgs
{
    std::uint64_t seed = 1;
    Mode mode = Mode::Plain;
    Spans* spans = nullptr;
};

Rep runCollGrid(const RunArgs& args, Checks& checks);
Rep runServeChat(const RunArgs& args, Checks& checks);
Rep runServeDiag(const RunArgs& args, Checks& checks);

// ---- shared helpers ------------------------------------------------------

/** Seeded generator for one purpose: mixes the run seed with a tag. */
std::mt19937_64 seededRng(std::uint64_t seed, const std::string& tag);

/**
 * The size grid: 1 KiB .. 64 MiB in x2 steps (the x4 grid of the
 * paper's figures plus its midpoints, which doubles the measured work
 * while every call stays distinct). Each cell is moved down from its
 * grid point by a seeded multiple of @p align, at most 1/8 of the
 * point, so different seeds sample nearby sizes while one seed always
 * gives the same ones.
 */
std::vector<std::size_t> jitteredGrid(std::mt19937_64& rng,
                                      std::size_t align,
                                      std::size_t maxBytes = 64u << 20);

double geomean(const std::vector<double>& v);

/**
 * @p n stratified uniforms in seeded order: one draw from each of the
 * n equal slices of [0, 1). The sample's distribution then matches
 * the target almost exactly, and the seed decides which item gets
 * which value.
 */
std::vector<double> stratified(std::mt19937_64& rng, int n);

/** Prompt and output length of one request, in tokens. */
struct Lengths
{
    int prompt = 0;
    int output = 0;
};

/**
 * @p n request lengths from the chat / document-QA / long-context
 * summarisation mix (70/25/5%). Classes are drawn stratified, so each
 * gets its share. Lengths are uniform within the class, stratified
 * when @p stratifyWithinClass: a queueing workload then keeps its
 * tails steady across seeds, while isolated requests need independent
 * draws (stratified, their median would be the same token count for
 * every seed).
 */
std::vector<Lengths> sampleLengths(std::mt19937_64& rng, int n,
                                   bool stratifyWithinClass);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HPP
