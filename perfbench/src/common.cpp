#include "common.hpp"

#include "sim/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <stdexcept>

namespace perfbench {

const RefClock* gRefClock = nullptr;

RefClock::RefClock()
    : slots_(std::size_t{1} << kSlotBits), queue_(kQueued)
{
    for (std::size_t i = 0; i < queue_.size(); ++i) {
        queue_[i] = {i * 7919 % 4096, i};
    }
    std::make_heap(queue_.begin(), queue_.end(), std::greater<>{});
    thread_ = std::thread([this] { spin(); });
}

namespace {

std::uint64_t
mixAdd(std::uint64_t v, std::uint64_t x)
{
    return v + (x >> 7);
}

std::uint64_t
mixXor(std::uint64_t v, std::uint64_t x)
{
    return v ^ (x * 31);
}

std::uint64_t
mixMul(std::uint64_t v, std::uint64_t x)
{
    return v * 0x9e3779b97f4a7c15ull + x;
}

std::uint64_t
mixRot(std::uint64_t v, std::uint64_t x)
{
    return (v << 13 | v >> 51) + x;
}

} // namespace

void
RefClock::spin()
{
    using Op = std::uint64_t (*)(std::uint64_t, std::uint64_t);
    static constexpr Op kOps[] = {mixAdd, mixXor, mixMul, mixRot};
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    while (!stop_.load(std::memory_order_relaxed)) {
        for (int n = 0; n < 64; ++n) {
            // The shape of a discrete-event step: pop the earliest event
            // off a binary heap, update state found by hashing into a
            // table larger than a core's L2, call through a pointer, and
            // schedule the follow-up event.
            std::pop_heap(queue_.begin(), queue_.end(), std::greater<>{});
            const Event e = queue_.back();
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            std::uint64_t& slot =
                slots_[(e.id * 0x9e3779b97f4a7c15ull) >> (64 - kSlotBits)];
            slot = kOps[x & 3](slot, x);
            queue_.back() = {e.at + 1 + (slot & 1023), e.id + kQueued};
            std::push_heap(queue_.begin(), queue_.end(), std::greater<>{});
        }
        ticks_.fetch_add(1, std::memory_order_relaxed);
    }
    sink_ = x;
}

RefClock::~RefClock()
{
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
}

int
Spans::begin(const char* name)
{
    const std::int64_t now =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             origin_)
            .count();
    spans_.push_back(
        Span{name, now, now, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
}

void
Spans::end(int idx)
{
    spans_[idx].endNs =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             origin_)
            .count();
    if (!stack_.empty() && stack_.back() == idx) {
        stack_.pop_back();
    }
}

void
Spans::write(const std::string& path) const
{
    std::ofstream f(path, std::ios::trunc);
    if (!f) {
        throw std::runtime_error("cannot write spans to " + path);
    }
    f << "{\"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& sp = spans_[i];
        f << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << sp.name
          << "\", \"ph\": \"X\", \"pid\": 0, \"tid\": 0, \"ts\": "
          << static_cast<double>(sp.beginNs) / 1e3
          << ", \"dur\": " << static_cast<double>(sp.endNs - sp.beginNs) / 1e3
          << ", \"args\": {\"id\": " << i << ", \"parent\": " << sp.parent
          << "}}";
    }
    f << "\n]}\n";
}

Timed::Timed(Spans* spans, const char* name, Meter* meter)
    : spans_(spans), meter_(meter),
      idx_(spans != nullptr ? spans->begin(name) : -1),
      frames0_(mscclpp::sim::frameStats().created), allocs0_(allocCounts())
{
    if (meter_ != nullptr) {
        setAllocCounting(true);
    }
    ticks0_ = gRefClock != nullptr ? gRefClock->ticks() : 0;
    t0_ = Clock::now();
}

Timed::~Timed()
{
    const Clock::time_point t1 = Clock::now();
    const std::uint64_t ticks1 = gRefClock != nullptr ? gRefClock->ticks() : 0;
    if (meter_ != nullptr) {
        setAllocCounting(false);
        const AllocCounts a = allocCounts();
        meter_->hostS += secondsBetween(t0_, t1);
        meter_->callS.push_back(secondsBetween(t0_, t1));
        meter_->refS += static_cast<double>(ticks1 - ticks0_) /
                        RefClock::kTicksPerSecond;
        meter_->allocs += a.calls - allocs0_.calls;
        meter_->allocBytes += a.bytes - allocs0_.bytes;
        meter_->frames += mscclpp::sim::frameStats().created - frames0_;
    }
    if (spans_ != nullptr) {
        spans_->end(idx_);
    }
}

double
Timed::elapsed() const
{
    return secondsBetween(t0_, Clock::now());
}

void
Checks::check(bool ok, const std::string& why)
{
    ++attempted;
    if (!ok) {
        ++failed;
        if (errors.size() < 20) {
            errors.push_back(why);
        }
    }
}

std::mt19937_64
seededRng(std::uint64_t seed, const std::string& tag)
{
    std::uint64_t h = 1469598103934665603ull ^ seed;
    for (char c : tag) {
        h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
    return std::mt19937_64(h);
}

std::vector<std::size_t>
jitteredGrid(std::mt19937_64& rng, std::size_t align, std::size_t maxBytes)
{
    std::vector<std::size_t> out;
    for (std::size_t point = 1024; point <= maxBytes; point *= 2) {
        const std::size_t steps = point / 8 / align;
        const std::size_t k =
            steps == 0 ? 0 : static_cast<std::size_t>(rng() % (steps + 1));
        out.push_back(point - k * align);
    }
    return out;
}

double
geomean(const std::vector<double>& v)
{
    if (v.empty()) {
        return 0;
    }
    double s = 0;
    for (double x : v) {
        s += std::log(x);
    }
    return std::exp(s / static_cast<double>(v.size()));
}

std::vector<double>
stratified(std::mt19937_64& rng, int n)
{
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::vector<double> u(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        u[static_cast<std::size_t>(i)] = (i + unit(rng)) / n;
    }
    std::shuffle(u.begin(), u.end(), rng);
    return u;
}

std::vector<Lengths>
sampleLengths(std::mt19937_64& rng, int n, bool stratifyWithinClass)
{
    struct Class
    {
        double weight;
        int promptLo, promptHi, outputLo, outputHi;
    };
    static constexpr Class kMix[] = {
        {0.70, 64, 256, 32, 96},
        {0.25, 512, 1536, 64, 192},
        {0.05, 2048, 3584, 128, 384},
    };
    std::vector<const Class*> cls;
    std::map<const Class*, int> perClass;
    for (double pick : stratified(rng, n)) {
        const Class* c = &kMix[std::size(kMix) - 1];
        for (const Class& k : kMix) {
            if (pick < k.weight) {
                c = &k;
                break;
            }
            pick -= k.weight;
        }
        cls.push_back(c);
        ++perClass[c];
    }
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::map<const Class*, std::vector<double>> prompts;
    std::map<const Class*, std::vector<double>> outputs;
    for (const auto& [c, count] : perClass) {
        for (auto* u : {&prompts[c], &outputs[c]}) {
            if (stratifyWithinClass) {
                *u = stratified(rng, count);
            } else {
                for (int i = 0; i < count; ++i) {
                    u->push_back(unit(rng));
                }
            }
        }
    }
    auto pickInt = [](double u, int lo, int hi) {
        return std::min(hi, lo + static_cast<int>(u * (hi - lo + 1)));
    };
    std::vector<Lengths> out;
    for (const Class* c : cls) {
        out.push_back({pickInt(prompts[c].back(), c->promptLo, c->promptHi),
                       pickInt(outputs[c].back(), c->outputLo, c->outputHi)});
        prompts[c].pop_back();
        outputs[c].pop_back();
    }
    return out;
}

} // namespace perfbench
