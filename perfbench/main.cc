/**
 * @file
 * sdsp_perfbench: host-time benchmark of the simulator.
 *
 *     sdsp_perfbench --workload grid|whatif|record --seed N
 *                      --seconds S --trace 0|1 --golden FILE
 *                      [--spans FILE] [--ops N] [--rounds N]
 *                      [--corrupt-op N]
 *
 * One process, one thread, closed loop: ops run back to back on the
 * calling thread. Set-up (building the seeded op list and its inputs)
 * is repeated several times, spread over the run, and the fastest is
 * reported as setup_s. The
 * op list then runs in rounds, each in a seeded order of its own and
 * on the next CPU in turn: a warm-up round that is discarded, then
 * measured rounds until --seconds have passed (or exactly --rounds).
 * Every op time metric comes from each op's fastest time across the
 * measured rounds. Noise on a shared host only ever slows an op down,
 * and a slow spell can cover more than half of a run's rounds; each
 * op's fastest round still comes from a time and CPU that ran at full
 * speed.
 * Every op's output is checked; a failed check counts the op as
 * failed and the run goes on.
 *
 * --trace 1 is the layer profile instead: every workload's ops are
 * split into the public calls they are made of, one span per call,
 * traced rounds alternating with untraced ones. It prints each
 * layer's self time, the tracing overhead and the per-layer metrics,
 * and writes the spans to --spans as Chrome trace-event JSON.
 *
 * The last line of standard output is one JSON object:
 *     {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hh"
#include "ops.hh"
#include "spans.hh"

using namespace perfbench;

namespace
{

/** Set-ups per untraced run, spread over it (fastest reported). */
constexpr unsigned kSetupRepeats = 9;
/** Measured rounds a time-bound run makes at least. */
constexpr unsigned kMinRounds = 3;
/** Ops that must lie beyond a percentile before it is reported. */
constexpr std::size_t kTail = 10;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string golden;
    std::string spans;
    std::size_t ops = 0;
    unsigned rounds = 0; //!< 0 = as many as fit in --seconds
    long corruptOp = -1;
};

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "sdsp_perfbench: %s\n"
                 "usage: sdsp_perfbench --workload grid|whatif|record"
                 " --seed N --seconds S --trace 0|1 --golden FILE\n"
                 "       [--spans FILE] [--ops N] [--rounds N]"
                 " [--corrupt-op N]\n",
                 why);
    return 2;
}

std::optional<Args>
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *text = argv[i + 1];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = text;
            continue;
        }
        if (flag == "--golden") {
            args.golden = text;
            continue;
        }
        if (flag == "--spans") {
            args.spans = text;
            continue;
        }
        if (flag == "--seconds") {
            args.seconds = std::strtod(text, &end);
            if (*end || !(args.seconds > 0.0))
                return std::nullopt;
            continue;
        }
        unsigned long long value = std::strtoull(text, &end, 10);
        if (*end || !*text)
            return std::nullopt;
        if (flag == "--seed")
            args.seed = value;
        else if (flag == "--trace" && value <= 1)
            args.trace = value == 1;
        else if (flag == "--ops")
            args.ops = value;
        else if (flag == "--rounds")
            args.rounds = static_cast<unsigned>(value);
        else if (flag == "--corrupt-op")
            args.corruptOp = static_cast<long>(value);
        else
            return std::nullopt;
    }
    if (argc % 2 == 0 || args.workload.empty() || args.golden.empty())
        return std::nullopt;
    return args;
}

/** A deterministic per-round op order (Fisher-Yates, SplitMix64). */
std::vector<std::size_t>
roundOrder(std::size_t count, std::uint64_t seed, unsigned round)
{
    std::vector<std::size_t> order(count);
    for (std::size_t i = 0; i < count; ++i)
        order[i] = i;
    std::uint64_t state = seed * 0x100000001b3ULL + round;
    for (std::size_t i = count; i > 1; --i) {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        z ^= z >> 31;
        std::swap(order[i - 1], order[z % i]);
    }
    return order;
}

/** Keeps the sentinel's result observable. */
volatile std::uint32_t sentinelSink = 0;

/**
 * The host calibration op: a fixed kernel that touches no simulator
 * code, timed once per round. It chases pointers through a 4 MiB
 * ring, so it slows down when other tenants contend for the caches
 * and memory the simulator also depends on. A diagnostic only: it
 * shows when a run met a slow host, and is never used to scale
 * results.
 */
double
sentinelMs()
{
    static const std::vector<std::uint32_t> ring = [] {
        // One random cycle through every slot (Sattolo's algorithm).
        std::vector<std::uint32_t> next(1u << 20);
        for (std::uint32_t i = 0; i < next.size(); ++i)
            next[i] = i;
        std::uint64_t state = 0x2545f4914f6cdd1dULL;
        for (std::uint32_t i = next.size() - 1; i > 0; --i) {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            std::swap(next[i], next[state % i]);
        }
        return next;
    }();
    auto start = Clock::now();
    std::uint32_t at = 0;
    for (unsigned i = 0; i < 200'000; ++i)
        at = ring[at];
    auto end = Clock::now();
    sentinelSink = at;
    return secondsBetween(start, end) * 1e3;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** The CPUs this process may run on, as it started. */
const std::vector<int> &
allowedCpus()
{
    static const std::vector<int> cpus = [] {
        std::vector<int> list;
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof(set), &set) == 0) {
            for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
                if (CPU_ISSET(cpu, &set))
                    list.push_back(cpu);
            }
        }
        return list;
    }();
    return cpus;
}

/**
 * Move the thread to the allowed CPU for @p turn, visiting each in
 * turn. On a shared host one vCPU can run the simulator up to 1.5x
 * slower than its neighbours for a minute or more, and a process
 * left on it is slow from start to end. With the rounds spread over
 * every CPU, each op's fastest round comes from a CPU at full speed.
 */
void
pinForTurn(unsigned turn)
{
    const std::vector<int> &cpus = allowedCpus();
    if (cpus.size() < 2)
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus[turn % cpus.size()], &set);
    sched_setaffinity(0, sizeof(set), &set);
}

void
printHost()
{
    std::string cpus;
    for (int cpu : allowedCpus()) {
        if (!cpus.empty())
            cpus += ',';
        cpus += std::to_string(cpu);
    }
    double load[3] = {0, 0, 0};
    getloadavg(load, 3);
    std::printf("host: build %s, compiler %s, assertions %s, "
                "affinity {%s} (one round per CPU in turn), "
                "load %.2f %.2f %.2f, 1 thread\n",
                PERFBENCH_BUILD_TYPE, __VERSION__,
#ifdef NDEBUG
                "off",
#else
                "on",
#endif
                cpus.c_str(), load[0], load[1], load[2]);
}

/** Ops attempted and failed, across every round. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/** Timings of one workload's rounds. */
struct RoundTimes
{
    /** Untraced seconds per op, one per measured round. */
    std::vector<std::vector<double>> plain;
    /** Traced seconds per op (the op span only; probes excluded). */
    std::vector<std::vector<double>> traced;
    /** Once-per-round work (untraced rounds). */
    std::vector<double> roundWork;
    std::vector<double> sentinel;
    /** Peak RSS after set-up and the warm-up pass, read before the
     *  sentinel first allocates its ring. */
    double peakRssMb = 0.0;
};

/**
 * Run one round of @p kind on the CPU for @p cpu_turn: every op once,
 * in this round's seeded order, then the round's own work and the
 * sentinel.
 */
void
runRound(Kind &kind, std::uint64_t seed, unsigned round, unsigned cpu_turn,
         bool measured, SpanLog *spans, RoundTimes &times, Tally &tally)
{
    if (spans)
        spans->setRound(static_cast<std::int32_t>(round));
    pinForTurn(cpu_turn);
    auto start = Clock::now();
    for (std::size_t op : roundOrder(kind.opCount(), seed, round)) {
        auto op_start = Clock::now();
        bool ok;
        {
            ScopedSpan span(spans, "op", static_cast<std::int64_t>(op));
            ok = kind.runOp(op, spans);
        }
        double seconds = secondsBetween(op_start, Clock::now());
        if (spans)
            kind.probe(op, spans);
        ++tally.attempted;
        if (!ok)
            ++tally.failed;
        if (measured)
            (spans ? times.traced : times.plain)[op].push_back(seconds);
    }
    auto work_start = Clock::now();
    if (!kind.endRound(spans))
        ++tally.failed;
    if (measured && !spans)
        times.roundWork.push_back(
            secondsBetween(work_start, Clock::now()));
    double pass = secondsBetween(start, Clock::now());
    if (round == 0)
        times.peakRssMb = peakRssMb();
    double sentinel = sentinelMs();
    times.sentinel.push_back(sentinel);
    std::printf("%s round %u%s on cpu %d: %.1f ms, sentinel %.3f ms\n",
                kind.name(), round,
                !measured ? " (warm-up)" : spans ? " (traced)" : "",
                sched_getcpu(), pass * 1e3, sentinel);
}

/** Sum over ops of each op's fastest time across rounds. */
double
passSeconds(const std::vector<std::vector<double>> &per_op)
{
    double total = 0.0;
    for (const std::vector<double> &rounds : per_op)
        total += fastest(rounds);
    return total;
}

/** Nearest-rank percentile @p p of @p sorted, if at least kTail
 *  values lie beyond it. */
std::optional<double>
percentile(const std::vector<double> &sorted, double p)
{
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(sorted.size())));
    if (rank == 0 || sorted.size() - rank < kTail)
        return std::nullopt;
    return sorted[rank - 1];
}

/** Metric name -> (value, unit), in insertion order. */
class Metrics
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        entries_.push_back({name, value, unit});
        std::printf("  %-36s %14.6g %s\n", name.c_str(), value,
                    unit.c_str());
    }

    std::string
    json(bool correct, const Tally &tally) const
    {
        sdsp::JsonWriter w;
        w.beginObject();
        w.field("correct", correct);
        w.field("attempted", tally.attempted);
        w.field("failed", tally.failed);
        w.key("metrics").beginObject();
        for (const Entry &entry : entries_) {
            w.key(entry.name).beginObject();
            w.field("value", entry.value);
            w.field("unit", entry.unit);
            w.endObject();
        }
        w.endObject();
        w.endObject();
        return w.str();
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
};

void
printChecks(const Kind &kind, const Tally &tally)
{
    std::printf("%s: %llu ops attempted, %llu failed (fail_ratio %.6f)\n",
                kind.name(),
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed),
                tally.attempted ? static_cast<double>(tally.failed) /
                                      static_cast<double>(tally.attempted)
                                : 0.0);
    if (!kind.firstError.empty())
        std::printf("%s: first failed check: %s\n", kind.name(),
                    kind.firstError.c_str());
}

/** The op list's identity and deterministic outputs (smoke test). */
void
printDeterminism(const Kind &kind, std::uint64_t seed)
{
    std::string ids;
    for (std::uint64_t id : kind.opIds())
        ids += " " + std::to_string(id);
    std::string order;
    for (std::size_t op : roundOrder(kind.opCount(), seed, 0))
        order += " " + std::to_string(op);
    std::printf("%s ops:%s\n%s first-round order:%s\n"
                "%s checksum: %llu\n",
                kind.name(), ids.c_str(), kind.name(), order.c_str(),
                kind.name(),
                static_cast<unsigned long long>(kind.checksum()));
}

KindOptions
kindOptions(const Args &args)
{
    KindOptions options;
    options.seed = args.seed;
    options.maxOps = args.ops;
    options.corruptOp = args.corruptOp;
    options.goldenPath = args.golden;
    return options;
}

/** The end-to-end run: untraced, one workload. */
int
runEndToEnd(const Args &args)
{
    // Set-up runs once before the warm-up round and again, on a
    // throw-away instance, at evenly spaced points of the measured
    // rounds, so it meets every CPU and the host's state over the whole
    // run, like the ops do. Like an op it is reported by its fastest
    // run: set-up is more sensitive to a busy neighbour than the ops,
    // and one CPU can run it 1.8 times slower than another.
    std::vector<double> setups;
    auto set_up = [&] {
        auto start = Clock::now();
        std::unique_ptr<Kind> kind =
            makeKind(args.workload, kindOptions(args));
        kind->setup(nullptr);
        setups.push_back(secondsBetween(start, Clock::now()));
        return kind;
    };
    std::unique_ptr<Kind> kind = set_up();
    std::printf("%s: %zu ops\n", kind->name(), kind->opCount());

    RoundTimes times;
    times.plain.resize(kind->opCount());
    Tally tally;
    runRound(*kind, args.seed, 0, 0, false, nullptr, times, tally);
    auto start = Clock::now();
    for (unsigned round = 1;; ++round) {
        runRound(*kind, args.seed, round, round, true, nullptr, times,
                 tally);
        double elapsed = secondsBetween(start, Clock::now());
        while (setups.size() < kSetupRepeats &&
               elapsed >= args.seconds * static_cast<double>(setups.size()) /
                              kSetupRepeats)
            set_up();
        if (args.rounds ? round >= args.rounds
                        : round >= kMinRounds && elapsed >= args.seconds)
            break;
    }
    while (setups.size() < kSetupRepeats)
        set_up();
    std::printf("%s: set-up %.4f s (fastest of %zu:", kind->name(),
                fastest(setups), setups.size());
    for (double s : setups)
        std::printf(" %.4f", s);
    std::printf(")\n");
    const double pass =
        passSeconds(times.plain) + fastest(times.roundWork);

    std::vector<double> op_ms;
    for (const std::vector<double> &rounds : times.plain)
        op_ms.push_back(fastest(rounds) * 1e3);
    std::sort(op_ms.begin(), op_ms.end());

    printChecks(*kind, tally);
    printDeterminism(*kind, args.seed);
    std::printf("%s: pass %.4f s (sum of per-op fastest times over %zu "
                "measured rounds), sentinel median %.3f ms\n",
                kind->name(), pass, times.sentinel.size() - 1,
                median(times.sentinel));
    std::printf("end-to-end metrics (%zu ops):\n", op_ms.size());
    Metrics metrics;
    metrics.add("sim_mcycles_per_s", kind->cyclesPerPass() / pass / 1e6,
                "Mcycles/s");
    metrics.add("points_per_s",
                static_cast<double>(kind->opCount()) / pass, "points/s");
    for (auto [name, p] : {std::pair{"op_ms_p50", 0.5},
                           std::pair{"op_ms_p90", 0.9}}) {
        if (std::optional<double> value = percentile(op_ms, p))
            metrics.add(name, *value, "ms");
        else
            std::printf("  %-36s withheld: fewer than %zu of %zu ops "
                        "beyond it\n",
                        name, kTail, op_ms.size());
    }
    metrics.add("setup_s", fastest(setups), "s");
    // One instance after a full pass: the throw-away set-ups would
    // otherwise add a second instance to the peak.
    metrics.add("peak_rss_mb", times.peakRssMb, "MiB");
    std::printf("%s\n", metrics.json(tally.failed == 0, tally).c_str());
    return 0;
}

/** One workload's share of the layer profile. */
struct Profile
{
    std::unique_ptr<Kind> kind;
    SpanLog spans;
    RoundTimes times;
    Tally tally;
};

void
profileKind(const Args &args, const std::string &name, double seconds,
            Profile &profile)
{
    profile.kind = makeKind(name, kindOptions(args));
    Kind &kind = *profile.kind;
    kind.setup(&profile.spans);
    profile.times.plain.resize(kind.opCount());
    profile.times.traced.resize(kind.opCount());
    runRound(kind, args.seed, 0, 0, false, nullptr, profile.times,
             profile.tally);
    // Untraced and traced rounds alternate, each pair on one CPU, so
    // both see the same host.
    auto start = Clock::now();
    for (unsigned round = 1;; ++round) {
        bool traced = round % 2 == 0;
        runRound(kind, args.seed, round, (round + 1) / 2, true,
                 traced ? &profile.spans : nullptr, profile.times,
                 profile.tally);
        if (traced && (args.rounds ? round >= 2 * args.rounds
                                   : secondsBetween(start, Clock::now()) >=
                                         seconds))
            break;
    }
    double plain = passSeconds(profile.times.plain);
    double traced = passSeconds(profile.times.traced);
    std::printf("%s tracing overhead: untraced pass %.2f ms, traced "
                "pass %.2f ms, %+.2f%%\n",
                kind.name(), plain * 1e3, traced * 1e3,
                (traced / plain - 1.0) * 100.0);

    // Self time per layer (the text before the first '.'); the op
    // span's own self time is the glue between calls.
    std::map<std::string, double> layers;
    double total = 0.0;
    for (const auto &[span, self] : profile.spans.selfSeconds()) {
        std::string layer = span.substr(0, span.find('.'));
        layers[layer == "op" ? "(glue)" : layer] += self;
        total += self;
    }
    std::printf("%s self time by layer (all traced spans, set-up "
                "included):\n",
                kind.name());
    for (const auto &[layer, self] : layers) {
        std::printf("  %-16s %10.2f ms %6.2f%%\n", layer.c_str(),
                    self * 1e3, total > 0 ? self / total * 100.0 : 0.0);
    }
}

/** The layer profile: every workload traced, per-layer metrics. */
int
runLayerProfile(const Args &args)
{
    auto origin = Clock::now();
    // The named workload first, then the others, each with an equal
    // share of --seconds.
    std::vector<std::string> order{args.workload};
    for (const std::string &name : kindNames()) {
        if (name != args.workload)
            order.push_back(name);
    }
    std::map<std::string, Profile> profiles;
    for (const std::string &name : order)
        profileKind(args, name, args.seconds / 3.0, profiles[name]);

    const Profile &grid = profiles["grid"];
    const Profile &record = profiles["record"];
    const Profile &whatif = profiles["whatif"];
    const double grid_ops = static_cast<double>(grid.kind->opCount());
    const double record_ops =
        static_cast<double>(record.kind->opCount());
    const double whatif_ops =
        static_cast<double>(whatif.kind->opCount());
    auto pass = [](const Profile &p, const char *span) {
        return p.spans.perPassSeconds(span);
    };
    auto per_op_execution = [](const Profile &p, std::uint64_t count) {
        return static_cast<double>(count) /
               static_cast<double>(p.tally.attempted);
    };

    Tally tally;
    std::vector<double> sentinel;
    std::vector<NamedLog> logs;
    for (const std::string &name : order) {
        const Profile &p = profiles[name];
        tally.attempted += p.tally.attempted;
        tally.failed += p.tally.failed;
        sentinel.insert(sentinel.end(), p.times.sentinel.begin(),
                        p.times.sentinel.end());
        logs.push_back({name, &p.spans});
        printChecks(*p.kind, p.tally);
    }

    std::vector<double> builds;
    for (const Profile *p : {&grid, &record}) {
        for (const Span *span : p->spans.named("workloads.build"))
            builds.push_back(span->seconds());
    }
    const double grid_cycles = grid.kind->cyclesPerPass();
    const double record_cycles = record.kind->cyclesPerPass();
    const double grid_parts =
        pass(grid, "workloads.image") + pass(grid, "isa.decode") +
        pass(grid, "core.init") + pass(grid, "core.run") +
        pass(grid, "workloads.verify") + pass(grid, "harness.json");
    const LayerCounts &rc = record.kind->counts;
    const LayerCounts &wc = whatif.kind->counts;
    const double nodes_per_pass =
        per_op_execution(record, rc.ddgNodes) * record_ops;
    const double bytes_per_pass =
        per_op_execution(record, rc.traceBytes) * record_ops;

    LayerFailures failures;
    for (const auto &[name, p] : profiles) {
        const LayerFailures &f = p.kind->failures;
        failures.goldenMismatch += f.goldenMismatch;
        failures.failedJobs += f.failedJobs;
        failures.inexact += f.inexact;
        failures.boundViolations += f.boundViolations;
        failures.replayMismatch += f.replayMismatch;
        failures.unstable += f.unstable;
    }

    std::printf("per-layer metrics:\n");
    Metrics m;
    m.add("core.ns_per_cycle", pass(grid, "core.run") / grid_cycles * 1e9,
          "ns");
    m.add("core.sim_share",
          pass(grid, "core.run") / pass(grid, "op") * 100.0, "%");
    m.add("workloads.build_ms", median(builds) * 1e3, "ms");
    m.add("workloads.verify_ms",
          pass(grid, "workloads.verify") / grid_ops * 1e3, "ms");
    m.add("isa.decode_ms", pass(grid, "isa.decode") / grid_ops * 1e3,
          "ms");
    m.add("harness.overhead_ms",
          (passSeconds(grid.times.plain) - grid_parts) / grid_ops * 1e3,
          "ms");
    m.add("harness.json_ms", pass(grid, "harness.json") / grid_ops * 1e3,
          "ms");
    m.add("harness.json_kb",
          per_op_execution(grid, grid.kind->counts.jsonBytes) / 1024.0,
          "KiB");
    m.add("critpath.record_ns_per_cycle",
          (pass(record, "probe.critpath.run") -
           pass(record, "probe.core.run")) /
              record_cycles * 1e9,
          "ns");
    m.add("critpath.build_ms",
          pass(record, "critpath.build") / record_ops * 1e3, "ms");
    m.add("critpath.build_ns_per_node",
          pass(record, "critpath.build") / nodes_per_pass * 1e9, "ns");
    m.add("critpath.verify_ms",
          pass(record, "critpath.verify") / record_ops * 1e3, "ms");
    m.add("critpath.relax_us",
          pass(whatif, "critpath.relax") / (whatif_ops * 3.0) * 1e6, "us");
    m.add("critpath.relax_ns_per_edge",
          pass(whatif, "critpath.relax") /
              (static_cast<double>(wc.graphEdges) * whatif_ops) * 1e9,
          "ns");
    m.add("critpath.nodes", static_cast<double>(wc.graphNodes), "count");
    m.add("critpath.edges", static_cast<double>(wc.graphEdges), "count");
    m.add("explore.lattice_ms",
          whatif.spans.totalSeconds("explore.lattice") * 1e3, "ms");
    m.add("explore.frontier_ms", pass(whatif, "explore.frontier") * 1e3,
          "ms");
    m.add("explore.pessimistic_ratio",
          static_cast<double>(wc.pessimistic) /
              static_cast<double>(wc.projected),
          "ratio");
    m.add("trace_frontend.record_ns_per_cycle",
          (pass(record, "core+recorders.run") -
           pass(record, "probe.critpath.run")) /
              record_cycles * 1e9,
          "ns");
    m.add("trace_frontend.parse_mb_per_s",
          bytes_per_pass / pass(record, "trace_frontend.read") / 1e6,
          "MB/s");
    m.add("trace_frontend.replay_ns_per_cycle",
          pass(record, "trace_frontend.replay") / record_cycles * 1e9,
          "ns");
    m.add("trace_frontend.trace_mb", bytes_per_pass / record_ops / 1e6,
          "MB");
    m.add("core.golden_mismatch",
          static_cast<double>(failures.goldenMismatch), "count");
    m.add("harness.failed_jobs", static_cast<double>(failures.failedJobs),
          "count");
    m.add("critpath.inexact", static_cast<double>(failures.inexact),
          "count");
    m.add("explore.bound_violations",
          static_cast<double>(failures.boundViolations), "count");
    m.add("explore.unstable", static_cast<double>(failures.unstable),
          "count");
    m.add("trace_frontend.replay_mismatch",
          static_cast<double>(failures.replayMismatch), "count");
    m.add("host.sentinel_ms", median(sentinel), "ms");

    if (!args.spans.empty()) {
        if (writeChromeTrace(args.spans, logs, origin))
            std::printf("spans written to %s (open in ui.perfetto.dev)\n",
                        args.spans.c_str());
        else
            std::printf("cannot write spans to %s\n", args.spans.c_str());
    }
    std::printf("%s\n", m.json(tally.failed == 0, tally).c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::optional<Args> args = parseArgs(argc, argv);
    if (!args)
        return usage("bad arguments");
    const std::vector<std::string> &names = kindNames();
    if (std::find(names.begin(), names.end(), args->workload) ==
        names.end())
        return usage(("unknown workload " + args->workload).c_str());
    printHost();
    try {
        return args->trace ? runLayerProfile(*args) : runEndToEnd(*args);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "sdsp_perfbench: set-up failed: %s\n",
                     error.what());
        return 1;
    }
}
