#include "ops.hh"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "bench_util.hh"
#include "common/json.hh"
#include "common/json_reader.hh"
#include "critpath/ddg.hh"
#include "explore/explore.hh"
#include "explore/lattice.hh"
#include "harness/artifacts.hh"
#include "harness/sweep.hh"
#include "isa/decoded_program.hh"
#include "trace_frontend/replay.hh"
#include "trace_frontend/trace_format.hh"

namespace perfbench
{

using namespace sdsp;

namespace
{

/** Problem-size scale of every op: the golden grid's scale. */
constexpr unsigned kScale = 25;

/** Default op-list sizes; each leaves at least ten ops beyond p90.
 *  record samples half of the kRecordPool cheapest grid points. */
constexpr std::size_t kWhatifSample = 200;
constexpr std::size_t kRecordPool = 208;

/** SplitMix64: a small, portable, seeded generator. */
std::uint64_t
nextRandom(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** One run of the golden grid artifact. */
struct GoldenRun
{
    std::string benchmark;
    std::uint64_t threads = 0;
    std::uint64_t cycles = 0;
    std::uint64_t committed = 0;
};

std::vector<GoldenRun>
loadGolden(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read golden grid " + path);
    std::stringstream text;
    text << in.rdbuf();
    std::string error;
    std::optional<JsonValue> doc = parseJson(text.str(), &error);
    const JsonValue *runs =
        doc && doc->isObject() ? doc->find("runs") : nullptr;
    if (!runs || !runs->isArray())
        throw std::runtime_error("bad golden grid " + path + ": " +
                                 error);
    std::vector<GoldenRun> golden;
    for (const JsonValue &run : runs->items()) {
        GoldenRun entry;
        const JsonValue *name = run.isObject() ? run.find("benchmark")
                                               : nullptr;
        const JsonValue *threads = run.isObject() ? run.find("threads")
                                                  : nullptr;
        const JsonValue *cycles = run.isObject() ? run.find("cycles")
                                                 : nullptr;
        const JsonValue *committed =
            run.isObject() ? run.find("committed") : nullptr;
        if (!name || !threads || !cycles || !committed ||
            !name->toString() || !threads->toUint64() ||
            !cycles->toUint64() || !committed->toUint64())
            throw std::runtime_error("bad golden run in " + path);
        entry.benchmark = *name->toString();
        entry.threads = *threads->toUint64();
        entry.cycles = *cycles->toUint64();
        entry.committed = *committed->toUint64();
        golden.push_back(std::move(entry));
    }
    return golden;
}

/**
 * A workload whose images are built once, during set-up, and copied
 * for every op afterwards — what sdsp_bench_all's cachedWorkload does,
 * except that the cache lives only as long as this object, so every
 * repetition of set-up builds from scratch.
 */
class ImageCache final : public Workload
{
  public:
    explicit ImageCache(const Workload &inner) : inner_(inner) {}

    std::string name() const override { return inner_.name(); }
    BenchmarkGroup group() const override { return inner_.group(); }

    WorkloadImage
    build(unsigned num_threads, unsigned scale) const override
    {
        auto key = std::make_pair(num_threads, scale);
        auto it = images_.find(key);
        if (it == images_.end())
            it = images_.emplace(key, inner_.build(num_threads, scale))
                     .first;
        return it->second;
    }

    /** Build the image for @p num_threads now, as one span. */
    void
    prebuild(unsigned num_threads, SpanLog *spans)
    {
        auto key = std::make_pair(num_threads, kScale);
        if (images_.count(key))
            return;
        ScopedSpan span(spans, "workloads.build", -1);
        images_.emplace(key, inner_.build(num_threads, kScale));
    }

  private:
    const Workload &inner_;
    mutable std::map<std::pair<unsigned, unsigned>, WorkloadImage>
        images_;
};

/** One paper-grid point and what the golden grid says it yields. */
struct GridOp
{
    ImageCache *workload = nullptr;
    MachineConfig config;
    std::size_t gridIndex = 0;
    std::uint64_t expectedCycles = 0;
    std::uint64_t expectedCommitted = 0;
};

/** The paper grid matched against the golden grid, images cached. */
class GridInputs
{
  public:
    /** Load every grid point (set-up; images are built later). */
    void
    load(const KindOptions &options)
    {
        std::vector<GoldenRun> golden = loadGolden(options.goldenPath);
        bench::PaperGrid grid = bench::buildPaperGrid();
        if (grid.points.size() != golden.size()) {
            throw std::runtime_error(
                "paper grid has " + std::to_string(grid.points.size()) +
                " points, golden grid " +
                std::to_string(golden.size()));
        }
        std::map<std::string, ImageCache *> by_name;
        for (std::size_t i = 0; i < grid.points.size(); ++i) {
            const bench::PaperGridPoint &point = grid.points[i];
            const std::string name = point.workload->name();
            if (name != golden[i].benchmark ||
                point.config.numThreads != golden[i].threads) {
                throw std::runtime_error(
                    "grid point " + std::to_string(i) + " (" + name +
                    ") does not match the golden grid (" +
                    golden[i].benchmark + ")");
            }
            ImageCache *&cache = by_name[name];
            if (!cache) {
                caches_.push_back(
                    std::make_unique<ImageCache>(workloadByName(name)));
                cache = caches_.back().get();
            }
            GridOp op;
            op.workload = cache;
            op.config = point.config;
            op.gridIndex = i;
            op.expectedCycles = golden[i].cycles;
            op.expectedCommitted = golden[i].committed;
            points_.push_back(op);
        }
    }

    /** The loaded points, in grid order. */
    const std::vector<GridOp> &points() const { return points_; }

    /** Build the images @p ops need, one span per uncached build. */
    void
    buildImages(const std::vector<GridOp> &ops, SpanLog *spans)
    {
        for (const GridOp &op : ops) {
            op.workload->prebuild(op.config.numThreads, spans);
        }
    }

  private:
    std::vector<std::unique_ptr<ImageCache>> caches_;
    std::vector<GridOp> points_;
};

/** Processor state of one run split into runWorkload's steps. */
struct SteppedRun
{
    std::unique_ptr<Processor> cpu;
    SimResult sim;
    VerifyResult verdict = VerifyResult::fail("not run");
};

/**
 * runWorkload's steps on an already-built @p image, each its own
 * span: decode, processor construction, the cycle loop (named
 * @p run_span) and output verification.
 */
SteppedRun
runSteps(const WorkloadImage &image, const MachineConfig &config,
         TraceSink *sink, SpanLog *spans, std::int64_t op,
         const char *run_span)
{
    SteppedRun run;
    std::shared_ptr<const DecodedProgram> decoded;
    {
        ScopedSpan span(spans, "isa.decode", op);
        decoded = DecodedProgram::decode(image.program);
    }
    {
        ScopedSpan span(spans, "core.init", op);
        run.cpu = std::make_unique<Processor>(config, decoded);
    }
    if (sink)
        run.cpu->setTraceSink(sink);
    {
        ScopedSpan span(spans, run_span, op);
        run.sim = run.cpu->run();
    }
    if (run.sim.finished) {
        ScopedSpan span(spans, "workloads.verify", op);
        run.verdict = image.verify(run.cpu->memory());
    }
    return run;
}

/** The workloads whose ops are paper-grid points. */
class GridPointKind : public Kind
{
  public:
    explicit GridPointKind(const KindOptions &options) : options_(options)
    {
    }

    double
    cyclesPerPass() const override
    {
        double cycles = 0.0;
        for (const GridOp &op : ops_)
            cycles += static_cast<double>(op.expectedCycles);
        return cycles;
    }

  protected:
    /** Make @p ops the op list: keep the first maxOps, corrupt one if
     *  asked, and build the images they need. */
    void
    useOps(std::vector<GridOp> ops, SpanLog *spans)
    {
        if (options_.maxOps && ops.size() > options_.maxOps)
            ops.resize(options_.maxOps);
        if (options_.corruptOp >= 0 &&
            static_cast<std::size_t>(options_.corruptOp) < ops.size())
            ++ops[options_.corruptOp].expectedCycles;
        inputs_.buildImages(ops, spans);
        ids_.clear();
        for (const GridOp &op : ops)
            ids_.push_back(op.gridIndex);
        outputs_.assign(ids_.size(), 0);
        ops_ = std::move(ops);
    }

    KindOptions options_;
    GridInputs inputs_;
    std::vector<GridOp> ops_;
};

/** The paper grid through the sweep engine, one point per op. */
class GridKind final : public GridPointKind
{
  public:
    explicit GridKind(const KindOptions &options)
        : GridPointKind(options), runner_(1, SweepOptions{})
    {
    }

    const char *name() const override { return "grid"; }

    void
    setup(SpanLog *spans) override
    {
        inputs_.load(options_);
        useOps(inputs_.points(), spans);
    }

    bool
    runOp(std::size_t index, SpanLog *spans) override
    {
        const GridOp &op = ops_[index];
        RunResult result;
        bool job_ok = false;
        std::string error;
        if (!spans) {
            runner_.add(*op.workload, op.config, kScale);
            std::vector<JobOutcome> outcome = runner_.runAll();
            job_ok = outcome[0].ok();
            error = outcome[0].error;
            result = std::move(outcome[0].result);
        } else {
            result = tracedRun(op, spans, index);
            job_ok = result.finished && result.verified;
            error = result.verifyMessage;
        }
        JsonWriter json;
        {
            ScopedSpan span(spans, "harness.json", index);
            appendJson(json, result, /*include_stats=*/false);
        }
        counts.jsonBytes += json.str().size();
        outputs_[index] = result.cycles + result.committed;

        const std::string where = result.benchmark + " grid point " +
                                  std::to_string(op.gridIndex);
        if (!job_ok)
            return fail(failures.failedJobs, where + ": " + error);
        if (result.cycles != op.expectedCycles ||
            result.committed != op.expectedCommitted) {
            return fail(failures.goldenMismatch,
                        where + ": " + std::to_string(result.cycles) +
                            " cycles / " +
                            std::to_string(result.committed) +
                            " committed, golden " +
                            std::to_string(op.expectedCycles) + " / " +
                            std::to_string(op.expectedCommitted));
        }
        return true;
    }

  private:
    /** runWorkload's body as separate spans, packaged like it. */
    RunResult
    tracedRun(const GridOp &op, SpanLog *spans, std::int64_t id)
    {
        WorkloadImage image;
        {
            ScopedSpan span(spans, "workloads.image", id);
            image = op.workload->build(op.config.numThreads, kScale);
        }
        SteppedRun run =
            runSteps(image, op.config, nullptr, spans, id, "core.run");

        ScopedSpan span(spans, "harness.package", id);
        const Processor &cpu = *run.cpu;
        RunResult result;
        result.benchmark = image.name;
        result.config = op.config;
        result.finished = run.sim.finished;
        result.verified = run.verdict.ok;
        result.verifyMessage = run.verdict.message;
        result.cycles = run.sim.cycles;
        result.committed = run.sim.committedInstructions;
        result.ipc = run.sim.ipc();
        result.cacheHitRate = cpu.dcache().hitRate();
        result.branchAccuracy = cpu.predictor().accuracy();
        result.suStalls = cpu.suStalls();
        result.flexCommits = cpu.flexibleCommits();
        result.stallCycles.resize(op.config.numThreads);
        for (unsigned t = 0; t < op.config.numThreads; ++t) {
            for (unsigned r = 0; r < kNumStallReasons; ++r) {
                result.stallCycles[t][r] =
                    cpu.stallCycles(static_cast<ThreadId>(t),
                                    static_cast<StallReason>(r));
            }
        }
        cpu.reportStats(result.stats);
        return result;
    }

    SweepRunner runner_;
};

/** Record + DDG + trace round trip of sampled grid points. */
class RecordKind final : public GridPointKind
{
  public:
    explicit RecordKind(const KindOptions &options)
        : GridPointKind(options)
    {
    }

    const char *name() const override { return "record"; }

    void
    setup(SpanLog *spans) override
    {
        inputs_.load(options_);
        const std::vector<GridOp> &all = inputs_.points();
        // Stratified sample: sort the grid by the op's expected host
        // cost and draw one point from each adjacent pair of the
        // kRecordPool cheapest, so every seed gets a different sample
        // with the same spread of op costs. The cycle loop runs twice
        // per cycle (record, replay) and the recorder, parser and graph
        // do about three times that work per committed instruction
        // (layer profile). The costliest grid points are left out to
        // keep a pass near four seconds.
        auto cost = [&](std::size_t i) {
            return all[i].expectedCycles + 3 * all[i].expectedCommitted;
        };
        std::vector<std::size_t> order(all.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                             return cost(a) < cost(b);
                         });
        order.resize(std::min(order.size(), kRecordPool));
        std::uint64_t state = options_.seed ^ 0x7265636f7264ULL;
        std::vector<GridOp> sample;
        for (std::size_t i = 0; i + 1 < order.size(); i += 2)
            sample.push_back(all[order[i + (nextRandom(state) & 1)]]);
        // The pool's largest point is always in, so the peak memory
        // of a pass depends less on the seed.
        sample.back() = all[order.back()];
        useOps(std::move(sample), spans);
    }

    bool
    runOp(std::size_t index, SpanLog *spans) override
    {
        const GridOp &op = ops_[index];
        WorkloadImage image;
        {
            ScopedSpan span(spans, "workloads.image", index);
            image = op.workload->build(op.config.numThreads, kScale);
        }
        DdgRecorder ddg;
        std::ostringstream text;
        TraceRecorder recorder(text, image.program, op.config,
                               image.name);
        TeeTraceSink tee;
        tee.add(&ddg);
        tee.add(&recorder);

        SimResult sim;
        bool good = false;
        std::string why;
        if (!spans) {
            RunResult run =
                runWorkload(*op.workload, op.config, kScale, &tee);
            sim.finished = run.finished;
            sim.cycles = run.cycles;
            sim.committedInstructions = run.committed;
            good = run.finished && run.verified;
            why = run.verifyMessage;
        } else {
            SteppedRun run = runSteps(image, op.config, &tee, spans,
                                      index, "core+recorders.run");
            sim = run.sim;
            good = run.sim.finished && run.verdict.ok;
            why = run.verdict.message;
        }
        recorder.noteResult(sim);
        tee.finish();
        outputs_[index] = sim.cycles + sim.committedInstructions;

        const std::string where = image.name + " grid point " +
                                  std::to_string(op.gridIndex);
        if (!good)
            return fail(failures.goldenMismatch, where + ": " + why);
        if (sim.cycles != op.expectedCycles ||
            sim.committedInstructions != op.expectedCommitted) {
            return fail(failures.goldenMismatch,
                        where + ": recorded " +
                            std::to_string(sim.cycles) +
                            " cycles, golden " +
                            std::to_string(op.expectedCycles));
        }

        std::unique_ptr<DdgGraph> graph;
        {
            ScopedSpan span(spans, "critpath.build", index);
            graph = std::make_unique<DdgGraph>(ddg.trace(), op.config,
                                               sim.cycles);
        }
        counts.ddgNodes += graph->nodeCount();
        std::string mismatch;
        {
            ScopedSpan span(spans, "critpath.verify", index);
            mismatch = graph->verifyExact();
        }
        if (!mismatch.empty())
            return fail(failures.inexact, where + ": " + mismatch);

        std::string document = std::move(text).str();
        counts.traceBytes += document.size();
        TraceReadResult read;
        {
            ScopedSpan span(spans, "trace_frontend.read", index);
            std::istringstream in(std::move(document));
            read = readTrace(in);
        }
        if (!read.ok) {
            return fail(failures.replayMismatch,
                        where + ": " + read.error.toString());
        }
        ExactReplayResult replay;
        {
            ScopedSpan span(spans, "trace_frontend.replay", index);
            replay = replayExact(read.trace, op.config);
        }
        if (!replay.verified || replay.sim.cycles != sim.cycles) {
            return fail(failures.replayMismatch,
                        where + ": replay " +
                            std::to_string(replay.sim.cycles) +
                            " cycles, recorded " +
                            std::to_string(sim.cycles) + " " +
                            replay.firstMismatch);
        }
        return true;
    }

    /**
     * The same point without observers and with the DDG recorder
     * alone, so the traced run can split the recorded cycle loop's
     * cost between the core and each recorder.
     */
    void
    probe(std::size_t index, SpanLog *spans) override
    {
        const GridOp &op = ops_[index];
        WorkloadImage image =
            op.workload->build(op.config.numThreads, kScale);
        auto decoded = DecodedProgram::decode(image.program);
        {
            Processor cpu(op.config, decoded);
            ScopedSpan span(spans, "probe.core.run", index);
            cpu.run();
        }
        {
            DdgRecorder ddg;
            Processor cpu(op.config, decoded);
            cpu.setTraceSink(&ddg);
            ScopedSpan span(spans, "probe.critpath.run", index);
            cpu.run();
        }
    }
};

/** What-if lattice points projected against fixed recordings. */
class WhatifKind final : public Kind
{
  public:
    explicit WhatifKind(const KindOptions &options) : options_(options)
    {
    }

    const char *name() const override { return "whatif"; }

    void
    setup(SpanLog *spans) override
    {
        // sdsp_bench_explore's recordings.
        config_ = bench::paperConfig(4);
        for (const char *name : {"LL1", "LL5", "Sieve"}) {
            ExploreRecording recording;
            {
                ScopedSpan span(spans, "explore.record_baseline", -1);
                recording =
                    recordBaseline(workloadByName(name), config_, kScale);
            }
            if (!recording.error.empty()) {
                ++failures.inexact;
                throw std::runtime_error(std::string("recording ") +
                                         name + ": " + recording.error);
            }
            counts.graphNodes += recording.graph->nodeCount();
            counts.graphEdges += recording.graph->edgeCount();
            recordings_.push_back(std::move(recording));
        }

        std::vector<LatticePoint> lattice;
        {
            ScopedSpan span(spans, "explore.lattice", -1);
            lattice = buildLattice(LatticeAxes::full(), config_);
        }
        // A seeded sample without replacement (partial Fisher-Yates)
        // that always holds the one Exact point, whose projection
        // must reproduce the measured cycles.
        std::vector<std::size_t> index(lattice.size());
        for (std::size_t i = 0; i < index.size(); ++i)
            index[i] = i;
        std::size_t count = std::min(
            options_.maxOps ? options_.maxOps : kWhatifSample,
            index.size());
        std::uint64_t state = options_.seed ^ 0x776861746966ULL;
        for (std::size_t i = 0; i < count; ++i) {
            std::size_t j =
                i + nextRandom(state) % (index.size() - i);
            std::swap(index[i], index[j]);
        }
        index.resize(count);
        auto exact = std::find_if(
            lattice.begin(), lattice.end(), [](const LatticePoint &p) {
                return p.confidence == Confidence::Exact;
            });
        std::size_t exact_index = exact - lattice.begin();
        if (std::find(index.begin(), index.end(), exact_index) ==
            index.end())
            index[0] = exact_index;

        points_.clear();
        for (std::size_t i : index)
            points_.push_back(lattice[i]);
        ids_.assign(index.begin(), index.end());
        outputs_.assign(ids_.size(), 0);
        reference_.assign(points_.size(), 0);
        frontier_.clear();
    }

    bool
    runOp(std::size_t index, SpanLog *spans) override
    {
        LatticePoint &point = points_[index];
        point.projected.clear();
        point.projectedTotal = 0;
        bool ok = true;
        for (const ExploreRecording &recording : recordings_) {
            RelaxResult result;
            {
                ScopedSpan span(spans, "critpath.relax", index);
                result = recording.graph->relax(point.whatIf);
            }
            point.projected.push_back(result.cycles);
            point.projectedTotal += result.cycles;
            if (point.confidence == Confidence::Exact &&
                result.cycles != recording.measured) {
                ok = fail(failures.inexact,
                          "baseline projection of " +
                              recording.workload + ": " +
                              std::to_string(result.cycles) +
                              " cycles, measured " +
                              std::to_string(recording.measured));
            }
            if (point.whatIf.isPureCapacityIncrease(config_) &&
                result.cycles > recording.measured) {
                ok = fail(failures.boundViolations,
                          point.name + " projects " +
                              std::to_string(result.cycles) +
                              " cycles on " + recording.workload +
                              ", above the measured " +
                              std::to_string(recording.measured));
            }
        }
        outputs_[index] = point.projectedTotal;
        ++counts.projected;
        if (point.confidence == Confidence::PessimisticBound)
            ++counts.pessimistic;

        // Every later pass must reproduce the first one exactly.
        std::uint64_t &expected = reference_[index];
        if (expected == 0) {
            expected = point.projectedTotal;
            if (static_cast<long>(index) == options_.corruptOp)
                ++expected;
        } else if (point.projectedTotal != expected) {
            ok = fail(failures.unstable,
                      point.name + " projected " +
                          std::to_string(point.projectedTotal) +
                          " cycles, first pass " +
                          std::to_string(expected));
        }
        return ok;
    }

    bool
    endRound(SpanLog *spans) override
    {
        std::vector<std::size_t> frontier;
        {
            ScopedSpan span(spans, "explore.frontier", -1);
            frontier = paretoFrontier(points_);
        }
        if (frontier_.empty() || frontier == frontier_) {
            frontier_ = std::move(frontier);
            return true;
        }
        return fail(failures.unstable,
                    "the Pareto frontier changed between rounds");
    }

    double
    cyclesPerPass() const override
    {
        double cycles = 0.0;
        for (std::uint64_t total : reference_)
            cycles += static_cast<double>(total);
        return cycles;
    }


  private:
    KindOptions options_;
    MachineConfig config_;
    std::vector<ExploreRecording> recordings_;
    std::vector<LatticePoint> points_;
    std::vector<std::uint64_t> reference_;
    std::vector<std::size_t> frontier_;
};

} // namespace

std::uint64_t
Kind::checksum() const
{
    std::uint64_t sum = 0;
    for (std::uint64_t value : outputs_)
        sum += value;
    return sum;
}

bool
Kind::fail(std::uint64_t &counter, const std::string &why)
{
    ++counter;
    if (firstError.empty())
        firstError = why;
    return false;
}

const std::vector<std::string> &
kindNames()
{
    static const std::vector<std::string> names{"grid", "whatif",
                                                "record"};
    return names;
}

std::unique_ptr<Kind>
makeKind(const std::string &name, const KindOptions &options)
{
    if (name == "grid")
        return std::make_unique<GridKind>(options);
    if (name == "whatif")
        return std::make_unique<WhatifKind>(options);
    if (name == "record")
        return std::make_unique<RecordKind>(options);
    return nullptr;
}

} // namespace perfbench
