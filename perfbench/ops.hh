/**
 * @file
 * The benchmark's workloads. Each one owns a fixed op list drawn from
 * the seed during set-up, runs one op at a time on the calling thread,
 * and checks every op's output. With a SpanLog attached an op is
 * split into the public calls it is made of, one span per call.
 *
 *   grid    every deduplicated paper-grid point (scale 25) through
 *           SweepRunner::runAll (1 job, no batching) + appendJson;
 *           checked against the scale-25 golden grid.
 *   whatif  a seeded sample of the full what-if lattice, each point
 *           relaxed against three recorded dependence graphs, plus
 *           one Pareto frontier per round.
 *   record  a seeded sample of grid points, each recorded with the
 *           DDG and trace recorders, graph built and verified, the
 *           trace parsed back and replayed exactly.
 */

#ifndef PERFBENCH_OPS_HH
#define PERFBENCH_OPS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "spans.hh"

namespace perfbench
{

/** What set-up needs to build a workload's inputs. */
struct KindOptions
{
    std::uint64_t seed = 1;
    /** Keep only the first N ops of the list (0 = all). */
    std::size_t maxOps = 0;
    /** Add one to the expected count of this op (-1 = none), so a
     *  smoke test can see a wrong answer counted as a failure. */
    long corruptOp = -1;
    /** The scale-25 golden grid (sdsp_bench_all JSON). */
    std::string goldenPath;
};

/** Failed checks by layer (per-layer failure counts). */
struct LayerFailures
{
    std::uint64_t goldenMismatch = 0;  //!< core: cycles/committed/verify
    std::uint64_t failedJobs = 0;      //!< harness: runAll outcome
    std::uint64_t inexact = 0;         //!< critpath: verifyExact
    std::uint64_t boundViolations = 0; //!< explore: projected > measured
    std::uint64_t replayMismatch = 0;  //!< trace_frontend: replay
    std::uint64_t unstable = 0;        //!< explore: pass-to-pass change
};

/** Work counts, summed over every op run, for the per-layer
 *  metrics. */
struct LayerCounts
{
    std::uint64_t jsonBytes = 0;   //!< appendJson output
    std::uint64_t traceBytes = 0;  //!< recorded trace text
    std::uint64_t ddgNodes = 0;    //!< nodes of the graphs built
    std::uint64_t projected = 0;   //!< lattice points projected
    std::uint64_t pessimistic = 0; //!< ...tagged pessimistic-bound
    /** Size of whatif's three recorded graphs (set-up). */
    std::uint64_t graphNodes = 0;
    std::uint64_t graphEdges = 0;
};

/** One benchmark workload. */
class Kind
{
  public:
    virtual ~Kind() = default;

    virtual const char *name() const = 0;

    /** Build the op list and every input it needs (the timed set-up).
     *  Throws std::runtime_error when an input cannot be built. */
    virtual void setup(SpanLog *spans) = 0;

    std::size_t opCount() const { return ids_.size(); }

    /** Run op @p op; false when its output check failed. */
    virtual bool runOp(std::size_t op, SpanLog *spans) = 0;

    /** Once-per-round work after the ops; false on a failed check. */
    virtual bool endRound(SpanLog *) { return true; }

    /** Traced run only: extra untimed variants of op @p op that let
     *  a layer's cost be told apart from its neighbours'. */
    virtual void probe(std::size_t, SpanLog *) {}

    /** Simulated (or, for whatif, projected) cycles of one pass. */
    virtual double cyclesPerPass() const = 0;

    /** Op identities (grid or lattice indices), in list order. */
    const std::vector<std::uint64_t> &opIds() const { return ids_; }

    /** Sum of the ops' deterministic outputs, each from its last run
     *  (cycles + committed, or the projected total). */
    std::uint64_t checksum() const;

    LayerFailures failures;
    LayerCounts counts;
    /** The first failed check, for the report. */
    std::string firstError;

  protected:
    /** Record a failed check; @return false for convenience. */
    bool fail(std::uint64_t &counter, const std::string &why);

    /** Set by setup(): one entry per op. */
    std::vector<std::uint64_t> ids_;
    /** Filled by runOp(). */
    std::vector<std::uint64_t> outputs_;
};

/** Workload names, in the order the traced run visits them. */
const std::vector<std::string> &kindNames();

/** Make workload @p name (one of kindNames()); null when unknown. */
std::unique_ptr<Kind> makeKind(const std::string &name,
                               const KindOptions &options);

} // namespace perfbench

#endif // PERFBENCH_OPS_HH
