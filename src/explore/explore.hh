/**
 * @file
 * Design-space exploration over the critical-path engine.
 *
 * The loop the paper could not afford: one real simulation per
 * workload records a dependence graph, then THOUSANDS of machine
 * variants are projected from each recording in milliseconds via
 * DdgGraph::relax(). The Pareto frontier of (hardware cost,
 * projected cycles) — a handful of points — is then re-simulated for
 * real through the SweepRunner, and the artifact reports every
 * frontier point's projection error plus an optimistic-bound
 * soundness verdict (pure capacity increases must satisfy
 * projected <= measured). See DESIGN.md §11.
 */

#ifndef SDSP_EXPLORE_EXPLORE_HH
#define SDSP_EXPLORE_EXPLORE_HH

#include <memory>
#include <string>
#include <vector>

#include "explore/lattice.hh"
#include "workloads/workload.hh"

namespace sdsp
{

/** One recorded baseline run driving the projections. */
struct ExploreRecording
{
    const Workload *source = nullptr;
    std::string workload;
    unsigned threads = 0;
    Cycle measured = 0;
    std::uint64_t committed = 0;
    std::unique_ptr<DdgGraph> graph;
    /** Host seconds spent building graph and checking it exact. */
    double buildSeconds = 0.0;
    /** Non-empty when the run failed or the graph was inexact; the
     *  recording is unusable then (graph is null). */
    std::string error;
};

/**
 * Run @p workload once on @p config at @p scale as a recorded sweep
 * job (budgets, retries and fault injection from the environment),
 * which builds the graph and hard-verifies exactness. A failed run
 * is reported via `error`, whose prefix names the cause: "did not
 * finish: ", "failed verification: " or "inexact critical path: "
 * (a thrown failure carries its own text).
 */
ExploreRecording recordBaseline(const Workload &workload,
                                const MachineConfig &config,
                                unsigned scale);

/**
 * Record every one of @p workloads on @p config at @p scale as one
 * recorded sweep on @p jobs worker threads (0 = the sweep's default).
 * The recordings come back in @p workloads order, each as
 * recordBaseline() returns it, so the result is the same for any job
 * count.
 */
std::vector<ExploreRecording>
recordBaselines(const std::vector<const Workload *> &workloads,
                const MachineConfig &config, unsigned scale,
                unsigned jobs);

/**
 * Fill every point's per-recording projections and total via
 * DdgGraph::relax on @p jobs worker threads (parallelFor). Points
 * are independent, so the result is bit-identical for any job count.
 */
void projectLattice(std::vector<LatticePoint> &points,
                    const std::vector<ExploreRecording> &recordings,
                    unsigned jobs);

/** One frontier point validated against real re-simulations. */
struct FrontierValidation
{
    std::size_t point = 0; //!< index into the lattice points
    /** Re-simulated cycles per recording (0 where the run failed). */
    std::vector<Cycle> resimulated;
    /** Per-recording failure detail; empty = ok. */
    std::vector<std::string> errors;
    Cycle resimTotal = 0;
    bool allOk = false;
    /** Signed (projected - resimulated) / resimulated * 100 over the
     *  totals; only meaningful when allOk. */
    double errorPercent = 0.0;
    /** True when the point is a pure capacity increase, so
     *  projected <= resimulated is a soundness requirement. */
    bool soundnessGated = false;
    /** soundnessGated and the point's projected total came out
     *  ABOVE its re-simulated total — an optimistic-bound
     *  violation. Gated on totals (the frontier's coordinate);
     *  per-recording divergence stays visible in the arrays. */
    bool optimisticViolation = false;
};

/**
 * Re-simulate every frontier point x recording for real through the
 * SweepRunner (budgets/retries from the environment as usual) and
 * compare against the projections. Outcomes are in frontier order.
 */
std::vector<FrontierValidation>
validateFrontier(const std::vector<LatticePoint> &points,
                 const std::vector<std::size_t> &frontier,
                 const std::vector<ExploreRecording> &recordings,
                 const MachineConfig &base, unsigned scale,
                 unsigned jobs);

/** The problem scale (percent) of the golden grid; projection
 *  tolerances are anchored there. */
constexpr unsigned kGoldenScale = 25;

/**
 * A projection-error tolerance (percent) at @p scale: @p base_percent
 * up to kGoldenScale, widening linearly above it (a relieved
 * bottleneck reshuffles more memory accesses at larger scales),
 * capped at @p cap_percent.
 */
double scaledTolerancePercent(unsigned scale, double base_percent,
                              double cap_percent);

/**
 * The frontier-validation tolerance: 15% at the golden scale, capped
 * at 40%. Wider than the critpath spot-check gate because the
 * frontier mixes capacity, latency, and cache what-ifs whose
 * re-weighted projections are not one-sided (the reduced lattice's
 * worst frontier point sits at ~11% at scale 25).
 */
constexpr double kExploreTolerancePercent = 15.0;
constexpr double kExploreToleranceCapPercent = 40.0;

/** Everything exploreJson() serializes (sdsp-explore-v1). */
struct ExploreReport
{
    MachineConfig base;
    unsigned scale = 0;
    double tolerancePercent = 0.0;
    /** Serialize every lattice point, not just the frontier
     *  (artifacts grow to ~1 MB on the full lattice). */
    bool includeAllPoints = false;
    const std::vector<ExploreRecording> *recordings = nullptr;
    const std::vector<LatticePoint> *points = nullptr;
    const std::vector<std::size_t> *frontier = nullptr;
    /** Null when re-simulation was skipped (--no-resim). */
    const std::vector<FrontierValidation> *validations = nullptr;
};

/** Gate-relevant summary, also embedded in the JSON artifact. */
struct ExploreSummary
{
    std::size_t latticePoints = 0;
    std::size_t exact = 0;
    std::size_t optimistic = 0;
    std::size_t pessimistic = 0;
    std::size_t frontierSize = 0;
    std::size_t validated = 0;       //!< frontier points re-simulated
    std::size_t resimFailures = 0;   //!< frontier points not allOk
    std::size_t optimisticViolations = 0;
    /** Max |errorPercent| across allOk validations. */
    double maxAbsErrorPercent = 0.0;
    /** Re-simulation ran (the report carries validations). */
    bool resimulated = false;
};

/** Compute the summary the JSON embeds and the gates check. */
ExploreSummary summarize(const ExploreReport &report);

/**
 * The gates @p summary fails, one message each (empty = pass): an
 * empty frontier and, when re-simulation ran, a frontier point left
 * un-simulated, a failed re-simulation, an optimistic-bound
 * violation, or a max |error| above @p tolerance_percent.
 */
std::vector<std::string>
exploreGateFailures(const ExploreSummary &summary,
                    double tolerance_percent);

/** The sdsp-explore-v1 JSON document. */
std::string exploreJson(const ExploreReport &report);

} // namespace sdsp

#endif // SDSP_EXPLORE_EXPLORE_HH
