/**
 * @file
 * What-if lattice enumeration and the hardware cost model.
 *
 * The design-space explorer sweeps a cartesian lattice of WhatIf
 * parameters (issue width x SU depth x FU latencies x cache/bypass/
 * store-buffer behavior). Each axis is a WhatIf key plus the values
 * it takes — including the baseline value explicitly, so every
 * lattice point names its full coordinates and exactly one point is
 * classified Exact. Points carry an additive hardware cost (see
 * latticeCost) so a Pareto frontier of (cost, projected cycles) can
 * be cut from the projected lattice.
 */

#ifndef SDSP_EXPLORE_LATTICE_HH
#define SDSP_EXPLORE_LATTICE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hh"
#include "critpath/ddg.hh"

namespace sdsp
{

/** One lattice axis: a WhatIf key and the values it sweeps. */
struct LatticeAxis
{
    std::string key;                   //!< a WhatIf::set key
    std::vector<std::uint64_t> values; //!< swept, baseline included
};

/** The axes of the cartesian what-if lattice. */
struct LatticeAxes
{
    std::vector<LatticeAxis> axes;

    /** Product of the axis sizes (0 when any axis is empty). */
    std::size_t pointCount() const;

    /** Replace the axis with @p axis.key, or append a new one. */
    void overrideAxis(LatticeAxis axis);

    /**
     * The full design-space lattice: 3456 points spanning issue
     * width {4..32}, SU entries {16..128}, load latency {1,2,4},
     * FP-multiply latency {1,3}, integer-divide latency {6,12},
     * perfect D-cache, bypassing, and infinite store buffer.
     * Width/SU values below the baseline are included deliberately —
     * they exercise the pessimistic-bound tagging and are excluded
     * from frontier candidacy.
     */
    static LatticeAxes full();

    /** A 24-point sub-lattice for smoke tests and the CI gate
     *  (width {8,16} x SU {16,32,64} x perfect D-cache x infinite
     *  store buffer). */
    static LatticeAxes reduced();
};

/** One enumerated design point of the lattice. */
struct LatticePoint
{
    /** WhatIf::describe against the base config — the stable,
     *  unique name used in tables, JSON, and determinism checks. */
    std::string name;
    WhatIf whatIf;
    /** Additive hardware cost (arbitrary units, see latticeCost). */
    double cost = 0.0;
    /** Trust class against the base config (classifyWhatIf). */
    Confidence confidence = Confidence::Exact;
    /** Projected cycles per recording (filled by projectLattice). */
    std::vector<Cycle> projected;
    /** Sum of `projected` — the frontier's cycles coordinate. */
    Cycle projectedTotal = 0;
};

/**
 * Additive hardware-cost model, in arbitrary "area" units. Not a
 * silicon model — a monotone proxy that makes capacity trade-offs
 * comparable so the Pareto frontier is meaningful:
 *
 *   4 x issue width            (select/wakeup logic)
 * + 1 x SU entries             (CAM + payload RAM)
 * + 1 x issue width if bypassing (forwarding network grows with
 *                               the number of result buses)
 * + store buffer: 0.5/entry, or a flat 32 for the infinite one
 * + D-cache: 2 per KB, or a flat 64 for the perfect one
 * + per FU class: 2 x count x (baseline latency / latency) — a unit
 *   twice as fast costs twice as much, a slower one is cheaper
 *
 * Every term reads what_if.appliedTo(base). Deterministic: pure
 * double arithmetic over the config, no state.
 */
double latticeCost(const WhatIf &what_if, const MachineConfig &base);

/**
 * Enumerate the cartesian product of @p axes into named, costed,
 * confidence-classified points (projections not yet filled), each
 * axis applied as a (key, value) pair. Fatals on an axis key/value
 * WhatIf::set rejects. Point order is
 * the odometer order of the axes — deterministic for a given axes
 * value, independent of thread count.
 */
std::vector<LatticePoint> buildLattice(const LatticeAxes &axes,
                                       const MachineConfig &base);

/**
 * The indices of the Pareto-optimal points under (cost ascending,
 * projectedTotal ascending), considering ONLY Exact and
 * OptimisticBound points: a pessimistic bound can sit far below
 * reality and would wrongly dominate honest projections. Ties on
 * (cost, cycles) keep the lexicographically first name. The result
 * is sorted by cost and deterministic for given point values —
 * independent of enumeration threading.
 */
std::vector<std::size_t>
paretoFrontier(const std::vector<LatticePoint> &points);

} // namespace sdsp

#endif // SDSP_EXPLORE_LATTICE_HH
