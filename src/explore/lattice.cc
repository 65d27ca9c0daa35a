#include "explore/lattice.hh"

#include <algorithm>

#include "common/logging.hh"

namespace sdsp
{

std::size_t
LatticeAxes::pointCount() const
{
    std::size_t count = 1;
    for (const LatticeAxis &axis : axes)
        count *= axis.values.size();
    return axes.empty() ? 0 : count;
}

void
LatticeAxes::overrideAxis(LatticeAxis axis)
{
    for (LatticeAxis &existing : axes) {
        if (existing.key == axis.key) {
            existing = std::move(axis);
            return;
        }
    }
    axes.push_back(std::move(axis));
}

LatticeAxes
LatticeAxes::full()
{
    LatticeAxes axes;
    axes.axes = {
        {"issueWidth", {4, 8, 12, 16, 24, 32}},
        {"suEntries", {16, 32, 48, 64, 96, 128}},
        {"fuLat.Load", {1, 2, 4}},
        {"fuLat.FpMul", {1, 3}},
        {"fuLat.IntDiv", {6, 12}},
        {"perfectDCache", {0, 1}},
        {"bypassing", {0, 1}},
        {"infiniteStoreBuffer", {0, 1}},
    };
    return axes;
}

LatticeAxes
LatticeAxes::reduced()
{
    LatticeAxes axes;
    axes.axes = {
        {"issueWidth", {8, 16}},
        {"suEntries", {16, 32, 64}},
        {"perfectDCache", {0, 1}},
        {"infiniteStoreBuffer", {0, 1}},
    };
    return axes;
}

double
latticeCost(const WhatIf &what_if, const MachineConfig &base)
{
    const AppliedWhatIf applied = what_if.appliedTo(base);
    double cost = 0.0;
    cost += 4.0 * applied.issueWidth;
    cost += 1.0 * applied.suEntries;
    if (applied.bypassing)
        cost += 1.0 * applied.issueWidth;
    cost += applied.infiniteStoreBuffer
                ? 32.0
                : 0.5 * applied.storeBufferEntries;
    cost += applied.perfectDCache
                ? 64.0
                : 2.0 * (static_cast<double>(base.dcache.sizeBytes) /
                         1024.0);
    for (unsigned c = 0; c < kNumFuClasses; ++c) {
        cost += 2.0 * base.fu.count[c] *
                (static_cast<double>(base.fu.latency[c]) /
                 applied.fuLatency[c]);
    }
    return cost;
}

std::vector<LatticePoint>
buildLattice(const LatticeAxes &axes, const MachineConfig &base)
{
    std::vector<LatticePoint> points;
    const std::size_t total = axes.pointCount();
    if (!total)
        return points;
    points.reserve(total);

    // Odometer over the axes: the last axis spins fastest.
    std::vector<std::size_t> digit(axes.axes.size(), 0);
    for (std::size_t n = 0; n < total; ++n) {
        LatticePoint point;
        for (std::size_t a = 0; a < axes.axes.size(); ++a) {
            const LatticeAxis &axis = axes.axes[a];
            const std::uint64_t value = axis.values[digit[a]];
            std::string error;
            if (!point.whatIf.set(axis.key, value, &error))
                fatal("bad lattice axis %s=%llu: %s", axis.key.c_str(),
                      static_cast<unsigned long long>(value),
                      error.c_str());
        }
        point.name = point.whatIf.describe(base);
        point.cost = latticeCost(point.whatIf, base);
        point.confidence = classifyWhatIf(point.whatIf, base);
        points.push_back(std::move(point));

        for (std::size_t a = axes.axes.size(); a-- > 0;) {
            if (++digit[a] < axes.axes[a].values.size())
                break;
            digit[a] = 0;
        }
    }
    return points;
}

std::vector<std::size_t>
paretoFrontier(const std::vector<LatticePoint> &points)
{
    std::vector<std::size_t> eligible;
    for (std::size_t i = 0; i < points.size(); ++i)
        if (points[i].confidence != Confidence::PessimisticBound)
            eligible.push_back(i);

    std::sort(eligible.begin(), eligible.end(),
              [&](std::size_t a, std::size_t b) {
                  const LatticePoint &pa = points[a];
                  const LatticePoint &pb = points[b];
                  if (pa.cost != pb.cost)
                      return pa.cost < pb.cost;
                  if (pa.projectedTotal != pb.projectedTotal)
                      return pa.projectedTotal < pb.projectedTotal;
                  return pa.name < pb.name;
              });

    // Staircase sweep: a point joins the frontier iff it is strictly
    // faster than everything at least as cheap. Equal-(cost, cycles)
    // duplicates keep only the first name.
    std::vector<std::size_t> frontier;
    bool any = false;
    Cycle best = 0;
    for (std::size_t idx : eligible) {
        const Cycle cycles = points[idx].projectedTotal;
        if (!any || cycles < best) {
            frontier.push_back(idx);
            best = cycles;
            any = true;
        }
    }
    return frontier;
}

} // namespace sdsp
