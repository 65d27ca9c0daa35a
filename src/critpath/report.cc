#include "critpath/report.hh"

#include "common/json.hh"
#include "common/logging.hh"

namespace sdsp
{

void
critpathReportStats(const DdgGraph &graph,
                    const CriticalPath &baseline,
                    StatsRegistry &registry)
{
    registry.add("critpath.cycles",
                 static_cast<double>(baseline.cycles));
    registry.add("critpath.nodes",
                 static_cast<double>(graph.nodeCount()));
    registry.add("critpath.edges",
                 static_cast<double>(graph.edgeCount()));
    for (unsigned c = 0; c < kNumEdgeClasses; ++c) {
        const char *name =
            edgeClassName(static_cast<EdgeClass>(c));
        registry.add(format("critpath.breakdown.%s", name),
                     static_cast<double>(baseline.breakdown[c]));
        registry.add(format("critpath.edges.%s", name),
                     static_cast<double>(baseline.edgeCounts[c]));
    }
    std::array<Distribution, kNumEdgeClasses> slack;
    graph.slackHistograms(slack);
    for (unsigned c = 0; c < kNumEdgeClasses; ++c) {
        if (slack[c].count() == 0)
            continue;
        registry.addDistribution(
            format("critpath.slack.%s",
                   edgeClassName(static_cast<EdgeClass>(c))),
            slack[c]);
    }
}

namespace
{

void
writeBreakdown(JsonWriter &w, const CriticalPath &result)
{
    w.key("breakdown").beginObject();
    for (unsigned c = 0; c < kNumEdgeClasses; ++c) {
        if (!result.breakdown[c] && !result.edgeCounts[c])
            continue;
        w.key(edgeClassName(static_cast<EdgeClass>(c)))
            .beginObject()
            .field("cycles", result.breakdown[c])
            .field("edges", result.edgeCounts[c])
            .endObject();
    }
    w.endObject();
}

} // namespace

std::string
critpathJson(const std::string &workload, const DdgGraph &graph,
             const CriticalPath &baseline,
             const std::vector<WhatIfProjection> &projections)
{
    const MachineConfig &config = graph.config();
    JsonWriter w;
    w.beginObject();
    w.field("schema", "sdsp-critpath-v1");
    w.field("workload", workload);
    w.key("config")
        .beginObject()
        .field("numThreads", config.numThreads)
        .field("blockSize", config.blockSize)
        .field("suEntries", config.suEntries)
        .field("issueWidth", config.issueWidth)
        .field("bypassing", config.bypassing)
        .endObject();
    w.field("measuredCycles", graph.measuredCycles());
    w.field("nodes",
            static_cast<std::uint64_t>(graph.nodeCount()));
    w.field("edges",
            static_cast<std::uint64_t>(graph.edgeCount()));

    w.key("criticalPath").beginObject();
    w.field("cycles", baseline.cycles);
    w.field("exact", baseline.cycles == graph.measuredCycles());
    writeBreakdown(w, baseline);
    w.endObject();

    std::array<Distribution, kNumEdgeClasses> slack;
    graph.slackHistograms(slack);
    w.key("slack").beginObject();
    for (unsigned c = 0; c < kNumEdgeClasses; ++c) {
        if (slack[c].count() == 0)
            continue;
        w.key(edgeClassName(static_cast<EdgeClass>(c)))
            .beginObject()
            .field("edges", slack[c].count())
            .field("mean", slack[c].mean())
            .field("max", slack[c].max())
            .endObject();
    }
    w.endObject();

    w.key("whatIf").beginArray();
    for (const WhatIfProjection &p : projections) {
        w.beginObject();
        w.field("name", p.name);
        w.field("cycles", p.result.cycles);
        w.field("confidence", confidenceName(p.result.confidence));
        w.field("skippedCapacityEdges",
                p.result.skippedCapacityEdges);
        w.field("speedup",
                p.result.cycles
                    ? static_cast<double>(graph.measuredCycles()) /
                          static_cast<double>(p.result.cycles)
                    : 0.0);
        writeBreakdown(w, p.result);
        w.endObject();
    }
    w.endArray();

    w.endObject();
    return w.str();
}

} // namespace sdsp
