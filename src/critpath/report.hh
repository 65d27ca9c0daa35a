/**
 * @file
 * Reporting for the critical-path engine: StatsRegistry export and
 * the JSON artifact schema of sdsp-run --critpath-json and the bench
 * ("sdsp-critpath-v1").
 */

#ifndef SDSP_CRITPATH_REPORT_HH
#define SDSP_CRITPATH_REPORT_HH

#include <string>
#include <vector>

#include "critpath/ddg.hh"

namespace sdsp
{

/** One named what-if projection and its critical path, for
 *  reporting. */
struct WhatIfProjection
{
    std::string name; //!< e.g. "issueWidth=16,perfectDCache=1"
    WhatIf whatIf;
    CriticalPath result;
};

/**
 * Append "critpath.*" statistics: cycles, node/edge totals, the
 * per-class critical-path breakdown (critpath.breakdown.<class> and
 * critpath.edges.<class>), and non-empty per-class slack histograms
 * (critpath.slack.<class>).
 */
void critpathReportStats(const DdgGraph &graph,
                         const CriticalPath &baseline,
                         StatsRegistry &registry);

/**
 * Serialize one run's analysis as a "sdsp-critpath-v1" JSON
 * document: measured cycles, exactness flag, critical-path breakdown,
 * slack summaries, and the given what-if projections (with speedup
 * vs. measured).
 */
std::string critpathJson(const std::string &workload,
                         const DdgGraph &graph,
                         const CriticalPath &baseline,
                         const std::vector<WhatIfProjection> &
                             projections);

} // namespace sdsp

#endif // SDSP_CRITPATH_REPORT_HH
