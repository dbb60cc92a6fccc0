// perfbench/src/workloads.h
//
// The four workloads. Each builds its set-up (timed `setup_repeats` times,
// median reported as setup_s), then runs its timed phase for
// RunOptions::seconds, checks every output against a reference that does not
// come from the code under test, and fills a Report.
//
// Untraced runs report the end-to-end metrics. Traced runs (RunOptions::trace)
// run the timed phase twice, half the time each: once untraced, then once
// with spans around every call into a layer's public function. They report
// the per-layer metrics from the traced half plus trace.ratio.* (traced ÷
// untraced end-to-end figures, the tracing overhead).
#pragma once

#include "measure.h"

namespace perfbench {

Report run_table2_n3(const RunOptions& options);
Report run_outofcore_n5(const RunOptions& options);
Report run_synth_queries(const RunOptions& options);
Report run_serve_automata(const RunOptions& options);

}  // namespace perfbench
