// The benchmark's workloads.  Each runs set-up, a timed phase of fixed-work
// chunks, and then its correctness checks, and fills a RunResult with the
// end-to-end metrics (untraced) or the per-layer metrics (traced).
#pragma once

#include "core/optimal_csa.h"
#include "measure.h"

namespace perfbench {

/// The CSA options driftsyncd runs with: loss-tolerant accounting plus the
/// cross-path screen and transactional ingest.
inline driftsync::OptimalCsa::Options daemon_csa_options() {
  driftsync::OptimalCsa::Options opts;
  opts.loss_tolerant = true;
  opts.cross_validation = true;
  return opts;
}

/// OptimalCsa on a seeded 16-node random mesh under gossip.
void run_sim_mesh(const RunOptions& opt, RunResult& result);

/// OptimalCsa on a 32-node ring with periodic probes and 5% loss per link.
void run_sim_lossy(const RunOptions& opt, RunResult& result);

/// One production Node serving a closed-loop fleet of 10,000 clients.
void run_serve_fleet(const RunOptions& opt, RunResult& result);

}  // namespace perfbench
