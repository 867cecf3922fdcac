// Experiment driver: runs any of the paper's seven training schemes end to
// end on one dataset and reports the metrics every bench binary consumes.
#ifndef HETEFEDREC_CORE_TRAINER_H_
#define HETEFEDREC_CORE_TRAINER_H_

#include <memory>
#include <vector>

#include "src/core/config.h"
#include "src/data/dataset.h"
#include "src/eval/evaluator.h"
#include "src/fed/comm.h"
#include "src/fed/groups.h"

namespace hetefedrec {

/// \brief One point of a convergence curve (Fig. 7).
struct EpochPoint {
  int epoch = 0;            // 1-based global epoch
  GroupedEval eval;         // metrics at that epoch
  double mean_train_loss = 0.0;
  /// Simulated-network seconds elapsed when this point was taken (the
  /// virtual clock of the round/event executor, not wall time).
  double simulated_seconds = 0.0;
};

/// \brief Everything one experiment run produces.
struct ExperimentResult {
  GroupedEval final_eval;            // Table II / Fig. 6
  std::vector<EpochPoint> history;   // Fig. 7 (empty if eval_every == 0)
  CommStats comm;                    // Table III
  /// Per-round traffic deltas (CommStats::SnapshotRound), one entry per
  /// completed synchronous round / async merge batch. Filled only when
  /// config.track_round_comm is set; empty otherwise.
  std::vector<CommRound> round_comm;
  /// Variance of the eigenvalues of cov(V_largest) — Table V diagnostic.
  double collapse_variance = 0.0;
  /// Scale-normalized variant: variance of eigenvalues divided by their
  /// squared mean (a squared coefficient of variation). Raw variances
  /// shrink quadratically with embedding magnitude, so this is the robust
  /// quantity to compare across runs at reduced training scale.
  double collapse_cv = 0.0;
  double train_seconds = 0.0;
  /// Total simulated-network seconds the run consumed: the sum of round
  /// durations (each round waits for its slowest merged client) in the
  /// synchronous protocol, the final virtual-clock reading of the event
  /// queue in async mode. 0 for Standalone (no network).
  double simulated_seconds = 0.0;
};

/// \brief Owns the dataset + group division and runs methods against them.
///
/// Construct once per (dataset, config) and call Run for each method so all
/// methods see identical data, splits and group assignment.
class ExperimentRunner {
 public:
  /// Generates the synthetic dataset and divides clients into groups.
  /// Fails on invalid config.
  static StatusOr<std::unique_ptr<ExperimentRunner>> Create(
      const ExperimentConfig& config);

  /// Runs one training scheme to completion.
  ExperimentResult Run(Method method) const;

  const Dataset& dataset() const { return dataset_; }
  const GroupAssignment& groups() const { return groups_; }
  const ExperimentConfig& config() const { return config_; }

 private:
  ExperimentRunner(ExperimentConfig config, Dataset dataset,
                   GroupAssignment groups);

  /// Federated schemes (everything except Standalone).
  ExperimentResult RunFederated(Method method) const;

  /// Per-client isolated training.
  ExperimentResult RunStandalone() const;

  ExperimentConfig config_;
  Dataset dataset_;
  GroupAssignment groups_;
};

}  // namespace hetefedrec

#endif  // HETEFEDREC_CORE_TRAINER_H_
