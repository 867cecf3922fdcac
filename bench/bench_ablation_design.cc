// Ablation of *this implementation's* design choices —
// knobs the paper leaves unspecified, measured so their defaults are
// justified rather than folklore:
//   A. server aggregation: mean of client deltas vs the literal Eq. 4 sum,
//   B. DDR correlation row-sampling budget,
//   C. RESKD budget (|Vkd| x steps),
//   D. the §III-A local validation carve-out on/off.
// Runs a single ML / Fed-NCF cell per variant.
#include <cstdio>

#include "bench/common.h"
#include "src/core/trainer.h"
#include "src/util/table_printer.h"

namespace hetefedrec::bench {
namespace {

int Main(int argc, char** argv) {
  CommandLine cli;
  AddCommonFlags(&cli);
  Status st = cli.Parse(argc, argv);
  if (!st.ok()) return FailWith(st);
  auto base = ConfigFromFlags(cli);
  if (!base.ok()) return FailWith(base.status());
  base->dataset = "ml";
  ApplyPaperDims(&*base);

  TablePrinter table("Implementation design-choice ablation (ML, Fed-NCF)",
                     {"Axis", "Variant", "NDCG", "Recall", "Collapse(norm)"});

  auto run = [&](const char* axis, const char* name,
                 const ExperimentConfig& cfg) {
    auto runner = ExperimentRunner::Create(cfg);
    HFR_CHECK(runner.ok()) << runner.status().ToString();
    std::fprintf(stderr, "[design] %s / %s ...\n", axis, name);
    ExperimentResult r = (*runner)->Run(Method::kHeteFedRec);
    table.AddRow({axis, name, TablePrinter::Num(r.final_eval.overall.ndcg),
                  TablePrinter::Num(r.final_eval.overall.recall),
                  TablePrinter::Num(r.collapse_cv, 4)});
  };

  // A. Aggregation mode.
  {
    ExperimentConfig cfg = *base;
    cfg.aggregation = AggregationMode::kMean;
    run("aggregation", "mean (default)", cfg);
    cfg.aggregation = AggregationMode::kSum;
    run("aggregation", "sum (Eq. 4 literal)", cfg);
  }
  table.AddSeparator();

  // A2. Data-size-weighted FedAvg (McMahan et al.) as a third option.
  {
    ExperimentConfig cfg = *base;
    cfg.aggregation = AggregationMode::kDataWeighted;
    run("aggregation", "data-weighted mean", cfg);
  }
  table.AddSeparator();

  // B. DDR row-sampling budget.
  for (size_t rows : {size_t{64}, size_t{256}, size_t{0}}) {
    ExperimentConfig cfg = *base;
    cfg.ddr_sample_rows = rows;
    std::string label = rows == 0 ? "all rows" : std::to_string(rows);
    run("ddr_rows", label.c_str(), cfg);
  }
  table.AddSeparator();

  // C. RESKD budget.
  {
    ExperimentConfig cfg = *base;
    run("reskd", "32 items x 2 steps (default)", cfg);
    cfg.kd_items = 128;
    cfg.kd_steps = 5;
    cfg.kd_lr = 0.01;
    run("reskd", "128 items x 5 steps, lr 0.01", cfg);
    cfg = *base;
    cfg.ensemble_distillation = false;
    run("reskd", "off", cfg);
  }
  table.AddSeparator();

  // D. Local validation carve-out.
  {
    ExperimentConfig cfg = *base;
    run("validation", "off (default)", cfg);
    cfg.local_validation_fraction = 0.1;
    run("validation", "10% carve-out (paper §III-A)", cfg);
  }

  table.Print();
  st = table.WriteCsv(CsvPath(cli, "ablation_design"));
  if (!st.ok()) std::fprintf(stderr, "%s\n", st.ToString().c_str());
  return 0;
}

}  // namespace
}  // namespace hetefedrec::bench

int main(int argc, char** argv) { return hetefedrec::bench::Main(argc, argv); }
