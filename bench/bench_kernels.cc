// Microbenchmarks of the numeric kernels underlying every experiment:
// scoring, backprop, aggregation, DDR and RESKD. Uses google-benchmark.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "src/core/decorrelation.h"
#include "src/core/distillation.h"
#include "src/fed/shard/sharded_server.h"
#include "src/core/local_trainer.h"
#include "src/core/trainer.h"
#include "src/data/dataset.h"
#include "src/data/synthetic.h"
#include "src/eval/metrics.h"
#include "src/eval/topk.h"
#include "src/data/stream.h"
#include "src/fed/shard/sharded_server.h"
#include "src/fed/shard/stream_loop.h"
#include "src/fed/sync/sync_service.h"
#include "src/fed/sync/versioned_table.h"
#include "src/math/activations.h"
#include "src/math/adam.h"
#include "src/math/aligned.h"
#include "src/math/backend.h"
#include "src/math/eigen.h"
#include "src/math/init.h"
#include "src/math/stats.h"
#include "src/models/scorer.h"
#include "src/util/logging.h"

namespace hetefedrec {
namespace {

constexpr size_t kItems = 2048;

Matrix RandomTable(size_t rows, size_t cols, uint64_t seed = 3) {
  Rng rng(seed);
  Matrix m(rows, cols);
  InitNormal(&m, 0.1, &rng);
  return m;
}

void BM_MatMul(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Matrix a = RandomTable(n, n, 1);
  Matrix b = RandomTable(n, n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Matrix::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(16)->Arg(64)->Arg(128);

void BM_FfnForward(benchmark::State& state) {
  const size_t width = static_cast<size_t>(state.range(0));
  FeedForwardNet net(2 * width, {8, 8});
  Rng rng(5);
  net.InitXavier(&rng);
  std::vector<double> x(2 * width, 0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.Forward(x.data(), nullptr));
  }
}
BENCHMARK(BM_FfnForward)->Arg(8)->Arg(32)->Arg(128);

void BM_FfnForwardBackward(benchmark::State& state) {
  const size_t width = static_cast<size_t>(state.range(0));
  FeedForwardNet net(2 * width, {8, 8});
  Rng rng(7);
  net.InitXavier(&rng);
  std::vector<double> x(2 * width, 0.3);
  std::vector<double> dx(2 * width);
  FeedForwardNet grads = FeedForwardNet::ZerosLike(net);
  FeedForwardNet::Cache cache;
  for (auto _ : state) {
    double logit = net.Forward(x.data(), &cache);
    net.Backward(cache, BceWithLogitsGrad(logit, 1.0), &grads, dx.data());
    benchmark::DoNotOptimize(grads);
  }
}
BENCHMARK(BM_FfnForwardBackward)->Arg(8)->Arg(32)->Arg(128);

void BM_BatchedForward(benchmark::State& state) {
  // Per-sample Forward vs one ForwardBatch over the same 256-row block —
  // the shape of one training task's per-epoch sample set. Arg 2 selects
  // the compute backend (0 fp64 | 1 fp32 scalar | 2 fp32 AVX2); the
  // fp32-vs-fp64 ratio at equal algorithm is the backend speedup recorded
  // in docs/PERFORMANCE.md "Numeric backends".
  const size_t width = static_cast<size_t>(state.range(0));
  const bool batched = state.range(1) != 0;
  const int backend = static_cast<int>(state.range(2));
  constexpr size_t kBatch = 256;
  FeedForwardNet net(2 * width, {8, 8});
  Rng rng(5);
  net.InitXavier(&rng);
  std::vector<double> x(kBatch * 2 * width);
  for (double& v : x) v = rng.Normal(0.0, 0.3);
  std::vector<double> logits(kBatch);
  FeedForwardNetF netf;
  netf.AssignCastFrom(net);
  AlignedVector<float> xf(x.begin(), x.end());
  std::vector<float> logitsf(kBatch);
  SetFp32SimdEnabled(backend == 2 && CpuSupportsFp32Simd());
  for (auto _ : state) {
    if (backend != 0) {
      netf.ForwardBatch(xf.data(), kBatch, nullptr, logitsf.data());
      benchmark::DoNotOptimize(logitsf);
    } else if (batched) {
      net.ForwardBatch(x.data(), kBatch, nullptr, logits.data());
    } else {
      for (size_t b = 0; b < kBatch; ++b) {
        logits[b] = net.Forward(x.data() + b * 2 * width, nullptr);
      }
    }
    benchmark::DoNotOptimize(logits);
  }
  SetFp32SimdEnabled(false);
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_BatchedForward)
    ->Args({8, 0, 0})
    ->Args({8, 1, 0})
    ->Args({8, 1, 1})
    ->Args({8, 1, 2})
    ->Args({32, 0, 0})
    ->Args({32, 1, 0})
    ->Args({32, 1, 1})
    ->Args({32, 1, 2})
    ->Args({128, 0, 0})
    ->Args({128, 1, 0})
    ->Args({128, 1, 1})
    ->Args({128, 1, 2});

// Evaluator scoring cost for one user at the Anime paper scale (6,888
// items, width 32): per-item scalar Score vs batched ScoreRange vs the
// candidate slice (test + 200 seeded negatives, eval_candidate_sample
// style). The scalar-vs-batched ratio is the evaluator scoring speedup
// recorded in docs/PERFORMANCE.md (acceptance bar: >= 2x).
void BM_EvalScoring(benchmark::State& state) {
  // Modes 0-2: scoring only (0 scalar | 1 batch | 2 candidates). Modes
  // 3-4: one user's full evaluation inner loop — scoring *and* top-20
  // selection with the train-item mask — through the partial_sort
  // reference (3) vs the fused block-streamed selector (4). Arg 2 selects
  // the compute backend for modes 1 and 4 (0 fp64 | 1 fp32 scalar |
  // 2 fp32 AVX2) — the float path mirrors the evaluator's: float scoring
  // scratch upcast into the double score buffer the selector consumes.
  const int mode = static_cast<int>(state.range(0));
  const BaseModel model =
      state.range(1) == 0 ? BaseModel::kNcf : BaseModel::kLightGcn;
  const int backend = static_cast<int>(state.range(2));
  constexpr size_t kAnimeItems = 6888;
  constexpr size_t kWidth = 32;
  constexpr size_t kTopK = 20;
  Matrix table = RandomTable(kAnimeItems, kWidth, 103);
  Matrix user = RandomTable(1, kWidth, 107);
  FeedForwardNet theta(2 * kWidth, {8, 8});
  Rng rng(109);
  theta.InitXavier(&rng);
  std::vector<ItemId> interacted;
  for (ItemId i = 0; i < 64; ++i) interacted.push_back(i * 97 % kAnimeItems);
  // Candidate slice: ~20 test items + 200 negatives.
  std::vector<ItemId> candidates;
  for (size_t i = 0; i < 220; ++i) {
    candidates.push_back(static_cast<ItemId>(rng.UniformInt(kAnimeItems)));
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  std::vector<bool> masked(kAnimeItems, false);
  for (ItemId i : interacted) masked[i] = true;

  Scorer sc(model, kWidth);
  ScorerF scf(model, kWidth);
  MatrixF tablef;
  tablef.AssignCast(table);
  FeedForwardNetF thetaf;
  thetaf.AssignCastFrom(theta);
  std::vector<float> userf(user.Row(0), user.Row(0) + kWidth);
  std::vector<float> outf(kAnimeItems);
  SetFp32SimdEnabled(backend == 2 && CpuSupportsFp32Simd());
  TopKSelector selector;
  constexpr size_t kBlock = 1024;
  std::vector<double> out(kAnimeItems);
  std::vector<ItemId> topk;
  size_t scored = 0;
  for (auto _ : state) {
    if (backend != 0) {
      // Float arms cover the two shipping paths: the bulk ScoreRange
      // (mode 1) and the fused block-scored top-K stream (mode 4).
      scf.BeginUser(userf.data(), tablef, interacted);
      if (mode == 1) {
        scf.ScoreRange(tablef, thetaf, 0, kAnimeItems, outf.data());
        for (size_t j = 0; j < kAnimeItems; ++j) {
          out[j] = static_cast<double>(outf[j]);
        }
      } else {
        selector.Begin(kTopK, &masked);
        for (size_t first = 0; first < kAnimeItems; first += kBlock) {
          const size_t bs = std::min(kBlock, kAnimeItems - first);
          scf.ScoreRange(tablef, thetaf, static_cast<ItemId>(first), bs,
                         outf.data());
          for (size_t j = 0; j < bs; ++j) {
            out[j] = static_cast<double>(outf[j]);
          }
          selector.Push(static_cast<ItemId>(first), out.data(), bs);
        }
        selector.Finish(&topk);
      }
      scored += kAnimeItems;
      benchmark::DoNotOptimize(out);
      benchmark::DoNotOptimize(topk);
      continue;
    }
    sc.BeginUser(user.Row(0), table, interacted);
    switch (mode) {
      case 0:
        for (size_t j = 0; j < kAnimeItems; ++j) {
          out[j] = sc.Score(table, theta, static_cast<ItemId>(j));
        }
        scored += kAnimeItems;
        break;
      case 1:
        sc.ScoreRange(table, theta, 0, kAnimeItems, out.data());
        scored += kAnimeItems;
        break;
      case 2:
        sc.ScoreBatch(table, theta, candidates.data(), candidates.size(),
                      out.data());
        scored += candidates.size();
        break;
      case 3:
        sc.ScoreRange(table, theta, 0, kAnimeItems, out.data());
        topk = TopKItems(out, masked, kTopK);
        scored += kAnimeItems;
        break;
      default:
        selector.Begin(kTopK, &masked);
        for (size_t first = 0; first < kAnimeItems; first += kBlock) {
          const size_t bs = std::min(kBlock, kAnimeItems - first);
          sc.ScoreRange(table, theta, static_cast<ItemId>(first), bs,
                        out.data());
          selector.Push(static_cast<ItemId>(first), out.data(), bs);
        }
        selector.Finish(&topk);
        scored += kAnimeItems;
        break;
    }
    benchmark::DoNotOptimize(out);
    benchmark::DoNotOptimize(topk);
  }
  SetFp32SimdEnabled(false);
  state.SetItemsProcessed(static_cast<int64_t>(scored));
}
BENCHMARK(BM_EvalScoring)
    ->Args({0, 0, 0})
    ->Args({1, 0, 0})
    ->Args({1, 0, 1})
    ->Args({1, 0, 2})
    ->Args({2, 0, 0})
    ->Args({3, 0, 0})
    ->Args({4, 0, 0})
    ->Args({4, 0, 1})
    ->Args({4, 0, 2})
    ->Args({0, 1, 0})
    ->Args({1, 1, 0})
    ->Args({1, 1, 2})
    ->Args({2, 1, 0})
    ->Args({3, 1, 0})
    ->Args({4, 1, 0})
    ->Args({4, 1, 2});

void BM_ScorerFullCatalogue(benchmark::State& state) {
  // Cost of ranking all items for one user (the evaluation inner loop).
  const size_t width = static_cast<size_t>(state.range(0));
  const BaseModel model =
      state.range(1) == 0 ? BaseModel::kNcf : BaseModel::kLightGcn;
  Matrix table = RandomTable(kItems, width);
  Matrix user = RandomTable(1, width, 11);
  FeedForwardNet theta(2 * width, {8, 8});
  Rng rng(13);
  theta.InitXavier(&rng);
  std::vector<ItemId> interacted;
  for (ItemId i = 0; i < 64; ++i) interacted.push_back(i * 7 % kItems);

  Scorer sc(model, width);
  for (auto _ : state) {
    sc.BeginUser(user.Row(0), table, interacted);
    double sum = 0;
    for (size_t j = 0; j < kItems; ++j) {
      sum += sc.Score(table, theta, static_cast<ItemId>(j));
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * kItems);
}
BENCHMARK(BM_ScorerFullCatalogue)
    ->Args({8, 0})
    ->Args({32, 0})
    ->Args({8, 1})
    ->Args({32, 1});

void BM_AdamStep(benchmark::State& state) {
  const size_t width = static_cast<size_t>(state.range(0));
  Matrix param = RandomTable(kItems, width, 17);
  Matrix grad = RandomTable(kItems, width, 19);
  Adam adam;
  for (auto _ : state) {
    adam.Step(&param, grad);
    benchmark::DoNotOptimize(param);
  }
  state.SetItemsProcessed(state.iterations() * param.size());
}
BENCHMARK(BM_AdamStep)->Arg(8)->Arg(32)->Arg(128);

void BM_DecorrelationLossAndGrad(benchmark::State& state) {
  const size_t width = static_cast<size_t>(state.range(0));
  const size_t sample_rows = static_cast<size_t>(state.range(1));
  Matrix table = RandomTable(kItems, width, 23);
  Matrix grad(kItems, width);
  Rng rng(29);
  for (auto _ : state) {
    grad.SetZero();
    benchmark::DoNotOptimize(
        DecorrelationLossAndGrad(table, 1.0, sample_rows, &rng, &grad));
  }
}
BENCHMARK(BM_DecorrelationLossAndGrad)
    ->Args({32, 0})
    ->Args({32, 256})
    ->Args({128, 256});

void BM_EnsembleDistill(benchmark::State& state) {
  const size_t kd_items = static_cast<size_t>(state.range(0));
  Matrix s = RandomTable(kItems, 8, 31);
  Matrix m = RandomTable(kItems, 16, 37);
  Matrix l = RandomTable(kItems, 32, 41);
  DistillationOptions opt;
  opt.kd_items = kd_items;
  opt.steps = 2;
  opt.lr = 0.001;
  Rng rng(43);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EnsembleDistill({&s, &m, &l}, opt, &rng));
  }
}
BENCHMARK(BM_EnsembleDistill)->Arg(32)->Arg(64)->Arg(128);

void BM_SymmetricEigenvalues(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Matrix cov = CovarianceMatrix(RandomTable(512, n, 47));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SymmetricEigenvalues(cov));
  }
}
BENCHMARK(BM_SymmetricEigenvalues)->Arg(8)->Arg(32)->Arg(128);

void BM_NegativeSampling(benchmark::State& state) {
  SyntheticConfig cfg = MovieLensConfig(0.05);
  auto ds = Dataset::FromInteractions(GenerateInteractions(cfg),
                                      cfg.num_users, cfg.num_items)
                .value();
  Rng rng(53);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ds.BuildLocalEpoch(0, &rng));
  }
}
BENCHMARK(BM_NegativeSampling);

// --- Sparse vs dense client-update path -----------------------------------
//
// One federated aggregation round at paper scale: catalogue >= 3k items
// (arg 1 selects the ML-1M catalogue, 3,706 items, or the Anime catalogue,
// 6,888), 256 clients per round, width 32. Clients carry data-poor
// histories (median ~24 interactions — the Us regime that motivates model
// heterogeneity), so the dense path's O(items × width) per-client cost
// dominates. BM_FederatedRound/0/* is the dense reference, /1/* the sparse
// row-touched path; the ratio of the two timings is the per-round
// client-update speedup reported in docs/PERFORMANCE.md.

struct RoundBenchSetup {
  std::unique_ptr<Dataset> ds;
  std::vector<ClientState> clients;

  static constexpr size_t kClientsPerRound = 256;
  static constexpr size_t kWidth = 32;

  static RoundBenchSetup& Get(bool anime) {
    // Lazy per-catalogue so a filtered run only generates what it uses.
    if (anime) {
      static RoundBenchSetup setup(true);
      return setup;
    }
    static RoundBenchSetup setup(false);
    return setup;
  }

  explicit RoundBenchSetup(bool anime) {
    SyntheticConfig cfg = anime ? AnimeConfig(1.0)       // 6,888 items
                                : MovieLensConfig(1.0);  // 3,706 items
    cfg.num_users = 2048;
    cfg.lognormal_mu = std::log(24.0);  // data-poor (Us) histories
    ds = std::make_unique<Dataset>(
        Dataset::FromInteractions(GenerateInteractions(cfg), cfg.num_users,
                                  cfg.num_items)
            .value());
    Rng root(71);
    clients.resize(kClientsPerRound);
    for (size_t u = 0; u < kClientsPerRound; ++u) {
      InitClient(&clients[u], static_cast<UserId>(u), Group::kLarge, kWidth,
                 0.1, root);
    }
  }
};

void BM_FederatedRound(benchmark::State& state) {
  const bool use_sparse = state.range(0) != 0;
  RoundBenchSetup& setup = RoundBenchSetup::Get(state.range(1) != 0);
  // arg 2 (default on): batched scoring kernels vs the per-sample
  // reference — the training-side half of the batched-layer speedup.
  const bool use_batched = state.range(2) != 0;
  // arg 3: compute backend (0 fp64 | 1 fp32 scalar | 2 fp32 AVX2). The
  // fp64-vs-fp32_simd ratio on the sparse batched arm is the end-to-end
  // per-round backend speedup recorded in docs/PERFORMANCE.md.
  const int backend = static_cast<int>(state.range(3));

  HeteroServer::Options so;
  so.widths = {RoundBenchSetup::kWidth};
  so.num_items = setup.ds->num_items();
  so.seed = 3;
  HeteroServer server(so);
  LocalTrainer trainer(*setup.ds, BaseModel::kNcf);
  std::vector<LocalTaskSpec> tasks = {{0, RoundBenchSetup::kWidth}};

  LocalTrainerOptions opt;
  opt.local_epochs = 2;
  opt.use_sparse = use_sparse;
  opt.use_batched = use_batched;
  opt.backend = backend == 0 ? ComputeBackend::kFp64 : ComputeBackend::kFp32;
  SetFp32SimdEnabled(backend == 2 && CpuSupportsFp32Simd());

  size_t uploaded_rows = 0;
  for (auto _ : state) {
    server.BeginRound();
    for (auto& client : setup.clients) {
      LocalUpdateResult up = trainer.Train(
          &client, server.table(0), {&server.theta(0)}, tasks, opt);
      uploaded_rows += up.sparse ? up.v_delta_sparse.num_rows()
                                 : up.v_delta.rows();
      server.UploadDelta(tasks, up);
    }
    server.FinishRound();
  }
  SetFp32SimdEnabled(false);
  state.SetItemsProcessed(state.iterations() * setup.clients.size());
  state.counters["rows_per_client"] = benchmark::Counter(
      static_cast<double>(uploaded_rows) /
      (static_cast<double>(state.iterations()) *
       static_cast<double>(setup.clients.size())));
}
BENCHMARK(BM_FederatedRound)
    ->Args({0, 0, 1, 0})
    ->Args({1, 0, 1, 0})
    ->Args({1, 0, 1, 1})  // sparse + batched, fp32 scalar kernels
    ->Args({1, 0, 1, 2})  // sparse + batched, fp32 AVX2 kernels
    ->Args({0, 1, 1, 0})
    ->Args({1, 1, 1, 0})
    ->Args({1, 1, 1, 2})
    ->Args({1, 0, 0, 0})  // sparse + per-sample reference scoring
    ->Args({1, 1, 0, 0})
    ->Unit(benchmark::kMillisecond)
    ->MinTime(2.0);

// One streaming round against the server (arg 0 = shard count,
// S ∈ {1, 8}): 256 power-law clients build sparse MF-SGD deltas against
// the live table and merge through ServerApi. S=1 is the single item range
// every experiment runs by default; S=8 adds the range-routing and
// per-shard buffer overhead the scale-out pays per round — bench_sharding
// measures the same loop end-to-end at 1M clients.
void BM_ShardedRound(benchmark::State& state) {
  const size_t shards = static_cast<size_t>(state.range(0));
  HeteroServer::Options so;
  so.widths = {32};
  so.num_items = 20000;
  so.seed = 3;
  auto server = MakeServer(so, shards);

  StreamConfig scfg;
  scfg.num_users = 1'000'000;
  scfg.num_items = so.num_items;
  scfg.max_items_per_user = 64;
  scfg.seed = 7;
  const ClientStream stream(scfg);

  StreamLoopOptions opt;
  opt.clients_per_round = 256;
  opt.rounds = 1;
  opt.seed = 9;

  uint64_t scalars = 0;
  size_t rounds = 0;
  for (auto _ : state) {
    StreamLoopResult r = RunStreamingRounds(server.get(), stream, opt);
    scalars += r.upload_scalars;
    rounds += r.rounds;
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * opt.clients_per_round);
  state.counters["upload_scalars_per_round"] = benchmark::Counter(
      static_cast<double>(scalars) / static_cast<double>(rounds));
}
BENCHMARK(BM_ShardedRound)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

// Isolated update-machinery cost (no scoring): table download + per-epoch
// gradient zeroing + Adam + upload delta for one client touching `touched`
// rows of a 3,706 x 32 table. This is the pure overhead the sparse path
// eliminates.
void BM_ClientUpdateMachinery(benchmark::State& state) {
  const bool use_sparse = state.range(0) != 0;
  const size_t touched = static_cast<size_t>(state.range(1));
  constexpr size_t kRows = 3706;
  constexpr size_t kW = 32;
  Matrix global = RandomTable(kRows, kW, 83);
  Rng pick(89);
  std::vector<uint32_t> rows;
  for (size_t k = 0; k < touched; ++k) {
    rows.push_back(static_cast<uint32_t>(pick.UniformInt(kRows)));
  }

  Matrix v_local, v_grad(kRows, kW);
  RowOverlayTable overlay;
  SparseRowStore sgrad;
  for (auto _ : state) {
    if (use_sparse) {
      overlay.Reset(&global);
      sgrad.Reset(kRows, kW);
      SparseRowAdam adam;
      adam.Reset(kRows, kW);
      for (int epoch = 0; epoch < 2; ++epoch) {
        sgrad.Clear();
        for (uint32_t r : rows) {
          double* g = sgrad.EnsureRow(r);
          for (size_t d = 0; d < kW; ++d) g[d] += 0.01;
        }
        adam.Step(&overlay, sgrad);
      }
      SparseRowUpdate up;
      up.width = kW;
      up.rows.assign(overlay.touched().begin(), overlay.touched().end());
      up.data.resize(up.rows.size() * kW);
      for (size_t k = 0; k < up.rows.size(); ++k) {
        const double* local = overlay.Row(up.rows[k]);
        const double* base = global.Row(up.rows[k]);
        for (size_t d = 0; d < kW; ++d) {
          up.data[k * kW + d] = local[d] - base[d];
        }
      }
      benchmark::DoNotOptimize(up);
    } else {
      v_local = global;
      Adam adam;
      for (int epoch = 0; epoch < 2; ++epoch) {
        v_grad.SetZero();
        for (uint32_t r : rows) {
          double* g = v_grad.Row(r);
          for (size_t d = 0; d < kW; ++d) g[d] += 0.01;
        }
        adam.Step(&v_local, v_grad);
      }
      Matrix delta = v_local;
      delta.AddScaled(global, -1.0);
      benchmark::DoNotOptimize(delta);
    }
  }
}
BENCHMARK(BM_ClientUpdateMachinery)
    ->Args({0, 128})
    ->Args({1, 128})
    ->Args({0, 512})
    ->Args({1, 512});

// --- Full vs delta downloads ----------------------------------------------
//
// One round of the download direction at paper scale (256 clients/round,
// width 32, ML-3706 or Anime-6888 catalogue, ~200-row subscriptions — the
// interacted items + negative pool of a data-poor client). The full
// variant pays what the dense protocol pays per client: a table-sized
// copy. The delta variant runs the SyncService bookkeeping and copies only
// the stale subscribed rows. Counters report the scalars each protocol
// ships per client; their ratio is the `params_down` reduction quoted in
// docs/SYNC.md (>= 5x required at Anime scale by the PR acceptance bar).
void BM_DeltaDownload(benchmark::State& state) {
  const bool use_delta = state.range(0) != 0;
  const size_t items = state.range(1) != 0 ? 6888 : 3706;  // anime : ml
  constexpr size_t kUsers = 2048;
  constexpr size_t kClients = 256;
  constexpr size_t kW = 32;
  constexpr size_t kSubRows = 200;

  Matrix table = RandomTable(items, kW, 97);
  // Fixed per-client subscriptions (interactions don't churn round to
  // round; fresh negatives do, but a stable pool is the favorable case
  // for delta sync and the paper's negatives are redrawn from a stable
  // catalogue anyway).
  Rng pick(101);
  std::vector<std::vector<uint32_t>> subs(kUsers);
  for (auto& s : subs) {
    for (size_t k = 0; k < kSubRows; ++k) {
      s.push_back(static_cast<uint32_t>(pick.UniformInt(items)));
    }
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
  }
  const size_t theta_params = 521;  // |Θ| at width 32, hidden {8,8}

  VersionedTable versions(1, items);
  SyncService sync(kUsers);
  std::vector<double> client_buffer(items * kW);
  size_t round = 0;
  size_t shipped_scalars = 0;
  size_t participations = 0;

  for (auto _ : state) {
    versions.AdvanceRound();
    const size_t base = (round * kClients) % kUsers;
    for (size_t c = 0; c < kClients; ++c) {
      const UserId u = static_cast<UserId>((base + c) % kUsers);
      if (use_delta) {
        SyncPlan plan =
            sync.Sync(u, 0, subs[u], table, versions, theta_params);
        // Ship the stale rows (modelled as a packed copy).
        for (size_t k = 0; k < plan.shipped_rows; ++k) {
          const double* src = table.Row(subs[u][k % subs[u].size()]);
          std::copy(src, src + kW, client_buffer.begin() + (k % items) * kW);
        }
        shipped_scalars += plan.params;
      } else {
        // Dense protocol: the whole table lands on the client.
        std::copy(table.data().begin(), table.data().end(),
                  client_buffer.begin());
        shipped_scalars += items * kW + theta_params;
      }
      participations++;
    }
    // The server applies this round's aggregate: the union of the round's
    // client subscriptions is dirtied, which is exactly what the next
    // rounds' deltas must re-ship.
    for (size_t c = 0; c < kClients; ++c) {
      const UserId u = static_cast<UserId>((base + c) % kUsers);
      for (uint32_t r : subs[u]) versions.Stamp(0, r);
    }
    round++;
    benchmark::DoNotOptimize(client_buffer);
  }
  state.SetItemsProcessed(state.iterations() * kClients);
  state.counters["scalars_per_client"] = benchmark::Counter(
      static_cast<double>(shipped_scalars) /
      static_cast<double>(participations));
}
BENCHMARK(BM_DeltaDownload)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({0, 1})
    ->Args({1, 1})
    ->Unit(benchmark::kMillisecond);

// One-epoch HeteFedRec run on a straggler-heavy simulated network,
// synchronous barrier (arg 0 = 0) vs asynchronous merge-on-arrival
// (arg 0 = 1). This is the end-to-end cost of the two server schedules —
// wall time should be comparable (same client work), while the
// `simulated_seconds` counter shows the virtual-clock gap the async
// schedule exists for. Runs in CI's bench-smoke job with JSON output.
void BM_AsyncVsSyncRound(benchmark::State& state) {
  const bool async_mode = state.range(0) != 0;
  ExperimentConfig cfg;
  cfg.dataset = "ml";
  cfg.data_scale = 0.02;
  cfg.global_epochs = 1;
  cfg.clients_per_round = 16;
  cfg.eval_user_sample = 50;
  cfg.ddr_sample_rows = 64;
  cfg.kd_items = 16;
  cfg.seed = 41;
  cfg.availability = 0.8;
  cfg.net_bandwidth_sigma = 1.0;
  cfg.net_latency_sigma = 0.3;
  cfg.async_mode = async_mode;
  if (!async_mode) cfg.straggler_slack = 4;
  auto runner = ExperimentRunner::Create(cfg).value();

  double simulated = 0.0;
  double ndcg = 0.0;
  for (auto _ : state) {
    ExperimentResult r = runner->Run(Method::kHeteFedRec);
    simulated = r.simulated_seconds;
    ndcg = r.final_eval.overall.ndcg;
    benchmark::DoNotOptimize(r);
  }
  state.counters["simulated_seconds"] = benchmark::Counter(simulated);
  state.counters["ndcg"] = benchmark::Counter(ndcg);
}
BENCHMARK(BM_AsyncVsSyncRound)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// One-epoch HeteFedRec run with fault injection off (arg 0 = 0) vs on
// (arg 0 = 1, a 10% total fault rate behind admission control). The
// injection-off case IS the default path — the CI baseline pins its
// overhead against the robustness layer's plumbing (the injector, gate
// and admission controller must cost nothing when disabled).
void BM_FaultyRound(benchmark::State& state) {
  const bool faulted = state.range(0) != 0;
  ExperimentConfig cfg;
  cfg.dataset = "ml";
  cfg.data_scale = 0.02;
  cfg.global_epochs = 1;
  cfg.clients_per_round = 16;
  cfg.eval_user_sample = 50;
  cfg.ddr_sample_rows = 64;
  cfg.kd_items = 16;
  cfg.seed = 41;
  cfg.availability = 0.8;
  cfg.net_bandwidth_sigma = 1.0;
  cfg.net_latency_sigma = 0.3;
  if (faulted) {
    cfg.fault_upload_loss = 0.03;
    cfg.fault_download_loss = 0.02;
    cfg.fault_crash = 0.01;
    cfg.fault_duplicate = 0.01;
    cfg.fault_corrupt = 0.03;
    cfg.admission_control = true;
    cfg.admit_max_row_norm = 1.0;
    cfg.admit_outlier_z = 6.0;
  }
  auto runner = ExperimentRunner::Create(cfg).value();

  double ndcg = 0.0;
  double injected = 0.0;
  for (auto _ : state) {
    ExperimentResult r = runner->Run(Method::kHeteFedRec);
    ndcg = r.final_eval.overall.ndcg;
    injected = static_cast<double>(r.comm.faults().TotalInjected());
    benchmark::DoNotOptimize(r);
  }
  state.counters["ndcg"] = benchmark::Counter(ndcg);
  state.counters["faults_injected"] = benchmark::Counter(injected);
}
BENCHMARK(BM_FaultyRound)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// One-epoch HeteFedRec run with telemetry off (arg 0 = 0 — the default
// path every other benchmark and test exercises) vs fully on (arg 0 = 1:
// metrics JSONL + Chrome trace to temp files + phase profiling). The
// telemetry-off case pins the requirement that the compiled-in hooks cost
// nothing when no flag is set; the on case bounds the observation cost.
void BM_TelemetryOverhead(benchmark::State& state) {
  const bool on = state.range(0) != 0;
  ExperimentConfig cfg;
  cfg.dataset = "ml";
  cfg.data_scale = 0.02;
  cfg.global_epochs = 1;
  cfg.clients_per_round = 16;
  cfg.eval_user_sample = 50;
  cfg.ddr_sample_rows = 64;
  cfg.kd_items = 16;
  cfg.seed = 41;
  cfg.availability = 0.8;
  cfg.net_bandwidth_sigma = 1.0;
  cfg.net_latency_sigma = 0.3;
  if (on) {
    cfg.metrics_out = "/tmp/hfr_bench_metrics.jsonl";
    cfg.trace_out = "/tmp/hfr_bench_trace.json";
    cfg.profile = true;
  }
  auto runner = ExperimentRunner::Create(cfg).value();

  // The profiler logs its phase table at Info after every run; silence it
  // for the timed iterations.
  const LogLevel saved_level = GetLogLevel();
  if (on) SetLogLevel(LogLevel::kWarning);
  double ndcg = 0.0;
  for (auto _ : state) {
    ExperimentResult r = runner->Run(Method::kHeteFedRec);
    ndcg = r.final_eval.overall.ndcg;
    benchmark::DoNotOptimize(r);
  }
  SetLogLevel(saved_level);
  state.counters["ndcg"] = benchmark::Counter(ndcg);
  if (on) {
    std::remove("/tmp/hfr_bench_metrics.jsonl");
    std::remove("/tmp/hfr_bench_trace.json");
  }
}
BENCHMARK(BM_TelemetryOverhead)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Top-20 selection over a full-catalogue score array at the ML (3,706
// items) and Anime (6,888 items) shapes: the partial_sort reference
// (candidate-vector build + partial_sort, mode 0) vs the streaming
// bounded-heap selector (mode 1). Every 13th item is masked, mimicking
// train-item exclusion.
void BM_TopK(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  const size_t items = static_cast<size_t>(state.range(1));
  Rng rng(59);
  std::vector<double> scores(items);
  for (auto& s : scores) s = rng.Uniform();
  std::vector<bool> mask(items, false);
  for (size_t i = 0; i < items; i += 13) mask[i] = true;
  TopKSelector selector;
  std::vector<ItemId> topk;
  for (auto _ : state) {
    if (mode == 0) {
      selector.SelectMaskedReference(scores, mask, 20, &topk);
    } else {
      selector.SelectMasked(scores, mask, 20, &topk);
    }
    benchmark::DoNotOptimize(topk);
  }
  state.SetItemsProcessed(state.iterations() * items);
}
BENCHMARK(BM_TopK)
    ->Args({0, 3706})
    ->Args({1, 3706})
    ->Args({0, 6888})
    ->Args({1, 6888});

// Top-k over a candidate slice: the partial_sort reference (mode 0) vs
// the selector (mode 1 — bounded heap at k=20, bucketed cascade once k is
// a sizable fraction of the pool). Shapes: the default candidate-eval
// pool (~220 ids, k=20), a wider pool, and a large-k selection.
void BM_TopKCandidates(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  const size_t k = static_cast<size_t>(state.range(2));
  Rng rng(61);
  std::vector<ItemId> ids(n);
  std::vector<double> scores(n);
  ItemId next = 0;
  for (size_t i = 0; i < n; ++i) {
    next += 1 + static_cast<ItemId>(rng.UniformInt(5));
    ids[i] = next;
    scores[i] = rng.Uniform();
  }
  TopKSelector selector;
  std::vector<ItemId> topk;
  for (auto _ : state) {
    if (mode == 0) {
      selector.SelectFromCandidatesReference(ids, scores, k, &topk);
    } else {
      selector.SelectFromCandidates(ids, scores, k, &topk);
    }
    benchmark::DoNotOptimize(topk);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TopKCandidates)
    ->Args({0, 220, 20})
    ->Args({1, 220, 20})
    ->Args({0, 2048, 20})
    ->Args({1, 2048, 20})
    ->Args({0, 2048, 512})
    ->Args({1, 2048, 512});

}  // namespace
}  // namespace hetefedrec

BENCHMARK_MAIN();
