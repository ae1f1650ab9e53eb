//! The benchmark's four workloads: why each was chosen, and which layer
//! metrics (traced run) should move which end-to-end metric on it.
//!
//! Load comes from this one process, with at most `nproc` threads. The
//! seed is an argument, and the same seed gives the same inputs. Seeds
//! 1–10 were used while the benchmark was written; seed 9173 was held out
//! and run once, at the end, to check that the output checks pass on a
//! seed nobody tuned against.
//!
//! Layers are named after the repository's crates. `ses-ir`, `ses-verify`,
//! `ses-lint`, `ses-race` and `ses-bench` are on no measured path:
//! `ses_ir::execute` has no product caller, and the others are build-time
//! or test-time tools.

use ses_data::{realworld, Profile};

use crate::serve::{self, ServeSpec};
use crate::train::{self, TrainSpec};
use crate::{Args, Outcome};

pub const NAMES: &[&str] = &["train-cora-1t", "train-cs-par", "serve-hot", "serve-cold"];

/// Each workload's graph is generated from this fixed seed, as the
/// quickstart's is: a workload is a dataset, and a different graph per seed
/// would move every metric by its size alone. `--seed` draws everything
/// else: the split, the initial weights, `fit`'s own seed (negative
/// sampling, dropout), the served masks, the hot set and the request
/// stream.
pub const DATA_SEED: u64 = 0;

/// `train-cora-1t` — the quickstart: `fit` with GCN on `cora_like(Fast)`
/// (700 nodes, 13,870 2-hop pairs), the default `SesConfig` (100 explain +
/// 15 EPL epochs), one kernel thread. The Eq. 4 pair scorer and the tape
/// backward dominate it and the parallel layer is idle, so it is the
/// baseline a single-core speed-up must move.
///
/// Layer → end-to-end map: `core.mask_fwd_ms` (the scorer),
/// `tensor.backward_ms`, `tensor.scorer_*_gfmas`, `gnn.encoder_*_fwd_ms`,
/// `core.loss_ms`, `tensor.adam_ms` and `tensor.tape_nodes` → `p50_ms`,
/// `tail_ms` and `goodput_per_s`; `data.generate_ms` → `setup_s`;
/// `core.pairs_ms` is under 0.1% of a fit, so it should move nothing;
/// `tensor.threads` and `tensor.par_speedup` should move nothing here.
pub const TRAIN_CORA_1T: TrainSpec = TrainSpec {
    name: "train-cora-1t",
    dataset: realworld::cora_like,
    epochs_explain: 100,
    epochs_epl: 15,
    threads: 1,
    acc_floor: Some(0.8),
};

/// `train-cs-par` — `fit` with GCN on `coauthor_cs_like(Fast)` (2,400
/// nodes, 188,390 2-hop pairs, 13.6× cora's) at `nproc` kernel threads, on
/// a short schedule (4 explain + 8 EPL epochs) so that two fits fill a run.
/// It is the Table 3 dataset whose SES cells were time-capped. Its working
/// set is memory-bound (the scorer materialises P×3h), the parallel
/// kernels are used only here, and EPL is a third of the fit, against 3%
/// on cora. The schedule stops before the model learns (test accuracy
/// about 0.1–0.2, chance 0.067), so only the loss checks guard its output.
///
/// Layer → end-to-end map: `tensor.scorer_*_gfmas`, `tensor.par_speedup`,
/// `tensor.threads`, `core.mask_fwd_ms`, `tensor.backward_ms` →
/// `tail_ms` (explain epochs) and `goodput_per_s`;
/// `gnn.encoder_*_fwd_ms`, `tensor.spmm_nnz_per_epoch` → `p50_ms` (EPL
/// epochs); `tensor.alloc_bytes_per_epoch`,
/// `tensor.scratch_highwater_bytes` → `peak_rss_mb`; `graph.khop_ms`,
/// `graph.negatives_ms` → `goodput_per_s` (they run inside `fit`);
/// `data.generate_ms` → `setup_s`.
pub const TRAIN_CS_PAR: TrainSpec = TrainSpec {
    name: "train-cs-par",
    dataset: realworld::coauthor_cs_like,
    epochs_explain: 4,
    epochs_epl: 8,
    threads: 0,
    acc_floor: None,
};

/// `serve-hot` — open-loop serving over
/// `ModelArtifact::synthetic(coauthor_cs_like(Fast), k = 2)`, 70% of
/// requests on 16 hot nodes and 30% uniform. Cache reads dominate (about
/// 83% hits), but every request still pays `Subgraph::ego`, because
/// extraction runs before the cache probe. It exercises the cache's hit
/// path.
///
/// Layer → end-to-end map: `graph.ego_us_*`, `graph.ego_nodes_mean`,
/// `serve.key_us`, `serve.cache_get_us`, `serve.cache_hit_ratio`,
/// `serve.service_us_*`, `resilience.isolate_us` → `p50_ms` and
/// `goodput_per_s`; `serve.queue_wait_us_*` → `tail_ms` and
/// `goodput_per_s`; `serve.shed`, `serve.tier.*` → the run's `failed`
/// count; `data.generate_ms`, `graph.khop_ms` → `setup_s`.
pub const SERVE_HOT: ServeSpec = ServeSpec {
    name: "serve-hot",
    profile: Profile::Fast,
    hot: Some((0.7, 16)),
    reference: 9_000.0,
};

/// `serve-cold` — the same server over `coauthor_cs_like(Paper)` (18,330
/// nodes, far more than the 1,024-entry cache) with uniform requests.
/// About 95% of requests miss, so they run encode, mask and rank, then
/// write the cache and evict an entry: the cache layer used for writes
/// instead of reads, so a change that helps hits at the cost of misses
/// shows here. It bypasses the hit path `serve-hot` exercises.
///
/// Layer → end-to-end map: `core.edge_weight_us`, `serve.rank_us`,
/// `serve.cache_put_us`, `serve.cache_evictions`, `graph.ego_us_*` →
/// `p50_ms` and `goodput_per_s`; `serve.queue_wait_us_*` → `tail_ms`;
/// `data.generate_ms`, `graph.khop_ms` → `setup_s`.
pub const SERVE_COLD: ServeSpec = ServeSpec {
    name: "serve-cold",
    profile: Profile::Paper,
    hot: None,
    reference: 4_000.0,
};

// The serving replay's key, mask and rank stages (`serve.key_us`, the
// `serve.mask` span and `serve.rank_us`), and the edge-weight stage around
// `Explanations::edge_weight` (`core.edge_weight_us`), run the benchmark's
// own copies of private `Server` code, which has no public entry point for
// them. The offline fingerprint check on every served ranking keeps the
// copies' output equal to the server's (the key's only while the server
// keeps its content hash), but not their cost: a change to the server's
// own key, mask or rank code does not move these metrics. The one tie
// between the replayed stages and the real server is
// `layer.unattributed_pct`, the replayed stage sum against
// `serve.service_us_p50`.

/// Runs the named workload, or `None` for an unknown name.
pub fn run(args: &Args) -> Option<Outcome> {
    Some(match args.workload.as_str() {
        "train-cora-1t" => train::run(&TRAIN_CORA_1T, args),
        "train-cs-par" => train::run(&TRAIN_CS_PAR, args),
        "serve-hot" => serve::run(&SERVE_HOT, args),
        "serve-cold" => serve::run(&SERVE_COLD, args),
        _ => return None,
    })
}
