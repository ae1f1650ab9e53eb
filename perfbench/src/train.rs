//! Training workloads: `ses_core::fit` end to end, and a traced replay of
//! one explainable-training step through the layers' public calls.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use ses_core::{construct_pairs, fit, MaskGenerator, SesConfig, SesReport};
use ses_data::{Dataset, Profile, Splits};
use ses_gnn::{AdjView, Encoder, EncoderOutput, ForwardCtx, Gcn};
use ses_graph::{khop_structure, Graph, NegativeSets};
use ses_obs::metrics as obs;
use ses_tensor::{Adam, CsrStructure, Matrix, Optimizer, Param, Tape, Var};

use crate::stats::{median, median_call_s, nproc, peak_rss_mb, percentile, SetupTimer};
use crate::trace::Recorder;
use crate::workloads::DATA_SEED;
use crate::{Args, Outcome};

/// One training workload.
pub struct TrainSpec {
    pub name: &'static str,
    pub dataset: fn(Profile, &mut StdRng) -> Dataset,
    pub epochs_explain: usize,
    pub epochs_epl: usize,
    /// Kernel threads; 0 means `nproc`.
    pub threads: usize,
    /// Test accuracy must stay above this floor, when there is one.
    pub acc_floor: Option<f64>,
}

/// Hidden width of the GCN and the mask generator, as in the quickstart.
const HIDDEN: usize = 64;
/// Fits an untraced run makes, whatever `--seconds` says: two fits of
/// either workload took 14–25 s on the 2-vCPU host the benchmark was
/// tuned on, depending on how busy the host was.
const FITS: usize = 2;
/// Set-up repetitions before the first fit.
const SETUP_REPS: usize = 3;
/// Explain steps replayed in the traced run; layer times are medians.
const REPLAY_STEPS: usize = 3;

/// The inputs one fit consumes: data, split, and the initial model.
struct Inputs {
    data: Dataset,
    splits: Splits,
    encoder: Gcn,
    mask_gen: MaskGenerator,
}

fn make_inputs(spec: &TrainSpec, seed: u64) -> Inputs {
    let data = (spec.dataset)(Profile::Fast, &mut StdRng::seed_from_u64(DATA_SEED));
    let mut rng = StdRng::seed_from_u64(seed);
    let g = &data.graph;
    let splits = Splits::classification(g.n_nodes(), &mut rng);
    let encoder = Gcn::new(g.n_features(), HIDDEN, g.n_classes(), &mut rng);
    let mask_gen = MaskGenerator::new(HIDDEN, g.n_features(), &mut rng);
    Inputs {
        data,
        splits,
        encoder,
        mask_gen,
    }
}

fn config(spec: &TrainSpec, seed: u64) -> SesConfig {
    SesConfig {
        epochs_explain: spec.epochs_explain,
        epochs_epl: spec.epochs_epl,
        seed,
        ..SesConfig::default()
    }
}

/// A GCN that notes when each forward call starts. `fit` calls the encoder
/// at fixed points of every epoch, so these marks give each epoch's wall
/// time from outside the program.
struct Timed {
    inner: Gcn,
    /// `(start, train, masked)` per forward call.
    calls: RefCell<Vec<(Instant, bool, bool)>>,
}

impl Encoder for Timed {
    fn forward(&self, ctx: &mut ForwardCtx<'_>) -> EncoderOutput {
        self.calls
            .borrow_mut()
            .push((Instant::now(), ctx.train, ctx.edge_mask.is_some()));
        self.inner.forward(ctx)
    }
    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.inner.params_mut()
    }
    fn param_values(&self) -> Vec<Matrix> {
        self.inner.param_values()
    }
    fn restore(&mut self, snapshot: &[Matrix]) {
        self.inner.restore(snapshot)
    }
    fn hidden_dim(&self) -> usize {
        self.inner.hidden_dim()
    }
    fn out_dim(&self) -> usize {
        self.inner.out_dim()
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Epoch start times from the forward-call marks. An explainable-training
/// epoch makes a plain training forward, then a masked one, then an eval
/// forward; an EPL epoch makes one masked training forward. So an epoch
/// starts at every training forward except a masked one that directly
/// follows a plain one.
fn epoch_starts(calls: &[(Instant, bool, bool)]) -> Vec<Instant> {
    let mut starts = Vec::new();
    let mut after_plain_train = false;
    for &(t, train, masked) in calls {
        if train && !(masked && after_plain_train) {
            starts.push(t);
        }
        after_plain_train = train && !masked;
    }
    starts
}

struct FitRun {
    fit_s: f64,
    report: SesReport,
    structure_weights: Vec<f32>,
    /// Wall time of each epoch, boundary to boundary; the last ends when
    /// `fit` returns.
    epoch_ms: Vec<f64>,
}

fn timed_fit(inputs: &Inputs, cfg: &SesConfig) -> FitRun {
    let enc = Timed {
        inner: inputs.encoder.clone(),
        calls: RefCell::new(Vec::new()),
    };
    let start = Instant::now();
    let trained = fit(
        enc,
        inputs.mask_gen.clone(),
        &inputs.data.graph,
        &inputs.splits,
        cfg,
    );
    let end = Instant::now();
    let fit_s = (end - start).as_secs_f64();
    let mut starts = epoch_starts(&trained.encoder.calls.borrow());
    starts.push(end);
    let epoch_ms = starts
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
        .collect();
    FitRun {
        fit_s,
        report: trained.report,
        structure_weights: trained.explanations.structure_weights,
        epoch_ms,
    }
}

/// Output checks on one fit; counts its epochs as operations.
fn check_fit(out: &mut Outcome, spec: &TrainSpec, run: &FitRun) {
    let r = &run.report;
    let planned = spec.epochs_explain + spec.epochs_epl;
    let nonfinite = r
        .et_loss_curve
        .iter()
        .chain(&r.epl_loss_curve)
        .filter(|l| !l.is_finite())
        .count();
    let done = r.et_loss_curve.len() + r.epl_loss_curve.len();
    let missing = planned.saturating_sub(done);
    out.count(planned as u64, (nonfinite + missing) as u64);
    out.check(nonfinite == 0, || format!("{nonfinite} non-finite losses"));
    out.check(missing == 0, || format!("{done} of {planned} epochs ran"));
    out.check(run.epoch_ms.len() == planned, || {
        format!(
            "saw {} epoch boundaries, expected {planned}",
            run.epoch_ms.len()
        )
    });
    let (first, last) = (r.et_loss_curve.first(), r.et_loss_curve.last());
    out.check(matches!((first, last), (Some(f), Some(l)) if l < f), || {
        format!("explain loss did not fall: first {first:?}, last {last:?}")
    });
    if let Some(floor) = spec.acc_floor {
        out.check(r.test_acc > floor, || {
            format!("test accuracy {} is not above {floor}", r.test_acc)
        });
    }
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

pub fn run(spec: &TrainSpec, args: &Args) -> Outcome {
    let threads = if spec.threads == 0 {
        nproc()
    } else {
        spec.threads
    };
    ses_tensor::par::set_thread_override(threads);
    ses_obs::set_enabled_override(Some(false));
    let mut out = Outcome::default();
    let (mut setup, inputs) = SetupTimer::start(SETUP_REPS, || make_inputs(spec, args.seed));
    let cfg = config(spec, args.seed);

    if args.trace {
        traced(spec, args, &inputs, &cfg, threads, &mut out);
        return out;
    }

    // More set-up after each fit, so that `setup_s` samples the host over
    // the whole run, as the epoch times do.
    let runs: Vec<FitRun> = (0..FITS)
        .map(|_| {
            let run = timed_fit(&inputs, &cfg);
            setup.top_up(|| make_inputs(spec, args.seed));
            run
        })
        .collect();
    let (setup_s, reps) = setup.median();
    out.set("setup_s", setup_s, reps);
    for run in &runs {
        check_fit(&mut out, spec, run);
    }
    let first = &runs[0].report;
    for r in &runs[1..] {
        out.check(
            same_bits(&r.report.et_loss_curve, &first.et_loss_curve)
                && same_bits(&r.report.epl_loss_curve, &first.epl_loss_curve),
            || "repeated fits on the same inputs gave different losses".into(),
        );
    }
    let epoch_ms: Vec<f64> = runs.iter().flat_map(|r| r.epoch_ms.clone()).collect();
    let n = epoch_ms.len() as u64;
    let finite_epochs: usize = runs
        .iter()
        .map(|r| {
            r.report
                .et_loss_curve
                .iter()
                .chain(&r.report.epl_loss_curve)
                .filter(|l| l.is_finite())
                .count()
        })
        .sum();
    let fit_s: f64 = runs.iter().map(|r| r.fit_s).sum();
    out.set("p50_ms", median(&epoch_ms), n);
    out.set("tail_ms", percentile(&epoch_ms, 0.9), n);
    out.set("goodput_per_s", finite_epochs as f64 / fit_s, n);
    out.set("peak_rss_mb", peak_rss_mb(), 1);
    println!(
        "# {}: {} fit(s); first: fit {:.3} s, explain {:.3} s, epl {:.3} s, pairs {:.2} ms, test accuracy {:.4}",
        spec.name,
        runs.len(),
        runs[0].fit_s,
        first.explain_time.as_secs_f64(),
        first.epl_time.as_secs_f64(),
        first.pair_time.as_secs_f64() * 1e3,
        first.test_acc
    );
    out
}

/// The traced run: an untraced fit, the same fit with the program's
/// telemetry on (for its counters and the tracing overhead), then a replay
/// of explain steps and the scorer GEMMs under the benchmark's own spans.
fn traced(
    spec: &TrainSpec,
    args: &Args,
    inputs: &Inputs,
    cfg: &SesConfig,
    threads: usize,
    out: &mut Outcome,
) {
    let plain = timed_fit(inputs, cfg);
    check_fit(out, spec, &plain);

    for c in obs::counters() {
        c.reset();
    }
    obs::SCRATCH_HIGHWATER.reset();
    ses_obs::set_enabled_override(Some(true));
    let traced = timed_fit(inputs, cfg);
    ses_obs::set_enabled_override(Some(false));
    check_fit(out, spec, &traced);
    out.check(
        same_bits(&traced.report.et_loss_curve, &plain.report.et_loss_curve)
            && same_bits(&traced.report.epl_loss_curve, &plain.report.epl_loss_curve),
        || "traced fit's loss curves differ from the untraced fit's".into(),
    );

    let r = &plain.report;
    out.set("core.fit_s", plain.fit_s, 1);
    out.set("core.explain_s", r.explain_time.as_secs_f64(), 1);
    out.set("core.epl_s", r.epl_time.as_secs_f64(), 1);
    out.set("core.test_acc", r.test_acc, 1);
    out.set(
        "obs.trace_overhead_pct",
        100.0 * (traced.fit_s / plain.fit_s - 1.0),
        2,
    );
    let epochs = (spec.epochs_explain + spec.epochs_epl) as u64;
    let per_epoch = |c: &obs::Counter| c.get() as f64 / epochs as f64;
    out.set(
        "tensor.matmul_fmas_per_epoch",
        per_epoch(&obs::MATMUL_FLOPS),
        epochs,
    );
    out.set(
        "tensor.matmul_calls_per_epoch",
        per_epoch(&obs::MATMUL_CALLS),
        epochs,
    );
    out.set(
        "tensor.spmm_nnz_per_epoch",
        per_epoch(&obs::SPMM_NNZ),
        epochs,
    );
    out.set(
        "tensor.alloc_bytes_per_epoch",
        per_epoch(&obs::ALLOC_BYTES),
        epochs,
    );
    out.set(
        "tensor.scratch_highwater_bytes",
        obs::SCRATCH_HIGHWATER.get() as f64,
        1,
    );
    out.set("tensor.threads", threads as f64, 1);

    let mut rec = Recorder::new();
    replay(spec, inputs, cfg, &plain, &mut rec, out);
    scorer_gemms(inputs, threads, out);
    let (rate, attempted) = out.error_rate();
    out.set("error_rate", rate, attempted);

    let path = std::path::PathBuf::from(format!(
        "perfbench/traces/{}-seed{}.jsonl",
        spec.name, args.seed
    ));
    if let Err(e) = rec.write_jsonl(&path) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    rec.print_self_times(spec.name);
}

/// What `fit` builds once before its first epoch, rebuilt here in the
/// same order from the same seed.
struct Ctx {
    adj: AdjView,
    khop: Arc<CsrStructure>,
    rows: Arc<Vec<usize>>,
    cols: Arc<Vec<usize>>,
    onehop_lift: Arc<Vec<usize>>,
    negatives: NegativeSets,
    labels: Arc<Vec<usize>>,
    train_idx: Arc<Vec<usize>>,
}

fn build_ctx(
    graph: &Graph,
    splits: &Splits,
    cfg: &SesConfig,
    rng: &mut StdRng,
    rec: &mut Recorder,
) -> Ctx {
    let adj = AdjView::of_graph(graph);
    let khop = rec.span("graph.khop", 0, || khop_structure(graph, cfg.k));
    let (rows, cols) = khop.entry_endpoints();
    let negatives = rec.span("graph.negatives", 0, || {
        NegativeSets::sample(&khop, Some(graph.labels()), rng)
    });
    // Lifts `[M_s ; ones(n)]` onto the 1-hop view's entries: self-loops
    // and 1-hop edges outside the k-hop structure read the ones block.
    let nnz = khop.nnz();
    let onehop_lift = adj
        .structure()
        .iter_entries()
        .map(|(r, c, _)| {
            if r == c {
                nnz + r
            } else {
                khop.find(r, c).unwrap_or(nnz + r)
            }
        })
        .collect();
    Ctx {
        adj,
        khop,
        rows: Arc::new(rows),
        cols: Arc::new(cols),
        onehop_lift: Arc::new(onehop_lift),
        negatives,
        labels: Arc::new(graph.labels().to_vec()),
        train_idx: Arc::new(splits.train.clone()),
    }
}

/// Replays `REPLAY_STEPS` explainable-training steps (Eqs. 2, 7–9, then
/// backward and Adam) with `fit`'s default configuration, plus Algorithm 1,
/// under spans. With the same seed and initial model, each replayed step's
/// loss must equal the matching entry of the fit's loss curve bit for bit,
/// which shows the replay computes what `fit` computes.
fn replay(
    spec: &TrainSpec,
    inputs: &Inputs,
    cfg: &SesConfig,
    plain: &FitRun,
    rec: &mut Recorder,
    out: &mut Outcome,
) {
    let generated = rec.span("data.generate", 0, || {
        (spec.dataset)(Profile::Fast, &mut StdRng::seed_from_u64(DATA_SEED))
    });
    out.check(
        generated.graph.n_edges() == inputs.data.graph.n_edges(),
        || "dataset generation is not deterministic".into(),
    );
    drop(generated);

    let graph = &inputs.data.graph;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let ctx = build_ctx(graph, &inputs.splits, cfg, &mut rng, rec);
    let mut enc = inputs.encoder.clone();
    let mut mg = inputs.mask_gen.clone();
    let mut opt = Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay);
    let mut tape_nodes = 0;
    let mut step_ms = Vec::new();
    let mut layer_ms = Vec::new();
    for step in 0..REPLAY_STEPS {
        let root = rec.spans().len();
        let (loss, nodes) = replay_step(
            rec,
            step as u64,
            &mut enc,
            &mut mg,
            &mut opt,
            graph,
            &ctx,
            cfg,
            &mut rng,
        );
        tape_nodes = nodes;
        let expected = plain.report.et_loss_curve.get(step).copied();
        out.check(expected.map(f32::to_bits) == Some(loss.to_bits()), || {
            format!("replayed step {step} loss {loss} differs from fit's {expected:?}")
        });
        step_ms.push(rec.spans()[root].dur_ns() as f64 / 1e6);
        layer_ms.push(rec.children_ns(root) as f64 / 1e6);
    }

    let pairs = rec.span("core.pairs", 0, || {
        construct_pairs(
            &ctx.khop,
            &plain.structure_weights,
            &ctx.negatives,
            cfg.sample_ratio,
            &mut rng,
        )
    });

    let ms = |name: &str| median(&rec.durations(name)) / 1e6;
    // Spans that occur several times per step are summed per step first.
    let per_step_ms = |name: &str| {
        let mut totals = vec![0.0; REPLAY_STEPS];
        for s in rec.spans().iter().filter(|s| s.name == name) {
            totals[s.id as usize] += s.dur_ns() as f64 / 1e6;
        }
        median(&totals)
    };
    out.set("data.generate_ms", ms("data.generate"), 1);
    out.set("graph.khop_ms", ms("graph.khop"), 1);
    out.set("graph.negatives_ms", ms("graph.negatives"), 1);
    out.set("graph.khop_nnz", ctx.khop.nnz() as f64, 1);
    out.set(
        "gnn.encoder_fwd_ms",
        ms("gnn.encoder_fwd"),
        REPLAY_STEPS as u64,
    );
    out.set(
        "gnn.encoder_masked_fwd_ms",
        ms("gnn.encoder_masked_fwd"),
        REPLAY_STEPS as u64,
    );
    out.set("core.mask_fwd_ms", ms("core.mask_fwd"), REPLAY_STEPS as u64);
    out.set(
        "core.loss_ms",
        per_step_ms("core.loss"),
        REPLAY_STEPS as u64,
    );
    out.set("core.pairs_ms", ms("core.pairs"), 1);
    out.set("core.pairs_count", pairs.anchor_idx.len() as f64, 1);
    out.set(
        "tensor.backward_ms",
        ms("tensor.backward"),
        REPLAY_STEPS as u64,
    );
    out.set("tensor.adam_ms", ms("tensor.adam"), REPLAY_STEPS as u64);
    out.set("tensor.tape_nodes", tape_nodes as f64, 1);
    let epoch_ms = plain.report.explain_time.as_secs_f64() * 1e3 / spec.epochs_explain as f64;
    out.set(
        "layer.unattributed_pct",
        100.0 * (1.0 - median(&layer_ms) / epoch_ms),
        REPLAY_STEPS as u64,
    );
    println!(
        "# replayed explain step {:.3} ms (layer sum {:.3} ms) against {epoch_ms:.3} ms per fit epoch",
        median(&step_ms),
        median(&layer_ms)
    );
}

/// One explainable-training step, as `fit` records it under the default
/// configuration, with a span around each layer call. Returns the loss
/// and the tape's node count.
#[allow(clippy::too_many_arguments)]
fn replay_step(
    rec: &mut Recorder,
    id: u64,
    enc: &mut Gcn,
    mg: &mut MaskGenerator,
    opt: &mut Adam,
    graph: &Graph,
    ctx: &Ctx,
    cfg: &SesConfig,
    rng: &mut StdRng,
) -> (f32, usize) {
    let root = rec.begin("explain_step", id);
    let mut tape = Tape::new();
    let x = tape.constant(graph.features().clone());
    let out = rec.span("gnn.encoder_fwd", id, || {
        enc.forward(&mut ForwardCtx {
            tape: &mut tape,
            adj: &ctx.adj,
            x,
            edge_mask: None,
            train: true,
            rng,
        })
    });
    let l_xent = rec.span("core.loss", id, || {
        tape.cross_entropy_masked(out.logits, ctx.labels.clone(), ctx.train_idx.clone())
    });
    let (neg_a, neg_b) = rec.span("graph.negatives_draw", id, || {
        let nnz = ctx.khop.nnz();
        let (mut a, mut b) = (Vec::with_capacity(nnz), Vec::with_capacity(nnz));
        for v in 0..ctx.khop.n_rows() {
            for u in ctx.negatives.draw(v, ctx.khop.row_nnz(v), rng) {
                a.push(v);
                b.push(u);
            }
        }
        while a.len() < nnz {
            a.push(a.last().copied().unwrap_or(0));
            b.push(b.last().copied().unwrap_or(0));
        }
        (Arc::new(a), Arc::new(b))
    });
    let masks = rec.span("core.mask_fwd", id, || {
        mg.forward(
            &mut tape, out.hidden, &ctx.khop, &ctx.rows, &ctx.cols, &neg_a, &neg_b,
        )
    });
    let l_sub = rec.span("core.loss", id, || {
        let stacked = tape.concat_rows(masks.structure, masks.structure_neg);
        let nnz = ctx.khop.nnz();
        let mut targets = Matrix::ones(2 * nnz, 1);
        for i in nnz..2 * nnz {
            targets[(i, 0)] = 0.0;
        }
        tape.l1_to_constant(stacked, &targets)
    });
    let out_m = rec.span("gnn.encoder_masked_fwd", id, || {
        let xm = tape.mul(masks.feature, x);
        let ones = tape.constant(Matrix::ones(graph.n_nodes(), 1));
        let extended = tape.concat_rows(masks.structure, ones);
        let lifted = tape.gather_rows(extended, ctx.onehop_lift.clone());
        enc.forward(&mut ForwardCtx {
            tape: &mut tape,
            adj: &ctx.adj,
            x: xm,
            edge_mask: Some(lifted),
            train: true,
            rng,
        })
    });
    let loss = rec.span("core.loss", id, || {
        let l_m =
            tape.cross_entropy_masked(out_m.logits, ctx.labels.clone(), ctx.train_idx.clone());
        let weighted_sub = tape.scale(l_sub, cfg.sub_loss_weight);
        let obj = tape.add(weighted_sub, l_m);
        let weighted_mask = tape.scale(obj, cfg.alpha);
        let weighted_xent = tape.scale(l_xent, 1.0 - cfg.alpha);
        tape.add(weighted_mask, weighted_xent)
    });
    let loss_val = tape.value(loss).scalar_value();
    rec.span("tensor.backward", id, || tape.backward(loss));
    rec.span("tensor.adam", id, || {
        adam_step(opt, &tape, enc, mg, &out.param_vars, &masks.param_vars)
    });
    let nodes = tape.len();
    rec.end(root);
    (loss_val, nodes)
}

/// Encoder parameters first, then the mask generator's, as `fit` steps them.
fn adam_step(
    opt: &mut Adam,
    tape: &Tape,
    enc: &mut Gcn,
    mg: &mut MaskGenerator,
    enc_vars: &[Var],
    mask_vars: &[Var],
) {
    let enc_grads: Vec<Option<Matrix>> = enc_vars.iter().map(|&v| tape.grad(v).cloned()).collect();
    let mask_grads: Vec<Option<Matrix>> =
        mask_vars.iter().map(|&v| tape.grad(v).cloned()).collect();
    let mut all: Vec<(&mut Param, &Matrix)> = Vec::new();
    for (p, g) in enc.params_mut().into_iter().zip(&enc_grads) {
        if let Some(g) = g {
            all.push((p, g));
        }
    }
    for (p, g) in mg.params_mut().into_iter().zip(&mask_grads) {
        if let Some(g) = g {
            all.push((p, g));
        }
    }
    opt.step(&mut all);
}

/// Throughput of the Eq. 4 scorer's GEMMs on this workload's shapes
/// (P k-hop pairs × 3h features times a 3h × 1 weight): the forward
/// product, and the two backward products for the weight and the input.
/// Also the speed-up of the scorer and first-layer encoder GEMMs at the
/// workload's thread count over one thread.
fn scorer_gemms(inputs: &Inputs, threads: usize, out: &mut Outcome) {
    let graph = &inputs.data.graph;
    let p = khop_structure(graph, 2).nnz();
    let width = 3 * HIDDEN;
    let mut rng = StdRng::seed_from_u64(7);
    let x = ses_tensor::init::normal(p, width, 1.0, &mut rng);
    let w = ses_tensor::init::normal(width, 1, 1.0, &mut rng);
    let dy = ses_tensor::init::normal(p, 1, 1.0, &mut rng);
    let fmas = (p * width) as f64;
    let gfmas = |s: f64| fmas / s / 1e9;
    const BUDGET_S: f64 = 0.3;
    let fwd = median_call_s(BUDGET_S, 3, || {
        std::hint::black_box(x.matmul(&w));
    });
    let dw = median_call_s(BUDGET_S, 3, || {
        std::hint::black_box(x.t_matmul(&dy));
    });
    let dx = median_call_s(BUDGET_S, 3, || {
        std::hint::black_box(dy.matmul_t(&w));
    });
    out.set("tensor.scorer_fwd_gfmas", gfmas(fwd), 3);
    out.set("tensor.scorer_bwd_dw_gfmas", gfmas(dw), 3);
    out.set("tensor.scorer_bwd_dx_gfmas", gfmas(dx), 3);

    let enc_w = ses_tensor::init::normal(graph.n_features(), HIDDEN, 1.0, &mut rng);
    let gemms = || {
        std::hint::black_box(x.matmul(&w));
        std::hint::black_box(graph.features().matmul(&enc_w));
    };
    ses_tensor::par::set_thread_override(1);
    let one = median_call_s(BUDGET_S, 3, gemms);
    ses_tensor::par::set_thread_override(nproc());
    let many = median_call_s(BUDGET_S, 3, gemms);
    ses_tensor::par::set_thread_override(threads);
    out.set("tensor.par_speedup", one / many, 3);
}
