//! `ses-perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload in this process and prints, as the last line of
//! stdout, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end ones
//! ([`END_TO_END`]), measured with the program's telemetry off. With
//! `--trace 1` they are the per-layer ones ([`PER_LAYER`]) from a separate
//! traced run. The lines before the JSON repeat every metric with its unit
//! and sample count. Workloads, seeds and the layer → metric map are in
//! `workloads.rs`; the measured baseline and known limits are in
//! `perfbench/NOTES.md`.

mod serve;
mod stats;
mod trace;
mod train;
mod workloads;

use std::collections::BTreeMap;

/// End-to-end metrics, printed for every workload with `--trace 0`. An
/// operation is one epoch for a training workload and one request for a
/// serving workload. `tail_ms` is the p90: of a serving workload's
/// latencies at the reference rate (windowed), and of a training
/// workload's epochs (a fit has too few epochs for a p99).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("goodput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed for every workload with `--trace 1`. A layer
/// that is not on a workload's path reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("data.generate_ms", "ms"),
    ("graph.khop_ms", "ms"),
    ("graph.negatives_ms", "ms"),
    ("graph.khop_nnz", "count"),
    ("graph.ego_us_p50", "us"),
    ("graph.ego_us_p99", "us"),
    ("graph.ego_nodes_mean", "count"),
    ("gnn.encoder_fwd_ms", "ms"),
    ("gnn.encoder_masked_fwd_ms", "ms"),
    ("core.fit_s", "s"),
    ("core.explain_s", "s"),
    ("core.epl_s", "s"),
    ("core.test_acc", "fraction"),
    ("core.mask_fwd_ms", "ms"),
    ("core.loss_ms", "ms"),
    ("core.pairs_ms", "ms"),
    ("core.pairs_count", "count"),
    ("core.edge_weight_us", "us"),
    ("tensor.backward_ms", "ms"),
    ("tensor.adam_ms", "ms"),
    ("tensor.tape_nodes", "count"),
    ("tensor.scorer_fwd_gfmas", "GFMA/s"),
    ("tensor.scorer_bwd_dw_gfmas", "GFMA/s"),
    ("tensor.scorer_bwd_dx_gfmas", "GFMA/s"),
    ("tensor.matmul_fmas_per_epoch", "count"),
    ("tensor.matmul_calls_per_epoch", "count"),
    ("tensor.spmm_nnz_per_epoch", "count"),
    ("tensor.alloc_bytes_per_epoch", "B"),
    ("tensor.scratch_highwater_bytes", "B"),
    ("tensor.threads", "count"),
    ("tensor.par_speedup", "x"),
    ("serve.queue_wait_us_p50", "us"),
    ("serve.queue_wait_us_p99", "us"),
    ("serve.service_us_p50", "us"),
    ("serve.service_us_p99", "us"),
    ("serve.cache_hit_ratio", "fraction"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.cache_get_us", "us"),
    ("serve.cache_put_us", "us"),
    ("serve.cache_evictions", "count"),
    ("serve.rank_us", "us"),
    ("serve.key_us", "us"),
    ("serve.shed", "count"),
    ("serve.tier.full", "count"),
    ("serve.tier.cache", "count"),
    ("serve.tier.saliency", "count"),
    ("serve.tier.predict_only", "count"),
    ("loadgen.lag_us_p99", "us"),
    ("loadgen.idle_poll_us", "us"),
    ("resilience.isolate_us", "us"),
    ("obs.trace_overhead_pct", "%"),
    ("layer.unattributed_pct", "%"),
    ("error_rate", "fraction"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

struct Metric {
    value: f64,
    samples: u64,
}

/// What one run found: its output checks and its metrics.
#[derive(Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: BTreeMap<&'static str, Metric>,
}

impl Outcome {
    /// Counts `n` operations, of which `failed` failed.
    pub fn count(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Records an output check; a failed check makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Failed operations over attempted ones, so far.
    pub fn error_rate(&self) -> (f64, u64) {
        (
            self.failed as f64 / self.attempted.max(1) as f64,
            self.attempted,
        )
    }

    /// Sets metric `name` from `samples` measurements.
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        self.metrics.insert(name, Metric { value, samples });
    }

    fn print(mut self, names: &[(&str, &str)], missing_is_zero: bool) {
        let mut json = Vec::new();
        for &(name, unit) in names {
            let m = match self.metrics.remove(name) {
                Some(m) => m,
                None if missing_is_zero => Metric {
                    value: 0.0,
                    samples: 0,
                },
                None => {
                    self.problems
                        .push(format!("metric {name} was not measured"));
                    Metric {
                        value: -1.0,
                        samples: 0,
                    }
                }
            };
            let value = if m.value.is_finite() {
                m.value
            } else {
                self.problems.push(format!("metric {name} is not finite"));
                -1.0
            };
            println!("# {name:<32} {value:>16.6} {unit:<8} (n={})", m.samples);
            json.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        for p in &self.problems {
            eprintln!("perfbench: check failed: {p}");
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed,
            json.join(", ")
        );
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e']) {
        s
    } else {
        format!("{s}.0")
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    let Some(outcome) = workloads::run(&args) else {
        eprintln!(
            "perfbench: unknown workload {:?}; expected one of {}",
            args.workload,
            workloads::NAMES.join(", ")
        );
        std::process::exit(2);
    };
    if args.trace {
        outcome.print(PER_LAYER, true);
    } else {
        outcome.print(END_TO_END, false);
    }
}
