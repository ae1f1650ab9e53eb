//! Serving workloads: an open-loop generator against `ses_serve::Server`,
//! a fixed ladder of offered rates, and a traced replay of the request
//! stream through the layers' public calls.

use std::collections::HashMap;
use std::ops::Range;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ses_data::Profile;
use ses_graph::Subgraph;
use ses_serve::{
    content_key, Explanation, ExplanationCache, Lookup, ModelArtifact, ServeConfig, Server, Tier,
};

use crate::stats::{mean, median, median_call_s, peak_rss_mb, percentile, SetupTimer};
use crate::trace::Recorder;
use crate::workloads::DATA_SEED;
use crate::{Args, Outcome};

/// One serving workload.
pub struct ServeSpec {
    pub name: &'static str,
    pub profile: Profile,
    /// `(share of requests, number of nodes)` of the hot set, if any; the
    /// other requests pick a node uniformly.
    pub hot: Option<(f64, usize)>,
    /// The reference rate in requests/s, about half of today's capacity:
    /// the middle of the range from idle to saturation. `p50_ms` and
    /// `tail_ms` are read there, and the ladder of offered rates starts
    /// there.
    pub reference: f64,
}

/// Neighbourhood radius of the served explanations.
const K: usize = 2;
/// Latency limit on a rung's p99 for it to count towards goodput. On a
/// 2-vCPU host, stalls of a busy thread longer than 2 ms covered 0.46% of
/// its time (28 in 20 s), enough to push a p99 past 2 ms at moderate load
/// with no help from the server; stalls over 5 ms covered 0.08%.
const LIMIT_MS: f64 = 5.0;
/// Admission queue size. Large enough that an overloaded rung shows as
/// latency, not as refused requests, so every request gets an answer.
const QUEUE_CAPACITY: usize = 1 << 16;
/// Unmeasured load at the reference rate before the ladder, so the cache
/// fills and lazy set-up finishes.
const WARMUP_S: f64 = 0.5;
/// Set-up repetitions before the ladder. The first can pay the process's
/// first page faults; the median of three leaves it out.
const SETUP_REPS: usize = 3;
/// Requests replayed under spans in the traced run.
const REPLAY_REQUESTS: usize = 3000;
/// Length of the traced run's telemetry-on window at the reference rate.
const TELEMETRY_WINDOW_S: f64 = 2.0;
/// Requests per window of a rung's p99 (at least ten beyond the p99).
const WINDOW: usize = 1000;
/// Bisection steps between the last passing and the first failing rate.
const REFINE_STEPS: usize = 3;
/// Factor between consecutive rates of the ladder.
const RATE_STEP: f64 = 1.25;
/// The ladder stops here, at this many times the reference rate, if no
/// rate has failed by then.
const MAX_RATE_FACTOR: f64 = 8.0;
/// Length of the reference segment after each rung, as a share of a rung.
const REFERENCE_SHARE: f64 = 0.5;
/// Rung lengths a run is planned for: about ten rungs (five up the
/// ladder, the bisection and a few retries), each one and a half rung
/// lengths with its reference segment. The rung length is the run's
/// seconds over this.
const PLANNED_RUNGS: f64 = 15.0;

fn make_server(spec: &ServeSpec, seed: u64) -> Server {
    let data =
        ses_data::realworld::coauthor_cs_like(spec.profile, &mut StdRng::seed_from_u64(DATA_SEED));
    let artifact = ModelArtifact::synthetic(data.graph, K, seed);
    Server::new(
        artifact,
        ServeConfig {
            queue_capacity: QUEUE_CAPACITY,
            seed,
            ..ServeConfig::default()
        },
    )
}

/// The request stream: node ids drawn from `seed`.
struct Mix {
    rng: StdRng,
    hot: Vec<usize>,
    share: f64,
    n: usize,
}

impl Mix {
    /// Hot nodes are drawn from the tenth of the nodes whose k-hop
    /// neighbourhood size is closest to the median, so the seed changes
    /// which nodes are hot but hardly what a hot request costs.
    fn new(spec: &ServeSpec, artifact: &ModelArtifact, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let khop = &artifact.explanations.khop;
        let n = khop.n_rows();
        let (share, size) = spec.hot.unwrap_or((0.0, 0));
        let mut by_size: Vec<usize> = (0..n).collect();
        by_size.sort_by_key(|&v| khop.row_nnz(v));
        let median_size = khop.row_nnz(by_size[n / 2]);
        by_size.sort_by_key(|&v| (khop.row_nnz(v).abs_diff(median_size), v));
        let pool = &by_size[..(n / 10).max(size)];
        let hot = ses_graph::sampling::sample_distinct(pool.len(), size, &mut rng)
            .into_iter()
            .map(|i| pool[i])
            .collect();
        Self { rng, hot, share, n }
    }

    fn next(&mut self) -> usize {
        if !self.hot.is_empty() && self.rng.gen::<f64>() < self.share {
            self.hot[self.rng.gen_range(0..self.hot.len())]
        } else {
            self.rng.gen_range(0..self.n)
        }
    }
}

/// What the loop saw when it served one request.
#[derive(Clone, Copy)]
struct Done {
    id: u64,
    node: usize,
    start_ns: u64,
    end_ns: u64,
    tier: Option<Tier>,
    prediction_ok: bool,
    fingerprint: u64,
}

/// What the loop did with one due request.
#[derive(Clone, Copy)]
struct Sent {
    due_ns: u64,
    lag_ns: u64,
    /// Admission id, or `None` when the request was shed.
    id: Option<u64>,
}

fn fnv(h: u64, x: u64) -> u64 {
    let mut h = h;
    for b in x.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn fingerprint(edges: &Explanation) -> u64 {
    edges.iter().fold(0xcbf2_9ce4_8422_2325, |h, &(u, v, w)| {
        fnv(fnv(fnv(h, u as u64), v as u64), u64::from(w.to_bits()))
    })
}

/// The ranking `Server` documents for a Full or Cache response, computed
/// offline: the node's k-hop ego network, each node's structure-mask weight
/// towards the centre (1 for the centre), each edge weighted by the product
/// of its endpoints' weights, sorted by weight descending, then by the
/// edge's global endpoints ascending.
fn expected_ranking(artifact: &ModelArtifact, node: usize) -> Explanation {
    let sub = Subgraph::ego(&artifact.graph, node, artifact.k);
    let relevance = relevance(artifact, &sub, node);
    let mut edges = mask_edges(&sub, &relevance);
    rank(&mut edges);
    edges
}

fn relevance(artifact: &ModelArtifact, sub: &Subgraph, node: usize) -> Vec<f32> {
    sub.global_of
        .iter()
        .enumerate()
        .map(|(local, &global)| {
            if local == sub.center_local {
                1.0
            } else {
                artifact.explanations.edge_weight(node, global)
            }
        })
        .collect()
}

fn local_edges(sub: &Subgraph) -> Vec<(usize, usize)> {
    (0..sub.len())
        .flat_map(|lu| {
            sub.graph
                .neighbors(lu)
                .iter()
                .filter(move |&&lv| lu < lv)
                .map(move |&lv| (lu, lv))
        })
        .collect()
}

fn mask_edges(sub: &Subgraph, relevance: &[f32]) -> Explanation {
    local_edges(sub)
        .into_iter()
        .map(|(lu, lv)| {
            let (gu, gv) = sub.to_global_edge(lu, lv);
            (gu, gv, relevance[lu] * relevance[lv])
        })
        .collect()
}

fn rank(edges: &mut Explanation) {
    edges.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
}

/// The cache key `Server` uses: a content hash of the ego network's global
/// nodes and edges.
fn cache_key(sub: &Subgraph, node: usize) -> u64 {
    let edges: Vec<(usize, usize)> = local_edges(sub)
        .into_iter()
        .map(|(lu, lv)| sub.to_global_edge(lu, lv))
        .collect();
    content_key(node, K, &sub.global_of, &edges)
}

/// Median over consecutive windows of `WINDOW` values of each window's
/// `q` quantile. One host stall spoils one window, not the whole series.
fn windowed(values: &[f64], q: f64) -> f64 {
    let windows = (values.len() / WINDOW).max(1);
    let quantiles: Vec<f64> = (0..windows)
        .map(|w| {
            let range = w * values.len() / windows..(w + 1) * values.len() / windows;
            percentile(&values[range], q)
        })
        .collect();
    median(&quantiles)
}

/// The windowed p99: a rung's latency test, and the layer tails.
fn windowed_p99(values: &[f64]) -> f64 {
    windowed(values, 0.99)
}

/// One rung: a rate offered for a while, and how the server kept up.
struct Rung {
    rate: f64,
    sent: Range<usize>,
    done: Range<usize>,
    /// Caller-side latencies in ms, from each request's due time, in due
    /// order; a shed or failed request is a miss (infinite).
    latency_ms: Vec<f64>,
    /// The windowed p99 of `latency_ms`.
    p99_ms: f64,
    /// p99 within the limit, nothing shed or failed, and no growing
    /// backlog: the second half of the rung also has its median within
    /// the limit.
    pass: bool,
}

/// The load generator and the server's caller, on one thread.
///
/// Arrivals are open-loop: request `i` of a rung is due at `i / rate`,
/// whatever the server is doing. Before each `run_next` call the loop
/// submits every request whose due time has passed, and with nothing
/// queued it spins until the next one is due. On a 2-vCPU host two busy
/// threads lost 15–19% of their time to host stalls of up to 18 ms,
/// against 3% for one, so a separate generator thread would mostly measure
/// the host; spinning instead of sleeping avoids wake-ups that land
/// milliseconds late. A request's latency runs from its due time, so time
/// it waits for the loop counts against the server.
struct Load<'a> {
    server: &'a Server,
    mix: Mix,
    origin: Instant,
    sent: Vec<Sent>,
    done: Vec<Done>,
    idle_ns: u64,
    idle_polls: u64,
}

impl<'a> Load<'a> {
    fn new(server: &'a Server, mix: Mix) -> Self {
        Self {
            server,
            mix,
            origin: Instant::now(),
            sent: Vec::new(),
            done: Vec::new(),
            idle_ns: 0,
            idle_polls: 0,
        }
    }

    fn ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Offers `rate` requests/s for `secs` seconds and serves them all.
    fn rung(&mut self, rate: f64, secs: f64) -> Rung {
        let predictions = &self.server.artifact().predictions;
        let n = (rate * secs).round() as usize;
        let t0 = self.ns() + 200_000;
        let due = |i: usize| t0 + (i as f64 * 1e9 / rate) as u64;
        let (first_sent, first_done) = (self.sent.len(), self.done.len());
        let (mut next, mut queued) = (0, 0usize);
        while next < n || queued > 0 {
            let now = self.ns();
            while next < n && due(next) <= now {
                let due_ns = due(next);
                let id = self.server.submit(self.mix.next()).ok();
                queued += usize::from(id.is_some());
                self.sent.push(Sent {
                    due_ns,
                    lag_ns: self.ns() - due_ns,
                    id,
                });
                next += 1;
            }
            if queued == 0 {
                std::hint::spin_loop();
                self.idle_ns += self.ns() - now;
                self.idle_polls += 1;
                continue;
            }
            let start_ns = self.ns();
            let (req, result) = self
                .server
                .run_next()
                .expect("a submitted request is queued");
            let end_ns = self.ns();
            queued -= 1;
            let (tier, prediction_ok, fp) = match &result {
                Ok(r) => (
                    Some(r.tier),
                    r.prediction == predictions[req.node],
                    fingerprint(&r.edges),
                ),
                Err(_) => (None, false, 0),
            };
            self.done.push(Done {
                id: req.id,
                node: req.node,
                start_ns,
                end_ns,
                tier,
                prediction_ok,
                fingerprint: fp,
            });
        }
        let sent = first_sent..self.sent.len();
        let done = first_done..self.done.len();
        let latency_ms = self.latencies(sent.clone(), done.clone());
        let p99_ms = windowed_p99(&latency_ms);
        let second_half = &latency_ms[latency_ms.len() / 2..];
        let pass = !latency_ms.is_empty()
            && !latency_ms.iter().any(|l| l.is_infinite())
            && p99_ms <= LIMIT_MS
            && median(second_half) <= LIMIT_MS;
        Rung {
            rate,
            sent,
            done,
            latency_ms,
            p99_ms,
            pass,
        }
    }

    /// The rung's admitted requests paired with their completions. The
    /// queue is FIFO and drained before a rung ends, so they pair in order.
    fn pairs(&self, sent: Range<usize>, done: Range<usize>) -> Vec<(&Sent, Option<&Done>)> {
        let mut done = self.done[done].iter();
        self.sent[sent]
            .iter()
            .map(|s| {
                let d = s.id.map(|id| {
                    let d = done.next().expect("every admitted request completes");
                    assert_eq!(d.id, id, "requests complete in admission order");
                    d
                });
                (s, d)
            })
            .collect()
    }

    fn latencies(&self, sent: Range<usize>, done: Range<usize>) -> Vec<f64> {
        self.pairs(sent, done)
            .into_iter()
            .map(|(s, d)| match d {
                Some(d) if d.tier.is_some() => (d.end_ns - s.due_ns) as f64 / 1e6,
                _ => f64::INFINITY,
            })
            .collect()
    }

    /// Mean time of one idle iteration: with nothing queued, the loop
    /// notices a newly due request within one iteration, which is the
    /// latency floor it adds.
    fn idle_poll_us(&self) -> f64 {
        self.idle_ns as f64 / self.idle_polls.max(1) as f64 / 1e3
    }
}

/// Every rung the run made, and which of them were reference segments.
struct Ladder {
    rungs: Vec<Rung>,
    reference: Vec<usize>,
}

impl Ladder {
    /// Offers `rate` for one rung. A failing rung is run once more and
    /// fails only if it fails again: one burst of host stalls should not
    /// end the ladder. Then a reference segment at `reference` follows, so
    /// the reference figures sample the host across the whole run instead
    /// of one stretch of it, and then `between`.
    fn attempt(
        &mut self,
        load: &mut Load,
        rate: f64,
        reference: f64,
        secs: f64,
        between: &mut impl FnMut(),
    ) -> bool {
        let mut rung = load.rung(rate, secs);
        if !rung.pass {
            self.rungs.push(rung);
            rung = load.rung(rate, secs);
        }
        let pass = rung.pass;
        self.rungs.push(rung);
        self.reference_segment(load, reference, REFERENCE_SHARE * secs);
        between();
        pass
    }

    fn reference_segment(&mut self, load: &mut Load, reference: f64, secs: f64) {
        self.rungs.push(load.rung(reference, secs));
        self.reference.push(self.rungs.len() - 1);
    }

    fn reference_rungs(&self) -> impl Iterator<Item = &Rung> {
        self.reference.iter().map(|&i| &self.rungs[i])
    }
}

pub fn run(spec: &ServeSpec, args: &Args) -> Outcome {
    ses_obs::set_enabled_override(Some(false));
    let mut out = Outcome::default();
    let (mut setup, server) = SetupTimer::start(SETUP_REPS, || make_server(spec, args.seed));
    // More set-up after each attempt of the ladder, so that `setup_s`
    // samples the host over the whole run, as the latencies do.
    let mut top_up = || setup.top_up(|| make_server(spec, args.seed));
    let artifact = server.artifact();
    let mut load = Load::new(&server, Mix::new(spec, artifact, args.seed));
    let reference = spec.reference;
    let rung_s = ((args.seconds - WARMUP_S) / PLANNED_RUNGS).max(0.2);

    load.rung(reference, WARMUP_S);
    // The server's peak: read before the benchmark's per-request records
    // grow with the length of the run.
    let peak_rss = peak_rss_mb();

    // Up the ladder from the reference rate, by RATE_STEP, until a rate
    // fails; then bisect (geometrically) between the last passing and the
    // first failing rate. Goodput is the highest rate that passed.
    let mut ladder = Ladder {
        rungs: Vec::new(),
        reference: Vec::new(),
    };
    ladder.reference_segment(&mut load, reference, REFERENCE_SHARE * rung_s);
    let mut rate = reference;
    let mut failed_at = None;
    while rate <= MAX_RATE_FACTOR * reference {
        if !ladder.attempt(&mut load, rate, reference, rung_s, &mut top_up) {
            failed_at = Some(rate);
            break;
        }
        rate *= RATE_STEP;
    }
    let goodput = match failed_at {
        None => rate / RATE_STEP,
        Some(r) if r == reference => 0.0,
        Some(r) => {
            let (mut lo, mut hi) = (r / RATE_STEP, r);
            for _ in 0..REFINE_STEPS {
                let mid = (lo * hi).sqrt();
                if ladder.attempt(&mut load, mid, reference, rung_s, &mut top_up) {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            lo
        }
    };
    for (i, r) in ladder.rungs.iter().enumerate() {
        println!(
            "# rung {i:>2}: {:>8.0} req/s  n={:>6}  p50 {:.3} ms  p99 {:.3} ms  {}{}",
            r.rate,
            r.latency_ms.len(),
            median(&r.latency_ms),
            r.p99_ms,
            if r.pass { "pass" } else { "FAIL" },
            if ladder.reference.contains(&i) {
                "  (reference)"
            } else {
                ""
            }
        );
    }
    if failed_at.is_none() {
        println!("# every rate passed: goodput is capped at the top of the ladder");
    }
    let (setup_s, reps) = setup.median();
    out.set("setup_s", setup_s, reps);
    let ref_latency: Vec<f64> = ladder
        .reference_rungs()
        .flat_map(|r| r.latency_ms.iter().copied())
        .collect();
    let ref_tail = windowed_p99(&ref_latency);
    out.check(ref_tail <= LIMIT_MS, || {
        format!("the reference rate {reference} req/s missed the limit: p99 {ref_tail:.3} ms")
    });

    // Output checks over every answered request.
    let shed = load.sent.iter().filter(|s| s.id.is_none()).count();
    let (mut wrong, mut errors) = (0usize, 0usize);
    let mut expected: HashMap<usize, u64> = HashMap::new();
    for d in &load.done {
        let Some(tier) = d.tier else {
            errors += 1;
            continue;
        };
        let ranking_ok = match tier {
            Tier::Full | Tier::Cache => {
                let fp = *expected
                    .entry(d.node)
                    .or_insert_with(|| fingerprint(&expected_ranking(artifact, d.node)));
                fp == d.fingerprint
            }
            Tier::Saliency | Tier::PredictOnly => true,
        };
        wrong += usize::from(!(ranking_ok && d.prediction_ok));
    }
    let attempted = load.sent.len();
    out.count(attempted as u64, (shed + errors + wrong) as u64);
    out.check(wrong == 0, || {
        format!("{wrong} responses differ from the offline ranking or prediction")
    });
    out.check(errors == 0, || format!("{errors} requests failed"));
    out.check(shed == 0, || format!("{shed} requests were shed"));

    let lag_us: Vec<f64> = ladder
        .reference_rungs()
        .flat_map(|r| {
            load.sent[r.sent.clone()]
                .iter()
                .map(|s| s.lag_ns as f64 / 1e3)
        })
        .collect();
    let lag_p99_us = windowed_p99(&lag_us);
    out.check(lag_p99_us <= LIMIT_MS * 1e3, || {
        format!("the generator fell behind: lag p99 {lag_p99_us:.0} us at the reference rate")
    });

    if args.trace {
        out.set("loadgen.lag_us_p99", lag_p99_us, lag_us.len() as u64);
        out.set("loadgen.idle_poll_us", load.idle_poll_us(), load.idle_polls);
        out.set("serve.shed", shed as f64, attempted as u64);
        let (rate, attempted) = out.error_rate();
        out.set("error_rate", rate, attempted);
        traced(spec, args, &mut load, &ladder, &mut out);
        return out;
    }

    let n_ref = ref_latency.len() as u64;
    let measured = ladder
        .rungs
        .iter()
        .map(|r| r.latency_ms.len())
        .sum::<usize>() as u64;
    out.set("p50_ms", median(&ref_latency), n_ref);
    // The p90, not the p99: on a 2-vCPU host, noisy stretches lasting
    // seconds gave the windowed p99 at the reference rate a spread of 0.30
    // over ten `serve-cold` runs, and the windowed p90 0.02–0.15.
    out.set("tail_ms", windowed(&ref_latency, 0.9), n_ref);
    out.set("goodput_per_s", goodput, measured);
    out.set("peak_rss_mb", peak_rss, 1);
    out
}

/// Per-layer numbers for a serving workload: the untraced run's queue
/// wait and service time at the reference rate, a window at that rate
/// with the program's telemetry on (for its counters and the tracing
/// overhead), and a replay of the request stream under spans.
fn traced(spec: &ServeSpec, args: &Args, load: &mut Load, ladder: &Ladder, out: &mut Outcome) {
    let mut wait_us = Vec::new();
    let mut service_us = Vec::new();
    let mut nodes = Vec::new();
    for r in ladder.reference_rungs() {
        for (s, d) in load.pairs(r.sent.clone(), r.done.clone()) {
            if let Some(d) = d {
                wait_us.push(d.start_ns.saturating_sub(s.due_ns) as f64 / 1e3);
                service_us.push((d.end_ns - d.start_ns) as f64 / 1e3);
                nodes.push(d.node);
            }
        }
    }
    let n = wait_us.len() as u64;
    let service_p50 = median(&service_us);
    out.set("serve.queue_wait_us_p50", median(&wait_us), n);
    out.set("serve.queue_wait_us_p99", windowed_p99(&wait_us), n);
    out.set("serve.service_us_p50", service_p50, n);
    out.set("serve.service_us_p99", windowed_p99(&service_us), n);
    let tiers = |t: Tier| load.done.iter().filter(|d| d.tier == Some(t)).count() as f64;
    let answered = load.done.len() as u64;
    let (hits, misses) = (tiers(Tier::Cache), tiers(Tier::Full));
    out.set("serve.tier.full", misses, answered);
    out.set("serve.tier.cache", hits, answered);
    out.set("serve.tier.saliency", tiers(Tier::Saliency), answered);
    out.set(
        "serve.tier.predict_only",
        tiers(Tier::PredictOnly),
        answered,
    );
    out.set("serve.cache_hits", hits, answered);
    out.set("serve.cache_misses", misses, answered);
    out.set(
        "serve.cache_hit_ratio",
        hits / (hits + misses).max(1.0),
        answered,
    );

    // Telemetry-on window at the reference rate, on the same warm server.
    for c in ses_obs::metrics::counters() {
        c.reset();
    }
    ses_obs::set_enabled_override(Some(true));
    let window = load.rung(spec.reference, TELEMETRY_WINDOW_S);
    ses_obs::set_enabled_override(Some(false));
    let traced_service: Vec<f64> = load.done[window.done.clone()]
        .iter()
        .map(|d| (d.end_ns - d.start_ns) as f64 / 1e3)
        .collect();
    out.set(
        "obs.trace_overhead_pct",
        100.0 * (median(&traced_service) / service_p50 - 1.0),
        traced_service.len() as u64,
    );
    out.set(
        "serve.cache_evictions",
        ses_obs::metrics::SERVE_CACHE_EVICT.get() as f64,
        traced_service.len() as u64,
    );
    let server = load.server;

    // Replay of the reference segments' node stream, serially, under spans.
    let artifact = server.artifact();
    nodes.truncate(REPLAY_REQUESTS);
    let cfg = server.config();
    let cache = ExplanationCache::new(cfg.cache_entries, cfg.cache_bytes);
    let mut rec = Recorder::new();
    let data = rec.span("data.generate", 0, || {
        ses_data::realworld::coauthor_cs_like(spec.profile, &mut StdRng::seed_from_u64(DATA_SEED))
    });
    let khop = rec.span("graph.khop", 0, || {
        ses_graph::khop_structure(&data.graph, K)
    });
    out.check(khop.nnz() == artifact.explanations.khop.nnz(), || {
        "dataset generation is not deterministic".into()
    });
    out.set(
        "data.generate_ms",
        rec.durations("data.generate")[0] / 1e6,
        1,
    );
    out.set("graph.khop_ms", rec.durations("graph.khop")[0] / 1e6, 1);
    out.set("graph.khop_nnz", khop.nnz() as f64, 1);
    drop((data, khop));
    let mut layer_us = Vec::new();
    let mut ego_nodes = Vec::new();
    let mut mismatches = 0;
    for (i, &node) in nodes.iter().enumerate() {
        let id = i as u64;
        let root_idx = rec.spans().len();
        let root = rec.begin("request", id);
        let sub = rec.span("graph.ego", id, || Subgraph::ego(&artifact.graph, node, K));
        let key = rec.span("serve.key", id, || cache_key(&sub, node));
        let edges = match rec.span("serve.cache_get", id, || cache.get(key)) {
            Lookup::Hit(edges) => edges,
            Lookup::Miss | Lookup::Poisoned => {
                let rel = rec.span("core.edge_weight", id, || relevance(artifact, &sub, node));
                let mut edges = rec.span("serve.mask", id, || mask_edges(&sub, &rel));
                rec.span("serve.rank", id, || rank(&mut edges));
                rec.span("serve.cache_put", id, || cache.put(key, edges.clone()));
                edges
            }
        };
        rec.end(root);
        layer_us.push(rec.children_ns(root_idx) as f64 / 1e3);
        ego_nodes.push(sub.len() as f64);
        if fingerprint(&edges) != fingerprint(&expected_ranking(artifact, node)) {
            mismatches += 1;
        }
    }
    out.check(mismatches == 0, || {
        format!("{mismatches} replayed rankings differ")
    });
    let us = |name: &str| {
        let d: Vec<f64> = rec.durations(name).iter().map(|ns| ns / 1e3).collect();
        (median(&d), percentile(&d, 0.99), d.len() as u64)
    };
    let (ego50, ego99, n_ego) = us("graph.ego");
    out.set("graph.ego_us_p50", ego50, n_ego);
    out.set("graph.ego_us_p99", ego99, n_ego);
    out.set("graph.ego_nodes_mean", mean(&ego_nodes), n_ego);
    for (metric, span) in [
        ("serve.key_us", "serve.key"),
        ("serve.cache_get_us", "serve.cache_get"),
        ("serve.cache_put_us", "serve.cache_put"),
        ("serve.rank_us", "serve.rank"),
        ("core.edge_weight_us", "core.edge_weight"),
    ] {
        let (p50, _, n) = us(span);
        out.set(metric, p50, n);
    }
    out.set(
        "layer.unattributed_pct",
        100.0 * (1.0 - median(&layer_us) / service_p50),
        layer_us.len() as u64,
    );

    // Cost of the panic boundary each request runs inside.
    let direct = median_call_s(0.2, 3, || {
        for i in 0..10_000u64 {
            std::hint::black_box(i);
        }
    });
    let isolated = median_call_s(0.2, 3, || {
        for i in 0..10_000u64 {
            let _ = std::hint::black_box(ses_resilience::run_request_isolated(|| {
                std::hint::black_box(i)
            }));
        }
    });
    out.set(
        "resilience.isolate_us",
        (isolated - direct) / 10_000.0 * 1e6,
        3,
    );

    let path = std::path::PathBuf::from(format!(
        "perfbench/traces/{}-seed{}.jsonl",
        spec.name, args.seed
    ));
    if let Err(e) = rec.write_jsonl(&path) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    rec.print_self_times(spec.name);
}
