//! The closed-loop timing harness shared by every workload.
//!
//! A workload generates all of its inputs from the seed before anything is
//! timed, then runs *passes*: one pass is one walk over those inputs from a
//! freshly reset program state, so every pass repeats exactly the same work
//! and every deterministic output of a pass equals the first pass's. The
//! timed loop runs whole passes until the requested seconds have elapsed.

use std::collections::BTreeMap;
use std::time::Instant;

use vlc_prof::Profile;
use vlc_telemetry::{MetricsSnapshot, Registry};
use vlc_trace::{Span, Tracer};

use crate::host;
use crate::layers::{self, Budget, LayerTimes};

/// Factor by which `--spin` stretches the named layer call.
pub const SPIN_FACTOR: f64 = 1.35;

/// Registry and tracing configuration of one pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassMode {
    /// `Registry::noop()` and no spans.
    Noop,
    /// A live `Registry` and no spans.
    Live,
    /// A live `Registry` and a live span per op.
    Traced,
}

/// What an op sees of the harness: the pass's registry, the op's parent
/// span, and the optional spin around one layer call.
pub struct Ctx<'a> {
    /// Registry of the current pass (noop or live).
    pub registry: &'a Registry,
    /// Parent span of the current op (noop unless the pass is traced).
    pub span: &'a Span,
    spin: Option<&'a str>,
}

impl Ctx<'_> {
    /// Runs one layer call. When `--spin` names `layer`, busy-waits after
    /// the call until it has taken [`SPIN_FACTOR`] times its own duration.
    pub fn layer<T>(&self, layer: &str, call: impl FnOnce() -> T) -> T {
        if self.spin != Some(layer) {
            return call();
        }
        let t0 = Instant::now();
        let out = call();
        let until = t0.elapsed().mul_f64(SPIN_FACTOR);
        while t0.elapsed() < until {
            std::hint::spin_loop();
        }
        out
    }
}

/// Deterministic per-layer quantities of the first traced pass.
pub type Counts = BTreeMap<&'static str, f64>;

/// One benchmark workload. See the module docs for the pass model.
pub trait Workload {
    /// Ops in one pass.
    fn pass_len(&self) -> usize;
    /// Threads an op runs on at once (the width of the workload's pool).
    fn threads(&self) -> usize {
        1
    }
    /// Registry mode of the end-to-end (untraced) passes.
    fn plain_mode(&self) -> PassMode {
        PassMode::Noop
    }
    /// Resets the program state for a new pass (untimed).
    fn start_pass(&mut self, registry: &Registry);
    /// Runs op `i` of the pass (timed).
    fn op(&mut self, i: usize, ctx: &Ctx);
    /// Records op `i`'s outputs for the checks (untimed).
    fn record(&mut self, i: usize);
    /// Checks the pass just run against the workload's rules and against
    /// the first pass; returns the number of failed ops (untimed).
    fn end_pass(&mut self) -> u64;
    /// Costly sampled checks, run once after the timed loop; returns the
    /// number of failed ops.
    fn final_checks(&mut self) -> u64;
    /// Service quality of the first pass, Mb/s.
    fn goodput_mbps(&self) -> f64;
    /// Adds replayed layer times for traced op `i` (layers the program
    /// records no span for).
    fn replay_layers(&mut self, _i: usize, _layers: &mut LayerTimes) {}
    /// Adds registry-derived layer times of a traced pass and, on the first
    /// traced pass, the deterministic per-layer counts.
    fn traced_pass_end(
        &mut self,
        snapshot: &MetricsSnapshot,
        layers: &mut LayerTimes,
        counts: Option<&mut Counts>,
    );
    /// Name of the budget remainder row (`bench.unattributed` unless the
    /// workload names what the remainder is).
    fn remainder_layer(&self) -> &'static str {
        "bench.unattributed"
    }
    /// A digest of the generated inputs.
    fn input_digest(&self) -> u64;
    /// The layer the workload was designed to be dominated by.
    fn expected_dominant(&self) -> &'static str;
    /// Layers that the dominance check counts toward the layer they are
    /// called from, as `(inner, outer)` pairs.
    fn nested_layers(&self) -> &'static [(&'static str, &'static str)] {
        &[]
    }
}

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in BENCHMARK.json.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in BENCHMARK.json.
    pub unit: &'static str,
}

/// The result line of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Ops run.
    pub attempted: u64,
    /// Ops whose output failed a check.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The value of metric `name`, if printed.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Times `setup` in short batches and returns the median batch's
/// corrected time per call (see [`host::correct`]) with the last state
/// built. A set-up takes microseconds and the host can take a vCPU away
/// for milliseconds, so a batch lasts about `BATCH_S`: long enough to
/// average the calls' alternating allocator paths, short enough that most
/// batches miss such a pause and the median drops the rest. Runs for
/// `SETUP_S`.
pub fn time_setup<S>(mut setup: impl FnMut() -> S) -> (f64, S) {
    const SETUP_S: f64 = 0.5;
    const BATCH_S: f64 = 1e-3;
    let prober = host::Prober::new(1);
    let mut state = setup();
    let mut reps = 1u32;
    loop {
        let t0 = Instant::now();
        for _ in 0..reps {
            state = std::hint::black_box(setup());
        }
        if t0.elapsed().as_secs_f64() >= BATCH_S {
            break;
        }
        reps *= 2;
    }
    let (mut times, mut ends, mut slowdowns, mut since_probe) = (vec![], vec![], vec![], 0.0);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < SETUP_S {
        let t0 = Instant::now();
        for _ in 0..reps {
            state = std::hint::black_box(setup());
        }
        let dt = t0.elapsed().as_secs_f64();
        times.push(dt / f64::from(reps));
        since_probe += dt;
        if since_probe >= host::PROBE_EVERY_S {
            ends.push(times.len());
            slowdowns.push(prober.slowdown());
            since_probe = 0.0;
        }
    }
    if ends.last() != Some(&times.len()) {
        ends.push(times.len());
        slowdowns.push(prober.slowdown());
    }
    host::correct(&mut times, &ends, &slowdowns);
    (median(&mut times), state)
}

/// Median of `v` (sorts in place).
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank quantile of `v` (sorts in place); 0 for an empty slice.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Peak resident set of this process (VmHWM), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Per-pass timing totals.
#[derive(Default)]
struct PassTimes {
    ops: u64,
    wall_s: f64,
    busy_s: f64,
    failed: u64,
    /// Host slow-downs probed during the pass.
    slowdowns: Vec<f64>,
}

/// Runs one pass in `mode`; traced passes fold each op's spans into
/// `budget`. Returns the pass's timing totals. With `latencies`, fills it
/// with each op's time corrected for the host's slow-down (see
/// [`host::correct`]), probed with the prober after every
/// [`host::PROBE_EVERY_S`] of ops and at the end of the pass.
fn run_pass(
    w: &mut dyn Workload,
    mode: PassMode,
    spin: Option<&str>,
    latencies: Option<(&mut Vec<f64>, &host::Prober)>,
    mut trace: Option<(&mut Budget, Option<&mut Counts>)>,
) -> PassTimes {
    let registry = match mode {
        PassMode::Noop => Registry::noop(),
        PassMode::Live | PassMode::Traced => Registry::new(),
    };
    w.start_pass(&registry);
    let n = w.pass_len();
    let mut lat = latencies;
    if let Some((l, _)) = lat.as_mut() {
        l.clear();
    }
    let mut busy = 0.0;
    let (mut since_probe, mut chunk_ends, mut slowdowns) = (0.0, Vec::new(), Vec::new());
    let noop = Span::noop();
    let wall = Instant::now();
    for i in 0..n {
        if mode == PassMode::Traced {
            let tracer = Tracer::new();
            let t0 = Instant::now();
            {
                let root = tracer.root(layers::OP_SPAN);
                w.op(
                    i,
                    &Ctx {
                        registry: &registry,
                        span: &root,
                        spin,
                    },
                );
            }
            let dt = t0.elapsed().as_secs_f64();
            busy += dt;
            w.record(i);
            let (budget, _) = trace.as_mut().expect("traced pass has a budget");
            let profile = Profile::from_snapshot(&tracer.snapshot(), 1);
            let mut op_layers = layers::fold(&profile);
            w.replay_layers(i, &mut op_layers);
            budget.add_op(dt, profile.total_root_s(), &op_layers);
        } else {
            let t0 = Instant::now();
            w.op(
                i,
                &Ctx {
                    registry: &registry,
                    span: &noop,
                    spin,
                },
            );
            let dt = t0.elapsed().as_secs_f64();
            busy += dt;
            w.record(i);
            if let Some((l, prober)) = lat.as_mut() {
                l.push(dt);
                since_probe += dt;
                if since_probe >= host::PROBE_EVERY_S || i + 1 == n {
                    chunk_ends.push(i + 1);
                    slowdowns.push(prober.slowdown());
                    since_probe = 0.0;
                }
            }
        }
    }
    let wall_s = wall.elapsed().as_secs_f64();
    if let Some((l, _)) = lat {
        host::correct(l, &chunk_ends, &slowdowns);
    }
    if let Some((budget, counts)) = trace {
        let mut pass_layers = LayerTimes::new();
        w.traced_pass_end(&registry.snapshot(), &mut pass_layers, counts);
        budget.add_layers(&pass_layers);
    }
    let failed = w.end_pass();
    PassTimes {
        ops: n as u64,
        wall_s,
        busy_s: busy,
        failed,
        slowdowns,
    }
}

/// Passes an untraced run makes at least.
const MIN_PASSES: usize = 5;
/// Ops a pass holds at least, so that at least ten of the latencies lie
/// beyond their p99.
const MIN_PASS_OPS: usize = 1100;
/// Op times the untraced run keeps: the most recent `STORE_LEN / n`
/// passes. The store is written in full before timing starts, so the
/// peak resident memory does not depend on how many passes a run makes.
const STORE_LEN: usize = 1 << 18;

/// The untraced run: end-to-end metrics.
///
/// Every pass runs the same ops on the same state, so each op is timed
/// once per pass; its figure is the median of its corrected times over
/// the passes, so that the ops a burst of other work on the host hit in
/// one pass do not make the tail. `ops_per_s` is the op count over the sum
/// of those medians, and the percentiles are taken over them.
pub fn run_e2e(w: &mut dyn Workload, setup_s: f64, seconds: f64, spin: Option<&str>) -> Outcome {
    let n = w.pass_len();
    assert!(n >= MIN_PASS_OPS, "pass too short for a p99");
    let mode = w.plain_mode();
    let slots = (STORE_LEN / n).max(MIN_PASSES);
    let mut store = vec![f32::NAN; slots * n];
    let mut lat = Vec::with_capacity(n);
    let prober = host::Prober::new(w.threads());
    let mut slowdowns = Vec::new();
    let (mut ops, mut wall, mut failed, mut passes) = (0u64, 0.0, 0u64, 0usize);
    while wall < seconds || passes < MIN_PASSES {
        let p = run_pass(w, mode, spin, Some((&mut lat, &prober)), None);
        let slot = &mut store[(passes % slots) * n..][..n];
        for (s, &l) in slot.iter_mut().zip(&lat) {
            *s = l as f32;
        }
        slowdowns.extend(p.slowdowns);
        ops += p.ops;
        wall += p.wall_s;
        failed += p.failed;
        passes += 1;
    }
    failed += w.final_checks();
    let kept = passes.min(slots);
    let mut times = Vec::with_capacity(kept);
    let mut per_op: Vec<f64> = (0..n)
        .map(|i| {
            times.clear();
            times.extend((0..kept).map(|p| f64::from(store[p * n + i])));
            median(&mut times)
        })
        .collect();
    let busy: f64 = per_op.iter().sum();
    let p50 = quantile(&mut per_op, 0.50);
    let p99 = quantile(&mut per_op, 0.99);
    let beyond = per_op.iter().filter(|&&l| l > p99).count();
    eprintln!(
        "perfbench: {ops} ops in {passes} passes, {wall:.3} s ({:.1} ops/s uncorrected); median host slow-down {:.3} over {} probes; medians of {n} ops over {kept} passes, {beyond} beyond their p99",
        ops as f64 / wall,
        median(&mut slowdowns),
        slowdowns.len()
    );
    let failed = failed.min(ops);
    let metrics = vec![
        metric("setup_s", setup_s, "s"),
        metric("ops_per_s", n as f64 / busy, "ops/s"),
        metric("op_p50_us", p50 * 1e6, "us"),
        metric("op_p99_us", p99 * 1e6, "us"),
        metric("goodput_mbps", w.goodput_mbps(), "Mb/s"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    finish(failed == 0, ops, failed, metrics)
}

/// The traced run: per-layer metrics. Rotates noop, live and traced passes
/// (so that each overhead ratio compares passes run side by side) until
/// `seconds` have elapsed and every mode has run at least once.
pub fn run_traced(w: &mut dyn Workload, seconds: f64, spin: Option<&str>) -> Outcome {
    let plain = w.plain_mode();
    let mut per_mode: BTreeMap<&'static str, PassTimes> = BTreeMap::new();
    let mut budget = Budget::default();
    let mut counts = Counts::new();
    let mut first_traced = true;
    let (mut ops, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    let modes = [
        ("noop", PassMode::Noop),
        ("live", PassMode::Live),
        ("traced", PassMode::Traced),
    ];
    let mut round = 0;
    while round == 0 || start.elapsed().as_secs_f64() < seconds {
        for (name, mode) in modes {
            let trace = (mode == PassMode::Traced)
                .then(|| (&mut budget, first_traced.then_some(&mut counts)));
            let p = run_pass(w, mode, spin, None, trace);
            first_traced &= mode != PassMode::Traced;
            ops += p.ops;
            failed += p.failed;
            let acc = per_mode.entry(name).or_default();
            acc.ops += p.ops;
            acc.busy_s += p.busy_s;
        }
        round += 1;
    }
    failed += w.final_checks();
    let rate = |name: &str| {
        let p = &per_mode[name];
        p.ops as f64 / p.busy_s
    };
    let plain_rate = rate(if plain == PassMode::Live {
        "live"
    } else {
        "noop"
    });
    counts.insert("telemetry.live_overhead", rate("noop") / rate("live"));
    counts.insert("bench.trace_overhead", rate("traced") / plain_rate);

    let report = budget.report(
        w.remainder_layer(),
        w.expected_dominant(),
        w.nested_layers(),
    );
    eprint!("{}", report.text);
    counts.insert("bench.budget_error", report.error);
    let mut metrics = Vec::new();
    for &(name, unit) in layers::PER_LAYER {
        let value = if let Some(layer) = name.strip_suffix(".self_s") {
            report.per_op_s.get(layer).copied().unwrap_or(0.0)
        } else {
            counts.get(name).copied().unwrap_or(0.0)
        };
        metrics.push(metric(name, value, unit));
    }
    let failed = failed.min(ops);
    finish(failed == 0 && report.ok, ops, failed, metrics)
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

fn finish(correct: bool, attempted: u64, failed: u64, mut metrics: Vec<Metric>) -> Outcome {
    let mut finite = true;
    for m in &mut metrics {
        if !m.value.is_finite() {
            eprintln!("perfbench: metric {} is not finite", m.name);
            m.value = 0.0;
            finite = false;
        }
    }
    Outcome {
        correct: correct && finite,
        attempted,
        failed,
        metrics,
    }
}
