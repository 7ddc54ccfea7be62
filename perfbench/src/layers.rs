//! Per-layer attribution of traced ops and the budget check.
//!
//! Each traced op runs under its own root span ([`OP_SPAN`]). The layers'
//! own spans (and the harness spans named after a layer, around calls that
//! record none) hang below it; `vlc-prof` folds the tree into exclusive
//! self times, which [`fold`] maps onto layers. Time the tree leaves to the
//! root is the *remainder*: harness work and layer code without a span.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use vlc_prof::Profile;

/// Name of the root span the harness opens around each traced op.
pub const OP_SPAN: &str = "bench.op";

/// Share of the op total by which the budget may fail to add up.
pub const BUDGET_TOLERANCE: f64 = 0.05;

/// Every per-layer metric, in print order, with its unit. `*.self_s`
/// metrics are the layer's mean exclusive time per traced op.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("alloc.optimal.self_s", "s/op"),
    ("alloc.optimal.iterations", "count"),
    ("alloc.optimal.skip_ratio", "ratio"),
    ("alloc.model.self_s", "s/op"),
    ("channel.update.self_s", "s/op"),
    ("channel.update.hit_ratio", "ratio"),
    ("channel.update.partial_ratio", "ratio"),
    ("channel.noise.self_s", "s/op"),
    ("phy.render.self_s", "s/op"),
    ("phy.encode.self_s", "s/op"),
    ("phy.decode.self_s", "s/op"),
    ("phy.rs.self_s", "s/op"),
    ("e2e.other.self_s", "s/op"),
    ("phy.frames_ok_ratio", "ratio"),
    ("phy.preamble_misses", "count"),
    ("phy.frame_sync_errors", "count"),
    ("phy.rs_uncorrectable", "count"),
    ("phy.codec.rs.encode.self_s", "s/op"),
    ("phy.codec.rs.decode.self_s", "s/op"),
    ("phy.codec.rs_il16.encode.self_s", "s/op"),
    ("phy.codec.rs_il16.decode.self_s", "s/op"),
    ("phy.rs.symbols_corrected", "count"),
    ("phy.codec.detected_loss_ratio", "ratio"),
    ("cell.apply.self_s", "s/op"),
    ("cell.tick.self_s", "s/op"),
    ("cell.replan.self_s", "s/op"),
    ("cell.dirty_frac", "ratio"),
    ("cell.plan_hit_ratio", "ratio"),
    ("cell.handovers", "count"),
    ("mac.plan.self_s", "s/op"),
    ("mac.rank.self_s", "s/op"),
    ("mac.allocate.self_s", "s/op"),
    ("par.spawns", "count"),
    ("par.map_calls", "count"),
    ("par.utilization", "ratio"),
    ("par.overlap.self_s", "s/op"),
    ("telemetry.live_overhead", "ratio"),
    ("bench.trace_overhead", "ratio"),
    ("bench.unattributed.self_s", "s/op"),
    ("bench.budget_error", "ratio"),
];

/// Seconds per layer name.
pub type LayerTimes = BTreeMap<&'static str, f64>;

/// The layer a span name belongs to; `None` for the op root and for spans
/// of no benchmarked layer (their time stays in the remainder).
fn layer_of(span: &str) -> Option<&'static str> {
    Some(match span {
        s if s.starts_with("alloc.optimal") => "alloc.optimal",
        s if s.starts_with("channel.update") => "channel.update",
        "alloc.model" => "alloc.model",
        "cell.apply" => "cell.apply",
        "cell.tick" => "cell.tick",
        "cell.replan" => "cell.replan",
        "mac.plan" | "mac.plan.cached" => "mac.plan",
        "mac.rank" => "mac.rank",
        "mac.allocate" => "mac.allocate",
        "phy.codec.rs.encode" => "phy.codec.rs.encode",
        "phy.codec.rs.decode" => "phy.codec.rs.decode",
        "phy.codec.rs_il16.encode" => "phy.codec.rs_il16.encode",
        "phy.codec.rs_il16.decode" => "phy.codec.rs_il16.decode",
        _ => return None,
    })
}

/// Folds one op's profile into per-layer self times.
///
/// Replans fanned out over the pool overlap in wall time, so the tick
/// span's self time (its duration minus its children's) goes negative;
/// that negative share is the wall time the fan-out saved and is booked
/// as `par.overlap` instead of as tick time.
pub fn fold(profile: &Profile) -> LayerTimes {
    let mut out = LayerTimes::new();
    for node in &profile.nodes {
        if let Some(layer) = layer_of(node.leaf()) {
            *out.entry(layer).or_default() += node.self_s;
        }
    }
    if let Some(tick) = out.get_mut("cell.tick") {
        if *tick < 0.0 {
            let overlap = *tick;
            *tick = 0.0;
            out.insert("par.overlap", overlap);
        }
    }
    out
}

/// The group `layer` competes in for the dominance check: the per-stack
/// codec layers by side, and layers listed in `nested` by the enclosing
/// layer they are called from.
fn group_of(layer: &str, nested: &[(&str, &str)]) -> String {
    if let Some((_, outer)) = nested.iter().find(|(inner, _)| *inner == layer) {
        return outer.to_string();
    }
    match layer.strip_prefix("phy.codec.") {
        Some(rest) => match rest.rsplit_once('.') {
            Some((_, side)) => format!("phy.codec.{side}"),
            None => layer.to_string(),
        },
        None => layer.to_string(),
    }
}

/// Accumulated layer times of every traced op.
#[derive(Debug, Default)]
pub struct Budget {
    ops: u64,
    /// Harness-measured op time.
    total_s: f64,
    /// Root-span time (the tracer's own clock).
    span_total_s: f64,
    layers: BTreeMap<&'static str, f64>,
}

/// The budget check's verdict.
#[derive(Debug)]
pub struct BudgetReport {
    /// The layers and remainder add up and no layer exceeds the op.
    pub ok: bool,
    /// Root-span total minus the harness-measured total, over the latter.
    pub error: f64,
    /// Mean seconds per op for each layer, the remainder included.
    pub per_op_s: BTreeMap<String, f64>,
    /// Human-readable table for standard error.
    pub text: String,
}

impl Budget {
    /// Adds one op: harness-measured duration, root-span duration, and the
    /// op's layer times.
    pub fn add_op(&mut self, op_s: f64, root_s: f64, layers: &LayerTimes) {
        self.ops += 1;
        self.total_s += op_s;
        self.span_total_s += root_s;
        self.add_layers(layers);
    }

    /// Adds layer times measured outside the op spans.
    pub fn add_layers(&mut self, layers: &LayerTimes) {
        for (&k, &v) in layers {
            *self.layers.entry(k).or_default() += v;
        }
    }

    /// Checks that the layers and the remainder add up to the op total
    /// within [`BUDGET_TOLERANCE`], and names the dominant layer among the
    /// groups [`group_of`] forms with `nested`.
    pub fn report(&self, remainder: &str, expected: &str, nested: &[(&str, &str)]) -> BudgetReport {
        let ops = self.ops.max(1) as f64;
        let total = self.total_s;
        let attributed: f64 = self.layers.values().sum();
        let rest = total - attributed;
        let error = if total > 0.0 {
            (self.span_total_s - total) / total
        } else {
            0.0
        };
        let tol = BUDGET_TOLERANCE * total;
        let mut rows: Vec<(String, f64)> = self
            .layers
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect();
        rows.push((remainder.to_string(), rest));
        let mut ok = error.abs() <= BUDGET_TOLERANCE;
        for (name, v) in &rows {
            if name != "par.overlap" && *v < -tol {
                ok = false;
            }
        }
        let mut groups: BTreeMap<String, f64> = BTreeMap::new();
        for (name, v) in &rows {
            if name != "par.overlap" {
                *groups.entry(group_of(name, nested)).or_default() += v;
            }
        }
        let dominant = groups
            .iter()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(k, _)| k.clone())
            .unwrap_or_default();

        let mut text = String::new();
        let _ = writeln!(
            text,
            "perfbench budget: {} traced ops, {:.3} s op total, span total {:+.2}% (tolerance ±{:.0}%)",
            self.ops,
            total,
            error * 100.0,
            BUDGET_TOLERANCE * 100.0
        );
        for (name, v) in &rows {
            let _ = writeln!(
                text,
                "  {name:<28} {:>12.3} us/op {:>7.2}%",
                v / ops * 1e6,
                if total > 0.0 { v / total * 100.0 } else { 0.0 }
            );
        }
        let _ = writeln!(
            text,
            "  sum of layers and remainder: {:.3} s; budget {}",
            attributed + rest,
            if ok { "ok" } else { "FAILED" }
        );
        let _ = writeln!(
            text,
            "  dominant layer: {dominant} (designed: {expected}; {})",
            if dominant == expected {
                "confirmed"
            } else {
                "NOT confirmed"
            }
        );
        BudgetReport {
            ok,
            error,
            per_op_s: rows.into_iter().map(|(k, v)| (k, v / ops)).collect(),
            text,
        }
    }
}
