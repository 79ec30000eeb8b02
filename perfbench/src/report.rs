//! Metric names and units, per-round results, and the result lines.
//!
//! The metric names and units are those of `BENCHMARK.json`, compiled
//! into the binary; the smoke test checks that every one is printed.

use crate::stats::{interquartile_mean, median, quantile, quartiles};
use hpop_obs::json::{self, Value};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn spec_section(section: usize) -> &'static [(&'static str, &'static str)] {
    static SECTIONS: OnceLock<[Vec<(&'static str, &'static str)>; 2]> = OnceLock::new();
    &SECTIONS.get_or_init(|| {
        let spec: &'static Value = Box::leak(Box::new(
            json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses"),
        ));
        ["end_to_end", "per_layer"].map(|name| {
            spec.get(name)
                .and_then(Value::items)
                .expect("BENCHMARK.json lists end_to_end and per_layer metrics")
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(Value::as_str).expect("name and unit");
                    (field("name"), field("unit"))
                })
                .collect()
        })
    })[section]
}

/// End-to-end metrics, printed by untraced runs.
pub fn end_to_end_metrics() -> &'static [(&'static str, &'static str)] {
    spec_section(0)
}

/// Per-layer metrics, printed by traced runs. A layer a workload does
/// not cross reads 0 there.
pub fn per_layer_metrics() -> &'static [(&'static str, &'static str)] {
    spec_section(1)
}

/// What one round (fresh set-up plus a fixed amount of work) produced.
#[derive(Default)]
pub struct Round {
    /// Wall seconds of the program's set-up.
    pub setup_s: f64,
    /// Operations attempted in the measured loop.
    pub ops: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Wall seconds of the measured loop.
    pub wall_s: f64,
    /// Wall latency per operation (ns).
    pub lat_ns: Vec<u64>,
    /// Output-check failures (any makes the run incorrect).
    pub errors: Vec<String>,
    /// A count the seed fixes exactly, reported in the detail line.
    pub fingerprint: Option<(u64, u64)>,
    /// Per-layer metrics this round measured.
    pub layers: BTreeMap<&'static str, f64>,
}

impl Round {
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.wall_s.max(1e-9)
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            per_layer_metrics().iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.layers.insert(name, value);
    }

    /// Checks `ok`, recording `what` as an output-check failure if not.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.errors.len() < 16 {
            self.errors.push(what());
        }
    }
}

/// One metric of a run: its value, and its quartiles and count over the
/// run's rounds.
pub struct Summary {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    /// Rounds the quartiles are over.
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let (q1, med, q3) = quartiles(values);
        Summary {
            value: med,
            q1,
            q3,
            n: values.len(),
        }
    }
}

/// End-to-end metrics over the untraced rounds of a run.
///
/// Throughput and latency are each round's figure, averaged over the
/// rounds between the first and third quartile (the interquartile
/// mean). The host's speed switches between two levels up to 1.7x
/// apart over tens of seconds, and now and then a neighbour halves it
/// for a while: a median of rounds would jump between the levels, a
/// plain mean would follow the rare slow stretches. Set-up time is the
/// median round. Quartiles are over rounds.
pub fn end_to_end(rounds: &[Round], peak_rss_mb: f64) -> BTreeMap<&'static str, Summary> {
    let per = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<_>>();
    let iqm = |per_round: Vec<f64>| Summary {
        value: interquartile_mean(&per_round),
        ..Summary::of(&per_round)
    };
    let ops: u64 = rounds.iter().map(|r| r.ops).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let mut out = BTreeMap::new();
    out.insert("setup_s", Summary::of(&per(&|r| r.setup_s)));
    out.insert("ops_per_s", iqm(per(&|r| r.ops_per_s())));
    out.insert(
        "p50_us",
        iqm(per(&|r| quantile(&r.lat_ns, 0.50) as f64 / 1e3)),
    );
    out.insert(
        "p99_us",
        iqm(per(&|r| quantile(&r.lat_ns, 0.99) as f64 / 1e3)),
    );
    out.insert(
        "ok_bp",
        Summary::of(&[(ops - failed) as f64 * 1e4 / ops.max(1) as f64]),
    );
    out.insert("peak_rss_mb", Summary::of(&[peak_rss_mb]));
    out
}

/// Per-layer metrics over the traced rounds of a run; `untraced` gives
/// the tracing overhead. Layers no round measured read 0.
pub fn per_layer(untraced: &[Round], traced: &[Round]) -> BTreeMap<&'static str, Summary> {
    let mut out = BTreeMap::new();
    for &(name, _) in per_layer_metrics() {
        let vals: Vec<f64> = traced
            .iter()
            .map(|r| r.layers.get(name).copied().unwrap_or(0.0))
            .collect();
        out.insert(name, Summary::of(&vals));
    }
    let base = median(&untraced.iter().map(Round::ops_per_s).collect::<Vec<_>>());
    let with = median(&traced.iter().map(Round::ops_per_s).collect::<Vec<_>>());
    out.insert(
        "trace.overhead_bp",
        Summary::of(&[(base - with) / base.max(1e-9) * 1e4]),
    );
    out
}

/// Registry updates recorded so far: histogram samples plus counter
/// increments. Counters of byte amounts are left out, since one update
/// adds many bytes to them.
pub fn registry_updates(m: &hpop_obs::MetricsRegistry) -> u64 {
    let s = m.snapshot("perfbench");
    let counted: u64 = s
        .counters
        .iter()
        .filter(|(name, _)| !name.contains("bytes"))
        .map(|(_, v)| v)
        .sum();
    counted + s.histograms.values().map(|h| h.count).sum::<u64>()
}

/// Peak resident memory of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The detail line: `header` plus every metric with its quartiles and
/// round count.
pub fn detail_line(
    mut header: Value,
    metrics: &BTreeMap<&'static str, Summary>,
    units: &[(&str, &str)],
) -> String {
    let mut m = Value::obj();
    for &(name, unit) in units {
        let s = &metrics[name];
        let mut e = Value::obj();
        e.set("value", s.value)
            .set("q1", s.q1)
            .set("q3", s.q3)
            .set("rounds", s.n as f64)
            .set("unit", unit);
        m.set(name, e);
    }
    header.set("metrics", m);
    header.to_json()
}

/// The result line the benchmark contract asks for.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &BTreeMap<&'static str, Summary>,
    units: &[(&str, &str)],
) -> String {
    let mut m = Value::obj();
    for &(name, unit) in units {
        let mut e = Value::obj();
        e.set("value", metrics[name].value).set("unit", unit);
        m.set(name, e);
    }
    let mut v = Value::obj();
    v.set("correct", correct)
        .set("attempted", attempted as f64)
        .set("failed", failed as f64)
        .set("metrics", m);
    v.to_json()
}
