//! hpop-perfbench — the end-to-end and per-layer benchmark of the hpop
//! services.
//!
//! ```text
//! hpop-perfbench --workload <attic_rw|hood_pages|metro_flows> --seed <n>
//!                --seconds <s> --trace <0|1> [--smoke] [--spans-out <path>]
//! ```
//!
//! A run generates its inputs from the seed once, then repeats *rounds*
//! for `--seconds` (at least three; none starts that would end later
//! than that, going by the last one): each round sets the program up afresh
//! and does a fixed amount of work on the same inputs (an operation
//! count, or a window of simulated time). Fixed work per round matters
//! because the attic keeps every version: a round of fixed duration
//! would measure a larger store on a faster build. How rounds combine
//! into a run's figures is in [`report::end_to_end`] and
//! [`report::per_layer`]; the detail line gives each metric's quartiles
//! over rounds.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` alternates
//! untraced and traced rounds and prints the per-layer metrics; traced
//! rounds record spans around every call the benchmark makes into a
//! layer and count allocations. `--smoke` runs every workload at a tiny
//! size. The last stdout line is the result object.

mod alloc;
mod attic_rw;
mod hood_pages;
mod metro_flows;
mod report;
mod spans;
mod stats;

use hpop_obs::json::Value;
use report::Round;
use spans::Spans;
use std::path::PathBuf;
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

/// One workload: inputs generated once from the seed, then rounds.
pub trait Workload {
    /// Sets the program up afresh and runs the fixed amount of work.
    /// `tr` is `Some` in traced rounds.
    fn round(&mut self, tr: Option<&mut Spans>) -> Round;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    spans_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        spans_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--spans-out" => args.spans_out = Some(PathBuf::from(value()?)),
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn workload(name: &str, seed: u64, smoke: bool) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "attic_rw" => Box::new(attic_rw::AtticRw::new(seed, smoke)),
        "hood_pages" => Box::new(hood_pages::HoodPages::new(seed, smoke)),
        "metro_flows" => Box::new(metro_flows::MetroFlows::new(seed, smoke)),
        other => return Err(format!("unknown workload {other}")),
    })
}

/// Cost of one registry update on the process registry, the way the
/// service crates update it (a name lookup, then the update).
fn registry_update_ns() -> f64 {
    const N: u64 = 20_000;
    let m = hpop_obs::metrics();
    let t = Instant::now();
    for i in 0..N {
        m.counter("perfbench.probe").incr();
        m.histogram("perfbench.probe_hist")
            .record(std::hint::black_box(i));
    }
    t.elapsed().as_nanos() as f64 / (2 * N) as f64
}

/// Fills in the layer metrics every workload shares. A full span
/// buffer fails the round: per-span figures would then leave out the
/// round's last calls.
fn finish_traced(r: &mut Round, tr: &Spans) {
    r.check(tr.dropped() == 0, || {
        format!(
            "span buffer of {} spans full: {} spans dropped",
            tr.len(),
            tr.dropped()
        )
    });
    r.set("obs.trace_dropped", hpop_obs::tracer().dropped() as f64);
    r.set(
        "obs.span_dropped",
        (hpop_obs::spans().dropped() + tr.dropped()) as f64,
    );
    r.set("obs.update_ns", registry_update_ns());
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hpop-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut w = match workload(&args.workload, args.seed, args.smoke) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("hpop-perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Rounds run at least this often, whatever `--seconds` says, so
    // every figure has quartiles.
    let min_rounds = if args.smoke { 1 } else { 3 };
    let started = Instant::now();
    let mut untraced: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    let mut last_spans: Option<Spans> = None;
    let mut peak_rss_mb = 0.0;
    loop {
        let pass = Instant::now();
        untraced.push(w.round(None));
        if untraced.len() == 1 {
            // The footprint of a fresh process over one round. Later
            // rounds start from what the allocator kept of earlier
            // ones, which varies from run to run.
            peak_rss_mb = report::peak_rss_mb();
        }
        if args.trace {
            // The largest traced round, metro_flows, records about
            // 0.4M spans (a start per flow, cancels, two per tick).
            let mut tr = Spans::with_capacity(if args.smoke { 1 << 16 } else { 1 << 20 });
            alloc::set_counting(true);
            let mut r = w.round(Some(&mut tr));
            alloc::set_counting(false);
            finish_traced(&mut r, &tr);
            traced.push(r);
            last_spans = Some(tr);
        }
        // Stop before a pass that would end after `--seconds`.
        let next_end = started.elapsed() + pass.elapsed();
        if next_end.as_secs_f64() > args.seconds && untraced.len() >= min_rounds {
            break;
        }
    }
    let all: Vec<&Round> = untraced.iter().chain(&traced).collect();
    let errors: Vec<String> = all.iter().flat_map(|r| r.errors.iter().cloned()).collect();
    let attempted: u64 = all.iter().map(|r| r.ops).sum();
    let failed: u64 = all.iter().map(|r| r.failed).sum();
    let (metrics, units) = if args.trace {
        (
            report::per_layer(&untraced, &traced),
            report::per_layer_metrics(),
        )
    } else {
        (
            report::end_to_end(&untraced, peak_rss_mb),
            report::end_to_end_metrics(),
        )
    };
    if let Some((name, _)) = units.iter().find(|(name, _)| !metrics.contains_key(name)) {
        eprintln!(
            "hpop-perfbench: BENCHMARK.json names {name}, which this benchmark does not measure"
        );
        std::process::exit(2);
    }
    if let (Some(path), Some(tr)) = (&args.spans_out, &last_spans) {
        if let Err(e) = tr.write_jsonl(path) {
            eprintln!("hpop-perfbench: writing spans to {}: {e}", path.display());
        }
    }
    for e in &errors {
        eprintln!("hpop-perfbench: output check failed: {e}");
    }
    let mut header = Value::obj();
    header
        .set("detail", true)
        .set("workload", args.workload.as_str())
        .set("seed", args.seed as f64)
        .set("trace", args.trace)
        .set(
            "fingerprint",
            untraced[0]
                .fingerprint
                .map_or(Value::Null, |(events, bytes)| {
                    Value::Arr(vec![Value::from(events as f64), Value::from(bytes as f64)])
                }),
        )
        .set(
            "errors",
            Value::Arr(errors.iter().map(|e| Value::from(e.as_str())).collect()),
        );
    // Where the last traced round spent its time, per span name.
    if let (Some(tr), Some(r)) = (&last_spans, traced.last()) {
        let mut per_op = Value::obj();
        for (name, ns) in tr.self_ns() {
            per_op.set(name, ns as f64 / r.ops.max(1) as f64);
        }
        header.set("self_ns_per_op", per_op);
    }
    println!("{}", report::detail_line(header, &metrics, units));
    println!(
        "{}",
        report::result_line(errors.is_empty(), attempted.max(1), failed, &metrics, units)
    );
}
