//! Fair-share allocator microbenchmarks: the global progressive-filling
//! oracle (`max_min_rates`) versus the incremental bottleneck-set
//! allocator (`FlowNet`), per flow event, at n ∈ {100, 1k, 10k}
//! standing flows on a hierarchical metro city.
//!
//! A flow event for the global allocator is one full `max_min_rates`
//! re-solve of the whole demand set (what the pre-PR engine did on
//! every start/completion/cancel). For the incremental allocator it is
//! one `start_on_hops` + one `cancel` against a warm standing set —
//! the ripple re-solves only the touched bottleneck sets.
//!
//! Besides the criterion groups, `main` first runs one deterministic
//! manual timing pass and writes `BENCH_micro.json`
//! (`micro.fairshare.{glob|inc}.n{N}.ns_per_event` plus
//! `micro.fairshare.speedup_n10000_x10`), which CI bounds via
//! `check_snapshot --budget`.

use criterion::{black_box, criterion_group, Criterion};
use hpop_netsim::fairshare::{max_min_rates, Demand};
use hpop_netsim::flow::FlowNet;
use hpop_netsim::presets::{metro, MetroNetwork, MetroParams};
use hpop_netsim::time::{SimDuration, SimTime};
use hpop_netsim::units::Bandwidth;
use hpop_obs::MetricsRegistry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

fn city_for(flows: usize) -> MetroNetwork {
    metro(&MetroParams {
        homes: (flows * 4).max(128),
        ..MetroParams::default()
    })
}

/// The standing demand set: one uplink flow per pick, every 4th capped.
fn demand_set(city: &MetroNetwork, n: usize) -> Vec<Demand> {
    let mut rng = StdRng::seed_from_u64(0x5EED ^ n as u64);
    (0..n)
        .map(|i| {
            let h = rng.gen_range(0..city.home_count());
            Demand {
                links: city.up_hops(h).to_vec(),
                cap: (i % 4 == 0).then(|| Bandwidth::mbps(200.0)),
            }
        })
        .collect()
}

/// A `FlowNet` warmed with the same standing set; returns the net and
/// the home picks so churn events can reuse the hops.
fn warm_net(city: &MetroNetwork, n: usize) -> (FlowNet, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(0x5EED ^ n as u64);
    let mut net = FlowNet::new(city.topology.clone());
    let mut picks = Vec::with_capacity(n);
    for i in 0..n {
        let h = rng.gen_range(0..city.home_count());
        net.start_on_hops(
            city.homes[h],
            city.backbone,
            &city.up_hops(h),
            u64::MAX / 4, // long-lived: the standing set never drains
            (i % 4 == 0).then(|| Bandwidth::mbps(200.0)),
            SimTime::ZERO,
            hpop_obs::TraceCtx::NONE,
        );
        picks.push(h);
    }
    (net, picks)
}

/// One incremental flow event: start a transfer on `home`'s uplink,
/// then cancel it — two ripples against the warm standing set.
fn inc_event(net: &mut FlowNet, city: &MetroNetwork, home: usize, at: SimTime) {
    let id = net.start_on_hops(
        city.homes[home],
        city.backbone,
        &city.up_hops(home),
        u64::MAX / 4,
        None,
        at,
        hpop_obs::TraceCtx::NONE,
    );
    net.cancel(id, at);
}

const SIZES: [usize; 3] = [100, 1_000, 10_000];

fn bench_global(c: &mut Criterion) {
    let mut g = c.benchmark_group("fairshare/global");
    for &n in &SIZES {
        let city = city_for(n);
        let demands = demand_set(&city, n);
        g.bench_function(format!("n{n}"), |b| {
            b.iter(|| black_box(max_min_rates(&city.topology, &demands)))
        });
    }
    g.finish();
}

fn bench_incremental(c: &mut Criterion) {
    let mut g = c.benchmark_group("fairshare/incremental");
    for &n in &SIZES {
        let city = city_for(n);
        let (mut net, picks) = warm_net(&city, n);
        let mut i = 0usize;
        let mut t = SimTime::from_nanos(1);
        g.bench_function(format!("n{n}"), |b| {
            b.iter(|| {
                inc_event(&mut net, &city, picks[i % picks.len()], t);
                i += 1;
                t += SimDuration::from_nanos(1);
                black_box(net.active_count())
            })
        });
    }
    g.finish();
}

/// Deterministic manual pass: times `iters` events of each kind and
/// writes the `micro.*` counters CI budget-checks.
fn write_micro_snapshot() {
    let metrics = MetricsRegistry::new();
    let pass_started = Instant::now();
    let mut speedup_10k = 0.0;
    for &n in &SIZES {
        let city = city_for(n);
        let demands = demand_set(&city, n);
        // Global: full re-solves. 10k flows cost ~ms each; a handful is
        // plenty for a per-event figure.
        let iters = (200_000 / n).clamp(5, 400) as u32;
        let started = Instant::now();
        for _ in 0..iters {
            black_box(max_min_rates(&city.topology, &demands));
        }
        let glob_ns = started.elapsed().as_nanos() as u64 / iters as u64;

        let (mut net, picks) = warm_net(&city, n);
        let inc_iters = 20_000u32;
        let mut t = SimTime::from_nanos(1);
        let started = Instant::now();
        for i in 0..inc_iters as usize {
            inc_event(&mut net, &city, picks[i % picks.len()], t);
            t += SimDuration::from_nanos(1);
        }
        // An inc event is a start + a cancel = two ripples; report per
        // ripple so the comparison with one global re-solve is fair.
        let inc_ns = (started.elapsed().as_nanos() as u64 / inc_iters as u64 / 2).max(1);

        metrics
            .counter(&format!("micro.fairshare.glob.n{n}.ns_per_event"))
            .add(glob_ns);
        metrics
            .counter(&format!("micro.fairshare.inc.n{n}.ns_per_event"))
            .add(inc_ns);
        if n == 10_000 {
            speedup_10k = glob_ns as f64 / inc_ns as f64;
        }
    }
    metrics
        .counter("micro.fairshare.speedup_n10000_x10")
        .add((speedup_10k * 10.0) as u64);
    // The harness markers `check_snapshot` requires of every snapshot
    // (this one is written by the bench itself, not `harness::run`).
    metrics.counter("exp.tables").add(0);
    metrics
        .gauge("exp.wall_ms")
        .set(pass_started.elapsed().as_secs_f64() * 1e3);
    // `cargo bench` sets the cwd to the package dir; the committed
    // artifact lives at the workspace root next to the other BENCH_*.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_micro.json");
    let snap = metrics.snapshot("micro");
    if let Err(e) = snap.write_to(out) {
        eprintln!("bench_fairshare: cannot write {out}: {e}");
    }
    println!(
        "fairshare micro: 10k-flow event {speedup_10k:.0}x faster incrementally \
         (BENCH_micro.json written)"
    );
}

criterion_group!(benches, bench_global, bench_incremental);

fn main() {
    write_micro_snapshot();
    let mut c = criterion::criterion_from_args();
    benches(&mut c);
}
