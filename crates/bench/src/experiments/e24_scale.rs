//! E24 — metro-scale engine: a 1k→1M-home scale sweep.
//!
//! The ROADMAP's north star is "millions of users"; every earlier
//! experiment topped out around a few hundred peers because the flow
//! engine re-ran global max-min filling on every flow event. This
//! experiment drives the rebuilt engine — incremental bottleneck-set
//! allocation, arena flow storage, calendar-queue scheduler, O(1)
//! hierarchical-city routing — with a churn + transfer workload over
//! [`metro`] cities of 1k, 10k, 100k and 1M homes, and reports:
//!
//! - **sim-seconds per wall-second** (the headline throughput), and
//! - **allocator work per flow event** (flows re-solved and links
//!   touched per start/completion/cancel).
//!
//! The pre-incremental engine re-ran the global progressive-filling
//! oracle ([`max_min_rates`]) over every live flow on every start,
//! cancel and completion. Each leg rebuilds its standing demand set at
//! the end of warm-up and times that oracle over it, so the speedup is
//! measured on the same standing workload, not extrapolated. The
//! baseline leaves out the old engine's O(flows) settle and completion
//! scan, so it understates the old per-event cost.
//! `BENCH_BUDGETS.txt` enforces a ≥10× floor at 100k homes plus an
//! allocator-work ceiling.
//!
//! Workload shape, per city: a standing pool of `homes/20` concurrent
//! flows (min 32). Every 10 ms of sim time the driver tops the pool
//! back up — two-thirds home→backbone, one-third home→home cross
//! traffic routed through the tree, sizes log-uniform 100 KB…51 MB,
//! every 4th flow rate-capped — and cancels ~2% of the pool (churn).
//! Flow completions drain through the calendar-queue engine.

use crate::table::{f2, Table};
use hpop_netsim::fairshare::{max_min_rates, Demand};
use hpop_netsim::netsim::NetSim;
use hpop_netsim::presets::{metro, MetroNetwork, MetroParams};
use hpop_netsim::time::{SimDuration, SimTime};
use hpop_netsim::topology::{DirLinkId, Topology};
use hpop_netsim::units::{Bandwidth, KB};
use hpop_netsim::{AllocStats, FlowId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Maintain-tick cadence of the workload driver.
const TICK: SimDuration = SimDuration::from_nanos(10_000_000);

/// Wall time spent repeating the baseline solve (at least 3 solves).
const BASELINE_WALL: Duration = Duration::from_millis(200);

/// One measured point of the sweep.
pub struct LegResult {
    /// City size (homes).
    pub homes: usize,
    /// Simulated seconds covered by the measurement window.
    pub sim_secs: f64,
    /// Wall-clock seconds the window took.
    pub wall_secs: f64,
    /// Flow events (starts + completions + cancels) in the window.
    pub flow_events: u64,
    /// Allocator work counters over the window.
    pub stats: AllocStats,
    /// Engine events executed in the window.
    pub engine_events: u64,
    /// Flows live at the end of warm-up (the baseline's demand set).
    pub baseline_flows: usize,
    /// Median wall-ns of one global oracle solve over that set.
    pub baseline_ns_per_event: f64,
}

impl LegResult {
    /// Simulated seconds per wall-clock second.
    pub fn sims_per_wall(&self) -> f64 {
        self.sim_secs / self.wall_secs.max(1e-9)
    }
    /// Flows re-solved per flow event.
    pub fn flows_resolved_per_event(&self) -> f64 {
        self.stats.flows_reallocated as f64 / self.flow_events.max(1) as f64
    }
    /// Links touched by the allocator per flow event.
    pub fn links_per_event(&self) -> f64 {
        self.stats.links_touched as f64 / self.flow_events.max(1) as f64
    }
    /// Wall-ns per flow event of the incremental engine.
    pub fn ns_per_event(&self) -> f64 {
        self.wall_secs * 1e9 / self.flow_events.max(1) as f64
    }
}

/// A flow the driver started: id, source home, destination home
/// (`None` = backbone) and cap.
type Issued = (FlowId, usize, Option<usize>, Option<Bandwidth>);

struct Driver<'a> {
    city: &'a MetroNetwork,
    rng: StdRng,
    target: usize,
    ring: Vec<FlowId>,
    buf: Vec<DirLinkId>,
    /// Every flow started during warm-up; `None` once warm-up is over.
    issued: Option<Vec<Issued>>,
}

impl<'a> Driver<'a> {
    fn new(city: &'a MetroNetwork, seed: u64) -> Self {
        Driver {
            city,
            rng: StdRng::seed_from_u64(seed),
            target: (city.home_count() / 20).max(32),
            ring: Vec::new(),
            buf: Vec::new(),
            issued: Some(Vec::new()),
        }
    }

    fn tick(&mut self, sim: &mut NetSim) {
        let homes = self.city.home_count();
        while sim.state.net.active_count() < self.target {
            let a = self.rng.gen_range(0..homes);
            let bytes = (100 * KB) << self.rng.gen_range(0..10);
            let cap = if self.rng.gen_range(0..4) == 0 {
                Some(Bandwidth::mbps(200.0))
            } else {
                None
            };
            let (id, dst) = if self.rng.gen_range(0..3) == 0 {
                let mut b = self.rng.gen_range(0..homes);
                if b == a {
                    b = (b + 1) % homes;
                }
                self.city.path_between(a, b, &mut self.buf);
                let id = sim.start_transfer_on_hops(
                    self.city.homes[a],
                    self.city.homes[b],
                    &self.buf,
                    bytes,
                    cap,
                );
                (id, Some(b))
            } else {
                let id = sim.start_transfer_on_hops(
                    self.city.homes[a],
                    self.city.backbone,
                    &self.city.up_hops(a),
                    bytes,
                    cap,
                );
                (id, None)
            };
            if let Some(issued) = &mut self.issued {
                issued.push((id, a, dst, cap));
            }
            self.ring.push(id);
        }
        // Churn: cancel ~2% of the pool each tick. Stale ids (already
        // completed) are no-ops thanks to generational FlowIds.
        for _ in 0..(self.target / 50).max(1) {
            if self.ring.is_empty() {
                break;
            }
            let k = self.rng.gen_range(0..self.ring.len());
            let id = self.ring.swap_remove(k);
            sim.cancel_transfer(id);
        }
        if self.ring.len() > 4 * self.target {
            self.ring.drain(..self.target); // drop oldest (mostly done)
        }
    }

    /// Ends warm-up: one oracle [`Demand`] per flow still live, its hops
    /// recomputed from the endpoints the driver chose.
    fn standing_demands(&mut self, sim: &NetSim) -> Vec<Demand> {
        let issued = self.issued.take().unwrap_or_default();
        issued
            .into_iter()
            .filter(|&(id, ..)| sim.state.net.rate(id).is_some())
            .map(|(_, a, dst, cap)| {
                let links = match dst {
                    Some(b) => {
                        let mut hops = Vec::new();
                        self.city.path_between(a, b, &mut hops);
                        hops
                    }
                    None => self.city.up_hops(a).to_vec(),
                };
                Demand { links, cap }
            })
            .collect()
    }
}

/// Median wall-ns of one [`max_min_rates`] solve over `demands`: what
/// the pre-incremental engine paid on every flow event.
fn baseline_ns_per_event(topo: &Topology, demands: &[Demand]) -> f64 {
    let mut samples = Vec::new();
    let began = Instant::now();
    while samples.len() < 3 || began.elapsed() < BASELINE_WALL {
        let t = Instant::now();
        black_box(max_min_rates(topo, black_box(demands)));
        samples.push(t.elapsed().as_nanos() as f64);
    }
    samples.sort_unstable_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Runs ticks until `until`, topping the pool up at every tick.
fn drive(sim: &mut NetSim, d: &mut Driver<'_>, until: SimTime) {
    loop {
        let now = sim.now();
        d.tick(sim);
        let next = now + TICK;
        if next > until {
            sim.run_until(until);
            return;
        }
        sim.run_until(next);
    }
}

/// Runs one sweep point: warm the city up to its standing pool (not
/// measured), time the global oracle over the standing flows, then
/// measure `run_sim_s` simulated seconds of the churn workload.
pub fn run_leg(homes: usize, warm_sim_s: f64, run_sim_s: f64, seed: u64) -> LegResult {
    let city = metro(&MetroParams {
        homes,
        ..MetroParams::default()
    });
    let mut sim = NetSim::with_topology(city.topology.clone());
    let mut d = Driver::new(&city, seed);
    let warm_end = SimTime::from_nanos((warm_sim_s * 1e9) as u64);
    drive(&mut sim, &mut d, warm_end);
    let demands = d.standing_demands(&sim);
    let baseline_ns_per_event = baseline_ns_per_event(&city.topology, &demands);

    let m = sim.metrics();
    let events_before = m.counter("netsim.flows.started").get()
        + m.counter("netsim.flows.completed").get()
        + m.counter("netsim.flows.cancelled").get();
    let stats_before = sim.alloc_stats();
    let engine_before = sim.events_run();

    let measure_end = warm_end + SimDuration::from_nanos((run_sim_s * 1e9) as u64);
    let started = Instant::now();
    drive(&mut sim, &mut d, measure_end);
    let wall_secs = started.elapsed().as_secs_f64();

    let m = sim.metrics();
    let events_after = m.counter("netsim.flows.started").get()
        + m.counter("netsim.flows.completed").get()
        + m.counter("netsim.flows.cancelled").get();
    let sa = sim.alloc_stats();
    let sb = stats_before;
    LegResult {
        homes,
        sim_secs: run_sim_s,
        wall_secs,
        flow_events: events_after - events_before,
        stats: AllocStats {
            reallocations: sa.reallocations - sb.reallocations,
            flows_reallocated: sa.flows_reallocated - sb.flows_reallocated,
            rate_changes: sa.rate_changes - sb.rate_changes,
            links_touched: sa.links_touched - sb.links_touched,
            fill_rounds: sa.fill_rounds - sb.fill_rounds,
            full_resolves: sa.full_resolves - sb.full_resolves,
            list_scans: sa.list_scans - sb.list_scans,
            heap_pushes: sa.heap_pushes - sb.heap_pushes,
        },
        engine_events: sim.events_run() - engine_before,
        baseline_flows: demands.len(),
        baseline_ns_per_event,
    }
}

/// Folds legs into the E24 table and the budget-checked counters.
fn report(legs: &[LegResult]) -> Vec<Table> {
    let metrics = hpop_obs::metrics();
    let mut t = Table::new(
        "E24",
        "Metro-scale sweep: sim-s/wall-s, allocator work and ns per flow event vs the global oracle",
        &[
            "homes",
            "sim_s",
            "wall_s",
            "sim_s/wall_s",
            "flow_events",
            "flows_resolved/event",
            "links_touched/event",
            "ns/event",
            "oracle_flows",
            "oracle_ns/event",
            "speedup",
        ],
    );
    for leg in legs {
        let speedup = leg.baseline_ns_per_event / leg.ns_per_event().max(1e-9);
        t.push(vec![
            leg.homes.to_string(),
            f2(leg.sim_secs),
            f2(leg.wall_secs),
            f2(leg.sims_per_wall()),
            leg.flow_events.to_string(),
            f2(leg.flows_resolved_per_event()),
            f2(leg.links_per_event()),
            format!("{:.0}", leg.ns_per_event()),
            leg.baseline_flows.to_string(),
            format!("{:.0}", leg.baseline_ns_per_event),
            format!("{speedup:.1}"),
        ]);
        let p = format!("scale.n{}", leg.homes);
        let put = |name: &str, v: u64| metrics.counter(&format!("{p}.{name}")).add(v);
        put("glob.ns_per_event", leg.baseline_ns_per_event as u64);
        put("glob.flows", leg.baseline_flows as u64);
        put("inc.ns_per_event", leg.ns_per_event() as u64);
        put(
            "inc.sims_per_wall_x1000",
            (leg.sims_per_wall() * 1e3) as u64,
        );
        put("inc.flow_events", leg.flow_events);
        put(
            "inc.links_per_event_x1000",
            (leg.links_per_event() * 1e3) as u64,
        );
        put(
            "inc.flows_resolved_per_event_x1000",
            (leg.flows_resolved_per_event() * 1e3) as u64,
        );
        put("speedup_x10", (speedup * 10.0) as u64);
    }
    vec![t]
}

/// Full sweep: 1k/10k/100k/1M homes, each timed against the global
/// oracle on its own standing workload.
pub fn run_default() -> Vec<Table> {
    let legs = vec![
        run_leg(1_000, 2.0, 5.0, 24),
        run_leg(10_000, 1.0, 3.0, 24),
        run_leg(100_000, 1.0, 2.0, 24),
        run_leg(1_000_000, 0.3, 1.0, 24),
    ];
    report(&legs)
}

/// CI smoke preset (≤10k homes, un-pinned): 1k and 10k, small windows.
pub fn run_smoke() -> Vec<Table> {
    let legs = vec![run_leg(1_000, 0.5, 1.0, 24), run_leg(10_000, 0.5, 1.0, 24)];
    report(&legs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_leg_runs_and_counts_work() {
        let leg = run_leg(640, 0.1, 0.2, 7);
        assert_eq!(leg.homes, 640);
        assert!(leg.flow_events > 0, "workload produced no flow events");
        assert!(leg.stats.reallocations > 0);
        assert!(leg.sim_secs > 0.0 && leg.wall_secs > 0.0);
    }

    #[test]
    fn baseline_solves_the_standing_flow_set() {
        let city = metro(&MetroParams {
            homes: 640,
            ..MetroParams::default()
        });
        let mut sim = NetSim::with_topology(city.topology.clone());
        let mut d = Driver::new(&city, 7);
        drive(&mut sim, &mut d, SimTime::from_nanos(100_000_000));
        let demands = d.standing_demands(&sim);
        assert!(!demands.is_empty());
        assert_eq!(demands.len(), sim.state.net.active_count());
        assert!(d.issued.is_none(), "recording stops after warm-up");
        let rates = max_min_rates(&city.topology, &demands);
        assert!(rates.iter().all(|&r| r > 0.0 && r.is_finite()));
        assert!(baseline_ns_per_event(&city.topology, &demands) > 0.0);
    }
}
