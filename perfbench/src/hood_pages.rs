//! `hood_pages`: page requests in a 64-HPoP neighbourhood.
//!
//! One caller, closed-loop in wall time; arrivals follow an open-loop
//! schedule in simulated time (one every 25 ms, well under the coop's
//! 100/s admission rate and each NoCDN peer's). Requests are Zipf over
//! a catalogue warmed once per object during set-up, plus a fixed 10%
//! share of first-time objects, so the miss share is the same at the
//! start and the end of a round. A hit costs the coop lookup alone
//! (`CoopCache::try_request_at`, overload controls on at their
//! defaults); a miss adds `ResilientFetcher::fetch`: 4 chunks from 16
//! NoCDN peers, one of which corrupts content, one never answers and
//! one is 20× slow. So a coop change and a NoCDN change move different
//! metrics. No sockets, WAL or netsim.

use crate::report::{registry_updates, Round};
use crate::spans::{self, Spans};
use crate::stats::{quantile, Rng};
use crate::Workload;
use bytes::Bytes;
use hpop_crypto::sha256::{Digest, Sha256};
use hpop_http::url::Url;
use hpop_internet_home::coop::{CoopCache, CoopOverloadConfig, FetchTier};
use hpop_netsim::time::{SimDuration, SimTime};
use hpop_nocdn::{ContentProvider, NoCdnPeer, PeerBehavior, PeerId, ResilientFetcher};
use hpop_resilience::Deadline;
use std::collections::BTreeMap;
use std::time::Instant;

const HOMES: u32 = 64;
const PEERS: u32 = 16;
const CHUNKS: usize = 4;
const CORRUPT_PEER: u32 = 3;
const DEAD_PEER: u32 = 7;
const SLOW_PEER: u32 = 11;
const SLOW_FACTOR: u64 = 20;
const ARRIVAL_GAP: SimDuration = SimDuration::from_millis(25);
// The popularity skew and the first-time share are assumptions, not
// taken from a measured neighbourhood or CDN trace. The share of
// first-time objects sets how much of a round is NoCDN fetch work
// rather than coop lookups.
const ZIPF_ALPHA: f64 = 0.9;
/// Every `MISS_EVERY`-th request (on average) is a first-time object.
const MISS_EVERY: usize = 10;
const HOST: &str = "cdn.example";
/// Object sizes are log-uniform over this range.
const MIN_OBJECT: u64 = 1024;
const MAX_OBJECT: u64 = 256 * 1024;

/// Per-chunk service time of a NoCDN peer: a round trip plus the
/// chunk at 200 Mbps; the slow peer takes `SLOW_FACTOR` times longer.
fn chunk_latency(peer: PeerId, chunk_bytes: u64) -> SimDuration {
    let base = SimDuration::from_millis(2) + SimDuration::from_nanos(chunk_bytes * 8 * 5);
    if peer.0 == SLOW_PEER {
        base.saturating_mul(SLOW_FACTOR)
    } else {
        base
    }
}

enum Target {
    /// Index into the warmed catalogue.
    Catalogue(usize),
    /// Index into the first-time objects.
    Fresh(usize),
}

struct Request {
    member: u32,
    target: Target,
    /// Rotation of the NoCDN peer order for a miss.
    rotation: usize,
}

struct Fresh {
    path: String,
    url: Url,
    body: Bytes,
    digest: Digest,
}

pub struct HoodPages {
    catalogue: Vec<(Url, u64)>,
    fresh: Vec<Fresh>,
    requests: Vec<Request>,
    orders: Vec<Vec<PeerId>>,
}

impl HoodPages {
    pub fn new(seed: u64, smoke: bool) -> HoodPages {
        let (n_catalogue, n_requests) = if smoke { (256, 400) } else { (4096, 10_000) };
        let mut rng = Rng::new(seed ^ 0x600D);
        let catalogue: Vec<(Url, u64)> = rng
            .stratified_log_uniform(n_catalogue, MIN_OBJECT, MAX_OBJECT)
            .into_iter()
            .enumerate()
            .map(|(k, size)| (Url::https(HOST, &format!("/cat/{k}")), size))
            .collect();
        // Zipf CDF over catalogue ranks.
        let weights: Vec<f64> = (1..=n_catalogue)
            .map(|k| (k as f64).powf(-ZIPF_ALPHA))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut cdf = Vec::with_capacity(n_catalogue);
        let mut acc = 0.0;
        for w in &weights {
            acc += w / total;
            cdf.push(acc);
        }
        // Exactly one request in MISS_EVERY asks for a first-time
        // object, at seeded positions.
        let n_fresh = n_requests / MISS_EVERY;
        let mut fresh_at = vec![false; n_requests];
        fresh_at[..n_fresh].iter_mut().for_each(|f| *f = true);
        rng.shuffle(&mut fresh_at);
        let mut fresh_sizes = rng
            .stratified_log_uniform(n_fresh, MIN_OBJECT, MAX_OBJECT)
            .into_iter();
        let mut fresh = Vec::with_capacity(n_fresh);
        let mut requests = Vec::with_capacity(n_requests);
        for is_fresh in fresh_at {
            let member = rng.below(u64::from(HOMES)) as u32;
            let rotation = rng.below(u64::from(PEERS)) as usize;
            let target = if is_fresh {
                let path = format!("/fresh/{}", fresh.len());
                let len = fresh_sizes.next().expect("one size per first-time object");
                let body = Bytes::from(rng.bytes(len as usize));
                fresh.push(Fresh {
                    url: Url::https(HOST, &path),
                    path,
                    digest: Sha256::digest(&body),
                    body,
                });
                Target::Fresh(fresh.len() - 1)
            } else {
                let u = rng.unit();
                Target::Catalogue(cdf.partition_point(|&c| c < u).min(n_catalogue - 1))
            };
            requests.push(Request {
                member,
                target,
                rotation,
            });
        }
        let orders = (0..PEERS as usize)
            .map(|r| (0..PEERS).map(|p| PeerId((p + r as u32) % PEERS)).collect())
            .collect();
        HoodPages {
            catalogue,
            fresh,
            requests,
            orders,
        }
    }
}

fn peer_bytes(peers: &BTreeMap<PeerId, NoCdnPeer>) -> u64 {
    peers.values().map(|p| p.bytes_served).sum()
}

impl Workload for HoodPages {
    fn round(&mut self, mut tr: Option<&mut Spans>) -> Round {
        let mut r = Round::default();
        let setup = Instant::now();
        let mut origin = ContentProvider::new(HOST);
        for f in &self.fresh {
            origin.put_object(f.path.clone(), f.body.clone());
        }
        let mut peers: BTreeMap<PeerId, NoCdnPeer> = (0..PEERS)
            .map(|p| {
                let behavior = match p {
                    CORRUPT_PEER => PeerBehavior::CorruptsContent,
                    DEAD_PEER => PeerBehavior::Unresponsive,
                    _ => PeerBehavior::Honest,
                };
                (PeerId(p), NoCdnPeer::with_behavior(PeerId(p), behavior))
            })
            .collect();
        let mut fetcher = ResilientFetcher::default();
        let mut coop = CoopCache::new(HOMES);
        coop.enable_overload(CoopOverloadConfig::default(), SimTime::ZERO);
        let mut now = SimTime::ZERO;
        for (k, (url, bytes)) in self.catalogue.iter().enumerate() {
            let warmed = coop.try_request_at(k as u32 % HOMES, url, *bytes, now);
            r.check(warmed.is_ok(), || {
                format!("hood_pages: warming {url:?} was refused")
            });
            now += ARRIVAL_GAP;
        }
        r.setup_s = setup.elapsed().as_secs_f64();

        let coop0 = coop.stats();
        let refused0 = coop.overload_rejected();
        let global0 = registry_updates(hpop_obs::metrics());
        let spans0 = tr.as_ref().map_or(0, |t| t.len());
        let (peer0, origin0) = (peer_bytes(&peers), origin.origin_bytes);
        let mut lookup_allocs = 0u64;
        let mut fetch_allocs = 0u64;
        let (mut fetches, mut fallback, mut hedged, mut first_ok) = (0u64, 0u64, 0u64, 0u64);
        let mut sim_ns: Vec<u64> = Vec::with_capacity(self.requests.len());
        r.lat_ns.reserve(self.requests.len());
        let t0 = Instant::now();
        for (i, req) in self.requests.iter().enumerate() {
            let at = now + ARRIVAL_GAP.saturating_mul(i as u64);
            let (url, bytes) = match req.target {
                Target::Catalogue(k) => (&self.catalogue[k].0, self.catalogue[k].1),
                Target::Fresh(k) => (&self.fresh[k].url, self.fresh[k].body.len() as u64),
            };
            let started = Instant::now();
            let root = spans::begin(&mut tr, i as u64, "request", None);
            let a0 = crate::alloc::count();
            let s = spans::begin(&mut tr, i as u64, "coop.lookup", root);
            let tier = coop.try_request_at(req.member, url, bytes, at);
            spans::end(&mut tr, s);
            lookup_allocs += crate::alloc::count() - a0;
            let mut delivered_at = at;
            // Refusals count as failed requests; a wrong tier or an
            // unverified page also fails the output check.
            let (failed, wrong) = match (&tier, &req.target) {
                (Err(_), _) => (true, None),
                (Ok(FetchTier::Origin), Target::Fresh(k)) => {
                    let f = &self.fresh[*k];
                    let chunk_bytes = bytes.div_ceil(CHUNKS as u64);
                    let a0 = crate::alloc::count();
                    let s = spans::begin(&mut tr, i as u64, "nocdn.fetch", root);
                    let (report, body) = fetcher.fetch(
                        &f.path,
                        CHUNKS,
                        &f.digest,
                        &self.orders[req.rotation],
                        &mut peers,
                        &mut origin,
                        Deadline::after(at, SimDuration::from_secs(30)),
                        &mut delivered_at,
                        &|p| chunk_latency(p, chunk_bytes),
                    );
                    spans::end(&mut tr, s);
                    fetch_allocs += crate::alloc::count() - a0;
                    fetches += 1;
                    fallback += report.fallback_chunks as u64;
                    hedged += report.hedged_chunks as u64;
                    first_ok += u64::from(report.corrupt_peers.is_empty());
                    if report.verified && body[..] == f.body[..] {
                        (false, None)
                    } else {
                        (true, Some("unverified page"))
                    }
                }
                (Ok(FetchTier::Origin), Target::Catalogue(_)) => {
                    (false, Some("warmed object missed"))
                }
                (Ok(_), Target::Fresh(_)) => (false, Some("first-time object hit")),
                (Ok(_), Target::Catalogue(_)) => (false, None),
            };
            spans::end(&mut tr, root);
            r.lat_ns.push(started.elapsed().as_nanos() as u64);
            sim_ns.push(delivered_at.saturating_since(at).as_nanos());
            r.failed += u64::from(failed);
            if let Some(why) = wrong {
                r.check(false, || {
                    format!("hood_pages: request {i} for {url:?}: {why}")
                });
            }
        }
        r.wall_s = t0.elapsed().as_secs_f64();
        r.ops = self.requests.len() as u64;
        r.set("sim.p99_ms", quantile(&sim_ns, 0.99) as f64 / 1e6);

        if let Some(t) = tr.as_deref() {
            let n = r.ops as f64;
            let fetches_f = fetches.max(1) as f64;
            let lookups = t.durations(spans0, "coop.lookup");
            let fetch_ns = t.durations(spans0, "nocdn.fetch");
            let c = coop.stats();
            let bp = |v: u64| v as f64 * 1e4 / n;
            r.set(
                "internet-home.lookup_ns_p50",
                quantile(&lookups, 0.50) as f64,
            );
            r.set(
                "internet-home.lookup_ns_p99",
                quantile(&lookups, 0.99) as f64,
            );
            r.set("internet-home.allocs_per_lookup", lookup_allocs as f64 / n);
            r.set(
                "internet-home.local_bp",
                bp(c.local_hits - coop0.local_hits),
            );
            r.set(
                "internet-home.neighbor_bp",
                bp(c.neighbor_hits - coop0.neighbor_hits),
            );
            r.set(
                "internet-home.stale_bp",
                bp(c.stale_hits - coop0.stale_hits),
            );
            r.set(
                "internet-home.origin_bp",
                bp(c.origin_fetches - coop0.origin_fetches),
            );
            r.set(
                "internet-home.refused_bp",
                bp(coop.overload_rejected() - refused0),
            );
            r.set("nocdn.fetch_ns_p50", quantile(&fetch_ns, 0.50) as f64);
            r.set("nocdn.fetch_ns_p99", quantile(&fetch_ns, 0.99) as f64);
            r.set("nocdn.allocs_per_fetch", fetch_allocs as f64 / fetches_f);
            let moved = peer_bytes(&peers) - peer0 + origin.origin_bytes - origin0;
            r.set("nocdn.kib_per_fetch", moved as f64 / 1024.0 / fetches_f);
            r.set(
                "nocdn.fallback_chunks_per_fetch",
                fallback as f64 / fetches_f,
            );
            r.set("nocdn.first_verify_bp", first_ok as f64 * 1e4 / fetches_f);
            r.set(
                "resilience.hedged_chunk_bp",
                hedged as f64 * 1e4 / (fetches_f * CHUNKS as f64),
            );
            let end = now + ARRIVAL_GAP.saturating_mul(self.requests.len() as u64);
            r.set(
                "resilience.tripped_peers",
                fetcher.breakers.tripped(end).len() as f64,
            );
            r.set(
                "obs.updates_per_op",
                (registry_updates(hpop_obs::metrics()) - global0) as f64 / n,
            );
            r.set(
                "trace.accounted_bp",
                t.layer_ns(spans0) as f64 * 1e4 / (r.wall_s * 1e9).max(1.0),
            );
            // SHA-256 over the workload's own bodies, as NoCDN verifies them.
            let kib: f64 = self
                .fresh
                .iter()
                .map(|f| f.body.len() as f64 / 1024.0)
                .sum();
            let s0 = Instant::now();
            for f in &self.fresh {
                std::hint::black_box(Sha256::digest(std::hint::black_box(&f.body[..])));
            }
            r.set(
                "crypto.sha256_ns_per_kib",
                s0.elapsed().as_nanos() as f64 / kib.max(1.0),
            );
        }
        r
    }
}
