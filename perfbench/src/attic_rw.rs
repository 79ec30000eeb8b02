//! `attic_rw`: WebDAV traffic to the attic daemon over loopback.
//!
//! `AtticDaemon` over `DurableAttic` (WAL on `SimDisk`), driven
//! closed-loop with no think time over one keep-alive loopback
//! connection: GET-latest reads beside PUT writes of 256 B–16 KiB
//! bodies, plus PROPFIND Depth 1, with a share of
//! `x-attic-origin: external` requests that carry a capability grant.
//! It is the only workload that crosses a real socket, h1 framing, the
//! mutex around `DavCore`, the WAL and its snapshots; reads beside
//! writes make a write-path gain that slows reads show up. One
//! connection, because the client thread and the handler thread
//! already fill two cores: more connections make the tail swing from
//! run to run. Closed-loop, because attic clients wait for each reply.
//!
//! Traced rounds replay the identical request sequence in process
//! through `h1` and `DavCore`, once over `DurableAttic` and once over
//! `VolatileBackend`. That splits a request into http, attic and
//! durability costs without tracing inside the program; what the
//! replay does not account for is the daemon's own share (sockets,
//! wake-ups and the `DavCore` mutex).

use crate::report::{registry_updates, Round};
use crate::spans::{self, Spans};
use crate::stats::{mean, quantile, Rng};
use crate::Workload;
use hpop_attic::{
    AtticBackend, AtticDaemon, DaemonConfig, DavCore, DurableAttic, Origin, VolatileBackend,
};
use hpop_core::auth::{CapabilityToken, Permission, TokenVerifier};
use hpop_crypto::sha256::Sha256;
use hpop_durability::DurabilityConfig;
use hpop_http::h1;
use hpop_http::message::{Method, Request, Response, StatusCode};
use hpop_http::url::Url;
use hpop_netsim::storage::SimDisk;
use hpop_netsim::time::SimTime;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Instant;

const KEY: [u8; 32] = [7u8; 32];
// The shares below are assumptions, not taken from measured attic or
// file-sync traffic: reads a little ahead of writes, a few listings,
// and a minority of external callers. They decide which layer
// dominates p50 and p99, so a change to them is a change of workload.
/// Percent of requests that are GETs, PUTs; the rest are PROPFINDs.
const GET_PCT: usize = 60;
const PUT_PCT: usize = 33;
/// Percent of requests entering as external traffic with a grant.
const EXTERNAL_PCT: usize = 10;
const MIN_BODY: u64 = 256;
const MAX_BODY: u64 = 16 * 1024;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Get,
    Put,
    PropFind,
}

struct Op {
    req: Request,
    kind: Kind,
    /// Index into the file paths (GET/PUT).
    file: usize,
}

pub struct AtticRw {
    seed: u64,
    /// MKCOLs and one PUT per file, served in process before the daemon
    /// starts.
    prepop: Vec<Request>,
    ops: Vec<Op>,
    n_files: usize,
    verifier: TokenVerifier,
}

fn url(path: &str) -> Url {
    Url::new("http", "attic.home", path)
}

/// Logical time of the `i`-th request: the daemon honours
/// `x-sim-time`, so versions and grant checks do not depend on the
/// wall clock.
fn at(req: Request, i: usize) -> Request {
    req.with_header("x-sim-time", ((i as u64 + 1) * 1_000_000).to_string())
}

fn request_time(req: &Request) -> SimTime {
    SimTime::from_nanos(
        req.headers
            .get("x-sim-time")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0),
    )
}

fn origin_of(req: &Request) -> Origin {
    match req.headers.get("x-attic-origin") {
        Some("external") => Origin::External,
        _ => Origin::Local,
    }
}

impl AtticRw {
    pub fn new(seed: u64, smoke: bool) -> AtticRw {
        let (collections, per_collection, n_ops) = if smoke { (4, 4, 200) } else { (8, 64, 6_000) };
        let mut rng = Rng::new(seed ^ 0xA771C);
        let verifier = TokenVerifier::new(KEY);
        let collection = |c: usize| format!("/c{c}");
        let files: Vec<String> = (0..collections * per_collection)
            .map(|f| format!("{}/f{}", collection(f / per_collection), f % per_collection))
            .collect();
        let grants: Vec<String> = (0..collections)
            .map(|c| {
                let token = verifier.issue(
                    &format!("app{c}"),
                    &collection(c),
                    Permission::ReadWrite,
                    SimTime::from_secs(1 << 30),
                );
                format!("Capability {}", token.encode())
            })
            .collect();
        let mut prepop: Vec<Request> = (0..collections)
            .map(|c| Request::new(Method::MkCol, url(&collection(c))))
            .collect();
        // Body sizes come in the same order for every seed, so the store
        // holds the same bytes at each snapshot (peak memory is taken
        // there); paths, contents and the mix come from the seed.
        let mut sizes_rng = Rng::new(0);
        let sizes = sizes_rng.stratified_log_uniform(files.len(), MIN_BODY, MAX_BODY);
        for (f, len) in files.iter().zip(sizes) {
            prepop.push(Request::put(url(f), rng.bytes(len as usize)));
        }
        let prepop: Vec<Request> = prepop
            .into_iter()
            .enumerate()
            .map(|(i, r)| at(r, i))
            .collect();
        // An exact mix at seeded positions.
        let n_gets = n_ops * GET_PCT / 100;
        let n_puts = n_ops * PUT_PCT / 100;
        let mut kinds: Vec<Kind> = (0..n_ops)
            .map(|i| match i {
                i if i < n_gets => Kind::Get,
                i if i < n_gets + n_puts => Kind::Put,
                _ => Kind::PropFind,
            })
            .collect();
        rng.shuffle(&mut kinds);
        let mut external: Vec<bool> = (0..n_ops).map(|i| i < n_ops * EXTERNAL_PCT / 100).collect();
        rng.shuffle(&mut external);
        let mut put_sizes = sizes_rng
            .stratified_log_uniform(n_puts, MIN_BODY, MAX_BODY)
            .into_iter();
        let ops = kinds
            .into_iter()
            .zip(external)
            .enumerate()
            .map(|(i, (kind, external))| {
                let file = rng.below(files.len() as u64) as usize;
                let c = file / per_collection;
                let req = match kind {
                    Kind::Get => Request::get(url(&files[file])),
                    Kind::Put => {
                        let len = put_sizes.next().expect("one size per PUT");
                        Request::put(url(&files[file]), rng.bytes(len as usize))
                    }
                    Kind::PropFind => Request::new(Method::PropFind, url(&collection(c)))
                        .with_header("depth", "1"),
                };
                let req = if external {
                    req.with_header("x-attic-origin", "external")
                        .with_header("authorization", grants[c].clone())
                } else {
                    req
                };
                Op {
                    req: at(req, prepop.len() + i),
                    kind,
                    file,
                }
            })
            .collect();
        AtticRw {
            seed,
            prepop,
            ops,
            n_files: files.len(),
            verifier,
        }
    }

    /// A fresh engine over `backend`, pre-populated in process, and the
    /// version each file's pre-population PUT was acknowledged with.
    fn engine<B: AtticBackend>(&self, backend: B, r: &mut Round) -> (DavCore<B>, Vec<Acked>) {
        let mut core = DavCore::new(backend, self.verifier.clone());
        let mut acked = Vec::with_capacity(self.n_files);
        for req in &self.prepop {
            let resp = core.serve(req, Origin::Local, request_time(req));
            r.check(resp.status.is_success(), || {
                format!(
                    "attic_rw: pre-population {} {} answered {}",
                    req.method.as_str(),
                    req.url.path(),
                    resp.status.0
                )
            });
            if req.method == Method::Put {
                acked.push(
                    resp.headers
                        .get("etag")
                        .map(|e| (e.to_owned(), req.body.len())),
                );
            }
        }
        (core, acked)
    }

    fn durable(&self) -> DurableAttic {
        DurableAttic::open(
            SimDisk::new(self.seed),
            "attic",
            DurabilityConfig::default(),
        )
        .expect("a fresh simulated disk opens")
    }
}

/// The ETag and body length of a file's last acknowledged PUT.
type Acked = Option<(String, usize)>;

/// Checks one response against what the mix expects; `acked` holds each
/// file's last acknowledged PUT.
fn expect(op: &Op, resp: &Response, acked: &mut [Acked], i: usize, r: &mut Round) {
    let etag = resp.headers.get("etag");
    let ok = match op.kind {
        Kind::Get => {
            resp.status == StatusCode::OK
                && acked[op.file]
                    .as_ref()
                    .is_some_and(|(e, len)| etag == Some(e.as_str()) && resp.body.len() == *len)
        }
        Kind::Put => {
            let ok = matches!(resp.status, StatusCode::CREATED | StatusCode::NO_CONTENT)
                && etag.is_some();
            if ok {
                acked[op.file] = etag.map(|e| (e.to_owned(), op.req.body.len()));
            }
            ok
        }
        Kind::PropFind => resp.status == StatusCode::MULTI_STATUS,
    };
    r.check(ok, || {
        format!(
            "attic_rw: request {i} ({} {}) answered {} etag {:?} length {}, last acknowledged PUT {:?}",
            op.req.method.as_str(),
            op.req.url.path(),
            resp.status.0,
            etag,
            resp.body.len(),
            acked[op.file]
        )
    });
}

/// Whether a status counts as a failed request (server error, overload
/// refusal or a request the daemon could not frame).
fn failed_status(s: StatusCode) -> bool {
    s.0 >= 500 || s == StatusCode::BAD_REQUEST
}

/// Reads one response off the connection; `buf` keeps any bytes past it.
fn read_response(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    scratch: &mut [u8],
    tr: &mut Option<&mut Spans>,
    req: u64,
    parent: Option<u32>,
) -> std::io::Result<Response> {
    loop {
        let s = spans::begin(tr, req, "client.decode", parent);
        let decoded = h1::decode_response(buf);
        spans::end(tr, s);
        match decoded {
            Ok(Some((resp, consumed))) => {
                buf.drain(..consumed);
                return Ok(resp);
            }
            Ok(None) => {}
            Err(e) => return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, e)),
        }
        let n = stream.read(scratch)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        buf.extend_from_slice(&scratch[..n]);
    }
}

/// Per-request costs of an in-process replay.
#[derive(Default)]
struct Replay {
    /// Span range of the replay.
    spans: std::ops::Range<usize>,
    codec_allocs: u64,
    serve_allocs: u64,
    wire_bytes: u64,
    disk_bytes: u64,
    snapshots: u64,
    /// (status, etag) per request.
    answers: Vec<(u16, Option<String>)>,
}

fn span_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Get => "attic.serve_get",
        Kind::Put => "attic.serve_put",
        Kind::PropFind => "attic.serve_propfind",
    }
}

/// Replays `ops` through `core`; with `codec` each request and response
/// also crosses the h1 encoder and decoder, as over the socket.
fn replay<B: AtticBackend>(
    core: &mut DavCore<B>,
    ops: &[Op],
    tr: &mut Spans,
    root_name: &'static str,
    codec: bool,
    disk_written: impl Fn(&DavCore<B>) -> u64,
) -> Replay {
    let mut out = Replay {
        answers: Vec::with_capacity(ops.len()),
        ..Replay::default()
    };
    let from = tr.len();
    let disk0 = disk_written(core);
    let snaps0 = hpop_obs::metrics()
        .counter("durability.snapshot.written")
        .get();
    let mut tr = Some(tr);
    for (i, op) in ops.iter().enumerate() {
        let req_id = i as u64;
        let root = spans::begin(&mut tr, req_id, root_name, None);
        let a0 = crate::alloc::count();
        let decoded;
        let req = if codec {
            let s = spans::begin(&mut tr, req_id, "http.encode_request", root);
            let wire = h1::encode_request(&op.req);
            spans::end(&mut tr, s);
            let s = spans::begin(&mut tr, req_id, "http.decode_request", root);
            decoded = h1::decode_request(&wire);
            spans::end(&mut tr, s);
            out.wire_bytes += wire.len() as u64;
            match &decoded {
                Ok(Some((req, _))) => req,
                _ => &op.req,
            }
        } else {
            &op.req
        };
        let a1 = crate::alloc::count();
        let s = spans::begin(&mut tr, req_id, span_name(op.kind), root);
        let resp = core.serve(req, origin_of(req), request_time(req));
        spans::end(&mut tr, s);
        let a2 = crate::alloc::count();
        if codec {
            let s = spans::begin(&mut tr, req_id, "http.encode_response", root);
            let wire = h1::encode_response(&resp);
            spans::end(&mut tr, s);
            let s = spans::begin(&mut tr, req_id, "http.decode_response", root);
            let back = h1::decode_response(&wire);
            spans::end(&mut tr, s);
            out.wire_bytes += wire.len() as u64;
            drop(back);
        }
        let a3 = crate::alloc::count();
        spans::end(&mut tr, root);
        out.codec_allocs += (a1 - a0) + (a3 - a2);
        out.serve_allocs += a2 - a1;
        out.answers
            .push((resp.status.0, resp.headers.get("etag").map(str::to_owned)));
    }
    out.spans = from..tr.as_ref().map_or(from, |t| t.len());
    out.disk_bytes = disk_written(core) - disk0;
    out.snapshots = hpop_obs::metrics()
        .counter("durability.snapshot.written")
        .get()
        - snaps0;
    out
}

impl Workload for AtticRw {
    fn round(&mut self, mut tr: Option<&mut Spans>) -> Round {
        let mut r = Round::default();
        let setup = Instant::now();
        let (core, mut acked) = self.engine(self.durable(), &mut r);
        let handle =
            AtticDaemon::spawn(DaemonConfig::default(), core).expect("bind a loopback port");
        let mut stream = TcpStream::connect(handle.addr()).expect("connect to the daemon");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        r.setup_s = setup.elapsed().as_secs_f64();

        let traced = tr.is_some();
        let mut socket_answers: Vec<(u16, Option<String>)> =
            Vec::with_capacity(if traced { self.ops.len() } else { 0 });
        let mut buf: Vec<u8> = Vec::with_capacity(64 * 1024);
        let mut scratch = vec![0u8; 64 * 1024];
        let global0 = registry_updates(hpop_obs::metrics());
        let spans0 = tr.as_ref().map_or(0, |t| t.len());
        r.lat_ns.reserve(self.ops.len());
        let t0 = Instant::now();
        for (i, op) in self.ops.iter().enumerate() {
            let started = Instant::now();
            let req_id = i as u64;
            let root = spans::begin(&mut tr, req_id, "request", None);
            let s = spans::begin(&mut tr, req_id, "client.encode", root);
            let wire = h1::encode_request(&op.req);
            spans::end(&mut tr, s);
            let rt = spans::begin(&mut tr, req_id, "client.roundtrip", root);
            let answer = stream.write_all(&wire).and_then(|()| {
                read_response(&mut stream, &mut buf, &mut scratch, &mut tr, req_id, rt)
            });
            spans::end(&mut tr, rt);
            spans::end(&mut tr, root);
            r.lat_ns.push(started.elapsed().as_nanos() as u64);
            match answer {
                Ok(resp) => {
                    if failed_status(resp.status) {
                        r.failed += 1;
                    }
                    expect(op, &resp, &mut acked, i, &mut r);
                    if traced {
                        socket_answers
                            .push((resp.status.0, resp.headers.get("etag").map(str::to_owned)));
                    }
                }
                Err(e) => {
                    // The connection is gone: every request not yet
                    // answered has failed.
                    r.failed += (self.ops.len() - i) as u64;
                    r.check(false, || format!("attic_rw: request {i}: socket error {e}"));
                    break;
                }
            }
        }
        r.wall_s = t0.elapsed().as_secs_f64();
        r.ops = self.ops.len() as u64;
        let updates = registry_updates(hpop_obs::metrics()) - global0;
        drop(stream);
        let stats = handle.stop();
        r.check(stats.bad_frames == 0, || {
            format!("attic_rw: daemon dropped {} bad frames", stats.bad_frames)
        });

        if let Some(t) = tr {
            let n = r.ops as f64;
            let socket_ns = mean(&r.lat_ns);
            r.set(
                "attic.daemon_overload_rejects",
                stats.overload_rejects as f64,
            );
            r.set("attic.daemon_bad_frames", stats.bad_frames as f64);
            r.set("obs.updates_per_op", updates as f64 / n);
            r.set(
                "trace.accounted_bp",
                t.layer_ns(spans0) as f64 * 1e4 / (r.wall_s * 1e9).max(1.0),
            );

            let (mut durable, _) = self.engine(self.durable(), &mut r);
            let d = replay(&mut durable, &self.ops, t, "replay_durable", true, |c| {
                c.backend().disk().stats().bytes_written
            });
            drop(durable);
            let (mut volatile, _) = self.engine(VolatileBackend::new(), &mut r);
            let v = replay(&mut volatile, &self.ops, t, "replay_volatile", false, |_| 0);
            drop(volatile);
            for (which, answers) in [("durable", &d.answers), ("volatile", &v.answers)] {
                r.check(*answers == socket_answers, || {
                    format!("attic_rw: in-process replay over the {which} backend answered differently from the daemon")
                });
            }

            let means =
                |range: &std::ops::Range<usize>, name| mean(&t.durations_in(range.clone(), name));
            let in_process = [
                ("http.encode_request", "http.encode_request_ns"),
                ("http.decode_request", "http.decode_request_ns"),
                ("http.encode_response", "http.encode_response_ns"),
                ("http.decode_response", "http.decode_response_ns"),
            ]
            .iter()
            .map(|&(span, metric)| {
                let m = means(&d.spans, span);
                r.set(metric, m);
                m
            })
            .sum::<f64>()
                + [Kind::Get, Kind::Put, Kind::PropFind]
                    .iter()
                    .map(|&k| {
                        t.durations_in(d.spans.clone(), span_name(k))
                            .iter()
                            .sum::<u64>()
                    })
                    .sum::<u64>() as f64
                    / n;
            r.set("http.allocs_per_request", d.codec_allocs as f64 / n);
            r.set("http.wire_bytes_per_request", d.wire_bytes as f64 / n);
            r.set("attic.serve_ns_get", means(&v.spans, span_name(Kind::Get)));
            r.set("attic.serve_ns_put", means(&v.spans, span_name(Kind::Put)));
            r.set(
                "attic.serve_ns_propfind",
                means(&v.spans, span_name(Kind::PropFind)),
            );
            r.set("attic.allocs_per_request", v.serve_allocs as f64 / n);
            r.set("attic.daemon_ns", socket_ns - in_process);

            let durable_puts = t.durations_in(d.spans.clone(), span_name(Kind::Put));
            let volatile_puts = t.durations_in(v.spans.clone(), span_name(Kind::Put));
            let puts = durable_puts.len().max(1) as f64;
            let put_body_bytes: u64 = self
                .ops
                .iter()
                .filter(|o| o.kind == Kind::Put)
                .map(|o| o.req.body.len() as u64)
                .sum();
            r.set(
                "durability.ns_per_mutation",
                mean(&durable_puts) - mean(&volatile_puts),
            );
            r.set(
                "durability.put_ns_p99",
                quantile(&durable_puts, 0.99) as f64,
            );
            r.set("durability.snapshots_per_kop", d.snapshots as f64 * 1e3 / n);
            r.set(
                "durability.disk_bytes_per_mutation",
                d.disk_bytes as f64 / puts,
            );
            r.set(
                "durability.write_amp_x100",
                d.disk_bytes as f64 * 100.0 / put_body_bytes.max(1) as f64,
            );

            // Crypto over the workload's own inputs: SHA-256 of the PUT
            // bodies (the attic's ETags) and the grant checks.
            let s0 = Instant::now();
            for o in self.ops.iter().filter(|o| o.kind == Kind::Put) {
                std::hint::black_box(Sha256::digest(std::hint::black_box(&o.req.body[..])));
            }
            let sha_ns = s0.elapsed().as_nanos() as f64;
            r.set(
                "crypto.sha256_ns_per_kib",
                sha_ns * 1024.0 / put_body_bytes.max(1) as f64,
            );
            let grants: Vec<(CapabilityToken, SimTime)> = self
                .ops
                .iter()
                .filter_map(|o| {
                    let wire = o
                        .req
                        .headers
                        .get("authorization")?
                        .strip_prefix("Capability ")?;
                    Some((CapabilityToken::decode(wire)?, request_time(&o.req)))
                })
                .collect();
            let s0 = Instant::now();
            let verified = grants
                .iter()
                .filter(|(token, now)| self.verifier.verify(std::hint::black_box(token), *now))
                .count();
            let grant_ns = s0.elapsed().as_nanos() as f64;
            r.check(verified == grants.len(), || {
                "attic_rw: a grant failed to verify".into()
            });
            r.set(
                "crypto.grant_verify_ns",
                grant_ns / grants.len().max(1) as f64,
            );
        }
        r
    }
}
