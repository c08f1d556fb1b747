//! The `serve-mix` workload: an in-process daemon (`server::start` on
//! `127.0.0.1:0`, workers = pool = `nproc`, a checkpoint directory) and
//! `nproc` binary-protocol clients, each in a closed loop with no think
//! time. About 90% of requests are SSSP on `rmat:12,8`, split evenly
//! between the fused, improved and ρ paths; about 8% are fused SSSP on
//! `grid:128x128`; about 2% are epoch-budgeted `grid:128x128` requests
//! that must return `PARTIAL` with a saved checkpoint, each followed by
//! its resume. Each client resumes only sources of its own.

use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use graphdata::CsrGraph;
use sssp_core::engine::SsspEngine;
use sssp_core::{
    BatchConfig, BatchOutcome, BatchRunner, CancelToken, GuardConfig, Implementation,
    ProgressGauge, RunBudget, SplitCache, SsspStats, SteppingStrategy,
};
use sssp_serve::protocol::{
    decode_response, dist_digest, encode_request, parse_gen_spec, read_frame, write_frame, Request,
    Response, SsspRequest,
};
use sssp_serve::server::{self, ServerConfig, ServerHandle};
use taskpool::ThreadPool;

use crate::env::{nproc, Rng};
use crate::gate::Gate;
use crate::library::{self, ms, setup_done, Phase, Solver, COUNT_SOURCES, DELTA};
use crate::report::{Report, PATHS};
use crate::stats::{median_of, Samples};
use crate::trace::{Span, Tracer};
use crate::Args;

const RMAT_SPEC: &str = "rmat:12,8";
const GRID_SPEC: &str = "grid:128x128";
/// Epoch budget of a partial request: every `grid:128x128` source needs
/// at least 128 buckets, so 32 epochs always stop the run.
const PARTIAL_EPOCHS: u64 = 32;
const RMAT_SOURCES: usize = 128;
const GRID_SOURCES: usize = 64;
/// Sources each client owns for its partial-then-resume requests.
const PARTIAL_SOURCES_PER_CLIENT: usize = 4;
/// Requests each client makes before the exact-count STATS snapshot.
const COUNT_OPS: usize = 50;
/// Requests across all clients below which a p90 per class is unlikely.
const MIN_TOTAL_OPS: usize = 1000;
/// Reply wait bound; a daemon that stops answering fails the run.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Index of the `grid:128x128` and of the partial-plus-resume class in
/// [`Client::lat`]; the first three are the rmat paths of [`PATHS`].
const GRID: usize = 3;
const RESUME: usize = 4;

/// A source with its Dijkstra digest and fused `SsspStats`.
#[derive(Debug, Clone)]
struct Ref {
    source: usize,
    digest: u64,
    stats: SsspStats,
}

struct Refs {
    rmat_fp: u64,
    grid_fp: u64,
    rmat: Vec<Ref>,
    grid: Vec<Ref>,
    /// Per client: the grid sources only that client budgets and resumes.
    partial: Vec<Vec<Ref>>,
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// `rmat:12,8` on path `PATHS[path]`.
    Rmat {
        path: usize,
        idx: usize,
    },
    Grid {
        idx: usize,
    },
    PartialResume {
        idx: usize,
    },
}

/// The `i`-th request of `client`: a function of (seed, client, i) and
/// the source lists only, so a phase can be replayed exactly.
fn op_at(seed: u64, client: usize, i: usize, refs: &Refs) -> Op {
    let mut rng = Rng::new(
        seed ^ (i as u64).wrapping_mul(0xa076_1d64_78bd_642f),
        0x5e7e + client as u64,
    );
    let u = rng.unit();
    if u < 0.90 {
        Op::Rmat {
            path: rng.below(3),
            idx: rng.below(refs.rmat.len()),
        }
    } else if u < 0.98 {
        Op::Grid {
            idx: rng.below(refs.grid.len()),
        }
    } else {
        Op::PartialResume {
            idx: rng.below(refs.partial[client].len()),
        }
    }
}

/// The daemon under test and what its clients send.
struct Mix<'a> {
    addr: SocketAddr,
    seed: u64,
    refs: &'a Refs,
    /// Shared clock of every client's tracer.
    epoch: Instant,
}

/// What one client measured in one phase.
#[derive(Default)]
struct Client {
    lat: [Samples; 5],
    requests: Samples,
    solves: usize,
    reply_bytes: Samples,
    ops: usize,
}

/// A binary-protocol connection.
struct Conn {
    stream: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn { stream })
    }

    /// One request/reply exchange with a span per protocol call. Returns
    /// the reply and its payload size.
    fn ask(
        &mut self,
        req: &Request,
        id: u64,
        tr: &mut Tracer,
    ) -> Result<(Response, usize), String> {
        let span = tr.begin("client.request", id);
        let out = (|| {
            let (op, payload) = tr.span("protocol.encode_request", id, |_| encode_request(req));
            tr.span("protocol.write_frame", id, |_| {
                write_frame(&mut self.stream, op, &payload)
            })
            .map_err(|e| format!("write: {e}"))?;
            let (rop, rpayload) = tr
                .span("protocol.read_frame", id, |_| {
                    read_frame(&mut self.stream, true)
                })
                .map_err(|e| format!("read: {e}"))?;
            let resp = tr.span("protocol.decode_response", id, |_| {
                decode_response(rop, &rpayload)
            })?;
            Ok((resp, rpayload.len()))
        })();
        tr.end(span);
        out
    }

    fn quit(mut self) {
        let mut off = Tracer::new(false, Instant::now());
        let _ = self.ask(&Request::Quit, 0, &mut off);
    }
}

fn sssp(fingerprint: u64, source: usize) -> SsspRequest {
    SsspRequest {
        fingerprint,
        source,
        delta: None,
        deadline_ms: None,
        epochs: None,
        implementation: None,
        strategy: None,
        full: false,
    }
}

/// Gate an SSSP reply that must be `OK` with the reference digest (and,
/// when `stats` is set, the reference stats). True for an `OK` reply.
fn check_ok(resp: &Response, r: &Ref, stats: bool, what: &str, gate: &mut Gate) -> bool {
    match resp {
        Response::Summary(s) => {
            gate.expect_eq(
                &format!("{what} source {} digest", r.source),
                &r.digest,
                &s.dist_fnv,
            );
            if stats {
                gate.also_eq(
                    &format!("{what} source {} stats", r.source),
                    &r.stats,
                    &s.stats,
                );
            }
            true
        }
        other => {
            gate.record(false, || {
                format!("{what} source {}: unexpected reply {other:?}", r.source)
            });
            false
        }
    }
}

/// Run one client's closed loop: ops `0..` until `until` says stop.
fn client_loop(
    mix: &Mix<'_>,
    client: usize,
    until: library::Until,
    tr: &mut Tracer,
    gate: &mut Gate,
) -> Client {
    let refs = mix.refs;
    let mut out = Client::default();
    let mut conn = match Conn::open(mix.addr) {
        Ok(c) => c,
        Err(e) => {
            gate.record(false, || format!("client {client} cannot connect: {e}"));
            return out;
        }
    };
    let start = Instant::now();
    let mut i = 0;
    while !until.reached(start, i) {
        let id = ((client as u64) << 32) | i as u64;
        let mut exchange = |req: SsspRequest, tr: &mut Tracer, gate: &mut Gate| {
            let t = Instant::now();
            let reply = conn.ask(&Request::Sssp(req), id, tr);
            let elapsed = ms(t.elapsed());
            out.requests.push(elapsed);
            match reply {
                Ok((resp, bytes)) => Some((resp, bytes, elapsed)),
                Err(e) => {
                    gate.record(false, || format!("client {client} request {i}: {e}"));
                    None
                }
            }
        };
        match op_at(mix.seed, client, i, refs) {
            Op::Rmat { path, idx } => {
                let r = &refs.rmat[idx];
                let mut req = sssp(refs.rmat_fp, r.source);
                match PATHS[path] {
                    "improved" => req.implementation = Some(Implementation::ParallelImproved),
                    "rho" => req.strategy = Some(library::RHO),
                    _ => {}
                }
                if let Some((resp, bytes, elapsed)) = exchange(req, tr, gate) {
                    if check_ok(&resp, r, path < 2, PATHS[path], gate) {
                        out.lat[path].push(elapsed);
                        out.reply_bytes.push(bytes as f64);
                        out.solves += 1;
                    }
                }
            }
            Op::Grid { idx } => {
                let r = &refs.grid[idx];
                if let Some((resp, bytes, elapsed)) =
                    exchange(sssp(refs.grid_fp, r.source), tr, gate)
                {
                    if check_ok(&resp, r, true, "grid", gate) {
                        out.lat[GRID].push(elapsed);
                        out.reply_bytes.push(bytes as f64);
                        out.solves += 1;
                    }
                }
            }
            Op::PartialResume { idx } => {
                let r = &refs.partial[client][idx];
                let mut req = sssp(refs.grid_fp, r.source);
                req.epochs = Some(PARTIAL_EPOCHS);
                let Some((resp, _, first)) = exchange(req, tr, gate) else {
                    i += 1;
                    continue;
                };
                let saved =
                    matches!(&resp, Response::Partial(p) if p.code == 15 && p.saved.is_some());
                gate.record(saved, || {
                    format!(
                        "partial source {}: expected a saved PARTIAL, got {resp:?}",
                        r.source
                    )
                });
                if saved {
                    if let Some((resp, _, second)) =
                        exchange(sssp(refs.grid_fp, r.source), tr, gate)
                    {
                        if check_ok(&resp, r, true, "resume", gate) {
                            out.lat[RESUME].push(first + second);
                            out.solves += 1;
                        }
                    }
                }
            }
        }
        i += 1;
    }
    out.ops = i;
    conn.quit();
    out
}

/// All clients of one phase, run concurrently; returns their results in
/// client order and the phase's wall time.
fn run_clients(
    mix: &Mix<'_>,
    until: &[library::Until],
    traced: bool,
    tr: &mut Tracer,
    gate: &mut Gate,
) -> (Vec<Client>, Duration) {
    let start = Instant::now();
    let results: Vec<(Client, Tracer, Gate)> = std::thread::scope(|s| {
        let handles: Vec<_> = until
            .iter()
            .enumerate()
            .map(|(c, &u)| {
                s.spawn(move || {
                    let mut ctr = Tracer::new(traced, mix.epoch);
                    let mut cgate = Gate::default();
                    let out = client_loop(mix, c, u, &mut ctr, &mut cgate);
                    (out, ctr, cgate)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed();
    let mut clients = Vec::new();
    for (c, ctr, cgate) in results {
        tr.absorb(ctr);
        gate.absorb(cgate);
        clients.push(c);
    }
    (clients, wall)
}

/// Merge the clients' samples of one phase.
fn merged(clients: &[Client]) -> Client {
    let mut all = Client::default();
    for c in clients {
        for (mine, theirs) in all.lat.iter_mut().zip(&c.lat) {
            mine.extend(theirs);
        }
        all.requests.extend(&c.requests);
        all.reply_bytes.extend(&c.reply_bytes);
        all.solves += c.solves;
        all.ops += c.ops;
    }
    all
}

/// Start a daemon, load both graphs and send the first request per
/// graph. Returns the handle, the fingerprints and the set-up time.
fn set_up(
    dir: &Path,
    gate: &mut Gate,
    tr: &mut Tracer,
    rep: u64,
) -> Option<(ServerHandle, u64, u64, f64)> {
    let t0 = Instant::now();
    let span = tr.begin("setup", rep);
    let threads = nproc();
    let cfg = ServerConfig {
        workers: threads,
        pool_threads: threads,
        checkpoint_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    };
    let handle = match tr.span("server.start", rep, |_| server::start(cfg, "127.0.0.1:0")) {
        Ok(h) => h,
        Err(e) => {
            tr.end(span);
            gate.record(false, || format!("daemon start: {e}"));
            return None;
        }
    };
    let mut fps = Vec::new();
    let outcome: Result<(), String> = (|| {
        let mut conn = Conn::open(handle.addr()).map_err(|e| e.to_string())?;
        for spec in [RMAT_SPEC, GRID_SPEC] {
            match conn.ask(&Request::LoadGen { spec: spec.into() }, rep, tr)? {
                (Response::Loaded { fingerprint, .. }, _) => fps.push(fingerprint),
                (other, _) => return Err(format!("LOAD GEN {spec}: {other:?}")),
            }
        }
        for &fp in &fps {
            match conn.ask(&Request::Sssp(sssp(fp, 0)), rep, tr)? {
                (Response::Summary(_), _) => {}
                (other, _) => return Err(format!("first request on {fp:016x}: {other:?}")),
            }
        }
        conn.quit();
        Ok(())
    })();
    tr.end(span);
    let elapsed = t0.elapsed().as_secs_f64();
    match outcome {
        Ok(()) => {
            gate.record(true, String::new);
            Some((handle, fps[0], fps[1], elapsed))
        }
        Err(e) => {
            gate.record(false, || format!("daemon set-up: {e}"));
            handle.shutdown();
            None
        }
    }
}

/// Generate a graph in-process exactly as the daemon's `LOAD GEN` does.
fn generate(spec: &str, tr: &mut Tracer, gen_ms: &mut f64, csr_ms: &mut f64) -> CsrGraph {
    let t = Instant::now();
    let el = tr
        .span("graphdata.generate", 0, |_| parse_gen_spec(spec))
        .expect("fixed gen specs parse");
    *gen_ms += ms(t.elapsed());
    let t = Instant::now();
    let g = tr
        .span("graphdata.csr_build", 0, |_| CsrGraph::from_edge_list(&el))
        .expect("generated graphs are valid");
    *csr_ms += ms(t.elapsed());
    g
}

/// References for `count` seeded sources of `g` that reach half of it.
fn references(
    g: &CsrGraph,
    rng: &mut Rng,
    count: usize,
    engine: &mut SsspEngine<'_>,
    tr: &mut Tracer,
) -> (Vec<Ref>, Samples) {
    let (picked, times) = library::pick_sources(g, rng, count, tr);
    let refs = picked
        .into_iter()
        .map(|(source, digest)| {
            let (r, _) = engine
                .run_fused(source, DELTA, &mut RunBudget::unlimited())
                .expect("reference fused solve");
            Ref {
                source,
                digest,
                stats: r.stats,
            }
        })
        .collect();
    (refs, times)
}

/// Run `serve-mix`.
pub fn run(args: &Args, report: &mut Report, gate: &mut Gate, tr: &mut Tracer) {
    let pid = std::process::id();
    let dir_for = |what: &str| -> PathBuf { args.out_dir.join(format!("serve-{pid}-{what}")) };
    let mut setup_s = Vec::new();
    let (handle, rmat_fp, grid_fp, ckpt_dir) = loop {
        let rep = setup_s.len();
        let dir = dir_for(&format!("ckpt{rep}"));
        let _ = std::fs::remove_dir_all(&dir);
        let Some((handle, rmat_fp, grid_fp, s)) = set_up(&dir, gate, tr, rep as u64) else {
            return;
        };
        setup_s.push(s);
        if setup_done(&setup_s) {
            break (handle, rmat_fp, grid_fp, dir);
        }
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    };
    report.set("setup_s", median_of(&setup_s), Some(setup_s.len()));

    // The same graphs in-process, for references and per-layer probes.
    let (mut gen_ms, mut csr_ms) = (0.0, 0.0);
    let rmat = generate(RMAT_SPEC, tr, &mut gen_ms, &mut csr_ms);
    let grid = generate(GRID_SPEC, tr, &mut gen_ms, &mut csr_ms);
    gate.expect_eq(
        "rmat fingerprint (daemon vs in-process)",
        &rmat_fp,
        &rmat.fingerprint(),
    );
    gate.expect_eq(
        "grid fingerprint (daemon vs in-process)",
        &grid_fp,
        &grid.fingerprint(),
    );
    report.set("graphdata.gen_ms", gen_ms, Some(2));
    report.set("graphdata.csr_ms", csr_ms, Some(2));
    let bytes = |g: &CsrGraph| (g.num_vertices() + 1 + 2 * g.num_edges()) * 8;
    report.set_noted(
        "graphdata.csr_bytes",
        (bytes(&rmat) + bytes(&grid)) as f64,
        Some(2),
        Some("computed, both graphs".into()),
    );

    let pool = ThreadPool::with_threads(nproc()).expect("thread pool");
    let mut rmat_engine = SsspEngine::new(&rmat);
    let mut grid_engine = SsspEngine::new(&grid);
    // Cold first solves: their matrix_filter is the split build time.
    let mut split_ms = 0.0;
    for engine in [&mut rmat_engine, &mut grid_engine] {
        let (_, profile) = tr
            .span("engine.run_fused", 0, |_| {
                engine.run_fused(0, DELTA, &mut RunBudget::unlimited())
            })
            .expect("cold solve");
        split_ms += ms(profile.matrix_filter);
    }
    report.set("split.build_ms", split_ms, Some(2));

    let mut rng = Rng::new(args.seed, crate::workload_stream("serve-mix"));
    let clients = nproc();
    let (rmat_refs, mut dijkstra_ms) = tr.span("reference", 0, |tr| {
        references(&rmat, &mut rng, RMAT_SOURCES, &mut rmat_engine, tr)
    });
    let (mut grid_all, _) = tr.span("reference", 1, |tr| {
        references(
            &grid,
            &mut rng,
            GRID_SOURCES + clients * PARTIAL_SOURCES_PER_CLIENT,
            &mut grid_engine,
            tr,
        )
    });
    let partial_all = grid_all.split_off(GRID_SOURCES);
    let refs = Refs {
        rmat_fp,
        grid_fp,
        rmat: rmat_refs,
        grid: grid_all,
        partial: partial_all
            .chunks(PARTIAL_SOURCES_PER_CLIENT)
            .map(<[Ref]>::to_vec)
            .collect(),
    };

    println!(
        "sources rmat={} grid={} partial={}x{}",
        refs.rmat.len(),
        refs.grid.len(),
        refs.partial.len(),
        PARTIAL_SOURCES_PER_CLIENT
    );
    let mix = Mix {
        addr: handle.addr(),
        seed: args.seed,
        refs: &refs,
        epoch: Instant::now(),
    };
    let seconds = Duration::from_secs(args.seconds);
    let min_ops = MIN_TOTAL_OPS.div_ceil(clients);
    if !args.trace {
        let until = vec![library::Until::Time(seconds, min_ops); clients];
        let (cs, wall) = run_clients(&mix, &until, false, tr, gate);
        let mut all = merged(&cs);
        library::report_paths(all.lat.iter_mut().take(PATHS.len()), report);
        if let Some(v) = all.lat[RESUME].median() {
            report.set("resume.solve_ms.p50", v, Some(all.lat[RESUME].len()));
        }
        report.set(
            "solves_per_s",
            all.solves as f64 / wall.as_secs_f64(),
            Some(all.solves),
        );
        let n = Some(all.requests.len());
        if let Some(v) = all.requests.median() {
            report.extra("req_ms.p50", v, "ms", n, "every request");
        }
        match all.requests.tail(990) {
            Some(v) => report.extra("req_ms.p99", v, "ms", n, "every request"),
            None => println!("metric req_ms.p99 not reported: fewer than 1000 requests"),
        }
        report.extra(
            "req_per_s",
            all.requests.len() as f64 / wall.as_secs_f64(),
            "1/s",
            n,
            "",
        );
        if let Some(v) = all.lat[GRID].median() {
            report.extra(
                "grid.solve_ms.p50",
                v,
                "ms",
                Some(all.lat[GRID].len()),
                "grid:128x128 requests",
            );
        }
    } else {
        // Exact counters: a fixed number of requests per client, then STATS.
        let until = vec![library::Until::Rounds(COUNT_OPS); clients];
        run_clients(&mix, &until, false, tr, gate);
        report_counters(&handle, report);

        // Untraced for half the time, then the same requests traced.
        let until = vec![library::Until::Time(seconds / 2, COUNT_OPS); clients];
        let (untraced, wall_u) = run_clients(&mix, &until, false, tr, gate);
        let replay: Vec<_> = untraced
            .iter()
            .map(|c| library::Until::Rounds(c.ops))
            .collect();
        let first_span = tr.spans().len();
        let (traced, wall_t) = run_clients(&mix, &replay, true, tr, gate);
        let spans = &tr.spans()[first_span..];
        report_requests((&untraced, wall_u), (&traced, wall_t), spans, report);
        let mut all = merged(&untraced);

        // The batch layer alone, in-process, with the daemon's settings.
        let (mut batch, mut eng) =
            batch_probe(&rmat, &refs.rmat, &pool, &dir_for("batch"), gate, tr);
        if let (Some(b), Some(e)) = (batch.median(), eng.median()) {
            report.set("batch.job_ms.p50", b, Some(batch.len()));
            report.set("engine.job_ms.p50", e, Some(eng.len()));
            report.set("batch.overhead_ms", b - e, Some(batch.len()));
            if let Some(req) = all.lat[0].median() {
                let note = Some("rmat:12,8 fused request p50 minus batch.job_ms.p50".to_string());
                report.set_noted("serve.overhead_ms", req - b, Some(all.lat[0].len()), note);
            }
        }

        // Kernel counts on the first rmat sources and the checkpoint path
        // on the grid, through the library calls the daemon makes.
        let dj = dijkstra_ms.median().expect("at least one source");
        report.set("ref.dijkstra_ms.p50", dj, Some(dijkstra_ms.len()));
        for (k, path) in PATHS.iter().enumerate() {
            if let Some(p50) = all.lat[k].median() {
                let note = Some(format!(
                    "rmat:12,8 {path} request p50 over ref.dijkstra_ms.p50"
                ));
                report.set_noted(
                    &format!("floor_ratio.{path}"),
                    p50 / dj,
                    Some(all.lat[k].len()),
                    note,
                );
            }
        }
        let ckpt_path = args.out_dir.join(format!("serve-{pid}.ckpt"));
        let mut phase = Phase::default();
        let mut solver = Solver {
            engine: &mut rmat_engine,
            pool: &pool,
            ckpt_path: &ckpt_path,
        };
        for (i, r) in refs.rmat.iter().take(COUNT_SOURCES).enumerate() {
            solver.round(i, (r.source, r.digest), &mut phase, gate, tr);
        }
        phase.report_kernels(report);
        let mut cp = Phase::default();
        let mut solver = Solver {
            engine: &mut grid_engine,
            pool: &pool,
            ckpt_path: &ckpt_path,
        };
        for (i, r) in refs.partial.iter().flatten().enumerate() {
            solver.resume_round((r.source, r.digest), i as u64, &mut cp, gate, tr);
        }
        cp.report_checkpoint("grid:128x128 in-process, stopped half-way", report);
        let _ = std::fs::remove_file(&ckpt_path);
        let pull_bytes: usize = [(&rmat_engine, &rmat), (&grid_engine, &grid)]
            .iter()
            .map(|(e, g)| library::engine_split(e, g).pull_bytes())
            .sum();
        report.set_noted(
            "pull.bytes",
            pull_bytes as f64,
            Some(2),
            Some("computed, both graphs".into()),
        );
        let lh = library::engine_split(&rmat_engine, &rmat);
        library::pull_build(&lh, report, tr);
    }

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&ckpt_dir);
}

/// The daemon's STATS counters, read after the fixed-count phase so they
/// repeat exactly for a seed.
fn report_counters(handle: &ServerHandle, report: &mut Report) {
    let stats = handle.stats();
    let note = format!("STATS after set-up plus {COUNT_OPS} requests per client");
    for counter in [
        "jobs_completed",
        "jobs_partial",
        "jobs_resumed",
        "jobs_shed",
        "cache_builds",
        "cache_hits",
        "writer_timeouts",
        "workers_poisoned",
    ] {
        let value = stats.get(counter).unwrap_or(0) as f64;
        report.set_noted(&format!("serve.{counter}"), value, None, Some(note.clone()));
    }
    let resident = stats.get("cache_resident_bytes").unwrap_or(0) as f64;
    report.set_noted(
        "split.resident_bytes",
        resident,
        None,
        Some("daemon split cache".into()),
    );
}

/// Request latency, throughput and protocol costs from an untraced phase
/// and its traced replay (whose `spans` give the protocol timings), and
/// the tracing overhead between the two.
fn report_requests(
    (untraced, wall_u): (&[Client], Duration),
    (traced, wall_t): (&[Client], Duration),
    spans: &[Span],
    report: &mut Report,
) {
    let mut all = merged(untraced);
    let mut replay = merged(traced);
    report.set_noted(
        "trace.overhead_ratio",
        wall_t.as_secs_f64() / wall_u.as_secs_f64(),
        Some(replay.ops),
        Some("traced over untraced wall time of the same requests".into()),
    );
    let n = Some(all.requests.len());
    if let Some(v) = all.requests.median() {
        report.set("serve.req_ms.p50", v, n);
    }
    match all.requests.tail(990) {
        Some(v) => report.set("serve.req_ms.p99", v, n),
        None => report.absent(
            "serve.req_ms.p99",
            "fewer than 1000 requests in the untraced half",
        ),
    }
    report.set(
        "serve.req_per_s",
        all.requests.len() as f64 / wall_u.as_secs_f64(),
        n,
    );
    for (metric, span) in [
        ("protocol.encode_us.p50", "protocol.encode_request"),
        ("protocol.decode_us.p50", "protocol.decode_response"),
    ] {
        let mut us = Samples::default();
        for sp in spans.iter().filter(|sp| sp.name == span) {
            us.push(sp.duration_ns() as f64 / 1e3);
        }
        if let Some(v) = us.median() {
            report.set(metric, v, Some(us.len()));
        }
    }
    if let Some(v) = replay.reply_bytes.median() {
        report.set("protocol.reply_bytes", v, Some(replay.reply_bytes.len()));
    }
}

/// `BatchRunner::run_shared` on one source at a time with the daemon's
/// per-job settings, against `run_fused` on a warm engine, over the same
/// sources.
fn batch_probe(
    g: &CsrGraph,
    refs: &[Ref],
    pool: &ThreadPool,
    dir: &Path,
    gate: &mut Gate,
    tr: &mut Tracer,
) -> (Samples, Samples) {
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::create_dir_all(dir);
    let cache = Arc::new(SplitCache::new());
    let runner = BatchRunner::new(BatchConfig {
        implementation: Implementation::Fused,
        delta: DELTA,
        strategy: SteppingStrategy::Classic,
        workers: 1,
        queue_capacity: 1,
        deadline: None,
        cancel: Some(CancelToken::new()),
        guard: GuardConfig::default(),
        pool_threads: pool.num_threads(),
        checkpoint_dir: Some(dir.to_path_buf()),
        progress: Some(ProgressGauge::new()),
    });
    let mut engine = SsspEngine::with_cache(g, Arc::clone(&cache));
    let _ = engine.run_fused(refs[0].source, DELTA, &mut RunBudget::unlimited());
    let (mut batch, mut eng) = (Samples::default(), Samples::default());
    for (i, r) in refs.iter().enumerate() {
        let t = Instant::now();
        let report = tr.span("batch.run_shared", i as u64, |_| {
            runner.run_shared(g, &[r.source], &cache, Some(pool), None)
        });
        batch.push(ms(t.elapsed()));
        match report.jobs.first() {
            Some((_, BatchOutcome::Complete { result, .. })) => {
                gate.expect_eq(
                    &format!("batch source {} digest", r.source),
                    &r.digest,
                    &dist_digest(&result.dist),
                );
            }
            other => gate.record(false, || format!("batch source {}: {other:?}", r.source)),
        }
        let t = Instant::now();
        let solved = tr.span("engine.run_fused", i as u64, |_| {
            engine.run_fused(r.source, DELTA, &mut RunBudget::unlimited())
        });
        eng.push(ms(t.elapsed()));
        match solved {
            Ok((res, _)) => gate.expect_eq(
                &format!("engine source {} digest", r.source),
                &r.digest,
                &dist_digest(&res.dist),
            ),
            Err(e) => gate.record(false, || format!("engine source {}: {e}", r.source)),
        }
    }
    let _ = std::fs::remove_dir_all(dir);
    (batch, eng)
}
