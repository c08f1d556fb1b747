//! The library workloads, `deep-grid` and `powerlaw-w`: seeded sources
//! through one warm `SsspEngine`, each solved by `run_fused`,
//! `run_parallel_improved` and sequential ρ-stepping, with every k-th
//! source also finished through the checkpoint resume path.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use graphdata::{gen, weights, CsrGraph, EdgeList, WeightModel};
use sssp_core::dijkstra::dijkstra;
use sssp_core::engine::SsspEngine;
use sssp_core::fused::LightHeavy;
use sssp_core::pull::PullIndex;
use sssp_core::stats::PhaseProfile;
use sssp_core::stepping::DEFAULT_RHO;
use sssp_core::{RunBudget, SsspError, SsspResult, SsspStats, SteppingStrategy};
use sssp_serve::protocol::dist_digest;
use taskpool::ThreadPool;

use crate::env::{nproc, Rng};
use crate::gate::Gate;
use crate::report::{Report, PATHS};
use crate::stats::{median_of, Samples};
use crate::trace::Tracer;
use crate::Args;

/// Set-up repeats until at least [`SETUP_MIN_REPS`] ran and together they
/// took [`SETUP_BUDGET_S`] (or [`SETUP_MAX_REPS`] ran); `setup_s` is their
/// median, so a cheap set-up is repeated more and reads as steadily as a
/// costly one.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 25;
const SETUP_BUDGET_S: f64 = 1.0;

/// Whether the set-ups timed so far (seconds each) are enough.
pub fn setup_done(times: &[f64]) -> bool {
    let spent: f64 = times.iter().sum();
    times.len() >= SETUP_MIN_REPS && (spent >= SETUP_BUDGET_S || times.len() >= SETUP_MAX_REPS)
}
/// Sources whose kernel counts are reported: the first few of the seeded
/// sequence, so the counts repeat exactly for a given seed.
pub const COUNT_SOURCES: usize = 4;
/// Solves per path below which p90 would not have ten samples beyond it;
/// the loop keeps going past `--seconds` until every path has this many.
pub const MIN_SOLVES: usize = 100;
/// Side of the `deep-grid` grid: 383 Δ-buckets from a corner.
const GRID_SIDE: usize = 192;
/// R-MAT scale of `powerlaw-w` (edge factor 16, symmetrized).
const RMAT_SCALE: u32 = 15;
/// Topology seed of `powerlaw-w` (fixed; `--seed` picks its weights).
const RMAT_TOPOLOGY_SEED: u64 = 42;

/// Bucket width Δ of every workload.
pub const DELTA: f64 = 1.0;
/// The ρ-stepping strategy at the CLI's default ρ.
pub const RHO: SteppingStrategy = SteppingStrategy::Rho(DEFAULT_RHO);
/// Every `RESUME_EVERY`-th round also runs the resume path.
const RESUME_EVERY: usize = 2;

/// The two library workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Library {
    DeepGrid,
    PowerlawW,
}

impl Library {
    pub fn name(self) -> &'static str {
        match self {
            Library::DeepGrid => "deep-grid",
            Library::PowerlawW => "powerlaw-w",
        }
    }

    /// Distinct seeded sources per run, cycled by the solve loop: about
    /// one per round, bounded on `powerlaw-w` by the Dijkstra reference
    /// each needs.
    fn sources(self) -> usize {
        match self {
            Library::DeepGrid => 256,
            Library::PowerlawW => 128,
        }
    }

    /// The workload's graph. Topology is fixed; on `powerlaw-w` the seed
    /// picks the weights.
    fn generate(self, seed: u64) -> EdgeList {
        match self {
            Library::DeepGrid => gen::grid2d(GRID_SIDE, GRID_SIDE),
            Library::PowerlawW => {
                let mut el = gen::rmat(
                    gen::RmatParams::graph500(RMAT_SCALE, 16),
                    RMAT_TOPOLOGY_SEED,
                );
                el.symmetrize();
                weights::assign_symmetric(
                    &mut el,
                    WeightModel::UniformFloat { lo: 1e-3, hi: 1.0 },
                    seed,
                );
                el
            }
        }
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Candidate draws per stratum before it is given up.
const STRATUM_TRIES: usize = 32;

/// Seeded sources that reach at least half the vertices, with their
/// reference digests and the Dijkstra time of each accepted source.
///
/// The vertex ids are cut into `count` strata of consecutive ids and one
/// source is drawn from each, so the sample covers the whole id range
/// whatever the seed. Strata come in bit-reversed order, so a solve loop
/// that stops part-way through the list has still spread its sources
/// evenly. A stratum with no vertex reaching half the graph in
/// [`STRATUM_TRIES`] draws contributes no source.
pub fn pick_sources(
    g: &CsrGraph,
    rng: &mut Rng,
    count: usize,
    tr: &mut Tracer,
) -> (Vec<(usize, u64)>, Samples) {
    let n = g.num_vertices();
    let mut out: Vec<(usize, u64)> = Vec::new();
    let mut times = Samples::default();
    for k in stratum_order(count) {
        let (lo, hi) = (k * n / count, (k + 1) * n / count);
        for _ in 0..STRATUM_TRIES {
            let v = lo + rng.below(hi - lo);
            let t = Instant::now();
            let r = tr.span("dijkstra.dijkstra", v as u64, |_| dijkstra(g, v));
            let elapsed = ms(t.elapsed());
            if r.reachable_count() * 2 >= n {
                times.push(elapsed);
                out.push((v, dist_digest(&r.dist)));
                break;
            }
        }
    }
    assert!(
        out.len() * 2 >= count,
        "only {} of {count} strata hold a source reaching half the graph",
        out.len()
    );
    (out, times)
}

/// `0..count` in bit-reversed order of `count.next_power_of_two()`:
/// every prefix is spread evenly over the range.
fn stratum_order(count: usize) -> Vec<usize> {
    let bits = count.next_power_of_two().trailing_zeros();
    let mut order: Vec<usize> = (0..count).collect();
    order.sort_by_key(|&k| {
        if bits == 0 {
            0
        } else {
            k.reverse_bits() >> (usize::BITS - bits)
        }
    });
    order
}

/// Per-path accumulators of one phase.
#[derive(Default)]
struct PathAcc {
    lat: Samples,
    extract_ms: f64,
    relax_ms: f64,
    solves: usize,
    /// Counters summed over the first [`COUNT_SOURCES`] rounds.
    counts: SsspStats,
}

impl PathAcc {
    fn add(&mut self, elapsed_ms: f64, profile: &PhaseProfile, stats: &SsspStats, counted: bool) {
        self.lat.push(elapsed_ms);
        self.extract_ms += ms(profile.vector_ops);
        self.relax_ms += ms(profile.relaxation);
        self.solves += 1;
        if counted {
            self.counts.buckets_processed += stats.buckets_processed;
            self.counts.light_phases += stats.light_phases;
            self.counts.heavy_phases += stats.heavy_phases;
            self.counts.relaxations += stats.relaxations;
            self.counts.improvements += stats.improvements;
        }
    }

    /// The per-layer kernel block for `path`.
    fn report_kernel(&self, path: &str, report: &mut Report) {
        let note = "program-reported PhaseProfile, mean per solve";
        for (m, total) in [("extract_ms", self.extract_ms), ("relax_ms", self.relax_ms)] {
            let mean = total / self.solves.max(1) as f64;
            let name = format!("kernel.{path}.{m}");
            report.set_noted(&name, mean, Some(self.solves), Some(note.to_string()));
        }
        let c = &self.counts;
        let useful = c.improvements as f64 / c.relaxations.max(1) as f64;
        for (m, v) in [
            ("relaxations", c.relaxations as f64),
            ("improvements", c.improvements as f64),
            ("buckets", c.buckets_processed as f64),
            ("light_phases", c.light_phases as f64),
            ("useful_ratio", useful),
        ] {
            report.set(&format!("kernel.{path}.{m}"), v, Some(COUNT_SOURCES));
        }
    }
}

/// Accumulators of one solve phase.
#[derive(Default)]
pub struct Phase {
    paths: [PathAcc; 3],
    resume: Samples,
    save_ms: Samples,
    load_ms: Samples,
    resume_ms: Samples,
    checkpoint_bytes: Samples,
    rounds: usize,
    wall: Duration,
    push_epochs: u64,
    pull_epochs: u64,
}

impl Phase {
    /// The kernel blocks of every path and the direction counts.
    pub fn report_kernels(&self, report: &mut Report) {
        for (acc, path) in self.paths.iter().zip(PATHS) {
            acc.report_kernel(path, report);
        }
        let counted = Some(COUNT_SOURCES);
        report.set("direction.push_epochs", self.push_epochs as f64, counted);
        report.set("direction.pull_epochs", self.pull_epochs as f64, counted);
    }

    /// Medians of the resume path's steps and checkpoint size.
    pub fn report_checkpoint(&mut self, note: &str, report: &mut Report) {
        for (name, s) in [
            ("checkpoint.save_ms", &mut self.save_ms),
            ("checkpoint.load_ms", &mut self.load_ms),
            ("checkpoint.resume_ms", &mut self.resume_ms),
            ("checkpoint.bytes", &mut self.checkpoint_bytes),
        ] {
            if let Some(m) = s.median() {
                report.set_noted(name, m, Some(s.len()), Some(note.to_string()));
            }
        }
    }

    fn solves(&self) -> usize {
        self.paths.iter().map(|p| p.solves).sum::<usize>() + self.resume.len()
    }
}

/// Everything a solve round needs.
pub struct Solver<'a, 'g> {
    pub engine: &'a mut SsspEngine<'g>,
    pub pool: &'a ThreadPool,
    pub ckpt_path: &'a Path,
}

impl Solver<'_, '_> {
    /// Round `i`: solve `source` on every path (and, every
    /// [`RESUME_EVERY`]-th round, on the resume path), check each result
    /// against `digest`, and account it; the first [`COUNT_SOURCES`]
    /// rounds also add to the exact counts.
    pub fn round(
        &mut self,
        i: usize,
        (source, digest): (usize, u64),
        phase: &mut Phase,
        gate: &mut Gate,
        tr: &mut Tracer,
    ) {
        let (req, counted) = (i as u64, i < COUNT_SOURCES);
        let before = gblas::direction::decision_counters();
        let what = |path: &str| format!("{path} source {source}");

        // Fused, which also yields the epoch count the resume path halves.
        let mut budget = RunBudget::unlimited();
        let t = Instant::now();
        let fused = tr.span("engine.run_fused", req, |_| {
            self.engine.run_fused(source, DELTA, &mut budget)
        });
        let elapsed = ms(t.elapsed());
        let fused_stats = match checked(fused, digest, &what("fused"), gate) {
            Some((r, profile)) => {
                phase.paths[0].add(elapsed, &profile, &r.stats, counted);
                Some(r.stats)
            }
            None => None,
        };
        let ticks = budget.ticks();

        let t = Instant::now();
        let pool = self.pool;
        let improved = tr.span("engine.run_parallel_improved", req, |_| {
            self.engine
                .run_parallel_improved(pool, source, DELTA, &mut RunBudget::unlimited())
        });
        let elapsed = ms(t.elapsed());
        if let Some((r, profile)) = checked(improved, digest, &what("improved"), gate) {
            if let Some(fs) = &fused_stats {
                gate.also_eq(
                    &format!("improved stats vs fused, source {source}"),
                    fs,
                    &r.stats,
                );
            }
            phase.paths[1].add(elapsed, &profile, &r.stats, counted);
        }

        let t = Instant::now();
        let stepped = tr.span("engine.run_stepping", req, |_| {
            self.engine
                .run_stepping(None, source, DELTA, RHO, &mut RunBudget::unlimited())
        });
        let elapsed = ms(t.elapsed());
        if let Some((r, profile)) = checked(stepped, digest, &what("rho"), gate) {
            phase.paths[2].add(elapsed, &profile, &r.stats, counted);
        }
        if counted {
            let after = gblas::direction::decision_counters();
            phase.push_epochs += after.0 - before.0;
            phase.pull_epochs += after.1 - before.1;
        }

        if i.is_multiple_of(RESUME_EVERY) {
            if let Some(fs) = fused_stats {
                self.resume(source, digest, &fs, ticks, req, phase, gate, tr);
            }
        }
        phase.rounds += 1;
    }

    /// The resume path alone: an untimed fused solve for the reference
    /// stats and epoch count, then [`Solver::resume`].
    pub fn resume_round(
        &mut self,
        (source, digest): (usize, u64),
        req: u64,
        phase: &mut Phase,
        gate: &mut Gate,
        tr: &mut Tracer,
    ) {
        let mut budget = RunBudget::unlimited();
        match self.engine.run_fused(source, DELTA, &mut budget) {
            Ok((r, _)) => self.resume(
                source,
                digest,
                &r.stats,
                budget.ticks(),
                req,
                phase,
                gate,
                tr,
            ),
            Err(e) => gate.record(false, || format!("fused source {source}: {e}")),
        }
    }

    /// Stop a fused run half-way with an epoch budget, then save, load
    /// and resume it; time the whole path and each step.
    #[allow(clippy::too_many_arguments)]
    fn resume(
        &mut self,
        source: usize,
        digest: u64,
        full_stats: &SsspStats,
        ticks: u64,
        req: u64,
        phase: &mut Phase,
        gate: &mut Gate,
        tr: &mut Tracer,
    ) {
        let path = self.ckpt_path;
        let t = Instant::now();
        let outcome: Result<(SsspResult, [f64; 3]), String> = tr.span("resume.path", req, |tr| {
            let stopped = tr.span("engine.run_fused", req, |_| {
                self.engine
                    .run_fused(source, DELTA, &mut RunBudget::with_limit(ticks / 2))
            });
            let cp = match stopped {
                Err(e) => e
                    .into_checkpoint()
                    .ok_or("budget stop carried no checkpoint")?,
                Ok(_) => {
                    return Err(format!(
                        "a budget of {} epochs did not stop the run",
                        ticks / 2
                    ))
                }
            };
            let t_save = Instant::now();
            tr.span("engine.save_checkpoint", req, |_| {
                self.engine.save_checkpoint(&cp, path)
            })
            .map_err(|e| e.to_string())?;
            let save = ms(t_save.elapsed());
            let t_load = Instant::now();
            let loaded = tr
                .span("engine.load_checkpoint", req, |_| {
                    self.engine.load_checkpoint(path)
                })
                .map_err(|e| e.to_string())?;
            let load = ms(t_load.elapsed());
            let t_resume = Instant::now();
            let (r, _) = tr
                .span("engine.resume_stepping", req, |_| {
                    self.engine
                        .resume_stepping(None, &loaded, &mut RunBudget::unlimited())
                })
                .map_err(|e| e.to_string())?;
            Ok((r, [save, load, ms(t_resume.elapsed())]))
        });
        let elapsed = ms(t.elapsed());
        match outcome {
            Ok((r, [save, load, resume])) => {
                gate.expect_eq(
                    &format!("resume digest, source {source}"),
                    &digest,
                    &dist_digest(&r.dist),
                );
                gate.also_eq(
                    &format!("resume stats, source {source}"),
                    full_stats,
                    &r.stats,
                );
                phase.resume.push(elapsed);
                phase.save_ms.push(save);
                phase.load_ms.push(load);
                phase.resume_ms.push(resume);
                let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
                phase.checkpoint_bytes.push(bytes as f64);
            }
            Err(e) => gate.record(false, || format!("resume source {source}: {e}")),
        }
    }
}

/// Gate one solve: an error or a digest mismatch fails it.
fn checked(
    outcome: Result<(SsspResult, PhaseProfile), SsspError>,
    digest: u64,
    what: &str,
    gate: &mut Gate,
) -> Option<(SsspResult, PhaseProfile)> {
    match outcome {
        Ok((r, profile)) => {
            gate.expect_eq(&format!("{what} digest"), &digest, &dist_digest(&r.dist));
            Some((r, profile))
        }
        Err(e) => {
            gate.record(false, || format!("{what}: {e}"));
            None
        }
    }
}

/// Run a library workload: set up until [`setup_done`] (the last set-up
/// is the one measured), pick and verify sources, then solve.
pub fn run(w: Library, args: &Args, report: &mut Report, gate: &mut Gate, tr: &mut Tracer) {
    let threads = nproc();
    let mut setup_s = Vec::new();
    let mut layers = Vec::new();
    for rep in 0.. {
        let t0 = Instant::now();
        let span = tr.begin("setup", rep as u64);
        let t = Instant::now();
        let el = tr.span("graphdata.generate", 0, |_| w.generate(args.seed));
        let gen_ms = ms(t.elapsed());
        let t = Instant::now();
        let g = tr
            .span("graphdata.csr_build", 0, |_| CsrGraph::from_edge_list(&el))
            .expect("generated graphs are valid");
        let csr_ms = ms(t.elapsed());
        drop(el);
        let pool = tr
            .span("taskpool.create", 0, |_| ThreadPool::with_threads(threads))
            .expect("thread pool");
        let mut engine = tr.span("engine.new", 0, |_| SsspEngine::new(&g));
        // Split build plus the warm-up solve: the cold first solve's
        // PhaseProfile.matrix_filter is the split build time.
        let warm = tr.span("engine.run_fused", 0, |_| {
            engine.run_fused(0, DELTA, &mut RunBudget::unlimited())
        });
        tr.end(span);
        setup_s.push(t0.elapsed().as_secs_f64());
        let split_build_ms = match warm {
            Ok((_, profile)) => ms(profile.matrix_filter),
            Err(e) => {
                gate.record(false, || format!("warm-up solve: {e}"));
                0.0
            }
        };
        layers.push([gen_ms, csr_ms, split_build_ms]);
        if setup_done(&setup_s) {
            let csr_bytes = (g.num_vertices() + 1 + 2 * g.num_edges()) * 8;
            report.set_noted(
                "graphdata.csr_bytes",
                csr_bytes as f64,
                None,
                Some("computed".into()),
            );
            measure(w, args, &g, &pool, &mut engine, report, gate, tr);
            break;
        }
    }
    let med = |i: usize| median_of(&layers.iter().map(|l| l[i]).collect::<Vec<_>>());
    let reps = Some(layers.len());
    report.set("setup_s", median_of(&setup_s), reps);
    report.set("graphdata.gen_ms", med(0), reps);
    report.set("graphdata.csr_ms", med(1), reps);
    report.set("split.build_ms", med(2), reps);
}

/// When a solve phase stops.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// After this long, once at least this many rounds ran.
    Time(Duration, usize),
    /// After exactly this many rounds.
    Rounds(usize),
}

impl Until {
    /// Whether a loop that started at `start` and has run `i` rounds is
    /// done. No loop runs past [`HARD_CAP`], whatever its minimum.
    pub fn reached(self, start: Instant, i: usize) -> bool {
        let elapsed = start.elapsed();
        elapsed > HARD_CAP
            || match self {
                Until::Time(d, min_rounds) => elapsed >= d && i >= min_rounds,
                Until::Rounds(n) => i >= n,
            }
    }
}

/// No solve or client loop runs longer than this.
const HARD_CAP: Duration = Duration::from_secs(60);

fn solve_phase(
    solver: &mut Solver<'_, '_>,
    sources: &[(usize, u64)],
    until: Until,
    gate: &mut Gate,
    tr: &mut Tracer,
) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    let mut i = 0;
    while !until.reached(start, i) {
        solver.round(i, sources[i % sources.len()], &mut phase, gate, tr);
        i += 1;
    }
    phase.wall = start.elapsed();
    phase
}

/// The solve phases of one run, after set-up.
#[allow(clippy::too_many_arguments)]
fn measure(
    w: Library,
    args: &Args,
    g: &CsrGraph,
    pool: &ThreadPool,
    engine: &mut SsspEngine<'_>,
    report: &mut Report,
    gate: &mut Gate,
    tr: &mut Tracer,
) {
    let mut rng = Rng::new(args.seed, crate::workload_stream(w.name()));
    let (sources, mut dijkstra_ms) = tr.span("reference", 0, |tr| {
        pick_sources(g, &mut rng, w.sources(), tr)
    });
    println!("sources {}", sources.len());
    let ckpt_path = args
        .out_dir
        .join(format!("{}-{}.ckpt", w.name(), std::process::id()));
    let mut solver = Solver {
        engine,
        pool,
        ckpt_path: &ckpt_path,
    };
    let seconds = Duration::from_secs(args.seconds);

    if !args.trace {
        let mut off = Tracer::new(false, Instant::now());
        let mut phase = solve_phase(
            &mut solver,
            &sources,
            Until::Time(seconds, MIN_SOLVES),
            gate,
            &mut off,
        );
        report_end_to_end(&mut phase, report);
    } else {
        let mut off = Tracer::new(false, Instant::now());
        let mut untraced = solve_phase(
            &mut solver,
            &sources,
            Until::Time(seconds / 2, COUNT_SOURCES),
            gate,
            &mut off,
        );
        let traced = solve_phase(
            &mut solver,
            &sources,
            Until::Rounds(untraced.rounds),
            gate,
            tr,
        );
        let overhead = traced.wall.as_secs_f64() / untraced.wall.as_secs_f64();
        report.set_noted(
            "trace.overhead_ratio",
            overhead,
            Some(traced.rounds),
            Some("traced over untraced wall time of the same rounds".into()),
        );
        traced.report_kernels(report);
        let dj = dijkstra_ms.median().expect("at least one source");
        report.set("ref.dijkstra_ms.p50", dj, Some(dijkstra_ms.len()));
        for (k, path) in PATHS.iter().enumerate() {
            if let Some(p50) = untraced.paths[k].lat.median() {
                let note = Some(format!("{path}.solve_ms.p50 over ref.dijkstra_ms.p50"));
                report.set_noted(
                    &format!("floor_ratio.{path}"),
                    p50 / dj,
                    Some(untraced.paths[k].solves),
                    note,
                );
            }
        }
        let mut traced = traced;
        traced.report_checkpoint("fused run stopped half-way by an epoch budget", report);
        for name in [
            "batch.job_ms.p50",
            "engine.job_ms.p50",
            "batch.overhead_ms",
            "protocol.encode_us.p50",
            "protocol.decode_us.p50",
            "protocol.reply_bytes",
            "serve.req_ms.p50",
            "serve.req_ms.p99",
            "serve.req_per_s",
            "serve.overhead_ms",
            "serve.jobs_completed",
            "serve.jobs_partial",
            "serve.jobs_resumed",
            "serve.jobs_shed",
            "serve.cache_builds",
            "serve.cache_hits",
            "serve.writer_timeouts",
            "serve.workers_poisoned",
        ] {
            report.absent(
                name,
                "measured on serve-mix; library calls bypass the batch runner and the daemon",
            );
        }
    }
    let _ = std::fs::remove_file(&ckpt_path);

    // Resident sizes after every path ran: the split, and the pull index
    // if any dense epoch built it.
    let lh = engine_split(solver.engine, g);
    let stats = solver.engine.cache().stats();
    let computed = Some("computed from array lengths".to_string());
    report.set_noted(
        "split.resident_bytes",
        stats.resident_bytes as f64,
        None,
        computed.clone(),
    );
    report.set_noted("pull.bytes", lh.pull_bytes() as f64, None, computed);
    pull_build(&lh, report, tr);
}

/// The engine's cached split (a cache hit after any solve).
pub fn engine_split(engine: &SsspEngine<'_>, g: &CsrGraph) -> Arc<LightHeavy> {
    let build = || LightHeavy::build(g, DELTA);
    engine
        .cache()
        .get_or_build(engine.fingerprint(), DELTA.to_bits(), build)
        .0
}

/// `pull.build_ms`: when the kernels built a pull index for `lh`, time
/// building it once more; otherwise the kernels never pay it and it is 0.
pub fn pull_build(lh: &LightHeavy, report: &mut Report, tr: &mut Tracer) {
    if lh.pull_bytes() == 0 {
        report.set_noted(
            "pull.build_ms",
            0.0,
            None,
            Some("no dense epoch: the index is never built".into()),
        );
        return;
    }
    let t = Instant::now();
    let idx = tr.span("pull.build", 0, |_| PullIndex::build(lh));
    let elapsed = ms(t.elapsed());
    std::hint::black_box(idx);
    report.set("pull.build_ms", elapsed, Some(1));
}

/// `<path>.solve_ms.p50` and `.p90` of each of [`PATHS`], in order, plus
/// a text line with any higher tail the sample supports.
pub fn report_paths<'a>(lat: impl IntoIterator<Item = &'a mut Samples>, report: &mut Report) {
    for (path, samples) in PATHS.iter().zip(lat) {
        let n = Some(samples.len());
        if let Some(p50) = samples.median() {
            report.set(&format!("{path}.solve_ms.p50"), p50, n);
        }
        if let Some(p90) = samples.tail(900) {
            report.set_or_print(&format!("{path}.solve_ms.p90"), p90, "ms", n);
        }
        // A tail beyond p90 when the sample supports one (serve-mix).
        if let Some((per_mille, v)) = samples.highest_tail().filter(|&(p, _)| p > 900) {
            let label = format!("{path}.solve_ms.p{}", f64::from(per_mille) / 10.0);
            report.extra(
                &label,
                v,
                "ms",
                n,
                "highest tail with >= 10 samples beyond it",
            );
        }
    }
}

fn report_end_to_end(phase: &mut Phase, report: &mut Report) {
    report_paths(phase.paths.iter_mut().map(|p| &mut p.lat), report);
    if let Some(p50) = phase.resume.median() {
        report.set("resume.solve_ms.p50", p50, Some(phase.resume.len()));
    }
    let solves = phase.solves();
    report.set(
        "solves_per_s",
        solves as f64 / phase.wall.as_secs_f64(),
        Some(solves),
    );
    report.extra(
        "rounds",
        phase.rounds as f64,
        "count",
        None,
        "sources solved on every path",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_repeats_until_five_runs_and_a_second_or_a_cap() {
        assert!(!setup_done(&[0.5; 4]), "always at least five");
        assert!(setup_done(&[0.25; 5]));
        assert!(!setup_done(&[0.01; 24]), "cheap set-ups repeat");
        assert!(setup_done(&[0.01; 25]), "up to the cap");
    }

    #[test]
    fn strata_come_in_bit_reversed_order() {
        assert_eq!(stratum_order(8), vec![0, 4, 2, 6, 1, 5, 3, 7]);
        let mut o = stratum_order(6);
        assert_eq!(&o[..2], &[0, 4]);
        o.sort_unstable();
        assert_eq!(o, (0..6).collect::<Vec<_>>());
        assert_eq!(stratum_order(1), vec![0]);
    }

    #[test]
    fn sources_reach_half_the_graph_and_carry_dijkstra_digests() {
        let g = CsrGraph::from_edge_list(&gen::grid2d(16, 16)).unwrap();
        let mut tr = Tracer::new(false, Instant::now());
        let (a, times) = pick_sources(&g, &mut Rng::new(3, 0), 8, &mut tr);
        let (b, _) = pick_sources(&g, &mut Rng::new(3, 0), 8, &mut tr);
        assert_eq!(a, b, "same seed, same sources");
        assert_eq!((a.len(), times.len()), (8, 8));
        for (k, &(v, digest)) in a.iter().enumerate() {
            let stratum = stratum_order(8)[k];
            assert_eq!(v * 8 / 256, stratum, "source {v} lies in its stratum");
            assert_eq!(digest, dist_digest(&dijkstra(&g, v).dist));
        }
    }
}
