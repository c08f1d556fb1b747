//! Chaos suite: deterministic fault injection at every boundary.
//!
//! Three properties, exercised exhaustively rather than sampled:
//!
//! 1. **Cancellation at every epoch boundary** — for each of the six
//!    implementations, cancel at epoch `k` for *every* `k` the full run
//!    passes through. The checkpoint must validate, and every distance
//!    it certifies (below `settled_below`) must bit-match the
//!    uninterrupted run.
//! 2. **Resume always reconverges** — every resumable checkpoint,
//!    continued on both resume paths, must land on bit-identical
//!    distances *and* stats versus the uninterrupted run.
//! 3. **Panic injection at every task boundary** — for the parallel
//!    implementations, arm the taskpool fault hook at task `j` for a
//!    sweep of `j` and demand the degraded run still produces exact
//!    distances.
//! 4. **Single-shot injections at each front door** — `run_checked`,
//!    the batch runner and the resident service each degrade (or
//!    surface the panic) exactly as configured.
//!
//! The worker-pool size is taken from `CHAOS_THREADS` (default 2) so CI
//! can sweep 1/2/4 without recompiling.

use graphdata::gen::grid2d;
use graphdata::CsrGraph;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use sssp_core::engine::SsspEngine;
use sssp_core::{
    dijkstra::dijkstra, run_checked, run_with_budget, BatchConfig, BatchOutcome, BatchRunner,
    GuardConfig, Implementation, RunBudget, SsspError, SteppingStrategy,
};
use sssp_serve::protocol::TEXT_TERMINATOR;
use sssp_serve::server::{start, ServerConfig};
use sssp_serve::SupervisorConfig;
use taskpool::ThreadPool;

/// The taskpool fault hook is process-global: fault-armed tests must not
/// overlap each other (or any test running pool tasks). Serialize every
/// test in this binary through one lock.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn pool_threads() -> usize {
    std::env::var("CHAOS_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&t| t >= 1)
        .unwrap_or(2)
}

fn bits(dist: &[f64]) -> Vec<u64> {
    dist.iter().map(|d| d.to_bits()).collect()
}

fn chaos_graph() -> CsrGraph {
    CsrGraph::from_edge_list(&grid2d(10, 10)).unwrap()
}

/// Weighted graph with several buckets' worth of work and no zero
/// weights (so the gblas implementation can run it too).
fn weighted_chaos_graph() -> CsrGraph {
    let mut el = graphdata::gen::gnm(150, 900, 11);
    el.symmetrize();
    graphdata::weights::assign_symmetric(
        &mut el,
        graphdata::WeightModel::UniformFloat { lo: 0.1, hi: 2.0 },
        5,
    );
    CsrGraph::from_edge_list(&el).unwrap()
}

/// Total budget checks an uninterrupted run of `imp` performs.
fn total_epochs(
    imp: Implementation,
    g: &CsrGraph,
    src: usize,
    delta: f64,
    pool: &ThreadPool,
    cfg: &GuardConfig,
) -> u64 {
    let mut budget = RunBudget::unlimited();
    run_with_budget(imp, g, src, delta, Some(pool), cfg, &mut budget).expect("valid input");
    budget.ticks()
}

fn cancel_everywhere(g: &CsrGraph, src: usize, delta: f64) {
    let pool = ThreadPool::with_threads(pool_threads()).unwrap();
    let cfg = GuardConfig::default();
    for imp in Implementation::ALL {
        let reference = run_checked(imp, g, src, delta, Some(&pool), &cfg)
            .expect("valid input")
            .result;
        let epochs = total_epochs(imp, g, src, delta, &pool, &cfg);
        assert!(epochs > 2, "{}: too few epochs to be interesting", imp.name());
        let mut engine = SsspEngine::new(g);
        for k in 0..epochs {
            let mut budget = RunBudget::unlimited().cancel_after(k);
            let err = run_with_budget(imp, g, src, delta, Some(&pool), &cfg, &mut budget)
                .expect_err("cancel_after inside the run must stop it");
            let cp = match err {
                SsspError::Cancelled { checkpoint } => *checkpoint,
                other => panic!("{} epoch {k}: expected Cancelled, got {other}", imp.name()),
            };
            cp.validate(g.num_vertices()).expect("checkpoint must validate");
            // Property 1: everything the checkpoint certifies is final.
            for (v, d) in cp.settled_distances() {
                assert_eq!(
                    d.to_bits(),
                    reference.dist[v].to_bits(),
                    "{} epoch {k}: certified distance of vertex {v} is not final",
                    imp.name()
                );
            }
            // Property 2: resumable checkpoints reconverge bit-identically
            // on both resume paths.
            if cp.resumable {
                let (seq, _) = engine
                    .resume_stepping(None, &cp, &mut RunBudget::unlimited())
                    .expect("resume must reconverge");
                assert_eq!(bits(&seq.dist), bits(&reference.dist), "{} epoch {k}", imp.name());
                assert_eq!(seq.stats, reference.stats, "{} epoch {k}", imp.name());
                let (par, _) = engine
                    .resume_stepping(Some(&pool), &cp, &mut RunBudget::unlimited())
                    .expect("resume must reconverge");
                assert_eq!(bits(&par.dist), bits(&reference.dist), "{} epoch {k}", imp.name());
                assert_eq!(par.stats, reference.stats, "{} epoch {k}", imp.name());
            } else {
                assert!(
                    matches!(imp, Implementation::Canonical | Implementation::Gblas),
                    "{}: only canonical/gblas may be non-resumable",
                    imp.name()
                );
            }
        }
    }
}

#[test]
fn cancellation_at_every_epoch_is_certified_and_resumable_unit_weights() {
    let _guard = CHAOS_LOCK.lock().unwrap();
    let g = chaos_graph();
    cancel_everywhere(&g, 0, 1.0);
}

#[test]
fn cancellation_at_every_epoch_is_certified_and_resumable_real_weights() {
    let _guard = CHAOS_LOCK.lock().unwrap();
    let g = weighted_chaos_graph();
    cancel_everywhere(&g, 1, 0.5);
}

#[test]
fn panic_injection_at_every_task_boundary_degrades_to_exact_distances() {
    let _guard = CHAOS_LOCK.lock().unwrap();
    let g = chaos_graph();
    let reference = dijkstra(&g, 0);
    let pool = ThreadPool::with_threads(pool_threads()).unwrap();
    let cfg = GuardConfig::default(); // degrade_on_panic: true
    for imp in [Implementation::Parallel, Implementation::ParallelImproved] {
        // Sweep the injection point across the first 24 spawned tasks;
        // beyond the run's task count the hook simply never fires.
        for j in 0..24 {
            taskpool::fault::arm_panic_after(j);
            let outcome = run_checked(imp, &g, 0, 1.0, Some(&pool), &cfg);
            taskpool::fault::disarm();
            let report = outcome.unwrap_or_else(|e| {
                panic!("{} with fault at task {j}: degradation failed: {e}", imp.name())
            });
            assert_eq!(
                bits(&report.result.dist),
                bits(&reference.dist),
                "{} with fault at task {j}: degraded distances diverged",
                imp.name()
            );
        }
    }
}

/// Property 2, through disk and across "processes": a run killed at an
/// epoch boundary serializes its checkpoint; a fresh engine (standing in
/// for a fresh process) reloads it and is killed again mid-resume; a
/// third engine reloads *that* and runs to completion. The final
/// distances and stats must bit-match the uninterrupted run on both
/// resume paths, at whatever pool size `CHAOS_THREADS` selects (CI
/// sweeps 1/2/4).
#[test]
fn checkpoint_survives_kill_reload_resume_cycles_through_disk() {
    let _guard = CHAOS_LOCK.lock().unwrap();
    let g = weighted_chaos_graph();
    let pool = ThreadPool::with_threads(pool_threads()).unwrap();
    let cfg = GuardConfig::default();
    let (src, delta) = (1usize, 0.5);
    let reference =
        run_checked(Implementation::ParallelImproved, &g, src, delta, Some(&pool), &cfg)
            .expect("valid input")
            .result;
    let dir = std::env::temp_dir().join(format!(
        "sssp-chaos-ckpt-{}-t{}",
        std::process::id(),
        pool_threads()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cycle.bin");

    for first_kill in [1u64, 3, 7] {
        for parallel_resume in [false, true] {
            // "Process 1": killed at epoch `first_kill`, saves, dies.
            let mut budget = RunBudget::unlimited().cancel_after(first_kill);
            let err = run_with_budget(
                Implementation::ParallelImproved,
                &g,
                src,
                delta,
                Some(&pool),
                &cfg,
                &mut budget,
            )
            .expect_err("cancel inside the run must stop it");
            let cp = err.into_checkpoint().expect("budget stop carries a checkpoint");
            assert!(cp.resumable);
            SsspEngine::new(&g).save_checkpoint(&cp, &path).unwrap();

            // "Process 2": reloads, gets killed again mid-resume (or
            // finishes, if little work remained).
            let mut engine = SsspEngine::new(&g);
            let cp = engine.load_checkpoint(&path).unwrap();
            let mut budget = RunBudget::unlimited().cancel_after(2);
            let resume_pool = parallel_resume.then_some(&pool);
            let second = engine.resume_stepping(resume_pool, &cp, &mut budget);
            let result = match second {
                Ok((result, _)) => result,
                Err(err) => {
                    let cp = err.into_checkpoint().expect("mid-resume stop carries a checkpoint");
                    engine.save_checkpoint(&cp, &path).unwrap();
                    // "Process 3": reloads the twice-interrupted state
                    // and runs to completion.
                    let mut engine = SsspEngine::new(&g);
                    let cp = engine.load_checkpoint(&path).unwrap();
                    let (result, _) = engine
                        .resume_stepping(resume_pool, &cp, &mut RunBudget::unlimited())
                        .expect("final resume must reconverge");
                    result
                }
            };
            let label = format!(
                "kill at {first_kill}, parallel_resume={parallel_resume}, threads={}",
                pool_threads()
            );
            assert_eq!(bits(&result.dist), bits(&reference.dist), "{label}");
            assert_eq!(result.stats, reference.stats, "{label}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn panic_then_budget_stop_still_yields_a_certified_checkpoint() {
    // The degraded sequential retry runs under the job's surviving
    // budget: inject a panic AND cancel, and the partial result must
    // still come back certified (not lost to the panic path).
    let _guard = CHAOS_LOCK.lock().unwrap();
    let g = chaos_graph();
    let full = dijkstra(&g, 0);
    let pool = ThreadPool::with_threads(pool_threads()).unwrap();
    let cfg = GuardConfig::default();
    let token = sssp_core::CancelToken::new();
    token.cancel();
    let mut budget = RunBudget::for_run(&g, 1.0, &cfg).with_cancel(token);
    taskpool::fault::arm_panic_after(0);
    let err = run_with_budget(
        Implementation::ParallelImproved,
        &g,
        0,
        1.0,
        Some(&pool),
        &cfg,
        &mut budget,
    )
    .expect_err("pre-cancelled token must stop the run");
    taskpool::fault::disarm();
    let cp = err.into_checkpoint().expect("budget stop carries a checkpoint");
    for (v, d) in cp.settled_distances() {
        assert_eq!(d.to_bits(), full.dist[v].to_bits(), "vertex {v}");
    }
}

// ---------------------------------------------------------------------------
// Single-shot fault injections against the run front door, the batch
// runner and the resident service. They arm the same process-global hook
// as the sweeps above, so they live here under `CHAOS_LOCK` rather than
// in the lib test binaries, where a concurrently running pooled test
// could take the injected panic.
// ---------------------------------------------------------------------------

fn small_grid() -> CsrGraph {
    CsrGraph::from_edge_list(&grid2d(6, 6)).unwrap()
}

fn connect_text(addr: SocketAddr) -> TcpStream {
    TcpStream::connect(addr).expect("connect")
}

/// Send one text request and collect the reply lines (without the
/// terminator).
fn ask(stream: &mut TcpStream, line: &str) -> Vec<String> {
    stream.write_all(format!("{line}\n").as_bytes()).expect("send");
    let mut reply = Vec::new();
    let reader = stream.try_clone().expect("clone");
    for l in BufReader::new(reader).lines() {
        let l = l.expect("reply line");
        if l == TEXT_TERMINATOR {
            break;
        }
        reply.push(l);
    }
    reply
}

fn load_grid(stream: &mut TcpStream) -> u64 {
    let reply = ask(stream, "LOAD GEN grid:6x6");
    let line = &reply[0];
    assert!(line.starts_with("LOADED"), "{line}");
    let fp = line
        .split_whitespace()
        .find_map(|w| w.strip_prefix("fingerprint="))
        .expect("fingerprint field");
    u64::from_str_radix(fp, 16).expect("hex fingerprint")
}

#[test]
fn injected_worker_panic_becomes_error_when_degradation_off() {
    let _guard = CHAOS_LOCK.lock().unwrap();
    let g = small_grid();
    let pool = ThreadPool::with_threads(2).unwrap();
    let cfg = GuardConfig {
        degrade_on_panic: false,
        ..GuardConfig::default()
    };
    taskpool::fault::arm_panic_after(0);
    let outcome = run_checked(Implementation::Parallel, &g, 0, 1.0, Some(&pool), &cfg);
    taskpool::fault::disarm();
    match outcome {
        Err(SsspError::WorkerPanicked { message }) => {
            assert!(message.contains(taskpool::fault::INJECTED_PANIC_MESSAGE));
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    assert!(pool.panicked_tasks() >= 1);
}

#[test]
fn injected_worker_panic_degrades_to_certified_sequential_run() {
    let _guard = CHAOS_LOCK.lock().unwrap();
    let g = small_grid();
    let pool = ThreadPool::with_threads(2).unwrap();
    let cfg = GuardConfig::default(); // degrade_on_panic: true
    taskpool::fault::arm_panic_after(0);
    let report =
        run_checked(Implementation::ParallelImproved, &g, 0, 1.0, Some(&pool), &cfg)
            .expect("degradation must rescue the run");
    taskpool::fault::disarm();
    let message = report.degraded.expect("run must be marked degraded");
    assert!(message.contains(taskpool::fault::INJECTED_PANIC_MESSAGE));
    // The fallback distances are not just plausible — they carry the
    // full SSSP optimality certificate and match Dijkstra.
    sssp_core::validate::check_certificate(&g, &report.result, 1e-12)
        .expect("degraded result must still be optimal");
    assert_eq!(report.result.dist, dijkstra(&g, 0).dist);
}

#[test]
fn degraded_retry_inherits_cancellation_not_ticks() {
    let _guard = CHAOS_LOCK.lock().unwrap();
    // A cancelled token must stop the sequential retry too: the
    // deadline/token are an SLO on the whole job, not per attempt.
    let g = small_grid();
    let pool = ThreadPool::with_threads(2).unwrap();
    let cfg = GuardConfig::default();
    let token = sssp_core::CancelToken::new();
    token.cancel();
    let mut budget = RunBudget::for_run(&g, 1.0, &cfg).with_cancel(token);
    taskpool::fault::arm_panic_after(0);
    let outcome = run_with_budget(
        Implementation::ParallelImproved,
        &g,
        0,
        1.0,
        Some(&pool),
        &cfg,
        &mut budget,
    );
    taskpool::fault::disarm();
    // The run stops with Cancelled — either before the panic fires
    // or on the retry path; both prove the token reached the loop.
    assert!(
        matches!(outcome, Err(SsspError::Cancelled { .. })),
        "got {outcome:?}"
    );
}

#[test]
fn strategy_panic_retries_sequentially_with_the_same_strategy() {
    let _guard = CHAOS_LOCK.lock().unwrap();
    let g = small_grid();
    let runner = BatchRunner::new(BatchConfig {
        implementation: Implementation::ParallelImproved,
        strategy: SteppingStrategy::DeltaStar(2.0),
        workers: 1,
        ..BatchConfig::default()
    });
    taskpool::fault::arm_panic_after(0);
    let report = runner.run(&g, &[0]);
    taskpool::fault::disarm();
    match &report.jobs[0].1 {
        BatchOutcome::Complete { result, degraded, degraded_by_panic, .. } => {
            assert!(degraded.is_some());
            assert!(degraded_by_panic);
            assert_eq!(result.dist, dijkstra(&g, 0).dist);
        }
        other => panic!("expected degraded Complete, got {other:?}"),
    }
}

#[test]
fn injected_panic_retries_once_on_sequential_fused() {
    let _guard = CHAOS_LOCK.lock().unwrap();
    let g = small_grid();
    let runner = BatchRunner::new(BatchConfig {
        implementation: Implementation::ParallelImproved,
        workers: 1,
        ..BatchConfig::default()
    });
    taskpool::fault::arm_panic_after(0);
    let report = runner.run(&g, &[0]);
    taskpool::fault::disarm();
    match &report.jobs[0].1 {
        BatchOutcome::Complete { result, degraded, degraded_by_panic, .. } => {
            let message = degraded.as_ref().expect("job must be marked degraded");
            assert!(message.contains(taskpool::fault::INJECTED_PANIC_MESSAGE));
            assert!(degraded_by_panic, "typed marker must identify the panic");
            assert_eq!(result.dist, dijkstra(&g, 0).dist);
        }
        other => panic!("expected degraded Complete, got {other:?}"),
    }
    assert_eq!(report.degraded(), 1);
}

/// The recycling chaos test: a panic-injected worker serves its job
/// degraded (sequential-fused retry), retires, and is replaced by a
/// fresh worker that serves the *requested* implementation again —
/// at every pool width the service runs with.
#[test]
fn panic_poisoned_worker_is_recycled_and_serves_the_requested_impl_again() {
    let _guard = CHAOS_LOCK.lock().unwrap();
    for pool_threads in [1usize, 2, 4] {
        let cfg = ServerConfig {
            workers: 1,
            pool_threads,
            supervisor: SupervisorConfig {
                cooldown: Duration::from_millis(50),
                watchdog_interval: Duration::from_millis(5),
                ..SupervisorConfig::default()
            },
            ..ServerConfig::default()
        };
        let server = start(cfg, "127.0.0.1:0").unwrap();
        let mut c = connect_text(server.addr());
        let fp = load_grid(&mut c);

        taskpool::fault::arm_panic_after(0);
        let degraded = ask(&mut c, &format!("SSSP {fp:016x} 0 impl=improved"));
        taskpool::fault::disarm();
        assert!(
            degraded[0].starts_with("DEGRADED"),
            "injected panic must degrade ({pool_threads} threads): {degraded:?}"
        );
        assert!(degraded[1].starts_with("OK "), "{degraded:?}");

        // The worker retired; the supervisor recycles the slot after
        // its cooldown.
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let stats = server.stats();
            if stats.get("workers_healthy") == Some(1)
                && stats.get("worker_recycles") >= Some(1)
            {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "slot never recycled ({pool_threads} threads): {stats:?}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }

        // A later job on the same connection gets the requested
        // implementation, undegraded.
        let ok = ask(&mut c, &format!("SSSP {fp:016x} 0 impl=improved"));
        assert!(
            ok[0].starts_with("OK "),
            "recycled worker serves the requested impl ({pool_threads} threads): {ok:?}"
        );
        assert_eq!(server.health().status, "ok");
        server.shutdown();
    }
}
