//! Determinism suite: every parallel implementation must be a pure
//! function of `(graph, source, delta)` — bit-identical distance vectors
//! and identical [`SsspStats`] across repeated runs and across thread
//! counts. This is the contract the request-buffer relaxation core was
//! built to honour: requests are merged in spawn order, so no schedule
//! interleaving can leak into the result.

use std::str::FromStr;

use graphdata::gen::grid2d;
use graphdata::{paper_suite, suite::weighted_suite, CsrGraph, SuiteScale};
use sssp_core::engine::SsspEngine;
use sssp_core::fused::LightHeavy;
use sssp_core::result::SsspResult;
use sssp_core::stats::PhaseProfile;
use sssp_core::stepping::{stepping_resume_with, stepping_with, SteppingWorkspace};
use sssp_core::{
    fused, gblas_parallel, parallel, parallel_improved, run_with_budget, Checkpoint, GuardConfig,
    Implementation, RunBudget, SsspError, SteppingStrategy, StopPoint,
};
use taskpool::ThreadPool;

const RUNS: usize = 20;
const THREADS: [usize; 3] = [1, 2, 4];

/// Distances must be bit-identical, not approximately equal.
fn bits(dist: &[f64]) -> Vec<u64> {
    dist.iter().map(|d| d.to_bits()).collect()
}

fn assert_stable<F>(name: &str, graph_name: &str, mut run: F)
where
    F: FnMut(&ThreadPool) -> SsspResult,
{
    let reference_pool = ThreadPool::with_threads(THREADS[0]).expect("pool");
    let reference = run(&reference_pool);
    for &threads in &THREADS {
        let pool = ThreadPool::with_threads(threads).expect("pool");
        for rep in 0..RUNS {
            let r = run(&pool);
            assert_eq!(
                bits(&r.dist),
                bits(&reference.dist),
                "{name} on {graph_name}: distances diverged at {threads} thread(s), rep {rep}"
            );
            assert_eq!(
                r.stats, reference.stats,
                "{name} on {graph_name}: stats diverged at {threads} thread(s), rep {rep}"
            );
        }
    }
}

fn check_graph(name: &str, g: &CsrGraph, src: usize, delta: f64) {
    assert_stable("parallel", name, |pool| {
        parallel::delta_stepping_parallel(pool, g, src, delta)
    });
    assert_stable("parallel-improved", name, |pool| {
        parallel_improved::delta_stepping_parallel_improved(pool, g, src, delta)
    });
    assert_stable("gblas-parallel", name, |pool| {
        gblas_parallel::delta_stepping_gblas_parallel(pool, g, src, delta)
    });
}

#[test]
fn parallel_implementations_are_deterministic_on_unit_weights() {
    for d in paper_suite(SuiteScale::Smoke) {
        let src = d.graph.num_vertices() / 2;
        check_graph(&d.name, &d.graph, src, 1.0);
    }
}

#[test]
fn parallel_implementations_are_deterministic_on_real_weights() {
    // Real-valued weights are where float reduction order would show:
    // min over the same candidate multiset is order-independent, but any
    // accidental completion-order merge would not be.
    for d in weighted_suite(SuiteScale::Smoke).into_iter().take(2) {
        let src = 1;
        check_graph(&d.name, &d.graph, src, 0.25);
    }
}

#[test]
fn engine_reuse_is_deterministic_and_matches_direct_calls() {
    // Warm engine state (cached split + reused workspaces) must not
    // change results: run the same sources repeatedly through one
    // engine and compare against fresh direct calls.
    let d = paper_suite(SuiteScale::Smoke).remove(1);
    let g = &d.graph;
    let delta = 1.0;
    let sources = [0, g.num_vertices() / 3, g.num_vertices() - 1];
    for &threads in &THREADS {
        let pool = ThreadPool::with_threads(threads).expect("pool");
        let mut engine = SsspEngine::new(g);
        for rep in 0..RUNS {
            for &src in &sources {
                let (warm, _) = engine
                    .run_parallel_improved(&pool, src, delta, &mut RunBudget::unlimited())
                    .expect("valid inputs");
                let cold =
                    parallel_improved::delta_stepping_parallel_improved(&pool, g, src, delta);
                assert_eq!(
                    bits(&warm.dist),
                    bits(&cold.dist),
                    "engine warm run diverged from direct call at {threads} thread(s), rep {rep}"
                );
                assert_eq!(warm.stats, cold.stats);
            }
        }
        // One split build total, regardless of reps x sources.
        assert_eq!(engine.stats().split_builds, 1);
        assert_eq!(
            engine.stats().split_hits as usize,
            RUNS * sources.len() - 1
        );
    }
}

#[test]
fn front_door_covers_every_impl_name_deterministically() {
    // The shared front door must accept every canonical `--impl` name
    // and give deterministic bits for each: this literal list is what
    // `sssp-analyze`'s impl-coverage lint pins against `run.rs`, so a
    // new Implementation variant cannot ship without being added here.
    const NAMES: [&str; 5] = ["canonical", "fused", "gblas", "parallel", "improved"];
    // Unit weights: the gblas implementation rejects zero-weight edges.
    let d = paper_suite(SuiteScale::Smoke).remove(1);
    let g = &d.graph;
    let delta = 1.0;
    let src = g.num_vertices() / 2;
    let reference = fused::delta_stepping_fused(g, src, delta);

    for name in NAMES {
        let imp = Implementation::from_str(name).expect("front-door name must parse");
        assert_eq!(imp.name(), name, "parse(name()) must round-trip");
        for &threads in &THREADS {
            let pool = ThreadPool::with_threads(threads).expect("pool");
            for rep in 0..3 {
                let rep_out = run_with_budget(
                    imp,
                    g,
                    src,
                    delta,
                    Some(&pool),
                    &GuardConfig::default(),
                    &mut RunBudget::unlimited(),
                )
                .expect("valid inputs");
                assert!(rep_out.degraded.is_none(), "{name}: degraded run");
                assert_eq!(
                    bits(&rep_out.result.dist),
                    bits(&reference.dist),
                    "{name}: distances diverged at {threads} thread(s), rep {rep}"
                );
            }
        }
    }
}

#[test]
fn cancelled_then_resumed_runs_are_bit_identical() {
    // Determinism must survive interruption: cancel each classic-loop
    // implementation at a seeded pseudo-random epoch, resume the
    // checkpoint without and with the pool, and demand bit-identical
    // distances AND stats versus the uninterrupted run — at every thread
    // count.
    let d = paper_suite(SuiteScale::Smoke).remove(1);
    let g = &d.graph;
    let delta = 1.0;
    let src = g.num_vertices() / 2;

    let mut full_budget = RunBudget::unlimited();
    let (reference, _) =
        fused::delta_stepping_fused_checked(g, src, delta, &mut full_budget).expect("valid input");
    let total_epochs = full_budget.ticks();
    assert!(total_epochs > 1, "graph too small to interrupt");

    // Seeded LCG: deterministic across runs, different epochs per trial.
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next_epoch = |bound: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state % bound
    };

    for &threads in &THREADS {
        let pool = ThreadPool::with_threads(threads).expect("pool");
        let mut engine = SsspEngine::new(g);
        for trial in 0..4 {
            let k = next_epoch(total_epochs);
            let cancelled: Vec<(&str, sssp_core::SsspError)> = vec![
                (
                    "fused",
                    fused::delta_stepping_fused_checked(
                        g,
                        src,
                        delta,
                        &mut RunBudget::unlimited().cancel_after(k),
                    )
                    .expect_err("cancel_after must stop the run"),
                ),
                (
                    "parallel",
                    parallel::delta_stepping_parallel_checked(
                        &pool,
                        g,
                        src,
                        delta,
                        &mut RunBudget::unlimited().cancel_after(k),
                    )
                    .expect_err("cancel_after must stop the run"),
                ),
                (
                    "improved",
                    parallel_improved::delta_stepping_parallel_improved_checked(
                        &pool,
                        g,
                        src,
                        delta,
                        &mut RunBudget::unlimited().cancel_after(k),
                    )
                    .expect_err("cancel_after must stop the run"),
                ),
            ];
            for (name, err) in cancelled {
                let cp = err.into_checkpoint().expect("cancellation carries a checkpoint");
                assert!(cp.resumable, "{name}: frontier family must be resumable");
                let (seq, _) = engine
                    .resume_stepping(None, &cp, &mut RunBudget::unlimited())
                    .expect("resume must reconverge");
                assert_eq!(
                    bits(&seq.dist),
                    bits(&reference.dist),
                    "{name} -> fused resume diverged at {threads} thread(s), trial {trial}, epoch {k}"
                );
                assert_eq!(
                    seq.stats, reference.stats,
                    "{name} -> fused resume stats diverged at {threads} thread(s), trial {trial}, epoch {k}"
                );
                let (par, _) = engine
                    .resume_stepping(Some(&pool), &cp, &mut RunBudget::unlimited())
                    .expect("resume must reconverge");
                assert_eq!(
                    bits(&par.dist),
                    bits(&reference.dist),
                    "{name} -> improved resume diverged at {threads} thread(s), trial {trial}, epoch {k}"
                );
                assert_eq!(
                    par.stats, reference.stats,
                    "{name} -> improved resume stats diverged at {threads} thread(s), trial {trial}, epoch {k}"
                );
            }
        }
        // Every cancel/resume rode the one cached split.
        assert_eq!(engine.stats().split_builds, 1);
    }
}

#[test]
fn retired_atomic_checkpoints_still_load_and_resume_bit_identically() {
    // GBSSCKP2 files written by the retired atomic implementation carry
    // tag byte 5. Its loop state was classic-loop state, so such a file
    // must still decode and resume exactly on the one resume path.
    let d = paper_suite(SuiteScale::Smoke).remove(1);
    let g = &d.graph;
    let src = g.num_vertices() / 2;
    let mut engine = SsspEngine::new(g);
    let (full, _) = engine.run_fused(src, 1.0, &mut RunBudget::unlimited()).expect("valid input");
    let pool = ThreadPool::with_threads(2).expect("pool");
    for k in [0, 3, 8] {
        let err = engine
            .run_fused(src, 1.0, &mut RunBudget::unlimited().cancel_after(k))
            .expect_err("cancel_after must stop the run");
        let mut cp = err.into_checkpoint().expect("cancellation carries a checkpoint");
        cp.implementation = "atomic";
        let (loaded, fingerprint) =
            Checkpoint::from_bytes(&cp.to_bytes(g.fingerprint())).expect("tag 5 decodes");
        assert_eq!(fingerprint, g.fingerprint());
        assert_eq!(loaded, cp);
        for pool in [None, Some(&pool)] {
            let (resumed, _) = engine
                .resume_stepping(pool, &loaded, &mut RunBudget::unlimited())
                .expect("atomic checkpoints resume");
            assert_eq!(bits(&resumed.dist), bits(&full.dist), "epoch {k}");
            assert_eq!(resumed.stats, full.stats, "epoch {k}");
        }
    }
}

/// A weighted grid whose heavy edges leave empty buckets between the
/// occupied ones at [`SKIP_DELTA`], so runs jump bucket gaps.
fn bucket_skip_grid() -> CsrGraph {
    let mut el = grid2d(12, 12);
    graphdata::weights::assign_symmetric(
        &mut el,
        graphdata::WeightModel::UniformFloat { lo: 0.05, hi: 4.0 },
        7,
    );
    CsrGraph::from_edge_list(&el).unwrap()
}

const SKIP_DELTA: f64 = 0.5;

type Outcome = Result<(SsspResult, PhaseProfile), SsspError>;
type RunFn<'a> = Box<dyn Fn(&mut RunBudget) -> Outcome + 'a>;
type ResumeFn<'a> = Box<dyn Fn(&Checkpoint, &mut RunBudget) -> Outcome + 'a>;

/// One resumable loop under test: a fresh run from vertex 0 and a
/// resume, each under the given budget.
struct Resumable<'a> {
    name: &'static str,
    run: RunFn<'a>,
    resume: ResumeFn<'a>,
}

/// The fused, parallel-improved, ρ and Δ* loops on `g`.
fn resumables<'a>(
    g: &'a CsrGraph,
    lh: &'a LightHeavy,
    pool: &'a ThreadPool,
    delta: f64,
) -> Vec<Resumable<'a>> {
    let mut out = vec![
        Resumable {
            name: "fused",
            run: Box::new(move |b| fused::delta_stepping_fused_checked(g, 0, delta, b)),
            resume: Box::new(move |cp, b| SsspEngine::new(g).resume_stepping(None, cp, b)),
        },
        Resumable {
            name: "improved",
            run: Box::new(move |b| {
                parallel_improved::delta_stepping_parallel_improved_checked(pool, g, 0, delta, b)
            }),
            resume: Box::new(move |cp, b| SsspEngine::new(g).resume_stepping(Some(pool), cp, b)),
        },
    ];
    for (name, strategy) in [
        ("rho", SteppingStrategy::Rho(4)),
        ("delta-star", SteppingStrategy::DeltaStar(2.0)),
    ] {
        let n = g.num_vertices();
        out.push(Resumable {
            name,
            run: Box::new(move |b| {
                let mut ws = SteppingWorkspace::new(n);
                stepping_with(g, lh, 0, delta, strategy, None, b, &mut ws)
            }),
            resume: Box::new(move |cp, b| {
                let mut ws = SteppingWorkspace::new(n);
                stepping_resume_with(g, lh, cp, None, b, &mut ws)
            }),
        });
    }
    out
}

#[test]
fn every_loop_resumes_bit_identically_at_every_epoch_across_bucket_skips() {
    // Cancel at every epoch an uninterrupted run passes through and
    // resume on the same loop: distances and stats must come back
    // bit-identical. The stops must cover both stop points, so the
    // bucket ring and the stepping active list are rebuilt from each.
    let pool = ThreadPool::with_threads(2).expect("pool");
    let g = bucket_skip_grid();
    let lh = LightHeavy::build(&g, SKIP_DELTA);
    for r in resumables(&g, &lh, &pool, SKIP_DELTA) {
        let mut b = RunBudget::unlimited();
        let (full, _) = (r.run)(&mut b).expect("valid input");
        let mut stop_points = Vec::new();
        for k in 0..b.ticks() {
            let err = (r.run)(&mut RunBudget::unlimited().cancel_after(k))
                .expect_err("cancel_after must stop the run");
            let cp = err.into_checkpoint().expect("cancellation carries a checkpoint");
            stop_points.push(cp.stop_point);
            let (resumed, _) = (r.resume)(&cp, &mut RunBudget::unlimited()).expect("resumable");
            assert_eq!(
                bits(&resumed.dist),
                bits(&full.dist),
                "{} cancelled at epoch {k}",
                r.name
            );
            assert_eq!(resumed.stats, full.stats, "{} cancelled at epoch {k}", r.name);
        }
        for point in [StopPoint::BucketStart, StopPoint::LightPhase] {
            assert!(stop_points.contains(&point), "{}: never stopped at {point:?}", r.name);
        }
    }
}

#[test]
fn budget_ticks_match_the_full_scan() {
    // Budget ticks are the stop points of every run, so bucket
    // extraction must spend them exactly as the whole-vector scan did —
    // including the one tick per jump over empty buckets. The expected
    // values were measured with the scan.
    let pool = ThreadPool::with_threads(2).expect("pool");
    for (g, delta, want) in [
        (CsrGraph::from_edge_list(&grid2d(40, 40)).unwrap(), 1.0, 159),
        (bucket_skip_grid(), SKIP_DELTA, 110),
    ] {
        let lh = LightHeavy::build(&g, delta);
        for r in resumables(&g, &lh, &pool, delta).into_iter().take(2) {
            let mut b = RunBudget::unlimited();
            let (result, _) = (r.run)(&mut b).expect("valid input");
            assert_eq!(b.ticks(), want, "{}", r.name);
            // One tick per bucket and light phase, one for the final
            // check; the rest are jumps over empty buckets.
            let jumps =
                want - result.stats.buckets_processed as u64 - result.stats.light_phases as u64 - 1;
            assert_eq!(jumps > 0, delta == SKIP_DELTA, "{}", r.name);
        }
    }
}
