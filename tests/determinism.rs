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
use sssp_core::result::SsspResult;
use sssp_core::stats::PhaseProfile;
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

/// One resumable run under test: a fresh run from vertex 0 and a
/// resume, each under the given budget.
struct Resumable<'a> {
    name: &'static str,
    run: RunFn<'a>,
    resume: ResumeFn<'a>,
}

/// The fused, parallel-improved, ρ and Δ* runs on `g`, each through the
/// engine's one run path and one resume path.
fn resumables<'a>(g: &'a CsrGraph, pool: &'a ThreadPool, delta: f64) -> Vec<Resumable<'a>> {
    [
        ("fused", None, SteppingStrategy::Classic),
        ("improved", Some(pool), SteppingStrategy::Classic),
        ("rho", None, SteppingStrategy::Rho(4)),
        ("delta-star", None, SteppingStrategy::DeltaStar(2.0)),
    ]
    .into_iter()
    .map(|(name, pool, strategy)| Resumable {
        name,
        run: Box::new(move |b| SsspEngine::new(g).run_stepping(pool, 0, delta, strategy, b)),
        resume: Box::new(move |cp, b| SsspEngine::new(g).resume_stepping(pool, cp, b)),
    })
    .collect()
}

#[test]
fn every_loop_resumes_bit_identically_at_every_epoch_across_bucket_skips() {
    // Cancel at every epoch an uninterrupted run passes through and
    // resume on the same loop: distances and stats must come back
    // bit-identical. The stops must cover both stop points, so the
    // bucket ring and the stepping active list are rebuilt from each.
    let pool = ThreadPool::with_threads(2).expect("pool");
    let g = bucket_skip_grid();
    for r in resumables(&g, &pool, SKIP_DELTA) {
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
    // Budget ticks are the stop points of every run, so classic bucket
    // extraction must spend them exactly as the whole-vector scan did —
    // including the one tick per jump over empty buckets — and ρ/Δ*
    // exactly one per range and light phase. The classic values were
    // measured with the scan, the ρ/Δ* ones with the stepping loop
    // before classic and ρ/Δ* shared a driver.
    let pool = ThreadPool::with_threads(2).expect("pool");
    for (g, delta, want) in [
        (CsrGraph::from_edge_list(&grid2d(40, 40)).unwrap(), 1.0, [159, 159, 85, 120]),
        (bucket_skip_grid(), SKIP_DELTA, [110, 110, 83, 72]),
    ] {
        for (r, want) in resumables(&g, &pool, delta).into_iter().zip(want) {
            let mut b = RunBudget::unlimited();
            let (result, _) = (r.run)(&mut b).expect("valid input");
            assert_eq!(b.ticks(), want, "{}", r.name);
            // One tick per range and light phase, one for the final
            // check; the rest are classic jumps over empty buckets (Δ*
            // ranges start at the first non-empty bucket).
            let jumps =
                want - result.stats.buckets_processed as u64 - result.stats.light_phases as u64 - 1;
            let classic = matches!(r.name, "fused" | "improved");
            assert_eq!(jumps > 0, classic && delta == SKIP_DELTA, "{}", r.name);
        }
    }
}

/// FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn checkpoint_bytes_match_the_recorded_digests() {
    // GBSSCKP2 files outlive the code that wrote them (daemon manifests
    // keep them on disk), so the bytes a cancelled run serializes are
    // pinned: digests recorded before classic and ρ/Δ* shared one
    // driver. Classic runs carry their own tag and no stepping section;
    // ρ/Δ* runs carry `stepping`.
    const EPOCHS: [u64; 7] = [0, 1, 2, 5, 13, 34, 60];
    const DIGESTS: [(&str, [u64; 7]); 4] = [
        (
            "fused",
            [
                0xe6f1_8d14_cc2e_f04f,
                0x29e0_65f8_b13c_81e8,
                0x8955_3deb_865f_a74b,
                0xdd31_2567_52bb_1408,
                0xc662_73b8_b309_5dda,
                0xb281_c1d0_3805_24f5,
                0xd270_4105_3fec_38f3,
            ],
        ),
        (
            "improved",
            [
                0xe2ec_aaea_e362_2b0a,
                0x0320_c357_e7d2_c211,
                0x7aaf_a568_3903_58aa,
                0xb0e6_62a8_7d37_1545,
                0xa51a_2214_a6d4_72cf,
                0xfb7f_8419_8630_48c8,
                0x5db3_ce9f_7591_3716,
            ],
        ),
        (
            "rho",
            [
                0x985e_8725_9730_994b,
                0xb040_faeb_a617_9d2d,
                0xb933_0c22_d778_430a,
                0xcf05_6cd9_5f44_af70,
                0x0f9b_6606_6bce_d05e,
                0x1c19_865e_5269_cb1d,
                0x17d2_104a_558a_7bf7,
            ],
        ),
        (
            "delta-star",
            [
                0x459c_5a62_cfc6_4c0e,
                0xded1_bb7a_6511_4f08,
                0x95c5_6aba_ec87_8793,
                0x8feb_310c_11e8_8f8a,
                0x7335_b392_d3f6_005f,
                0x4ab5_780e_757e_1e37,
                0x7c45_b619_4d3a_f97b,
            ],
        ),
    ];
    let pool = ThreadPool::with_threads(2).expect("pool");
    let g = bucket_skip_grid();
    for (r, (name, digests)) in resumables(&g, &pool, SKIP_DELTA).into_iter().zip(DIGESTS) {
        assert_eq!(r.name, name);
        let tag = match name {
            "fused" | "improved" => name,
            _ => "stepping",
        };
        for (k, want) in EPOCHS.into_iter().zip(digests) {
            let cp = (r.run)(&mut RunBudget::unlimited().cancel_after(k))
                .expect_err("cancel_after must stop the run")
                .into_checkpoint()
                .expect("cancellation carries a checkpoint");
            assert_eq!(cp.implementation, tag, "{name} epoch {k}");
            assert_eq!(cp.stepping.is_some(), tag == "stepping", "{name} epoch {k}");
            let got = fnv1a(&cp.to_bytes(g.fingerprint()));
            assert_eq!(got, want, "{name} epoch {k}: {got:#018x}");
        }
    }
}

#[test]
fn crafted_out_of_bucket_checkpoint_is_rejected_not_resumed() {
    // A fused checkpoint edited to stop mid-bucket at the last bucket
    // index, with the source as its frontier: structurally well formed,
    // but the frontier lies outside the bucket. Resuming it would advance
    // the bucket index past `usize::MAX` (a debug overflow panic, or a
    // wrapped index and unreached vertices in release), so it must be an
    // InvalidCheckpoint everywhere it can enter.
    let g = CsrGraph::from_edge_list(&grid2d(6, 6)).unwrap();
    let mut engine = SsspEngine::new(&g);
    let mut cp = engine
        .run_fused(0, 1.0, &mut RunBudget::unlimited().cancel_after(3))
        .expect_err("cancel_after must stop the run")
        .into_checkpoint()
        .expect("cancellation carries a checkpoint");
    cp.bucket = usize::MAX;
    cp.stop_point = StopPoint::LightPhase;
    cp.frontier = vec![0];
    cp.settled = Vec::new();
    assert!(matches!(cp.validate(g.num_vertices()), Err(SsspError::InvalidCheckpoint { .. })));
    assert!(matches!(
        Checkpoint::from_bytes(&cp.to_bytes(g.fingerprint())),
        Err(SsspError::InvalidCheckpoint { .. })
    ));
    let pool = ThreadPool::with_threads(2).expect("pool");
    for pool in [None, Some(&pool)] {
        let out = engine.resume_stepping(pool, &cp, &mut RunBudget::unlimited());
        assert!(matches!(out, Err(SsspError::InvalidCheckpoint { .. })), "{out:?}");
    }
}
