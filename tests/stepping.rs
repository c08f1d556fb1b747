//! Generalized-stepping integration suite: the strategy layer must be
//! invisible in the *answer* and visible only in the *work*.
//!
//! 1. **Every strategy is exact** — classic Δ, ρ-stepping for small /
//!    medium / effectively-infinite ρ, and Δ*-stepping for several fuse
//!    factors all reproduce Dijkstra's distance vector bit-for-bit on
//!    the paper suite and the weighted suite, sequentially and on
//!    1/2/4-thread pools.
//! 2. **Determinism across schedules** — for every strategy, stats
//!    (not just distances) are identical between the pool-less path and
//!    every pool width, across repeated runs.
//! 3. **Cancellation chaos** — cancel ρ- and Δ*-stepping runs at
//!    *every* budget epoch the uninterrupted run passes through: the
//!    checkpoint validates, everything it certifies is final, and both
//!    resume paths (sequential and pooled) reconverge bit-identically
//!    in distances *and* stats.
//! 4. **Disk round-trip** — a cancelled generalized run survives
//!    save/load through the engine's checkpoint files and resumes to
//!    the exact uninterrupted answer.

use graphdata::{paper_suite, suite::weighted_suite, CsrGraph, SuiteScale};
use sssp_core::dijkstra::dijkstra;
use sssp_core::engine::SsspEngine;
use sssp_core::{RunBudget, SsspError, SteppingStrategy};
use taskpool::ThreadPool;

const RUNS: usize = 5;
const THREADS: [usize; 3] = [1, 2, 4];

/// Distances must be bit-identical, not approximately equal.
fn bits(dist: &[f64]) -> Vec<u64> {
    dist.iter().map(|d| d.to_bits()).collect()
}

/// The strategy sweep every exactness test runs: degenerate, moderate,
/// and extract-everything parameters for both generalized families,
/// plus classic Δ as the control.
fn strategy_sweep() -> Vec<SteppingStrategy> {
    vec![
        SteppingStrategy::Classic,
        SteppingStrategy::Rho(1),
        SteppingStrategy::Rho(64),
        SteppingStrategy::Rho(1 << 20),
        SteppingStrategy::DeltaStar(1.0),
        SteppingStrategy::DeltaStar(4.0),
    ]
}

/// Weighted graph with several buckets' worth of work, mirroring the
/// chaos suite's generator so epoch counts stay interesting.
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

fn check_exact(name: &str, g: &CsrGraph, src: usize, delta: f64) {
    let oracle = bits(&dijkstra(g, src).dist);
    for strategy in strategy_sweep() {
        let mut engine = SsspEngine::new(g);
        let (seq, _) = engine
            .run_stepping(None, src, delta, strategy, &mut RunBudget::unlimited())
            .expect("valid input");
        assert_eq!(
            bits(&seq.dist),
            oracle,
            "{strategy} on {name}: sequential distances diverge from Dijkstra"
        );
        for &threads in &THREADS {
            let pool = ThreadPool::with_threads(threads).expect("pool");
            for rep in 0..RUNS {
                let (par, _) = engine
                    .run_stepping(Some(&pool), src, delta, strategy, &mut RunBudget::unlimited())
                    .expect("valid input");
                assert_eq!(
                    bits(&par.dist),
                    oracle,
                    "{strategy} on {name}: distances diverged at {threads} thread(s), rep {rep}"
                );
                // Every strategy is one driver with two relaxation back
                // ends, so stats match the sequential run exactly.
                assert_eq!(
                    par.stats, seq.stats,
                    "{strategy} on {name}: stats diverged at {threads} thread(s), rep {rep}"
                );
            }
        }
    }
}

#[test]
fn every_strategy_matches_dijkstra_on_the_paper_suite() {
    for d in paper_suite(SuiteScale::Smoke) {
        let src = d.graph.num_vertices() / 2;
        check_exact(&d.name, &d.graph, src, 1.0);
    }
}

#[test]
fn every_strategy_matches_dijkstra_on_real_weights() {
    // Real-valued weights are where a wrong extraction threshold would
    // show: unit weights forgive an off-by-one bucket range because
    // every candidate in a phase shares one distance value.
    for d in weighted_suite(SuiteScale::Smoke).into_iter().take(2) {
        check_exact(&d.name, &d.graph, 1, 0.25);
    }
}

/// Total budget checks an uninterrupted generalized run performs.
fn total_epochs(
    g: &CsrGraph,
    src: usize,
    delta: f64,
    strategy: SteppingStrategy,
    pool: &ThreadPool,
) -> u64 {
    let mut budget = RunBudget::unlimited();
    SsspEngine::new(g)
        .run_stepping(Some(pool), src, delta, strategy, &mut budget)
        .expect("valid input");
    budget.ticks()
}

#[test]
fn cancelling_rho_and_delta_star_at_every_epoch_reconverges() {
    let g = weighted_chaos_graph();
    let (src, delta) = (0, 0.5);
    let pool = ThreadPool::with_threads(2).expect("pool");
    for strategy in [SteppingStrategy::Rho(16), SteppingStrategy::DeltaStar(2.0)] {
        let mut engine = SsspEngine::new(&g);
        let (reference, _) = engine
            .run_stepping(Some(&pool), src, delta, strategy, &mut RunBudget::unlimited())
            .expect("valid input");
        let epochs = total_epochs(&g, src, delta, strategy, &pool);
        assert!(epochs > 2, "{strategy}: too few epochs to be interesting");
        for k in 0..epochs {
            let mut budget = RunBudget::unlimited().cancel_after(k);
            let err = engine
                .run_stepping(Some(&pool), src, delta, strategy, &mut budget)
                .expect_err("cancel_after inside the run must stop it");
            let cp = match err {
                SsspError::Cancelled { checkpoint } => *checkpoint,
                other => panic!("{strategy} epoch {k}: expected Cancelled, got {other}"),
            };
            cp.validate(g.num_vertices()).expect("checkpoint must validate");
            assert!(
                cp.stepping.is_some(),
                "{strategy} epoch {k}: generalized run must emit a stepping checkpoint"
            );
            // Everything the checkpoint certifies is final.
            for (v, d) in cp.settled_distances() {
                assert_eq!(
                    d.to_bits(),
                    reference.dist[v].to_bits(),
                    "{strategy} epoch {k}: certified distance of vertex {v} is not final"
                );
            }
            // Both resume paths reconverge bit-identically.
            if cp.resumable {
                let (seq, _) = engine
                    .resume_stepping(None, &cp, &mut RunBudget::unlimited())
                    .expect("sequential resume must reconverge");
                assert_eq!(bits(&seq.dist), bits(&reference.dist), "{strategy} epoch {k}");
                assert_eq!(seq.stats, reference.stats, "{strategy} epoch {k}");
                let (par, _) = engine
                    .resume_stepping(Some(&pool), &cp, &mut RunBudget::unlimited())
                    .expect("pooled resume must reconverge");
                assert_eq!(bits(&par.dist), bits(&reference.dist), "{strategy} epoch {k}");
                assert_eq!(par.stats, reference.stats, "{strategy} epoch {k}");
            }
        }
    }
}

#[test]
fn generalized_checkpoints_round_trip_through_disk() {
    let g = weighted_chaos_graph();
    let (src, delta) = (0, 0.5);
    let strategy = SteppingStrategy::Rho(16);
    let mut engine = SsspEngine::new(&g);
    let (reference, _) = engine
        .run_stepping(None, src, delta, strategy, &mut RunBudget::unlimited())
        .expect("valid input");

    let mut budget = RunBudget::unlimited().cancel_after(3);
    let err = engine
        .run_stepping(None, src, delta, strategy, &mut budget)
        .expect_err("cancel_after inside the run must stop it");
    let cp = match err {
        SsspError::Cancelled { checkpoint } => *checkpoint,
        other => panic!("expected Cancelled, got {other}"),
    };
    assert!(cp.resumable && cp.stepping.is_some());

    let dir = std::env::temp_dir().join(format!("sssp-stepping-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("rho.ckpt");
    engine.save_checkpoint(&cp, &path).expect("save");
    let loaded = engine.load_checkpoint(&path).expect("load");
    assert_eq!(loaded.stepping, cp.stepping, "stepping state must survive the disk");

    let (resumed, _) = engine
        .resume_stepping(None, &loaded, &mut RunBudget::unlimited())
        .expect("resume from disk must reconverge");
    assert_eq!(bits(&resumed.dist), bits(&reference.dist));
    assert_eq!(resumed.stats, reference.stats);
    std::fs::remove_dir_all(&dir).ok();
}
