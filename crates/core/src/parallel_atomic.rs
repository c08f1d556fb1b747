//! The original "improved" parallel scheme, preserved as a benchmarkable
//! baseline: chunked relaxation over the frontier scattering into a dense
//! `AtomicU64` request vector (lock-free f64 min via compare-exchange),
//! with per-task touched lists collected under a `Mutex`.
//!
//! [`crate::parallel_improved`] replaced this with contention-free
//! per-task request buffers ([`crate::reqbuf`]); this module keeps the
//! atomic design alive so the bench harness can measure the before/after
//! (`BENCH_sssp.json` rows `improved-atomic` vs `improved`) and so the
//! determinism suite can pin down the ordering behaviour of both.
//!
//! Relative to the version this was extracted from, three bugs are fixed:
//!
//! 1. the sequential fast path now sorts `touched` exactly like the
//!    parallel branch, so bookkeeping order no longer depends on frontier
//!    size or thread count;
//! 2. `relaxations` is counted per *completed* chunk instead of being
//!    bumped by the full frontier `nnz` up front, so a panicking or
//!    degraded run can no longer report work it never did;
//! 3. the memory-ordering contract of [`atomic_min_f64`] is documented
//!    and tightened (see below) instead of being implicitly `Relaxed`
//!    everywhere.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use graphdata::CsrGraph;
// lint:allow(hot-path-lock): preserved atomic baseline kept for benchmark
// comparison; the lock is per-completed-chunk, not per-edge — see DESIGN §9.
use parking_lot::Mutex;
use taskpool::{scope, split_evenly, ThreadPool};

use crate::buckets::BucketRing;
use crate::budget::RunBudget;
use crate::checkpoint::{LiveState, StopPoint};
use crate::fused::LightHeavy;
use crate::guard::SsspError;
use crate::parallel_improved::split_light_heavy_chunked;
use crate::result::SsspResult;
use crate::stats::PhaseProfile;
use crate::INF;

/// Lock-free `min` on an `f64` stored as bits in an `AtomicU64`.
/// Returns the previous value.
///
/// # Memory ordering
///
/// Correctness of the delta-stepping phase needs two guarantees, and the
/// audit below records which mechanism provides each:
///
/// * **Exactly-one claim** — the task that transitions a cell from `∞`
///   records the vertex in its touched list. This is the read-modify-write
///   *atomicity* of the CAS (every load in a successful CAS observes the
///   latest value in the cell's modification order), which holds at any
///   ordering, including `Relaxed`.
/// * **Post-barrier visibility** — the sequential bookkeeping pass reads
///   the final minima after the scope join. The join itself synchronizes:
///   each finishing task does a `SeqCst` `fetch_sub` on the scope's
///   pending counter (plus a mutex/condvar handoff), and the waiting
///   thread observes it, so every store the task made happens-before the
///   bookkeeping pass. The barrier alone covers this.
///
/// What the barrier does *not* cover is any read of a claimed cell made
/// **during** the phase by a different task (e.g. a future optimization
/// publishing data through the request vector, or a debug assertion).
/// For that case the CAS publishes with `Release` and loads with
/// `Acquire` (both the initial load and the failure ordering), so a
/// winning write is a synchronization point rather than an unordered
/// blip. The cost on the relaxation path is negligible next to the CAS
/// itself.
#[inline]
pub fn atomic_min_f64(cell: &AtomicU64, value: f64) -> f64 {
    // Modeled for the race checker as one AcqRel RMW event: the Acquire
    // load + Release CAS pair is at least that strong on the winning
    // path, and the read-only early return touches nothing but this cell.
    #[cfg(feature = "racecheck")]
    racecheck::atomic_rmw(
        "atomic.req",
        cell as *const AtomicU64,
        racecheck::SyncOrd::AcqRel,
    );
    let mut cur = cell.load(Ordering::Acquire);
    loop {
        let cur_f = f64::from_bits(cur);
        if value >= cur_f {
            return cur_f;
        }
        match cell.compare_exchange_weak(
            cur,
            value.to_bits(),
            Ordering::Release,
            Ordering::Acquire,
        ) {
            Ok(_) => return cur_f,
            Err(actual) => cur = actual,
        }
    }
}

/// Frontier edge-product count below which the sequential scatter is used.
const SEQ_THRESHOLD: usize = 512;

/// Parallel relaxation of `frontier`'s edges (light or heavy per
/// `use_light`) into the shared atomic request accumulator. Each task
/// collects the positions it *claimed* (transitioned from `∞`), so the
/// union of the per-task touched lists is duplicate-free. `touched` comes
/// back **sorted on both branches** (canonical bookkeeping order).
#[allow(clippy::too_many_arguments)]
fn relax_atomic(
    pool: &ThreadPool,
    lh: &LightHeavy,
    dist: &[f64],
    frontier: &[usize],
    use_light: bool,
    req: &[AtomicU64],
    touched: &mut Vec<usize>,
    relaxations: &mut u64,
    threshold: usize,
) {
    let edges = |v: usize| {
        if use_light {
            lh.light(v)
        } else {
            lh.heavy(v)
        }
    };
    let nnz: usize = frontier.iter().map(|&v| edges(v).0.len()).sum();
    if nnz < threshold || pool.num_threads() == 1 {
        for &v in frontier {
            let tv = dist[v];
            let (targets, weights) = edges(v);
            for (&u, &w) in targets.iter().zip(weights.iter()) {
                let prev = atomic_min_f64(&req[u], tv + w);
                if prev == INF {
                    touched.push(u);
                }
            }
            *relaxations += targets.len() as u64;
        }
        // Canonical order on the fast path too (bug fix: this used to be
        // left unsorted, so bookkeeping order flipped with frontier size).
        touched.sort_unstable();
        return;
    }
    let ranges = split_evenly(0..frontier.len(), pool.num_threads() * 4);
    // lint:allow(hot-path-lock): locked once per completed chunk (the design
    // reqbuf replaced); kept so BENCH_sssp.json can measure before/after.
    let parts: Mutex<Vec<(Vec<usize>, u64)>> = Mutex::new(Vec::with_capacity(ranges.len()));
    scope(pool, |s| {
        for range in ranges {
            let parts = &parts;
            s.spawn(move || {
                let mut local = Vec::new();
                let mut processed = 0u64;
                for p in range {
                    let v = frontier[p];
                    #[cfg(feature = "racecheck")]
                    {
                        taskpool::sched::yield_point();
                        racecheck::plain_read("sssp.dist", &dist[v] as *const f64);
                    }
                    let tv = dist[v];
                    let (targets, weights) = edges(v);
                    for (&u, &w) in targets.iter().zip(weights.iter()) {
                        let prev = atomic_min_f64(&req[u], tv + w);
                        if prev == INF {
                            local.push(u);
                        }
                    }
                    processed += targets.len() as u64;
                }
                // Pushed only on chunk completion: a chunk that panics
                // mid-flight contributes neither touches nor counts.
                parts.lock().push((local, processed));
            });
        }
    });
    for (local, processed) in parts.into_inner() {
        touched.extend_from_slice(&local);
        *relaxations += processed;
    }
    // Deterministic bookkeeping order downstream.
    touched.sort_unstable();
}

/// Delta-stepping on the preserved atomic request-vector scheme.
pub fn delta_stepping_parallel_atomic(
    pool: &ThreadPool,
    g: &CsrGraph,
    source: usize,
    delta: f64,
) -> SsspResult {
    assert!(delta > 0.0 && delta.is_finite(), "delta must be positive and finite");
    delta_stepping_parallel_atomic_checked(pool, g, source, delta, &mut RunBudget::unlimited())
        .expect("inputs asserted valid and the budget is unlimited")
        .0
}

/// [`delta_stepping_parallel_atomic`] under a [`RunBudget`]: returns
/// [`SsspError`] instead of panicking on a bad Δ or source, trips the
/// epoch budget instead of looping forever on malformed weight data, and
/// observes cancellation/deadlines at every epoch boundary, emitting a
/// resumable checkpoint (this implementation is bit-identical to the
/// fused loop, so its checkpoints resume on the fused/improved paths).
/// Worker panics still propagate; wrap the call in
/// [`taskpool::install_try`] (as [`crate::run::run_checked`] does) to
/// convert them into errors.
pub fn delta_stepping_parallel_atomic_checked(
    pool: &ThreadPool,
    g: &CsrGraph,
    source: usize,
    delta: f64,
    budget: &mut RunBudget,
) -> Result<(SsspResult, PhaseProfile), SsspError> {
    if !(delta > 0.0 && delta.is_finite()) {
        return Err(SsspError::InvalidDelta { delta });
    }
    let n = g.num_vertices();
    if source >= n {
        return Err(SsspError::SourceOutOfBounds {
            source,
            num_vertices: n,
        });
    }
    let mut result = SsspResult::init(n, source);
    let mut profile = PhaseProfile::default();

    let t0 = Instant::now();
    let lh = split_light_heavy_chunked(pool, g, delta);
    profile.matrix_filter += t0.elapsed();

    let req: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(INF.to_bits())).collect();
    let mut touched: Vec<usize> = Vec::new();
    let mut frontier: Vec<usize> = Vec::new();
    let mut settled: Vec<usize> = Vec::new();
    let mut ring = BucketRing::new();
    ring.start(n, delta, source);

    let mut i = 0usize;
    loop {
        if let Err(stop) = budget.check() {
            return Err(LiveState {
                implementation: "atomic",
                source,
                delta,
                dist: &result.dist,
                stats: &result.stats,
                bucket: i,
                stop_point: StopPoint::BucketStart,
                frontier: &[],
                settled: &[],
                resumable: true,
                stepping: None,
            }
            .stop(stop));
        }
        let t0 = Instant::now();
        let next = ring.take(i, &mut frontier);
        profile.vector_ops += t0.elapsed();
        match next {
            None => break,
            Some(b) if b != i => {
                i = b;
                continue;
            }
            Some(_) => {}
        }
        result.stats.buckets_processed += 1;
        settled.clear();

        while !frontier.is_empty() {
            if let Err(stop) = budget.check() {
                return Err(LiveState {
                    implementation: "atomic",
                    source,
                    delta,
                    dist: &result.dist,
                    stats: &result.stats,
                    bucket: i,
                    stop_point: StopPoint::LightPhase,
                    frontier: &frontier,
                    settled: &settled,
                    resumable: true,
                    stepping: None,
                }
                .stop(stop));
            }
            result.stats.light_phases += 1;
            let t0 = Instant::now();
            relax_atomic(
                pool,
                &lh,
                &result.dist,
                &frontier,
                true,
                &req,
                &mut touched,
                &mut result.stats.relaxations,
                crate::reqbuf::effective_threshold(SEQ_THRESHOLD),
            );
            profile.relaxation += t0.elapsed();

            let t0 = Instant::now();
            settled.extend_from_slice(&frontier);
            frontier.clear();
            for &u in &touched {
                // Plain post-barrier reads: the scope join (see
                // `atomic_min_f64`'s ordering notes) makes the workers'
                // stores visible here even at `Relaxed`. The racecheck
                // hooks record exactly that claim — Relaxed accesses that
                // must be ordered by the join edge alone.
                #[cfg(feature = "racecheck")]
                {
                    racecheck::atomic_load(
                        "atomic.req",
                        &req[u] as *const AtomicU64,
                        racecheck::SyncOrd::Relaxed,
                    );
                    racecheck::atomic_store(
                        "atomic.req",
                        &req[u] as *const AtomicU64,
                        racecheck::SyncOrd::Relaxed,
                    );
                }
                let cand = f64::from_bits(req[u].load(Ordering::Relaxed));
                req[u].store(INF.to_bits(), Ordering::Relaxed);
                ring.merge(&mut result.dist, u, cand, &mut result.stats.improvements, &mut frontier);
            }
            touched.clear();
            profile.vector_ops += t0.elapsed();
        }

        result.stats.heavy_phases += 1;
        let t0 = Instant::now();
        relax_atomic(
            pool,
            &lh,
            &result.dist,
            &settled,
            false,
            &req,
            &mut touched,
            &mut result.stats.relaxations,
            crate::reqbuf::effective_threshold(SEQ_THRESHOLD),
        );
        profile.relaxation += t0.elapsed();
        let t0 = Instant::now();
        for &u in &touched {
            #[cfg(feature = "racecheck")]
            {
                racecheck::atomic_load(
                    "atomic.req",
                    &req[u] as *const AtomicU64,
                    racecheck::SyncOrd::Relaxed,
                );
                racecheck::atomic_store(
                    "atomic.req",
                    &req[u] as *const AtomicU64,
                    racecheck::SyncOrd::Relaxed,
                );
            }
            let cand = f64::from_bits(req[u].load(Ordering::Relaxed));
            req[u].store(INF.to_bits(), Ordering::Relaxed);
            ring.merge(&mut result.dist, u, cand, &mut result.stats.improvements, &mut frontier);
        }
        touched.clear();
        profile.vector_ops += t0.elapsed();

        i += 1;
    }
    Ok((result, profile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
    use crate::fused::delta_stepping_fused;
    use graphdata::gen;

    #[test]
    fn atomic_min_behaviour() {
        let cell = AtomicU64::new(INF.to_bits());
        assert_eq!(atomic_min_f64(&cell, 5.0), INF);
        assert_eq!(atomic_min_f64(&cell, 7.0), 5.0); // no change
        assert_eq!(f64::from_bits(cell.load(Ordering::Relaxed)), 5.0);
        assert_eq!(atomic_min_f64(&cell, 2.0), 5.0);
        assert_eq!(f64::from_bits(cell.load(Ordering::Relaxed)), 2.0);
    }

    /// Regression test for the ordering bug: the sequential fast path and
    /// the parallel branch must return the same (sorted) touched list.
    #[test]
    fn touched_order_identical_across_branches() {
        let pool = ThreadPool::with_threads(4).unwrap();
        let mut el = gen::gnm(500, 3_500, 23);
        el.symmetrize();
        graphdata::weights::assign_symmetric(
            &mut el,
            graphdata::WeightModel::UniformFloat { lo: 0.05, hi: 2.5 },
            3,
        );
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let lh = LightHeavy::build(&g, 1.0);
        let dist: Vec<f64> = (0..g.num_vertices()).map(|v| (v % 13) as f64 * 0.4).collect();
        let frontier: Vec<usize> = (0..g.num_vertices()).step_by(2).collect();

        for use_light in [true, false] {
            let run = |threshold: usize| {
                let req: Vec<AtomicU64> =
                    (0..g.num_vertices()).map(|_| AtomicU64::new(INF.to_bits())).collect();
                let mut touched = Vec::new();
                let mut relaxations = 0u64;
                relax_atomic(
                    &pool, &lh, &dist, &frontier, use_light, &req, &mut touched,
                    &mut relaxations, threshold,
                );
                (touched, relaxations)
            };
            let (seq_touched, seq_relax) = run(usize::MAX); // forces sequential
            let (par_touched, par_relax) = run(0); // forces parallel
            assert_eq!(seq_touched, par_touched, "use_light={use_light}");
            assert_eq!(seq_relax, par_relax);
            let mut sorted = seq_touched.clone();
            sorted.sort_unstable();
            assert_eq!(seq_touched, sorted, "fast path must be canonical");
        }
    }

    #[test]
    fn matches_dijkstra_and_fused() {
        let pool = ThreadPool::with_threads(4).unwrap();
        let mut el = gen::rmat(gen::RmatParams::graph500(9, 8), 17);
        el.symmetrize();
        el.make_unit_weight();
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let dj = dijkstra(&g, 0);
        let fu = delta_stepping_fused(&g, 0, 1.0);
        let pa = delta_stepping_parallel_atomic(&pool, &g, 0, 1.0);
        assert_eq!(pa.dist, dj.dist);
        assert_eq!(pa.dist, fu.dist);
    }

    #[test]
    fn weighted_graph_with_heavy_edges() {
        let pool = ThreadPool::with_threads(3).unwrap();
        let mut el = gen::gnm(400, 3000, 5);
        el.symmetrize();
        graphdata::weights::assign_symmetric(
            &mut el,
            graphdata::WeightModel::UniformFloat { lo: 0.05, hi: 3.0 },
            11,
        );
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let dj = dijkstra(&g, 7);
        let pa = delta_stepping_parallel_atomic(&pool, &g, 7, 1.0);
        assert!(pa.approx_eq(&dj, 1e-12).is_ok());
    }

    #[test]
    fn deterministic_across_runs() {
        let pool = ThreadPool::with_threads(4).unwrap();
        let mut el = gen::gnm(500, 4000, 21);
        el.symmetrize();
        el.make_unit_weight();
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let a = delta_stepping_parallel_atomic(&pool, &g, 0, 1.0);
        let b = delta_stepping_parallel_atomic(&pool, &g, 0, 1.0);
        assert_eq!(a.dist, b.dist);
        assert_eq!(a.stats, b.stats);
    }
}
