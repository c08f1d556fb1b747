//! The improvement the paper predicts in Sec. VI-C — "parallelizing within
//! the matrix-vector operations and splitting the filtering operations for
//! `A_H` and `A_L` into smaller tasks" — rebuilt around **contention-free
//! per-task request buffers** ([`crate::reqbuf`]).
//!
//! Concretely, relative to [`crate::parallel`]:
//!
//! * the light/heavy matrix filtering is chunked by rows, so all threads
//!   participate instead of two ([`split_light_heavy_chunked`]);
//! * the `(min,+)` relaxation runs as chunked producer tasks over the
//!   frontier, each filling its own sparse request buffer; the buffers
//!   merge deterministically at phase end — no atomic request vector, no
//!   locked touched-list collection (that earlier design is preserved as
//!   [`crate::parallel_atomic`] for before/after benchmarking).
//!
//! Results are bit-identical to the sequential fused implementation and
//! across thread counts: the merge computes the same minima whatever the
//! chunking, and the touched list is sorted on every path.
//!
//! Repeated runs (multi-source queries, bench loops) should go through
//! [`crate::engine::SsspEngine`], which caches the light/heavy split per
//! `(graph, Δ)` — the paper measures that filter at 35–40 % of runtime —
//! and reuses this module's workspaces across calls via
//! [`delta_stepping_parallel_improved_with`].

use std::sync::OnceLock;
use std::time::Instant;

use gblas::direction::{self, Direction};
use graphdata::CsrGraph;
use taskpool::{scope_collect, split_evenly, ThreadPool};

use crate::buckets::BucketRing;
use crate::budget::RunBudget;
use crate::checkpoint::{Checkpoint, LiveState, StopPoint};
use crate::fused::LightHeavy;
use crate::guard::SsspError;
use crate::reqbuf::{relax_buffered, RelaxWorkspace};
use crate::result::SsspResult;
use crate::stats::PhaseProfile;
use crate::INF;

/// Build the light/heavy split with fine-grained row chunks — every thread
/// participates (vs. the two coarse tasks of the paper's scheme). Chunk
/// results come back in row order from [`scope_collect`] (no lock, no
/// sort) and concatenate into the CSR pair.
pub fn split_light_heavy_chunked(pool: &ThreadPool, g: &CsrGraph, delta: f64) -> LightHeavy {
    let n = g.num_vertices();
    if n == 0 {
        return LightHeavy::build(g, delta);
    }
    // 4 chunks per thread: enough slack for load balancing on skewed rows.
    let pieces = (pool.num_threads() * 4).min(n);
    let ranges = split_evenly(0..n, pieces);

    struct Chunk {
        l_counts: Vec<usize>,
        l_tgt: Vec<usize>,
        l_w: Vec<f64>,
        h_counts: Vec<usize>,
        h_tgt: Vec<usize>,
        h_w: Vec<f64>,
    }
    let parts = scope_collect(pool, ranges, |_, range| {
        let mut c = Chunk {
            l_counts: Vec::with_capacity(range.len()),
            l_tgt: Vec::new(),
            l_w: Vec::new(),
            h_counts: Vec::with_capacity(range.len()),
            h_tgt: Vec::new(),
            h_w: Vec::new(),
        };
        for v in range {
            let (targets, weights) = g.neighbors(v);
            let (lb, hb) = (c.l_tgt.len(), c.h_tgt.len());
            for (&t, &w) in targets.iter().zip(weights.iter()) {
                if w <= delta {
                    c.l_tgt.push(t);
                    c.l_w.push(w);
                } else {
                    c.h_tgt.push(t);
                    c.h_w.push(w);
                }
            }
            c.l_counts.push(c.l_tgt.len() - lb);
            c.h_counts.push(c.h_tgt.len() - hb);
        }
        c
    });
    let mut lh = LightHeavy {
        light_off: Vec::with_capacity(n + 1),
        light_tgt: Vec::new(),
        light_w: Vec::new(),
        heavy_off: Vec::with_capacity(n + 1),
        heavy_tgt: Vec::new(),
        heavy_w: Vec::new(),
        pull: OnceLock::new(),
    };
    lh.light_off.push(0);
    lh.heavy_off.push(0);
    for c in parts {
        for k in 0..c.l_counts.len() {
            lh.light_off.push(lh.light_off.last().unwrap() + c.l_counts[k]);
            lh.heavy_off.push(lh.heavy_off.last().unwrap() + c.h_counts[k]);
        }
        lh.light_tgt.extend_from_slice(&c.l_tgt);
        lh.light_w.extend_from_slice(&c.l_w);
        lh.heavy_tgt.extend_from_slice(&c.h_tgt);
        lh.heavy_w.extend_from_slice(&c.h_w);
    }
    lh
}

/// Reusable per-run state: the relaxation workspace (dense request
/// accumulator + per-task buffers), the bucket ring and the
/// frontier/settled scratch vectors. Owned by callers that run many queries (the engine, bench
/// loops) so per-bucket allocation disappears after the first run.
#[derive(Debug, Default)]
pub struct ImprovedWorkspace {
    relax: RelaxWorkspace,
    frontier: Vec<usize>,
    settled: Vec<usize>,
    /// Frontier bitmap for dense (pull) epochs — all-`false` between
    /// phases, set and cleared by iterating the (sparse) frontier.
    in_frontier: Vec<bool>,
    ring: BucketRing,
}

impl ImprovedWorkspace {
    /// Workspace sized for an `n`-vertex graph.
    pub fn new(n: usize) -> Self {
        ImprovedWorkspace {
            relax: RelaxWorkspace::new(n),
            frontier: Vec::new(),
            settled: Vec::new(),
            in_frontier: vec![false; n],
            ring: BucketRing::new(),
        }
    }

    /// Grow (never shrink) to fit an `n`-vertex graph.
    pub fn ensure(&mut self, n: usize) {
        self.relax.ensure(n);
        if self.in_frontier.len() < n {
            self.in_frontier.resize(n, false);
        }
    }
}

/// Delta-stepping with the paper's proposed improvements (fine-grained
/// matrix filtering + intra-relaxation parallelism) on the request-buffer
/// core.
pub fn delta_stepping_parallel_improved(
    pool: &ThreadPool,
    g: &CsrGraph,
    source: usize,
    delta: f64,
) -> SsspResult {
    delta_stepping_parallel_improved_profiled(pool, g, source, delta).0
}

/// [`delta_stepping_parallel_improved`] with phase timing.
pub fn delta_stepping_parallel_improved_profiled(
    pool: &ThreadPool,
    g: &CsrGraph,
    source: usize,
    delta: f64,
) -> (SsspResult, PhaseProfile) {
    assert!(delta > 0.0 && delta.is_finite(), "delta must be positive and finite");
    delta_stepping_parallel_improved_checked(pool, g, source, delta, &mut RunBudget::unlimited())
        .expect("inputs asserted valid and the budget is unlimited")
}

/// [`delta_stepping_parallel_improved`] under a [`RunBudget`]: returns
/// [`SsspError`] instead of panicking on a bad Δ or source, trips the
/// epoch budget instead of looping forever on malformed weight data, and
/// observes cancellation/deadlines at every epoch boundary — emitting a
/// resumable [`Checkpoint`] inside the error when stopped.
/// Worker panics still propagate; wrap the call in
/// [`taskpool::install_try`] (as [`crate::run::run_checked`] does) to
/// convert them into errors.
pub fn delta_stepping_parallel_improved_checked(
    pool: &ThreadPool,
    g: &CsrGraph,
    source: usize,
    delta: f64,
    budget: &mut RunBudget,
) -> Result<(SsspResult, PhaseProfile), SsspError> {
    if !(delta > 0.0 && delta.is_finite()) {
        return Err(SsspError::InvalidDelta { delta });
    }
    let t0 = Instant::now();
    let lh = split_light_heavy_chunked(pool, g, delta);
    let filter_time = t0.elapsed();
    let mut ws = ImprovedWorkspace::new(g.num_vertices());
    let (result, mut profile) =
        delta_stepping_parallel_improved_with(pool, g, &lh, source, delta, budget, &mut ws)?;
    profile.matrix_filter += filter_time;
    Ok((result, profile))
}

/// The core loop over a **prebuilt** light/heavy split and a caller-owned
/// workspace — the entry point the engine's split cache uses. The returned
/// profile contains no `matrix_filter` time (the caller decides whether a
/// cached split costs anything).
pub fn delta_stepping_parallel_improved_with(
    pool: &ThreadPool,
    g: &CsrGraph,
    lh: &LightHeavy,
    source: usize,
    delta: f64,
    budget: &mut RunBudget,
    ws: &mut ImprovedWorkspace,
) -> Result<(SsspResult, PhaseProfile), SsspError> {
    improved_loop(pool, g, lh, source, delta, budget, ws, None)
}

/// Resume an interrupted run from a [`Checkpoint`], rebuilding the
/// light/heavy split in parallel. Accepts checkpoints from any of the
/// frontier-family implementations (fused / parallel / improved / atomic
/// — they are bit-identical step for step), and the continued run is
/// **bit-identical** (distances and [`crate::SsspStats`]) to an
/// uninterrupted run.
pub fn delta_stepping_parallel_improved_resume(
    pool: &ThreadPool,
    g: &CsrGraph,
    cp: &Checkpoint,
    budget: &mut RunBudget,
) -> Result<(SsspResult, PhaseProfile), SsspError> {
    cp.validate(g.num_vertices())?;
    let t0 = Instant::now();
    let lh = split_light_heavy_chunked(pool, g, cp.delta);
    let filter_time = t0.elapsed();
    let mut ws = ImprovedWorkspace::new(g.num_vertices());
    let (result, mut profile) =
        delta_stepping_parallel_improved_resume_with(pool, g, &lh, cp, budget, &mut ws)?;
    profile.matrix_filter += filter_time;
    Ok((result, profile))
}

/// [`delta_stepping_parallel_improved_resume`] over a prebuilt split and
/// caller-owned workspace (the [`crate::engine::SsspEngine`] resume path).
pub fn delta_stepping_parallel_improved_resume_with(
    pool: &ThreadPool,
    g: &CsrGraph,
    lh: &LightHeavy,
    cp: &Checkpoint,
    budget: &mut RunBudget,
    ws: &mut ImprovedWorkspace,
) -> Result<(SsspResult, PhaseProfile), SsspError> {
    cp.validate(g.num_vertices())?;
    if !cp.resumable {
        return Err(SsspError::InvalidCheckpoint {
            reason: "checkpoint was emitted by a non-resumable implementation".to_string(),
        });
    }
    improved_loop(pool, g, lh, cp.source, cp.delta, budget, ws, Some(cp))
}

/// The improved main loop, optionally continuing from a checkpoint.
#[allow(clippy::too_many_arguments)]
fn improved_loop(
    pool: &ThreadPool,
    g: &CsrGraph,
    lh: &LightHeavy,
    source: usize,
    delta: f64,
    budget: &mut RunBudget,
    ws: &mut ImprovedWorkspace,
    resume: Option<&Checkpoint>,
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
    ws.ensure(n);
    let ImprovedWorkspace {
        relax,
        frontier,
        settled,
        in_frontier,
        ring,
    } = ws;
    frontier.clear();
    settled.clear();

    let mut i = 0usize;
    // Mid-bucket resumes re-enter the light-phase loop with the saved
    // frontier/settled sets, skipping the outer boundary work that already
    // happened before the interruption.
    let mut entering_mid = false;
    match resume {
        Some(cp) => {
            result.dist.clone_from(&cp.dist);
            result.stats = cp.stats.clone();
            i = cp.bucket;
            frontier.extend_from_slice(&cp.frontier);
            settled.extend_from_slice(&cp.settled);
            entering_mid = cp.stop_point == StopPoint::LightPhase;
            ring.resume(&cp.dist, delta, i, !entering_mid);
        }
        None => ring.start(n, delta, source),
    }

    loop {
        if entering_mid {
            entering_mid = false;
        } else {
            if let Err(stop) = budget.check() {
                return Err(LiveState {
                    implementation: "improved",
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
            let next = ring.take(i, frontier);
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
        }

        while !frontier.is_empty() {
            if let Err(stop) = budget.check() {
                return Err(LiveState {
                    implementation: "improved",
                    source,
                    delta,
                    dist: &result.dist,
                    stats: &result.stats,
                    bucket: i,
                    stop_point: StopPoint::LightPhase,
                    frontier,
                    settled,
                    resumable: true,
                    stepping: None,
                }
                .stop(stop));
            }
            result.stats.light_phases += 1;
            // Sparse frontiers push through the request buffers; dense
            // ones (per the shared density oracle) pull the light
            // in-edges against a frontier bitmap — the request vector
            // and the sorted touched list are bit-identical either way
            // (see [`crate::pull`]).
            let t0 = Instant::now();
            let frontier_edges: usize = frontier
                .iter()
                .map(|&v| lh.light_off[v + 1] - lh.light_off[v])
                .sum();
            if direction::choose(frontier_edges, lh.num_light()) == Direction::Pull {
                let mut lower = INF;
                for &v in frontier.iter() {
                    in_frontier[v] = true;
                    if result.dist[v] < lower {
                        lower = result.dist[v];
                    }
                }
                relax.pull_light(pool, lh.pull_index(), &result.dist, in_frontier, lower);
                for &v in frontier.iter() {
                    in_frontier[v] = false;
                }
                // Push counts one relaxation per frontier light edge;
                // the pull pass covers exactly that edge set.
                result.stats.relaxations += frontier_edges as u64;
            } else {
                relax_buffered(
                    pool,
                    lh,
                    &result.dist,
                    frontier,
                    true,
                    relax,
                    &mut result.stats.relaxations,
                );
            }
            profile.relaxation += t0.elapsed();

            let t0 = Instant::now();
            settled.extend_from_slice(frontier);
            frontier.clear();
            let improvements = &mut result.stats.improvements;
            relax.drain_requests(|u, cand| {
                ring.merge(&mut result.dist, u, cand, improvements, frontier);
            });
            profile.vector_ops += t0.elapsed();
        }

        result.stats.heavy_phases += 1;
        let t0 = Instant::now();
        relax_buffered(
            pool,
            lh,
            &result.dist,
            settled,
            false,
            relax,
            &mut result.stats.relaxations,
        );
        profile.relaxation += t0.elapsed();
        let t0 = Instant::now();
        let improvements = &mut result.stats.improvements;
        relax.drain_requests(|u, cand| {
            ring.merge(&mut result.dist, u, cand, improvements, frontier);
        });
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
    fn chunked_split_matches_sequential() {
        let pool = ThreadPool::with_threads(4).unwrap();
        let mut el = gen::gnm(200, 1000, 3);
        graphdata::weights::assign_symmetric(
            &mut el,
            graphdata::WeightModel::UniformFloat { lo: 0.1, hi: 2.0 },
            9,
        );
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let par = split_light_heavy_chunked(&pool, &g, 1.0);
        let seq = LightHeavy::build(&g, 1.0);
        assert_eq!(par, seq);
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
        let pi = delta_stepping_parallel_improved(&pool, &g, 0, 1.0);
        assert_eq!(pi.dist, dj.dist);
        assert_eq!(pi.dist, fu.dist);
        // The rebuild preserves the work counters too.
        assert_eq!(pi.stats, fu.stats);
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
        let pi = delta_stepping_parallel_improved(&pool, &g, 7, 1.0);
        assert!(pi.approx_eq(&dj, 1e-12).is_ok());
    }

    #[test]
    fn deterministic_across_runs() {
        let pool = ThreadPool::with_threads(4).unwrap();
        let mut el = gen::gnm(500, 4000, 21);
        el.symmetrize();
        el.make_unit_weight();
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let a = delta_stepping_parallel_improved(&pool, &g, 0, 1.0);
        let b = delta_stepping_parallel_improved(&pool, &g, 0, 1.0);
        assert_eq!(a.dist, b.dist);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn workspace_reuse_across_sources_is_exact() {
        let pool = ThreadPool::with_threads(4).unwrap();
        let mut el = gen::gnm(400, 2500, 31);
        el.symmetrize();
        el.make_unit_weight();
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let lh = split_light_heavy_chunked(&pool, &g, 1.0);
        let mut ws = ImprovedWorkspace::new(g.num_vertices());
        for src in [0, 7, 113, 0] {
            let (reused, _) = delta_stepping_parallel_improved_with(
                &pool, &g, &lh, src, 1.0, &mut RunBudget::unlimited(), &mut ws,
            )
            .unwrap();
            let fresh = delta_stepping_parallel_improved(&pool, &g, src, 1.0);
            assert_eq!(reused.dist, fresh.dist, "source {src}");
            assert_eq!(reused.stats, fresh.stats, "source {src}");
        }
    }

    #[test]
    fn cross_family_resume_from_a_fused_checkpoint_is_bit_identical() {
        // The frontier-family implementations are bit-identical step for
        // step, so a checkpoint cut by the sequential fused path must
        // resume exactly on the parallel improved path (and vice versa).
        let pool = ThreadPool::with_threads(4).unwrap();
        let mut el = gen::gnm(300, 1800, 13);
        el.symmetrize();
        el.make_unit_weight();
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let full = delta_stepping_parallel_improved(&pool, &g, 0, 1.0);
        for k in [0, 1, 3, 5] {
            let err = crate::fused::delta_stepping_fused_checked(
                &g,
                0,
                1.0,
                &mut RunBudget::unlimited().cancel_after(k),
            )
            .unwrap_err();
            let cp = err.into_checkpoint().expect("cancellation carries a checkpoint");
            let (resumed, _) = delta_stepping_parallel_improved_resume(
                &pool,
                &g,
                &cp,
                &mut RunBudget::unlimited(),
            )
            .unwrap();
            assert_eq!(resumed.dist, full.dist, "cancelled at epoch {k}");
            assert_eq!(resumed.stats, full.stats, "cancelled at epoch {k}");
        }
    }
}
