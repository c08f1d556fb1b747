//! The **fused direct implementation** (Sec. VI-B) — the counterpart of the
//! paper's hand-written C code that beat the unfused SuiteSparse version by
//! ~3.7× on average (Fig. 3).
//!
//! The two fusions the paper describes are both here:
//!
//! 1. *Hadamard ∘ vxm fusion*: `t_Req = A_L^T (t ∘ t_Bi)` runs as one
//!    scatter loop over the current frontier — the bucket filter, the
//!    element-wise product, and the `(min,+)` product never materialize
//!    intermediates.
//! 2. *Fused vector updates*: the three dependent vector operations that
//!    compute `t_Bi`, `S`, and `t` happen in a single pass over the touched
//!    vertices. The same pass keeps the lazy bucket ring
//!    ([`crate::buckets::BucketRing`]) current, so finding the next
//!    bucket costs O(frontier) instead of the C code's pass over `t`.
//!
//! Unlike the GraphBLAS version, state lives in dense arrays (`Vec<f64>`,
//! `Vec<bool>`) exactly like the paper's direct C implementation.
//!
//! The loop itself, `classic_loop`, is the one classic Δ-stepping loop
//! of the crate: the paper's task-parallel scheme ([`crate::parallel`])
//! and its proposed improvement ([`crate::parallel_improved`]) differ
//! from the fused code only in how they build the split and which
//! relaxation back end they hand the loop, so they are thin wrappers
//! around it. Budget checks, checkpoint emission at both stop points,
//! and mid-bucket resume live only here; resuming goes through
//! [`crate::engine::SsspEngine::resume_stepping`].

use std::sync::OnceLock;
use std::time::Instant;

use gblas::direction::{self, Direction};
use graphdata::CsrGraph;
use taskpool::ThreadPool;

use crate::buckets::BucketRing;
use crate::budget::RunBudget;
use crate::checkpoint::{Checkpoint, LiveState, StopPoint};
use crate::guard::SsspError;
use crate::pull::PullIndex;
use crate::reqbuf::{self, RelaxWorkspace};
use crate::result::SsspResult;
use crate::stats::PhaseProfile;
use crate::INF;

/// The light/heavy split in CSR form — built in a single fused pass over
/// the adjacency (vs. the four `GrB_apply` calls of Fig. 2).
#[derive(Debug, Clone)]
pub struct LightHeavy {
    /// Light-edge CSR offsets (`w ≤ Δ`), length `|V| + 1`.
    pub light_off: Vec<usize>,
    /// Light-edge targets.
    pub light_tgt: Vec<usize>,
    /// Light-edge weights.
    pub light_w: Vec<f64>,
    /// Heavy-edge CSR offsets (`w > Δ`), length `|V| + 1`.
    pub heavy_off: Vec<usize>,
    /// Heavy-edge targets.
    pub heavy_tgt: Vec<usize>,
    /// Heavy-edge weights.
    pub heavy_w: Vec<f64>,
    /// Lazily built pull (CSC) index over the light edges, shared by
    /// every frontier consumer of this split via [`Self::pull_index`].
    pub(crate) pull: OnceLock<PullIndex>,
}

impl PartialEq for LightHeavy {
    /// Split equality is CSR equality — the pull index is a cache
    /// derived from the CSR fields and never participates.
    fn eq(&self, other: &Self) -> bool {
        self.light_off == other.light_off
            && self.light_tgt == other.light_tgt
            && self.light_w == other.light_w
            && self.heavy_off == other.heavy_off
            && self.heavy_tgt == other.heavy_tgt
            && self.heavy_w == other.heavy_w
    }
}

impl LightHeavy {
    /// Split `g`'s adjacency at threshold `delta` in one pass (after a
    /// count over the weights, so every array is allocated once at its
    /// final size).
    pub fn build(g: &CsrGraph, delta: f64) -> Self {
        let n = g.num_vertices();
        let num_light = g.weights().iter().filter(|&&w| w <= delta).count();
        let num_heavy = g.weights().len() - num_light;
        let mut lh = LightHeavy {
            light_off: Vec::with_capacity(n + 1),
            light_tgt: Vec::with_capacity(num_light),
            light_w: Vec::with_capacity(num_light),
            heavy_off: Vec::with_capacity(n + 1),
            heavy_tgt: Vec::with_capacity(num_heavy),
            heavy_w: Vec::with_capacity(num_heavy),
            pull: OnceLock::new(),
        };
        lh.light_off.push(0);
        lh.heavy_off.push(0);
        for v in 0..n {
            let (targets, weights) = g.neighbors(v);
            for (&t, &w) in targets.iter().zip(weights.iter()) {
                if w <= delta {
                    lh.light_tgt.push(t);
                    lh.light_w.push(w);
                } else {
                    lh.heavy_tgt.push(t);
                    lh.heavy_w.push(w);
                }
            }
            lh.light_off.push(lh.light_tgt.len());
            lh.heavy_off.push(lh.heavy_tgt.len());
        }
        lh
    }

    /// Heap bytes this split holds resident — what a byte-budgeted
    /// [`crate::split_cache::SplitCache`] charges for the entry. Never
    /// zero for a built split: `light_off`/`heavy_off` always hold
    /// `|V| + 1 ≥ 1` entries each. The lazily built pull index is *not*
    /// included — the cache charges entries at build time, so it is
    /// reported separately via [`Self::pull_bytes`].
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.light_off.len() + self.heavy_off.len() + self.light_tgt.len() + self.heavy_tgt.len())
            * size_of::<usize>()
            + (self.light_w.len() + self.heavy_w.len()) * size_of::<f64>()
    }

    /// Light out-edges of `v`.
    #[inline]
    pub fn light(&self, v: usize) -> (&[usize], &[f64]) {
        let lo = self.light_off[v];
        let hi = self.light_off[v + 1];
        (&self.light_tgt[lo..hi], &self.light_w[lo..hi])
    }

    /// Heavy out-edges of `v`.
    #[inline]
    pub fn heavy(&self, v: usize) -> (&[usize], &[f64]) {
        let lo = self.heavy_off[v];
        let hi = self.heavy_off[v + 1];
        (&self.heavy_tgt[lo..hi], &self.heavy_w[lo..hi])
    }

    /// Total light edges.
    pub fn num_light(&self) -> usize {
        self.light_tgt.len()
    }

    /// Total heavy edges.
    pub fn num_heavy(&self) -> usize {
        self.heavy_tgt.len()
    }

    /// The pull (CSC) index over the light edges, built on the first
    /// dense epoch and cached for the lifetime of the split — repeated
    /// runs and the split cache amortize it like the split itself.
    pub fn pull_index(&self) -> &PullIndex {
        self.pull.get_or_init(|| PullIndex::build(self))
    }

    /// Heap bytes held by the pull index (0 until a dense epoch builds
    /// it). Reported by split-cache stats alongside [`Self::resident_bytes`].
    pub fn pull_bytes(&self) -> usize {
        self.pull.get().map_or(0, PullIndex::resident_bytes)
    }
}

/// Reusable per-run state of the classic loop: the relaxation workspace
/// (dense request accumulator plus per-task buffers), the bucket ring,
/// and the frontier/settled scratch. Callers that run many queries (the
/// engine, bench loops) keep one of these so repeated runs allocate
/// nothing, pooled or not.
#[derive(Debug, Default)]
pub struct ClassicWorkspace {
    relax: RelaxWorkspace,
    frontier: Vec<usize>,
    settled: Vec<usize>,
    /// Frontier bitmap for dense (pull) epochs — all-`false` between
    /// phases, set and cleared by iterating the (sparse) frontier.
    in_frontier: Vec<bool>,
    ring: BucketRing,
}

impl ClassicWorkspace {
    /// Workspace sized for an `n`-vertex graph.
    pub fn new(n: usize) -> Self {
        ClassicWorkspace {
            relax: RelaxWorkspace::new(n),
            in_frontier: vec![false; n],
            ..ClassicWorkspace::default()
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

/// Fused delta-stepping. Equivalent to [`crate::gblas_impl::sssp_delta_step`]
/// but with dense state and fused loops.
pub fn delta_stepping_fused(g: &CsrGraph, source: usize, delta: f64) -> SsspResult {
    delta_stepping_fused_profiled(g, source, delta).0
}

/// Fused delta-stepping, also returning the per-phase time profile used by
/// the ABL-OPS experiment.
pub fn delta_stepping_fused_profiled(
    g: &CsrGraph,
    source: usize,
    delta: f64,
) -> (SsspResult, PhaseProfile) {
    assert!(delta > 0.0 && delta.is_finite(), "delta must be positive and finite");
    delta_stepping_fused_checked(g, source, delta, &mut RunBudget::unlimited())
        .expect("inputs asserted valid and the budget is unlimited")
}

/// [`delta_stepping_fused`] under a [`RunBudget`]: returns [`SsspError`]
/// instead of panicking on a bad Δ or source, trips the epoch budget
/// instead of looping forever on malformed weight data, and observes
/// cancellation/deadlines at every epoch boundary — emitting a
/// resumable [`Checkpoint`] inside the error when stopped.
pub fn delta_stepping_fused_checked(
    g: &CsrGraph,
    source: usize,
    delta: f64,
    budget: &mut RunBudget,
) -> Result<(SsspResult, PhaseProfile), SsspError> {
    // Matrix filtering phase: A_L / A_H in one fused pass.
    run_split(None, "fused", g, source, delta, budget, || LightHeavy::build(g, delta))
}

/// Build a split with `split` — timed as the profile's `matrix_filter` —
/// and run [`classic_loop`] over it with a fresh workspace: the body of
/// every one-shot `*_checked` classic entry point.
pub(crate) fn run_split(
    pool: Option<&ThreadPool>,
    tag: &'static str,
    g: &CsrGraph,
    source: usize,
    delta: f64,
    budget: &mut RunBudget,
    split: impl FnOnce() -> LightHeavy,
) -> Result<(SsspResult, PhaseProfile), SsspError> {
    let t0 = Instant::now();
    let lh = split();
    let filter_time = t0.elapsed();
    let mut ws = ClassicWorkspace::new(g.num_vertices());
    let (result, mut profile) =
        classic_loop(pool, tag, g, &lh, source, delta, budget, &mut ws, None)?;
    profile.matrix_filter += filter_time;
    Ok((result, profile))
}

/// The classic Δ-stepping loop over a **prebuilt** light/heavy split and
/// a caller-owned workspace, optionally continuing from a checkpoint
/// instead of starting at the source's bucket. Every bucket
/// implementation is this loop: `pool` picks the relaxation back end and
/// `tag` names the implementation in the checkpoints it emits.
///
/// * `None` relaxes with the sequential scatter
///   ([`crate::reqbuf::relax_sequential`]) and, on dense epochs, the
///   sequential pull pass — the paper's fused code (Fig. 3) and, behind
///   its two-task split, the task-parallel scheme (Fig. 4).
/// * `Some(pool)` relaxes through the per-task request buffers
///   ([`crate::reqbuf::relax_buffered`]) and the pooled pull pass — the
///   improvement the paper proposes in Sec. VI-C.
///
/// Both back ends fold the same candidates with an exact min, so
/// distances and [`crate::SsspStats`] are bit-identical across them and
/// across thread counts, and a checkpoint cut by either resumes on
/// either. The returned profile contains no `matrix_filter` time (the
/// caller decides whether a cached split costs anything).
#[allow(clippy::too_many_arguments)]
pub(crate) fn classic_loop(
    pool: Option<&ThreadPool>,
    tag: &'static str,
    g: &CsrGraph,
    lh: &LightHeavy,
    source: usize,
    delta: f64,
    budget: &mut RunBudget,
    ws: &mut ClassicWorkspace,
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
    let ClassicWorkspace {
        relax,
        frontier,
        settled,
        in_frontier,
        ring,
    } = ws;
    frontier.clear();
    settled.clear();

    let mut i = 0; // the source's bucket
    // Continuing mid-bucket re-enters the light-phase loop with the saved
    // frontier/settled sets, skipping the outer boundary work (budget
    // check, bucket take, buckets_processed) that already happened before
    // the interruption.
    let mut entering_mid = false;
    match resume {
        Some(cp) => {
            if !cp.resumable {
                return Err(SsspError::InvalidCheckpoint {
                    reason: "checkpoint was emitted by a non-resumable implementation".to_string(),
                });
            }
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

    let t = &mut result.dist;

    loop {
        if entering_mid {
            entering_mid = false;
        } else {
            if let Err(stop) = budget.check() {
                return Err(LiveState {
                    implementation: tag,
                    source,
                    delta,
                    dist: t,
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
            // Vector phase: take the members of bucket i from the ring, or
            // learn the next non-empty bucket if i is empty.
            let t0 = Instant::now();
            let next = ring.take(i, frontier);
            profile.vector_ops += t0.elapsed();
            match next {
                None => break, // no vertex at distance >= i*delta: done
                Some(b) if b != i => {
                    i = b;
                    continue;
                }
                Some(_) => {}
            }

            result.stats.buckets_processed += 1;
            settled.clear();
        }

        // Light-edge phases until the bucket stops refilling.
        while !frontier.is_empty() {
            if let Err(stop) = budget.check() {
                return Err(LiveState {
                    implementation: tag,
                    source,
                    delta,
                    dist: t,
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
            // Fusion 1: t_Req = A_L^T (t ∘ t_Bi). Sparse frontiers scatter
            // their light edges; dense ones (per the shared density
            // oracle) pull the light in-edges against a frontier bitmap
            // instead — the request vector is bit-identical either way
            // (see [`crate::pull`]), only the traversal order changes.
            let t0 = Instant::now();
            let frontier_edges: usize = frontier
                .iter()
                .map(|&v| lh.light_off[v + 1] - lh.light_off[v])
                .sum();
            if direction::choose(frontier_edges, lh.num_light()) == Direction::Pull {
                let mut lower = INF;
                for &v in frontier.iter() {
                    in_frontier[v] = true;
                    if t[v] < lower {
                        lower = t[v];
                    }
                }
                relax.pull_light(pool, lh.pull_index(), t, in_frontier, lower);
                for &v in frontier.iter() {
                    in_frontier[v] = false;
                }
                // Push counts one relaxation per frontier light edge;
                // the pull pass covers exactly that edge set.
                result.stats.relaxations += frontier_edges as u64;
            } else {
                reqbuf::relax(
                    pool,
                    lh,
                    t,
                    frontier,
                    true,
                    relax,
                    &mut result.stats.relaxations,
                );
            }
            profile.relaxation += t0.elapsed();

            // Fusion 2: S ∪= frontier; t = min(t, t_Req); t_Bi =
            // reintroduced vertices — one pass over the touched set.
            let t0 = Instant::now();
            settled.extend_from_slice(frontier);
            frontier.clear();
            let improvements = &mut result.stats.improvements;
            relax.drain_requests(|u, cand| {
                ring.merge(t, u, cand, improvements, frontier);
            });
            profile.vector_ops += t0.elapsed();
        }

        // Heavy phase over everything settled from bucket i.
        result.stats.heavy_phases += 1;
        let t0 = Instant::now();
        reqbuf::relax(
            pool,
            lh,
            t,
            settled,
            false,
            relax,
            &mut result.stats.relaxations,
        );
        profile.relaxation += t0.elapsed();

        let t0 = Instant::now();
        let improvements = &mut result.stats.improvements;
        relax.drain_requests(|u, cand| {
            ring.merge(t, u, cand, improvements, frontier);
        });
        profile.vector_ops += t0.elapsed();

        i += 1;
    }
    Ok((result, profile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonical::delta_stepping_canonical;
    use crate::dijkstra::dijkstra;
    use crate::engine::SsspEngine;
    use graphdata::gen::{grid2d, path};
    use graphdata::EdgeList;

    #[test]
    fn light_heavy_split_counts() {
        let el = EdgeList::from_triples(vec![(0, 1, 0.5), (0, 2, 2.0), (1, 2, 1.0)]);
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let lh = LightHeavy::build(&g, 1.0);
        assert_eq!(lh.num_light(), 2);
        assert_eq!(lh.num_heavy(), 1);
        let (lt, lw) = lh.light(0);
        assert_eq!(lt, &[1]);
        assert_eq!(lw, &[0.5]);
        let (ht, _) = lh.heavy(0);
        assert_eq!(ht, &[2]);
    }

    #[test]
    fn path_graph() {
        let g = CsrGraph::from_edge_list(&path(6)).unwrap();
        let r = delta_stepping_fused(&g, 0, 1.0);
        assert_eq!(r.dist, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn matches_dijkstra_and_canonical() {
        let g = CsrGraph::from_edge_list(&grid2d(6, 6)).unwrap();
        let dj = dijkstra(&g, 0);
        for delta in [0.5, 1.0, 4.0] {
            let fu = delta_stepping_fused(&g, 0, delta);
            let ca = delta_stepping_canonical(&g, 0, delta);
            assert_eq!(fu.dist, dj.dist, "delta = {delta}");
            assert_eq!(fu.dist, ca.dist, "delta = {delta}");
        }
    }

    #[test]
    fn heavy_edges_and_bucket_skips() {
        // Distances: 0, then a long heavy jump to bucket 10.
        let el = EdgeList::from_triples(vec![(0, 1, 10.5), (1, 2, 0.5)]);
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let r = delta_stepping_fused(&g, 0, 1.0);
        assert_eq!(r.dist, vec![0.0, 10.5, 11.0]);
        // Buckets 0, 10, 11 processed; the empty ones in between skipped.
        assert_eq!(r.stats.buckets_processed, 3);
    }

    #[test]
    fn zero_weight_edges_supported() {
        // The fused version has no value-mask caveat: zero weights work.
        let el = EdgeList::from_triples(vec![(0, 1, 0.0), (1, 2, 1.0)]);
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let r = delta_stepping_fused(&g, 0, 1.0);
        assert_eq!(r.dist, vec![0.0, 0.0, 1.0]);
    }

    #[test]
    fn profile_accounts_time() {
        let g = CsrGraph::from_edge_list(&grid2d(40, 40)).unwrap();
        let (r, profile) = delta_stepping_fused_profiled(&g, 0, 1.0);
        assert_eq!(r.dist[40 * 40 - 1], 78.0);
        assert!(profile.total().as_nanos() > 0);
    }

    #[test]
    fn checked_rejects_bad_inputs_and_trips_watchdog() {
        let g = CsrGraph::from_edge_list(&path(8)).unwrap();
        assert!(matches!(
            delta_stepping_fused_checked(&g, 0, f64::NAN, &mut RunBudget::unlimited()),
            Err(SsspError::InvalidDelta { .. })
        ));
        assert!(matches!(
            delta_stepping_fused_checked(&g, 100, 1.0, &mut RunBudget::unlimited()),
            Err(SsspError::SourceOutOfBounds { .. })
        ));
        let mut tight = RunBudget::with_limit(2);
        assert!(matches!(
            delta_stepping_fused_checked(&g, 0, 1.0, &mut tight),
            Err(SsspError::IterationLimitExceeded { .. })
        ));
        // Negative-weight cycle: bucket 0 refills forever without a guard.
        let cyc = CsrGraph::from_raw_parts_unchecked(
            2,
            vec![0, 1, 2],
            vec![1, 0],
            vec![0.5, -1.0],
        );
        let mut budget = RunBudget::with_limit(1000);
        assert!(matches!(
            delta_stepping_fused_checked(&cyc, 0, 1.0, &mut budget),
            Err(SsspError::IterationLimitExceeded { .. })
        ));
    }

    #[test]
    fn checked_matches_unchecked_on_valid_input() {
        let g = CsrGraph::from_edge_list(&grid2d(6, 6)).unwrap();
        let plain = delta_stepping_fused(&g, 0, 1.0);
        let mut budget = RunBudget::for_run(&g, 1.0, &crate::guard::GuardConfig::default());
        let (checked, _) = delta_stepping_fused_checked(&g, 0, 1.0, &mut budget).unwrap();
        assert_eq!(plain.dist, checked.dist);
    }

    #[test]
    fn watchdog_trip_carries_a_checkpoint_with_partial_progress() {
        let g = CsrGraph::from_edge_list(&path(16)).unwrap();
        let err = delta_stepping_fused_checked(&g, 0, 1.0, &mut RunBudget::with_limit(6))
            .unwrap_err();
        let cp = err.checkpoint().expect("checked fused runs checkpoint on trip");
        assert!(cp.resumable);
        // Everything certified settled must match the full run exactly.
        let full = delta_stepping_fused(&g, 0, 1.0);
        for (v, d) in cp.settled_distances() {
            assert_eq!(d.to_bits(), full.dist[v].to_bits(), "vertex {v}");
        }
    }

    #[test]
    fn resume_is_bit_identical_at_every_cancellation_epoch() {
        let g = CsrGraph::from_edge_list(&grid2d(7, 5)).unwrap();
        let delta = 1.0;
        let full = {
            let mut b = RunBudget::unlimited();
            delta_stepping_fused_checked(&g, 0, delta, &mut b).unwrap().0
        };
        // Count the epochs of the uninterrupted run, then cancel at each one.
        let total_epochs = {
            let mut b = RunBudget::unlimited();
            delta_stepping_fused_checked(&g, 0, delta, &mut b).unwrap();
            b.ticks()
        };
        for k in 0..total_epochs {
            let err = delta_stepping_fused_checked(
                &g,
                0,
                delta,
                &mut RunBudget::unlimited().cancel_after(k),
            )
            .unwrap_err();
            let cp = err.into_checkpoint().expect("cancellation carries a checkpoint");
            let (resumed, _) = SsspEngine::new(&g)
                .resume_stepping(None, &cp, &mut RunBudget::unlimited())
                .unwrap();
            assert_eq!(
                resumed.dist.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                full.dist.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                "cancelled at epoch {k}"
            );
            assert_eq!(resumed.stats, full.stats, "cancelled at epoch {k}");
        }
    }

    /// A weighted grid whose heavy edges leave empty buckets between the
    /// occupied ones at Δ = 0.5, so runs jump bucket gaps (the same graph
    /// `tests/determinism.rs` pins budget ticks on).
    fn bucket_skip_grid() -> CsrGraph {
        let mut el = grid2d(12, 12);
        graphdata::weights::assign_symmetric(
            &mut el,
            graphdata::WeightModel::UniformFloat { lo: 0.05, hi: 4.0 },
            7,
        );
        CsrGraph::from_edge_list(&el).unwrap()
    }

    /// Extraction work scales with the frontier, not with |V| × buckets:
    /// every ring entry comes from an improvement (or the source) and is
    /// visited once.
    #[test]
    fn extraction_visits_at_most_one_entry_per_improvement() {
        for (g, delta) in [
            (CsrGraph::from_edge_list(&path(100_000)).unwrap(), 1.0),
            (bucket_skip_grid(), 0.5),
        ] {
            let lh = LightHeavy::build(&g, delta);
            let mut ws = ClassicWorkspace::new(g.num_vertices());
            let (r, _) = classic_loop(
                None,
                "fused",
                &g,
                &lh,
                0,
                delta,
                &mut RunBudget::unlimited(),
                &mut ws,
                None,
            )
            .unwrap();
            assert_eq!(r.dist, dijkstra(&g, 0).dist);
            assert!(
                ws.ring.visited() <= r.stats.improvements + 1,
                "{} entries visited for {} improvements",
                ws.ring.visited(),
                r.stats.improvements
            );
        }
    }

    #[test]
    fn resume_rejects_corrupt_and_foreign_checkpoints() {
        let g = CsrGraph::from_edge_list(&path(8)).unwrap();
        let err = delta_stepping_fused_checked(&g, 0, 1.0, &mut RunBudget::with_limit(2))
            .unwrap_err();
        let cp = err.into_checkpoint().unwrap();
        let mut foreign = cp.clone();
        foreign.resumable = false;
        assert!(matches!(
            SsspEngine::new(&g).resume_stepping(None, &foreign, &mut RunBudget::unlimited()),
            Err(SsspError::InvalidCheckpoint { .. })
        ));
        let other = CsrGraph::from_edge_list(&path(4)).unwrap();
        assert!(matches!(
            SsspEngine::new(&other).resume_stepping(None, &cp, &mut RunBudget::unlimited()),
            Err(SsspError::InvalidCheckpoint { .. })
        ));
    }

    #[test]
    fn different_sources_agree_with_dijkstra() {
        let g = CsrGraph::from_edge_list(&grid2d(5, 7)).unwrap();
        for src in [0, 17, 34] {
            let fu = delta_stepping_fused(&g, src, 1.0);
            let dj = dijkstra(&g, src);
            assert_eq!(fu.dist, dj.dist, "source {src}");
        }
    }
}
