//! The one stepping driver: classic Δ-stepping, ρ-stepping and
//! Δ*-stepping as a single extract → drain → advance loop.
//!
//! Dong, Gu, Sun & Zhang ("Efficient Stepping Algorithms and
//! Implementations for Parallel Shortest Paths", 2021) observe that
//! Meyer–Sanders Δ-stepping is one point in a family: every member keeps
//! a tentative-distance vector and repeatedly (1) **extracts** a frontier
//! of near vertices, (2) **drains** it to a relaxation fixpoint, and
//! (3) advances a certified settled bound. The members differ only in
//! the extraction threshold:
//!
//! * **classic Δ** ([`SteppingStrategy::Classic`]) — the next non-empty
//!   bucket `[b·Δ, (b+1)·Δ)`, taken from the lazy
//!   [`crate::buckets::BucketRing`] (the paper's Fig. 1–3 loop);
//! * **Δ\*** ([`SteppingStrategy::DeltaStar`]) — a *fused* bucket range
//!   `[b·Δ, b·Δ + k·Δ)` covering `k` consecutive buckets per step, which
//!   trades a few extra re-relaxations for far fewer heavy phases;
//! * **ρ** ([`SteppingStrategy::Rho`]) — the ρ nearest tentative
//!   vertices regardless of their spread (a lazy-batched priority
//!   extraction), which approaches Dijkstra's settle-once behavior and
//!   cuts total relaxations where classic Δ = 1 over-relaxes.
//!
//! The driver owns (2) and (3) for all of them: a range is drained by
//! light-phase fixpoints, each followed by a heavy phase over the
//! fixpoint's settled set, and any heavy improvement landing inside the
//! open range refills the frontier for another cycle (possible for Δ*
//! once `k > 1`; never for classic, whose heavy edges leave the bucket).
//! ρ relaxes *all* out-edges of the frontier per round, so it settles
//! nothing and has no separate heavy pass.
//!
//! Only two things depend on the strategy, each where it measured best:
//!
//! * **Extraction.** Classic takes buckets from the ring — one budget
//!   tick per jump over empty buckets, exactly as the paper's
//!   whole-vector scan spent them. ρ/Δ* keep an *active list* of the
//!   candidates (finite, `t ≥ bound`): a vertex joins on improvement and
//!   leaves at the first extraction after the bound passes it, so
//!   thresholds come from that list and only the extracted frontier is
//!   sorted (into vertex order, the order a whole-vector scan would
//!   give). Δ*'s fractional `k` makes its ranges no ring bucket, so it
//!   stays on the list. Each extractor touches only its own state.
//! * **Light relaxation.** Classic chooses push or pull per phase
//!   through the shared density oracle ([`gblas::direction`]); ρ/Δ* push.
//!
//! Relaxation goes through `reqbuf::relax` (the spawn-order
//! request-buffer merge with a pool, the plain scatter without; see
//! [`crate::reqbuf`]) and the pull pass folds the same candidates, so
//! distances *and* [`crate::SsspStats`] are bit-identical across 1/2/4
//! threads and the pool-less path for every strategy.
//!
//! The budget is checked at exactly two stop points — a range start
//! ([`StopPoint::BucketStart`]) and a light-phase boundary
//! ([`StopPoint::LightPhase`]) — and each emits a resumable
//! [`Checkpoint`]: classic runs record their bucket (certified bound
//! `bucket · Δ`), ρ/Δ* runs their bound and open range in a
//! [`SteppingState`]. [`crate::engine::SsspEngine::resume_stepping`]
//! re-enters the driver from either, bit-identically.

use std::time::Instant;

use gblas::direction::{self, Direction};
use graphdata::CsrGraph;
use taskpool::ThreadPool;

use crate::buckets::BucketRing;
use crate::budget::RunBudget;
use crate::checkpoint::{Checkpoint, LiveState, SteppingState, StopPoint};
use crate::delta::bucket_of;
use crate::fused::LightHeavy;
use crate::guard::SsspError;
use crate::reqbuf::{relax, RelaxWorkspace};
use crate::result::SsspResult;
use crate::stats::PhaseProfile;
use crate::INF;

/// Default ρ for a bare `--strategy rho`: large enough to batch real
/// work per extraction, small enough to stay near Dijkstra's settle-once
/// relaxation count on mid-sized graphs.
pub const DEFAULT_RHO: usize = 2048;

/// Default bucket-fusion factor for a bare `--strategy delta-star`:
/// each step drains four consecutive Δ-buckets.
pub const DEFAULT_DELTA_STAR_FACTOR: f64 = 4.0;

/// Frontier-extraction policy of the stepping driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SteppingStrategy {
    /// Extract the next non-empty Δ-bucket from the bucket ring.
    Classic,
    /// Extract the ρ nearest tentative vertices per step (ties at the
    /// ρ-th value are all included, keeping extraction deterministic).
    Rho(usize),
    /// Extract the fused bucket range `[b·Δ, b·Δ + k·Δ)` — `k`
    /// consecutive buckets per step, `k ≥ 1`.
    DeltaStar(f64),
}

impl SteppingStrategy {
    /// Canonical lowercase name, shared by the CLI, serve protocol, and
    /// bench entries.
    pub fn name(&self) -> &'static str {
        match self {
            SteppingStrategy::Classic => "classic",
            SteppingStrategy::Rho(_) => "rho",
            SteppingStrategy::DeltaStar(_) => "delta-star",
        }
    }

    /// Parse `classic`, `rho`, `rho:N`, `delta-star`, or `delta-star:K`
    /// (the same grammar everywhere: `--strategy`, the serve wire option,
    /// bench labels).
    pub fn parse(s: &str) -> Result<SteppingStrategy, String> {
        let (kind, param) = match s.split_once(':') {
            Some((k, p)) => (k, Some(p)),
            None => (s, None),
        };
        let strategy = match (kind, param) {
            ("classic", None) => SteppingStrategy::Classic,
            ("classic", Some(_)) => {
                return Err("classic takes no parameter".to_string());
            }
            ("rho", None) => SteppingStrategy::Rho(DEFAULT_RHO),
            ("rho", Some(p)) => SteppingStrategy::Rho(
                p.parse()
                    .map_err(|_| format!("bad rho parameter '{p}' (want a positive integer)"))?,
            ),
            ("delta-star", None) => SteppingStrategy::DeltaStar(DEFAULT_DELTA_STAR_FACTOR),
            ("delta-star", Some(p)) => SteppingStrategy::DeltaStar(
                p.parse()
                    .map_err(|_| format!("bad delta-star factor '{p}' (want a number ≥ 1)"))?,
            ),
            _ => {
                return Err(format!(
                    "unknown strategy '{s}' (want classic, rho[:N], or delta-star[:K])"
                ))
            }
        };
        strategy.validate().map_err(|e| e.to_string())?;
        Ok(strategy)
    }

    /// Reject degenerate parameters: ρ = 0 extracts nothing forever, and
    /// a fusion factor below 1 can produce empty sub-bucket ranges.
    pub fn validate(&self) -> Result<(), SsspError> {
        match *self {
            SteppingStrategy::Classic => Ok(()),
            SteppingStrategy::Rho(rho) if rho >= 1 => Ok(()),
            SteppingStrategy::Rho(rho) => Err(SsspError::InvalidStrategy {
                reason: format!("rho must be at least 1, got {rho}"),
            }),
            SteppingStrategy::DeltaStar(k) if k.is_finite() && k >= 1.0 => Ok(()),
            SteppingStrategy::DeltaStar(k) => Err(SsspError::InvalidStrategy {
                reason: format!("delta-star factor must be finite and ≥ 1, got {k}"),
            }),
        }
    }
}

impl std::fmt::Display for SteppingStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SteppingStrategy::Classic => write!(f, "classic"),
            SteppingStrategy::Rho(rho) => write!(f, "rho:{rho}"),
            SteppingStrategy::DeltaStar(k) => write!(f, "delta-star:{k}"),
        }
    }
}

impl std::str::FromStr for SteppingStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        SteppingStrategy::parse(s)
    }
}

/// Reusable per-run state of the driver: the one relaxation workspace,
/// the frontier/settled scratch, and each extractor's own state. Callers
/// that run many queries (the engine, bench loops) keep one of these so
/// repeated runs allocate nothing, whatever the strategy, pooled or not.
#[derive(Debug, Default)]
pub(crate) struct SteppingWorkspace {
    relax: RelaxWorkspace,
    frontier: Vec<usize>,
    settled: Vec<usize>,
    /// Frontier bitmap for classic pull epochs — all-`false` between
    /// phases, set and cleared by iterating the (sparse) frontier.
    in_frontier: Vec<bool>,
    /// Classic extraction: the lazy bucket ring.
    ring: BucketRing,
    /// ρ/Δ* extraction: every finite vertex with `t ≥ bound`, plus
    /// vertices that fell below the bound since the last extraction
    /// (pruned by it). A vertex joins on improvement.
    active: Vec<usize>,
    /// Membership bitmap of `active`.
    in_active: Vec<bool>,
    /// ρ selection scratch.
    scratch: Vec<f64>,
}

impl SteppingWorkspace {
    /// Workspace sized for an `n`-vertex graph. A bucket or range can
    /// hold every vertex, so the frontier and settled lists start with
    /// room for all of them.
    pub(crate) fn new(n: usize) -> Self {
        SteppingWorkspace {
            relax: RelaxWorkspace::new(n),
            frontier: Vec::with_capacity(n),
            settled: Vec::with_capacity(n),
            in_frontier: vec![false; n],
            in_active: vec![false; n],
            ..SteppingWorkspace::default()
        }
    }

    /// Grow (never shrink) to fit an `n`-vertex graph.
    fn ensure(&mut self, n: usize) {
        self.relax.ensure(n);
        for bitmap in [&mut self.in_frontier, &mut self.in_active] {
            if bitmap.len() < n {
                bitmap.resize(n, false);
            }
        }
    }
}

/// The input checks of every run: a valid strategy, a positive finite Δ
/// and an in-bounds source. The engine calls them before fetching a
/// split, so a bad Δ never reaches the split cache.
pub(crate) fn check_run(
    n: usize,
    source: usize,
    delta: f64,
    strategy: SteppingStrategy,
) -> Result<(), SsspError> {
    strategy.validate()?;
    if !(delta > 0.0 && delta.is_finite()) {
        return Err(SsspError::InvalidDelta { delta });
    }
    if source >= n {
        return Err(SsspError::SourceOutOfBounds {
            source,
            num_vertices: n,
        });
    }
    Ok(())
}

/// The smallest f64 strictly greater than `x`, for non-negative finite
/// `x` (distances are never negative). Local stand-in for
/// `f64::next_up`, which this crate's minimum toolchain predates.
fn next_up(x: f64) -> f64 {
    if x == 0.0 {
        f64::from_bits(1)
    } else {
        f64::from_bits(x.to_bits() + 1)
    }
}

/// What a checkpoint records of the extraction position: classic runs
/// their bucket, ρ/Δ* runs their certified bound and open range.
fn position(
    strategy: SteppingStrategy,
    delta: f64,
    bucket: usize,
    bound: f64,
    threshold: f64,
) -> (usize, Option<SteppingState>) {
    match strategy {
        SteppingStrategy::Classic => (bucket, None),
        _ => (
            bucket_of(bound, delta),
            Some(SteppingState {
                strategy,
                bound,
                threshold,
            }),
        ),
    }
}

/// The driver over a **prebuilt** light/heavy split and a caller-owned
/// workspace, optionally continuing from a checkpoint instead of
/// starting at the source: extract a range by the strategy's rule, drain
/// it to a fixpoint, advance, repeat.
///
/// `pool` picks the relaxation back end — `None` the sequential scatter
/// and pull pass, `Some(pool)` the per-task request buffers and the
/// pooled pull pass — and `tag` names the implementation in the
/// checkpoints it emits. Both back ends fold the same candidates with an
/// exact min, so a checkpoint cut by either resumes on either. The
/// returned profile contains no `matrix_filter` time (the caller decides
/// whether a cached split costs anything).
#[allow(clippy::too_many_arguments)]
pub(crate) fn stepping_loop(
    pool: Option<&ThreadPool>,
    tag: &'static str,
    g: &CsrGraph,
    lh: &LightHeavy,
    source: usize,
    delta: f64,
    strategy: SteppingStrategy,
    budget: &mut RunBudget,
    ws: &mut SteppingWorkspace,
    resume: Option<&Checkpoint>,
) -> Result<(SsspResult, PhaseProfile), SsspError> {
    let n = g.num_vertices();
    check_run(n, source, delta, strategy)?;
    let classic = strategy == SteppingStrategy::Classic;
    let rho = matches!(strategy, SteppingStrategy::Rho(_));
    let invalid = |reason: &str| SsspError::InvalidCheckpoint {
        reason: reason.to_string(),
    };

    let mut result = SsspResult::init(n, source);
    let mut profile = PhaseProfile::default();

    ws.ensure(n);
    let SteppingWorkspace {
        relax: rws,
        frontier,
        settled,
        in_frontier,
        ring,
        active,
        in_active,
        scratch,
    } = ws;
    frontier.clear();
    settled.clear();
    if !classic {
        for &v in active.iter() {
            in_active[v] = false;
        }
        active.clear();
    }

    // Classic position: the current bucket.
    let mut bucket = 0;
    // ρ/Δ* position: the certified bound (exclusive: every dist < bound
    // is final) and the range `[bound, threshold)` being drained, which
    // is meaningful only between extraction and the bound advance.
    let mut bound = 0.0f64;
    let mut threshold = 0.0f64;
    // Continuing mid-range re-enters the light-phase loop with the saved
    // frontier/settled sets, skipping the boundary work (budget check,
    // extraction, buckets_processed) that already happened before the
    // interruption.
    let mut entering_mid = false;
    match resume {
        Some(cp) => {
            if !cp.resumable {
                return Err(invalid(
                    "checkpoint was emitted by a non-resumable implementation",
                ));
            }
            result.dist.clone_from(&cp.dist);
            result.stats = cp.stats.clone();
            frontier.extend_from_slice(&cp.frontier);
            settled.extend_from_slice(&cp.settled);
            entering_mid = cp.stop_point == StopPoint::LightPhase;
            if classic {
                bucket = cp.bucket;
                ring.resume(&cp.dist, delta, bucket, !entering_mid);
            } else {
                let st = cp
                    .stepping
                    .ok_or_else(|| invalid("checkpoint does not carry generalized-stepping state"))?;
                bound = st.bound;
                threshold = st.threshold;
                let t = &result.dist;
                active.extend((0..n).filter(|&v| t[v].is_finite() && t[v] >= bound));
            }
        }
        None if classic => ring.start(n, delta, source),
        None => active.push(source),
    }
    for &v in active.iter() {
        in_active[v] = true;
    }

    let t = &mut result.dist;

    loop {
        if entering_mid {
            entering_mid = false;
        } else {
            if let Err(stop) = budget.check() {
                let (bucket, stepping) = position(strategy, delta, bucket, bound, bound);
                return Err(LiveState {
                    implementation: tag,
                    source,
                    delta,
                    dist: t,
                    stats: &result.stats,
                    bucket,
                    stop_point: StopPoint::BucketStart,
                    frontier: &[],
                    settled: &[],
                    resumable: true,
                    stepping,
                }
                .stop(stop));
            }
            let t0 = Instant::now();
            if classic {
                // Take the members of the current bucket from the ring,
                // or learn the next non-empty bucket (one tick per jump).
                let next = ring.take(bucket, frontier);
                profile.vector_ops += t0.elapsed();
                match next {
                    None => break, // no vertex at distance >= bucket·Δ: done
                    Some(b) if b != bucket => {
                        bucket = b;
                        continue;
                    }
                    Some(_) => {}
                }
            } else {
                // Prune the active list to the candidates (finite, not
                // yet certified), then pick the strategy's threshold.
                let mut min_cand = INF;
                active.retain(|&v| {
                    let tv = t[v];
                    let keep = tv >= bound;
                    if keep {
                        min_cand = min_cand.min(tv);
                    } else {
                        in_active[v] = false;
                    }
                    keep
                });
                if active.is_empty() {
                    profile.vector_ops += t0.elapsed();
                    break; // nothing tentative at or above the bound: done
                }
                threshold = match strategy {
                    SteppingStrategy::Rho(rho) if active.len() <= rho => {
                        // Extract the whole candidate pool, but close the
                        // range just above its maximum: vertices
                        // *discovered* while draining stay out of this
                        // batch and wait for the next extraction (an ∞
                        // threshold would drag the entire remaining graph
                        // into one chaotic-relaxation range).
                        let max_cand = active.iter().map(|&v| t[v]).fold(min_cand, f64::max);
                        next_up(max_cand)
                    }
                    SteppingStrategy::Rho(rho) => {
                        // The ρ-th smallest tentative value; every
                        // candidate tied with it joins the extraction, so
                        // the threshold is the next *distinct* value.
                        scratch.clear();
                        scratch.extend(active.iter().map(|&v| t[v]));
                        let (_, pivot, _) =
                            scratch.select_nth_unstable_by(rho - 1, |a, b| a.total_cmp(b));
                        let pivot = *pivot;
                        let mut next = INF;
                        for &x in scratch.iter() {
                            if x > pivot && x < next {
                                next = x;
                            }
                        }
                        next
                    }
                    // The fused range starts at the first non-empty
                    // bucket (subsuming classic's empty-bucket skip) and
                    // spans k bucket widths.
                    SteppingStrategy::DeltaStar(k) => {
                        (bucket_of(min_cand, delta) as f64) * delta + k * delta
                    }
                    SteppingStrategy::Classic => unreachable!("classic extracts from the ring"),
                };
                if threshold <= min_cand {
                    // Float-rounding guard: the range must contain its
                    // minimum, or the loop would spin. Fall back to the
                    // next distinct tentative value (∞ when all
                    // candidates tie).
                    let mut next = INF;
                    for &v in active.iter() {
                        let x = t[v];
                        if x > min_cand && x < next {
                            next = x;
                        }
                    }
                    threshold = next;
                }
                // In vertex order, as a whole-vector scan would list them.
                frontier.clear();
                frontier.extend(active.iter().copied().filter(|&v| t[v] < threshold));
                frontier.sort_unstable();
                profile.vector_ops += t0.elapsed();
            }
            result.stats.buckets_processed += 1;
            settled.clear();
        }

        // Drain the range to a fixpoint: light phases until the frontier
        // stays empty, then a heavy phase over everything they settled —
        // again while heavy improvements refill the range.
        while !(frontier.is_empty() && settled.is_empty()) {
            let t0 = Instant::now();
            if !frontier.is_empty() {
                if let Err(stop) = budget.check() {
                    let (bucket, stepping) = position(strategy, delta, bucket, bound, threshold);
                    return Err(LiveState {
                        implementation: tag,
                        source,
                        delta,
                        dist: t,
                        stats: &result.stats,
                        bucket,
                        stop_point: StopPoint::LightPhase,
                        frontier,
                        settled,
                        resumable: true,
                        stepping,
                    }
                    .stop(stop));
                }
                result.stats.light_phases += 1;
                // Fusion 1 (Fig. 3): t_Req = A_L^T (t ∘ t_Bi). Classic
                // pulls the light in-edges against a frontier bitmap when
                // the shared density oracle calls the frontier dense —
                // the request vector is bit-identical either way (see
                // [`crate::pull`]), only the traversal order changes.
                let frontier_edges: usize = if classic {
                    frontier.iter().map(|&v| lh.light_off[v + 1] - lh.light_off[v]).sum()
                } else {
                    0
                };
                if classic && direction::choose(frontier_edges, lh.num_light()) == Direction::Pull
                {
                    let mut lower = INF;
                    for &v in frontier.iter() {
                        in_frontier[v] = true;
                        if t[v] < lower {
                            lower = t[v];
                        }
                    }
                    rws.pull_light(pool, lh.pull_index(), t, in_frontier, lower);
                    for &v in frontier.iter() {
                        in_frontier[v] = false;
                    }
                    // Push counts one relaxation per frontier light edge;
                    // the pull pass covers exactly that edge set.
                    result.stats.relaxations += frontier_edges as u64;
                } else {
                    relax(pool, lh, t, frontier, true, rws, &mut result.stats.relaxations);
                }
                if rho {
                    relax(pool, lh, t, frontier, false, rws, &mut result.stats.relaxations);
                } else {
                    settled.extend_from_slice(frontier);
                }
                frontier.clear();
            } else {
                // ρ never gets here: it settles nothing, so it has no
                // separate heavy pass.
                result.stats.heavy_phases += 1;
                relax(pool, lh, t, settled, false, rws, &mut result.stats.relaxations);
                settled.clear();
            }
            profile.relaxation += t0.elapsed();

            // Fusion 2: t = min(t, t_Req); t_Bi = reintroduced vertices —
            // one pass over the touched set that also keeps the
            // extractor's state current.
            let t0 = Instant::now();
            let improvements = &mut result.stats.improvements;
            if classic {
                // The current bucket joins the frontier, a later one is
                // queued in the ring.
                rws.drain_requests(|u, cand| {
                    ring.merge(t, u, cand, improvements, frontier);
                });
            } else {
                rws.drain_requests(|u, cand| {
                    if cand < t[u] {
                        *improvements += 1;
                        t[u] = cand;
                        if !in_active[u] {
                            in_active[u] = true;
                            active.push(u);
                        }
                        if cand < threshold {
                            frontier.push(u);
                        }
                    }
                });
            }
            profile.vector_ops += t0.elapsed();
        }

        // Everything below the range's end is now at a relaxation
        // fixpoint: the range is certified.
        if classic {
            bucket = bucket
                .checked_add(1)
                .ok_or_else(|| invalid("bucket index overflows past the last bucket"))?;
        } else {
            bound = threshold;
        }
    }

    Ok((result, profile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
    use crate::engine::SsspEngine;
    use graphdata::gen::{grid2d, path};
    use graphdata::{EdgeList, WeightModel};

    fn weighted_grid() -> CsrGraph {
        let mut el = grid2d(9, 7);
        graphdata::weights::assign_symmetric(
            &mut el,
            WeightModel::UniformFloat { lo: 0.05, hi: 2.0 },
            31,
        );
        CsrGraph::from_edge_list(&el).unwrap()
    }

    /// An unlimited sequential run from vertex 0 through the engine.
    fn run(g: &CsrGraph, delta: f64, strategy: SteppingStrategy) -> SsspResult {
        SsspEngine::new(g)
            .run_stepping(None, 0, delta, strategy, &mut RunBudget::unlimited())
            .expect("inputs must be valid and the budget is unlimited")
            .0
    }

    #[test]
    fn parse_grammar_round_trips() {
        assert_eq!(SteppingStrategy::parse("classic"), Ok(SteppingStrategy::Classic));
        assert_eq!(
            SteppingStrategy::parse("rho"),
            Ok(SteppingStrategy::Rho(DEFAULT_RHO))
        );
        assert_eq!(SteppingStrategy::parse("rho:17"), Ok(SteppingStrategy::Rho(17)));
        assert_eq!(
            SteppingStrategy::parse("delta-star"),
            Ok(SteppingStrategy::DeltaStar(DEFAULT_DELTA_STAR_FACTOR))
        );
        assert_eq!(
            SteppingStrategy::parse("delta-star:2.5"),
            Ok(SteppingStrategy::DeltaStar(2.5))
        );
        for bad in ["", "rho:0", "rho:x", "delta-star:0.5", "classic:1", "dijkstra"] {
            assert!(SteppingStrategy::parse(bad).is_err(), "{bad:?}");
        }
        for s in [
            SteppingStrategy::Classic,
            SteppingStrategy::Rho(9),
            SteppingStrategy::DeltaStar(3.0),
        ] {
            assert_eq!(SteppingStrategy::parse(&s.to_string()), Ok(s));
        }
    }

    #[test]
    fn validate_rejects_degenerate_parameters() {
        assert!(SteppingStrategy::Rho(0).validate().is_err());
        for k in [0.0, 0.99, -2.0, f64::NAN, f64::INFINITY] {
            assert!(SteppingStrategy::DeltaStar(k).validate().is_err(), "{k}");
        }
        assert!(SteppingStrategy::Classic.validate().is_ok());
        assert!(SteppingStrategy::Rho(1).validate().is_ok());
        assert!(SteppingStrategy::DeltaStar(1.0).validate().is_ok());
    }

    #[test]
    fn every_strategy_matches_dijkstra_on_weighted_graphs() {
        let g = weighted_grid();
        let dj = dijkstra(&g, 0);
        for strategy in [
            SteppingStrategy::Classic,
            SteppingStrategy::Rho(1),
            SteppingStrategy::Rho(7),
            SteppingStrategy::Rho(100_000),
            SteppingStrategy::DeltaStar(1.0),
            SteppingStrategy::DeltaStar(2.5),
            SteppingStrategy::DeltaStar(16.0),
        ] {
            assert_eq!(run(&g, 0.5, strategy).dist, dj.dist, "{strategy}");
        }
    }

    #[test]
    fn rho_reduces_relaxations_versus_small_delta() {
        // Weighted graph, classic Δ = 1: light edges inside a bucket are
        // re-relaxed across light phases. Small-batch ρ-stepping extracts
        // near-minimum vertices that rarely improve again, approaching
        // Dijkstra's settle-once relaxation count.
        let g = weighted_grid();
        let classic = run(&g, 1.0, SteppingStrategy::Classic);
        let rho = run(&g, 1.0, SteppingStrategy::Rho(1));
        assert_eq!(rho.dist, classic.dist);
        assert!(
            rho.stats.relaxations < classic.stats.relaxations,
            "rho {} vs classic {}",
            rho.stats.relaxations,
            classic.stats.relaxations
        );
        assert_eq!(rho.stats.heavy_phases, 0);
    }

    #[test]
    fn delta_star_fuses_buckets() {
        let g = weighted_grid();
        let classic = run(&g, 0.25, SteppingStrategy::Classic);
        let fusedk = run(&g, 0.25, SteppingStrategy::DeltaStar(8.0));
        assert_eq!(fusedk.dist, classic.dist);
        assert!(
            fusedk.stats.buckets_processed < classic.stats.buckets_processed,
            "delta-star {} ranges vs classic {} buckets",
            fusedk.stats.buckets_processed,
            classic.stats.buckets_processed
        );
    }

    #[test]
    fn pooled_and_sequential_paths_are_bit_identical() {
        let g = weighted_grid();
        for strategy in [
            SteppingStrategy::Classic,
            SteppingStrategy::Rho(5),
            SteppingStrategy::DeltaStar(3.0),
        ] {
            let seq = run(&g, 0.5, strategy);
            for threads in [1, 2, 4] {
                let pool = ThreadPool::with_threads(threads).unwrap();
                // Force the parallel producer/merge path even on this
                // small graph.
                crate::reqbuf::set_relax_threshold_override(Some(1));
                let out = SsspEngine::new(&g).run_stepping(
                    Some(&pool),
                    0,
                    0.5,
                    strategy,
                    &mut RunBudget::unlimited(),
                );
                crate::reqbuf::set_relax_threshold_override(None);
                let (par, _) = out.unwrap();
                assert_eq!(
                    seq.dist.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                    par.dist.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                    "{strategy} at {threads} threads"
                );
                assert_eq!(seq.stats, par.stats, "{strategy} at {threads} threads");
            }
        }
    }

    #[test]
    fn resume_is_bit_identical_at_every_cancellation_epoch() {
        let g = weighted_grid();
        let mut engine = SsspEngine::new(&g);
        for strategy in [SteppingStrategy::Rho(4), SteppingStrategy::DeltaStar(2.0)] {
            let mut b = RunBudget::unlimited();
            let (full, _) = engine.run_stepping(None, 0, 0.5, strategy, &mut b).unwrap();
            let total_epochs = b.ticks();
            assert!(total_epochs > 2, "{strategy}: want multiple epochs");
            for k in 0..total_epochs {
                let err = engine
                    .run_stepping(None, 0, 0.5, strategy, &mut RunBudget::unlimited().cancel_after(k))
                    .unwrap_err();
                let cp = err.into_checkpoint().expect("cancellation carries a checkpoint");
                assert_eq!(cp.implementation, "stepping");
                cp.validate(g.num_vertices()).unwrap();
                // Certified distances match the full run exactly.
                for (v, d) in cp.settled_distances() {
                    assert_eq!(d.to_bits(), full.dist[v].to_bits(), "{strategy} epoch {k}");
                }
                let (resumed, _) = engine
                    .resume_stepping(None, &cp, &mut RunBudget::unlimited())
                    .unwrap();
                assert_eq!(
                    resumed.dist.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                    full.dist.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                    "{strategy} cancelled at epoch {k}"
                );
                assert_eq!(resumed.stats, full.stats, "{strategy} epoch {k}");
            }
        }
    }

    /// A weighted grid whose heavy edges leave empty buckets between the
    /// occupied ones at Δ = 0.5, so runs jump bucket gaps (the same graph
    /// `tests/determinism.rs` pins budget ticks on).
    fn bucket_skip_grid() -> CsrGraph {
        let mut el = grid2d(12, 12);
        graphdata::weights::assign_symmetric(
            &mut el,
            WeightModel::UniformFloat { lo: 0.05, hi: 4.0 },
            7,
        );
        CsrGraph::from_edge_list(&el).unwrap()
    }

    /// Classic extraction work scales with the frontier, not with
    /// |V| × buckets: every ring entry comes from an improvement (or the
    /// source) and is visited once.
    #[test]
    fn extraction_visits_at_most_one_entry_per_improvement() {
        for (g, delta) in [
            (CsrGraph::from_edge_list(&path(100_000)).unwrap(), 1.0),
            (bucket_skip_grid(), 0.5),
        ] {
            let lh = LightHeavy::build(&g, delta);
            let mut ws = SteppingWorkspace::new(g.num_vertices());
            let (r, _) = stepping_loop(
                None,
                "fused",
                &g,
                &lh,
                0,
                delta,
                SteppingStrategy::Classic,
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
            // Classic extraction never touches the ρ/Δ* active list.
            assert!(ws.active.is_empty() && !ws.in_active.contains(&true));
        }
    }

    /// A crafted checkpoint at the last representable bucket must fail
    /// cleanly even when handed to the driver without validation: the
    /// bucket advance is checked, not wrapping.
    #[test]
    fn bucket_advance_past_the_last_bucket_is_an_invalid_checkpoint() {
        let g = CsrGraph::from_edge_list(&grid2d(6, 6)).unwrap();
        let lh = LightHeavy::build(&g, 1.0);
        let mut ws = SteppingWorkspace::new(g.num_vertices());
        let mut cp = SsspEngine::new(&g)
            .run_fused(0, 1.0, &mut RunBudget::unlimited().cancel_after(3))
            .unwrap_err()
            .into_checkpoint()
            .unwrap();
        cp.bucket = usize::MAX;
        cp.stop_point = StopPoint::LightPhase;
        cp.frontier = vec![0];
        cp.settled = Vec::new();
        let out = stepping_loop(
            None,
            "fused",
            &g,
            &lh,
            cp.source,
            cp.delta,
            SteppingStrategy::Classic,
            &mut RunBudget::unlimited(),
            &mut ws,
            Some(&cp),
        );
        assert!(matches!(out, Err(SsspError::InvalidCheckpoint { .. })), "{out:?}");
    }

    #[test]
    fn handles_unreachable_and_zero_weight_edges() {
        let mut el = EdgeList::from_triples(vec![(0, 1, 0.0), (1, 2, 1.0), (2, 3, 5.0)]);
        el.ensure_vertices(5); // vertex 4 unreachable
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let dj = dijkstra(&g, 0);
        for strategy in [
            SteppingStrategy::Classic,
            SteppingStrategy::Rho(2),
            SteppingStrategy::DeltaStar(2.0),
        ] {
            assert_eq!(run(&g, 1.0, strategy).dist, dj.dist, "{strategy}");
        }
    }

    #[test]
    fn watchdog_still_guards_malformed_input() {
        // Negative-weight cycle: the frontier refills forever without the
        // budget guard.
        let cyc = CsrGraph::from_raw_parts_unchecked(
            2,
            vec![0, 1, 2],
            vec![1, 0],
            vec![0.5, -1.0],
        );
        assert!(matches!(
            SsspEngine::new(&cyc).run_stepping(
                None,
                0,
                1.0,
                SteppingStrategy::Rho(4),
                &mut RunBudget::with_limit(1000),
            ),
            Err(SsspError::IterationLimitExceeded { .. })
        ));
    }
}
