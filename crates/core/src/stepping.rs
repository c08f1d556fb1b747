//! The generalized stepping framework: classic Δ-stepping, ρ-stepping,
//! and Δ*-stepping behind one frontier-extraction abstraction.
//!
//! Dong, Gu, Sun & Zhang ("Efficient Stepping Algorithms and
//! Implementations for Parallel Shortest Paths", 2021) observe that
//! Meyer–Sanders Δ-stepping is one point in a family: every member keeps
//! a tentative-distance vector and repeatedly (1) **extracts** a frontier
//! of near vertices, (2) **drains** it to a relaxation fixpoint, and
//! (3) advances a certified settled bound. The members differ only in
//! the extraction threshold:
//!
//! * **classic Δ** — the next non-empty bucket `[b·Δ, (b+1)·Δ)`
//!   (the bucket-ring loop in [`crate::fused`];
//!   [`SteppingStrategy::Classic`] dispatches to it);
//! * **Δ\*** ([`SteppingStrategy::DeltaStar`]) — a *fused* bucket range
//!   `[b·Δ, b·Δ + k·Δ)` covering `k` consecutive buckets per step, which
//!   trades a few extra re-relaxations for far fewer heavy phases;
//! * **ρ** ([`SteppingStrategy::Rho`]) — the ρ nearest tentative
//!   vertices regardless of their spread (a lazy-batched priority
//!   extraction), which approaches Dijkstra's settle-once behavior and
//!   cuts total relaxations where classic Δ = 1 over-relaxes.
//!
//! The generalized loop here owns (2) and (3): ranges `[bound,
//! threshold)` are drained with light-phase fixpoints (plus batched
//! heavy phases for Δ*; ρ relaxes *all* out-edges of the frontier per
//! round, so no separate heavy pass exists), and every improvement
//! landing inside the open range re-enters the frontier — including
//! heavy-edge improvements, which *can* land in-range once `k > 1`.
//! When the range is empty the loop terminates with `bound` = ∞.
//!
//! Extraction never scans all of `t`: the loop keeps an *active list* of
//! the candidates (finite, `t ≥ bound`) — a vertex joins on improvement
//! and leaves at the first extraction after the bound passes it — so
//! thresholds come from that list and only the extracted frontier is
//! sorted (into vertex order, the order a whole-vector scan would give).
//!
//! Determinism: relaxation goes through `reqbuf::relax` (the
//! spawn-order request-buffer merge with a pool, the plain scatter
//! without), thresholds are pure functions of the distance multiset,
//! and no float is produced that depends on thread count — distances
//! *and* stats are bit-identical across 1/2/4 threads and the pool-less
//! path.
//!
//! Checkpointing follows the classic contract ([`crate::checkpoint`])
//! with the certified bound generalized: `settled_below` is the
//! extracted-range bound carried in [`SteppingState`], not `bucket · Δ`.
//! Stops happen at range starts ([`StopPoint::BucketStart`]) and
//! light-round boundaries ([`StopPoint::LightPhase`]), and resuming is
//! bit-identical, exactly as for the fused loop.

use std::time::Instant;

use graphdata::CsrGraph;
use taskpool::ThreadPool;

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

/// Frontier-extraction policy of the generalized stepping loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SteppingStrategy {
    /// The bucket ring: dispatches to the classic loop in
    /// [`crate::fused`].
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

/// Reusable per-run state for the generalized loop: the request-buffer
/// workspace plus frontier/settled scratch, the active list and the ρ
/// selection scratch.
#[derive(Debug, Default)]
pub struct SteppingWorkspace {
    relax: RelaxWorkspace,
    frontier: Vec<usize>,
    settled: Vec<usize>,
    scratch: Vec<f64>,
    /// The extraction candidates: every finite vertex with `t ≥ bound`,
    /// plus vertices that fell below the bound since the last extraction
    /// (pruned by it). A vertex joins on improvement.
    active: Vec<usize>,
    /// Membership bitmap of `active`.
    in_active: Vec<bool>,
}

impl SteppingWorkspace {
    /// Workspace sized for an `n`-vertex graph.
    pub fn new(n: usize) -> Self {
        SteppingWorkspace {
            relax: RelaxWorkspace::new(n),
            frontier: Vec::new(),
            settled: Vec::new(),
            scratch: Vec::new(),
            active: Vec::new(),
            in_active: vec![false; n],
        }
    }

    /// Grow (never shrink) to fit an `n`-vertex graph.
    pub fn ensure(&mut self, n: usize) {
        self.relax.ensure(n);
        if self.in_active.len() < n {
            self.in_active.resize(n, false);
        }
    }
}

/// Convenience front door for tests and examples: build the split, run
/// with an unlimited budget and no pool. Panics on invalid input — the
/// checked path is [`stepping_with`].
pub fn delta_stepping_strategy(
    g: &CsrGraph,
    source: usize,
    delta: f64,
    strategy: SteppingStrategy,
) -> SsspResult {
    let lh = LightHeavy::build(g, delta);
    let mut ws = SteppingWorkspace::new(g.num_vertices());
    stepping_with(
        g,
        &lh,
        source,
        delta,
        strategy,
        None,
        &mut RunBudget::unlimited(),
        &mut ws,
    )
    .expect("inputs must be valid and the budget is unlimited")
    .0
}

/// The generalized stepping loop over a prebuilt light/heavy split and a
/// caller-owned workspace — the [`crate::engine::SsspEngine`] entry
/// point. `pool` of `None` runs the sequential relaxation path
/// (bit-identical to every pooled thread count).
///
/// [`SteppingStrategy::Classic`] is *not* accepted here: the engine
/// dispatches it to the classic loop in [`crate::fused`], which is the
/// classic strategy's implementation.
#[allow(clippy::too_many_arguments)]
pub fn stepping_with(
    g: &CsrGraph,
    lh: &LightHeavy,
    source: usize,
    delta: f64,
    strategy: SteppingStrategy,
    pool: Option<&ThreadPool>,
    budget: &mut RunBudget,
    ws: &mut SteppingWorkspace,
) -> Result<(SsspResult, PhaseProfile), SsspError> {
    stepping_loop(g, lh, source, delta, strategy, pool, budget, ws, None)
}

/// Resume an interrupted stepping run from its checkpoint. The strategy,
/// bound, and in-flight range come from the checkpoint's
/// [`SteppingState`]; the continued run is bit-identical (distances and
/// stats) to an uninterrupted one.
pub fn stepping_resume_with(
    g: &CsrGraph,
    lh: &LightHeavy,
    cp: &Checkpoint,
    pool: Option<&ThreadPool>,
    budget: &mut RunBudget,
    ws: &mut SteppingWorkspace,
) -> Result<(SsspResult, PhaseProfile), SsspError> {
    cp.validate(g.num_vertices())?;
    let st = match (&cp.stepping, cp.resumable) {
        (Some(st), true) => st,
        (Some(_), false) => {
            return Err(SsspError::InvalidCheckpoint {
                reason: "checkpoint was emitted by a non-resumable implementation".to_string(),
            })
        }
        (None, _) => {
            return Err(SsspError::InvalidCheckpoint {
                reason: "checkpoint does not carry generalized-stepping state".to_string(),
            })
        }
    };
    stepping_loop(
        g,
        lh,
        cp.source,
        cp.delta,
        st.strategy,
        pool,
        budget,
        ws,
        Some(cp),
    )
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

/// The generalized loop: extract a range `[bound, threshold)` by the
/// strategy's rule, drain it to a fixpoint, advance the bound, repeat.
#[allow(clippy::too_many_arguments)]
fn stepping_loop(
    g: &CsrGraph,
    lh: &LightHeavy,
    source: usize,
    delta: f64,
    strategy: SteppingStrategy,
    pool: Option<&ThreadPool>,
    budget: &mut RunBudget,
    ws: &mut SteppingWorkspace,
    resume: Option<&Checkpoint>,
) -> Result<(SsspResult, PhaseProfile), SsspError> {
    strategy.validate()?;
    if strategy == SteppingStrategy::Classic {
        return Err(SsspError::InvalidStrategy {
            reason: "classic runs through the bucket implementations, not the generalized loop"
                .to_string(),
        });
    }
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
    let SteppingWorkspace {
        relax: rws,
        frontier,
        settled,
        scratch,
        active,
        in_active,
    } = ws;
    frontier.clear();
    settled.clear();
    for &v in active.iter() {
        in_active[v] = false;
    }
    active.clear();

    // The certified bound (exclusive): every dist < bound is final.
    let mut bound = 0.0f64;
    // The range being drained; meaningful only between extraction and
    // the bound advance.
    let mut threshold = 0.0f64;
    let mut entering_mid = false;
    if let Some(cp) = resume {
        let st = cp.stepping.as_ref().expect("caller validated stepping state");
        result.dist.clone_from(&cp.dist);
        result.stats = cp.stats.clone();
        bound = st.bound;
        threshold = st.threshold;
        frontier.extend_from_slice(&cp.frontier);
        settled.extend_from_slice(&cp.settled);
        entering_mid = cp.stop_point == StopPoint::LightPhase;
        // Rebuild the active list in one pass.
        active.extend((0..n).filter(|&v| result.dist[v].is_finite() && result.dist[v] >= bound));
    } else {
        active.push(source);
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
                return Err(LiveState {
                    implementation: "stepping",
                    source,
                    delta,
                    dist: t,
                    stats: &result.stats,
                    bucket: bucket_of(bound, delta),
                    stop_point: StopPoint::BucketStart,
                    frontier: &[],
                    settled: &[],
                    resumable: true,
                    stepping: Some(SteppingState {
                        strategy,
                        bound,
                        threshold: bound,
                    }),
                }
                .stop(stop));
            }
            // Extraction: prune the active list to the candidates
            // (finite, not yet certified), then pick the strategy's
            // threshold from them.
            let t0 = Instant::now();
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
                SteppingStrategy::Rho(rho) => {
                    if active.len() <= rho {
                        // Extract the whole candidate pool, but close the
                        // range just above its maximum: vertices
                        // *discovered* while draining stay out of this
                        // batch and wait for the next extraction (an ∞
                        // threshold would drag the entire remaining graph
                        // into one chaotic-relaxation range).
                        let max_cand = active.iter().map(|&v| t[v]).fold(min_cand, f64::max);
                        next_up(max_cand)
                    } else {
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
                }
                SteppingStrategy::DeltaStar(k) => {
                    // The fused range starts at the first non-empty
                    // bucket (subsuming classic's empty-bucket skip) and
                    // spans k bucket widths.
                    let b = bucket_of(min_cand, delta);
                    (b as f64) * delta + k * delta
                }
                SteppingStrategy::Classic => unreachable!("rejected above"),
            };
            if threshold <= min_cand {
                // Float-rounding guard: the range must contain its
                // minimum, or the loop would spin. Fall back to the next
                // distinct tentative value (∞ when all candidates tie).
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

            result.stats.buckets_processed += 1;
            settled.clear();
        }

        // Drain `[bound, threshold)` to a fixpoint. ρ relaxes all
        // out-edges per round; Δ* runs light-phase fixpoints with a
        // batched heavy pass over each fixpoint's settled set (heavy
        // improvements can land in-range when k > 1, refilling the
        // frontier for another cycle).
        loop {
            while !frontier.is_empty() {
                if let Err(stop) = budget.check() {
                    return Err(LiveState {
                        implementation: "stepping",
                        source,
                        delta,
                        dist: t,
                        stats: &result.stats,
                        bucket: bucket_of(bound, delta),
                        stop_point: StopPoint::LightPhase,
                        frontier,
                        settled,
                        resumable: true,
                        stepping: Some(SteppingState {
                            strategy,
                            bound,
                            threshold,
                        }),
                    }
                    .stop(stop));
                }
                result.stats.light_phases += 1;
                let t0 = Instant::now();
                relax(pool, lh, t, frontier, true, rws, &mut result.stats.relaxations);
                if matches!(strategy, SteppingStrategy::Rho(_)) {
                    relax(pool, lh, t, frontier, false, rws, &mut result.stats.relaxations);
                } else {
                    settled.extend_from_slice(frontier);
                }
                profile.relaxation += t0.elapsed();

                let t0 = Instant::now();
                frontier.clear();
                rws.drain_requests(|u, cand| {
                    if cand < t[u] {
                        result.stats.improvements += 1;
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
                profile.vector_ops += t0.elapsed();
            }
            if settled.is_empty() {
                break; // ρ always lands here: no separate heavy pass
            }
            result.stats.heavy_phases += 1;
            let t0 = Instant::now();
            relax(pool, lh, t, settled, false, rws, &mut result.stats.relaxations);
            settled.clear();
            profile.relaxation += t0.elapsed();

            let t0 = Instant::now();
            rws.drain_requests(|u, cand| {
                if cand < t[u] {
                    result.stats.improvements += 1;
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
            profile.vector_ops += t0.elapsed();
            if frontier.is_empty() {
                break;
            }
        }

        // Everything below the threshold is now at a relaxation
        // fixpoint: the range is certified.
        bound = threshold;
    }

    Ok((result, profile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
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
    fn classic_is_rejected_by_the_generalized_loop() {
        let g = CsrGraph::from_edge_list(&path(4)).unwrap();
        let lh = LightHeavy::build(&g, 1.0);
        let mut ws = SteppingWorkspace::new(4);
        assert!(matches!(
            stepping_with(
                &g,
                &lh,
                0,
                1.0,
                SteppingStrategy::Classic,
                None,
                &mut RunBudget::unlimited(),
                &mut ws
            ),
            Err(SsspError::InvalidStrategy { .. })
        ));
    }

    #[test]
    fn every_strategy_matches_dijkstra_on_weighted_graphs() {
        let g = weighted_grid();
        let dj = dijkstra(&g, 0);
        for strategy in [
            SteppingStrategy::Rho(1),
            SteppingStrategy::Rho(7),
            SteppingStrategy::Rho(100_000),
            SteppingStrategy::DeltaStar(1.0),
            SteppingStrategy::DeltaStar(2.5),
            SteppingStrategy::DeltaStar(16.0),
        ] {
            let r = delta_stepping_strategy(&g, 0, 0.5, strategy);
            assert_eq!(r.dist, dj.dist, "{strategy}");
        }
    }

    #[test]
    fn rho_reduces_relaxations_versus_small_delta() {
        // Weighted graph, classic Δ = 1: light edges inside a bucket are
        // re-relaxed across light phases. Small-batch ρ-stepping extracts
        // near-minimum vertices that rarely improve again, approaching
        // Dijkstra's settle-once relaxation count.
        let g = weighted_grid();
        let classic = crate::fused::delta_stepping_fused(&g, 0, 1.0);
        let rho = delta_stepping_strategy(&g, 0, 1.0, SteppingStrategy::Rho(1));
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
        let classic = crate::fused::delta_stepping_fused(&g, 0, 0.25);
        let fusedk = delta_stepping_strategy(&g, 0, 0.25, SteppingStrategy::DeltaStar(8.0));
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
        let lh = LightHeavy::build(&g, 0.5);
        for strategy in [SteppingStrategy::Rho(5), SteppingStrategy::DeltaStar(3.0)] {
            let mut ws = SteppingWorkspace::new(g.num_vertices());
            let (seq, _) = stepping_with(
                &g, &lh, 0, 0.5, strategy, None, &mut RunBudget::unlimited(), &mut ws,
            )
            .unwrap();
            for threads in [1, 2, 4] {
                let pool = ThreadPool::with_threads(threads).unwrap();
                // Force the parallel producer/merge path even on this
                // small graph.
                crate::reqbuf::set_relax_threshold_override(Some(1));
                let mut ws = SteppingWorkspace::new(g.num_vertices());
                let out = stepping_with(
                    &g,
                    &lh,
                    0,
                    0.5,
                    strategy,
                    Some(&pool),
                    &mut RunBudget::unlimited(),
                    &mut ws,
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
        let lh = LightHeavy::build(&g, 0.5);
        for strategy in [SteppingStrategy::Rho(4), SteppingStrategy::DeltaStar(2.0)] {
            let full = {
                let mut ws = SteppingWorkspace::new(g.num_vertices());
                stepping_with(
                    &g, &lh, 0, 0.5, strategy, None, &mut RunBudget::unlimited(), &mut ws,
                )
                .unwrap()
                .0
            };
            let total_epochs = {
                let mut b = RunBudget::unlimited();
                let mut ws = SteppingWorkspace::new(g.num_vertices());
                stepping_with(&g, &lh, 0, 0.5, strategy, None, &mut b, &mut ws).unwrap();
                b.ticks()
            };
            assert!(total_epochs > 2, "{strategy}: want multiple epochs");
            for k in 0..total_epochs {
                let mut ws = SteppingWorkspace::new(g.num_vertices());
                let err = stepping_with(
                    &g,
                    &lh,
                    0,
                    0.5,
                    strategy,
                    None,
                    &mut RunBudget::unlimited().cancel_after(k),
                    &mut ws,
                )
                .unwrap_err();
                let cp = err.into_checkpoint().expect("cancellation carries a checkpoint");
                assert_eq!(cp.implementation, "stepping");
                cp.validate(g.num_vertices()).unwrap();
                // Certified distances match the full run exactly.
                for (v, d) in cp.settled_distances() {
                    assert_eq!(d.to_bits(), full.dist[v].to_bits(), "{strategy} epoch {k}");
                }
                let mut ws = SteppingWorkspace::new(g.num_vertices());
                let (resumed, _) = stepping_resume_with(
                    &g, &lh, &cp, None, &mut RunBudget::unlimited(), &mut ws,
                )
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

    #[test]
    fn resume_rejects_non_stepping_checkpoints() {
        let g = CsrGraph::from_edge_list(&path(8)).unwrap();
        let lh = LightHeavy::build(&g, 1.0);
        let err = crate::fused::delta_stepping_fused_checked(
            &g,
            0,
            1.0,
            &mut RunBudget::with_limit(2),
        )
        .unwrap_err();
        let cp = err.into_checkpoint().unwrap();
        let mut ws = SteppingWorkspace::new(8);
        assert!(matches!(
            stepping_resume_with(&g, &lh, &cp, None, &mut RunBudget::unlimited(), &mut ws),
            Err(SsspError::InvalidCheckpoint { .. })
        ));
    }

    #[test]
    fn handles_unreachable_and_zero_weight_edges() {
        let mut el = EdgeList::from_triples(vec![(0, 1, 0.0), (1, 2, 1.0), (2, 3, 5.0)]);
        el.ensure_vertices(5); // vertex 4 unreachable
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let dj = dijkstra(&g, 0);
        for strategy in [SteppingStrategy::Rho(2), SteppingStrategy::DeltaStar(2.0)] {
            let r = delta_stepping_strategy(&g, 0, 1.0, strategy);
            assert_eq!(r.dist, dj.dist, "{strategy}");
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
        let lh = LightHeavy::build(&cyc, 1.0);
        let mut ws = SteppingWorkspace::new(2);
        assert!(matches!(
            stepping_with(
                &cyc,
                &lh,
                0,
                1.0,
                SteppingStrategy::Rho(4),
                None,
                &mut RunBudget::with_limit(1000),
                &mut ws
            ),
            Err(SsspError::IterationLimitExceeded { .. })
        ));
    }
}
