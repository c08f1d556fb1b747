//! The paper's **OpenMP-task parallel scheme** (Sec. VI-C) on
//! [`taskpool`]:
//!
//! * the creation of the light and heavy edge structures "are independent
//!   and were each made into a task" — two coarse tasks, so this phase
//!   never scales past two threads (the bottleneck the paper measures);
//! * "the computation and filtering of vectors was performed by splitting
//!   the vector into evenly-sized tasks" — that dense bucket-detection
//!   scan is what [`crate::parallel_sim`]'s Fig. 4 cost model charges;
//!   here, like every bucket loop, the buckets come from the lazy
//!   [`crate::buckets::BucketRing`], whose extraction is proportional to
//!   the frontier and needs no tasks;
//! * the relaxation products themselves stay sequential, as in the paper
//!   ("parallelizing within the matrix-vector operations … would improve
//!   performance and scalability" is future work there, and is implemented
//!   here in [`crate::parallel_improved`]): after the split, the run is
//!   the pool-less classic strategy of the stepping driver
//!   ([`crate::stepping`]).

use graphdata::CsrGraph;
use taskpool::{join, ThreadPool};

use crate::budget::RunBudget;
use crate::fused::{run_split, LightHeavy};
use crate::guard::SsspError;
use crate::result::SsspResult;
use crate::stats::PhaseProfile;

type CsrParts = (Vec<usize>, Vec<usize>, Vec<f64>);

/// Build the light/heavy split as two parallel tasks (the paper's scheme:
/// one task per output matrix, each re-scanning the adjacency).
pub fn split_light_heavy_two_tasks(pool: &ThreadPool, g: &CsrGraph, delta: f64) -> LightHeavy {
    let n = g.num_vertices();
    let filter = |keep: fn(f64, f64) -> bool| -> CsrParts {
        let mut off = Vec::with_capacity(n + 1);
        off.push(0);
        let mut tgt = Vec::new();
        let mut wts = Vec::new();
        for v in 0..n {
            let (targets, weights) = g.neighbors(v);
            for (&t, &w) in targets.iter().zip(weights.iter()) {
                if keep(w, delta) {
                    tgt.push(t);
                    wts.push(w);
                }
            }
            off.push(tgt.len());
        }
        (off, tgt, wts)
    };
    let (light, heavy) = join(pool, || filter(|w, d| w <= d), || filter(|w, d| w > d));
    let (light_off, light_tgt, light_w) = light;
    let (heavy_off, heavy_tgt, heavy_w) = heavy;
    LightHeavy {
        light_off,
        light_tgt,
        light_w,
        heavy_off,
        heavy_tgt,
        heavy_w,
        pull: std::sync::OnceLock::new(),
    }
}

/// Delta-stepping with the paper's task-parallel scheme. Distances are
/// identical to the sequential fused implementation.
pub fn delta_stepping_parallel(
    pool: &ThreadPool,
    g: &CsrGraph,
    source: usize,
    delta: f64,
) -> SsspResult {
    assert!(delta > 0.0 && delta.is_finite(), "delta must be positive and finite");
    delta_stepping_parallel_checked(pool, g, source, delta, &mut RunBudget::unlimited())
        .expect("inputs asserted valid and the budget is unlimited")
        .0
}

/// [`delta_stepping_parallel`] under a [`RunBudget`]: returns
/// [`SsspError`] instead of panicking on a bad Δ or source, trips the
/// epoch budget instead of looping forever on malformed weight data, and
/// observes cancellation/deadlines at every epoch boundary, emitting a
/// resumable checkpoint tagged `"parallel"`. The split is the paper's
/// two tasks; the bucket loop is the pool-less classic stepping driver,
/// so its checkpoints resume on either back end.
/// Worker panics still propagate; wrap the call in
/// [`taskpool::install_try`] (as [`crate::run::run_checked`] does) to
/// convert them into errors.
pub fn delta_stepping_parallel_checked(
    pool: &ThreadPool,
    g: &CsrGraph,
    source: usize,
    delta: f64,
    budget: &mut RunBudget,
) -> Result<(SsspResult, PhaseProfile), SsspError> {
    run_split(None, "parallel", g, source, delta, budget, || {
        split_light_heavy_two_tasks(pool, g, delta)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
    use crate::fused::delta_stepping_fused;
    use graphdata::gen::grid2d;
    use graphdata::{gen, EdgeList};

    #[test]
    fn two_task_split_matches_fused_split() {
        let pool = ThreadPool::with_threads(2).unwrap();
        let el = EdgeList::from_triples(vec![(0, 1, 0.5), (0, 2, 2.0), (1, 2, 1.0), (2, 0, 3.0)]);
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let par = split_light_heavy_two_tasks(&pool, &g, 1.0);
        let seq = LightHeavy::build(&g, 1.0);
        assert_eq!(par, seq);
    }

    #[test]
    fn matches_dijkstra_on_grid() {
        let pool = ThreadPool::with_threads(4).unwrap();
        let g = CsrGraph::from_edge_list(&grid2d(8, 8)).unwrap();
        let dj = dijkstra(&g, 0);
        let pr = delta_stepping_parallel(&pool, &g, 0, 1.0);
        assert_eq!(pr.dist, dj.dist);
    }

    #[test]
    fn matches_fused_exactly_including_stats() {
        let pool = ThreadPool::with_threads(3).unwrap();
        let mut el = gen::gnm(300, 1500, 77);
        el.symmetrize();
        el.make_unit_weight();
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let fu = delta_stepping_fused(&g, 5, 1.0);
        let pr = delta_stepping_parallel(&pool, &g, 5, 1.0);
        assert_eq!(fu.dist, pr.dist);
        assert_eq!(fu.stats, pr.stats);
    }

    #[test]
    fn single_thread_pool_works() {
        let pool = ThreadPool::with_threads(1).unwrap();
        let g = CsrGraph::from_edge_list(&grid2d(4, 4)).unwrap();
        let pr = delta_stepping_parallel(&pool, &g, 0, 1.0);
        let dj = dijkstra(&g, 0);
        assert_eq!(pr.dist, dj.dist);
    }

    #[test]
    fn weighted_heavy_graph() {
        let pool = ThreadPool::with_threads(4).unwrap();
        let el = EdgeList::from_triples(vec![
            (0, 1, 0.3),
            (1, 2, 4.0),
            (0, 2, 5.0),
            (2, 3, 0.3),
            (3, 4, 7.0),
        ]);
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let pr = delta_stepping_parallel(&pool, &g, 0, 1.0);
        let dj = dijkstra(&g, 0);
        assert_eq!(pr.dist, dj.dist);
    }
}
