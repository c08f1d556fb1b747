//! # sssp-core — delta-stepping SSSP, from vertices and edges to GraphBLAS
//!
//! The paper's contribution, reproduced end to end. Five implementations of
//! single-source shortest paths share one result type so they can be
//! compared edge-for-edge:
//!
//! | module | paper artifact |
//! |---|---|
//! | [`canonical`] | Meyer–Sanders delta-stepping with explicit buckets (Fig. 1, right) — the [`buckets`] ring every bucket loop shares |
//! | [`gblas_impl`] | the **unfused GraphBLAS** implementation (Fig. 2, call-for-call) |
//! | [`stepping`] | the **one stepping driver**: classic Δ (bucket ring), ρ- and Δ*-stepping (Dong–Gu–Sun–Zhang) as one extract → drain → advance loop, pooled or not; the fused, parallel and improved rows run its classic strategy |
//! | [`fused`] | the **fused direct-C** implementation (Sec. VI-B: Hadamard+vxm fusion, fused vector updates): the light/heavy split plus the pool-less classic driver |
//! | [`parallel`] | the **OpenMP-task** parallel scheme (Sec. VI-C: 2 matrix-filter tasks, then the pool-less classic driver; its chunked vector scans are costed in [`parallel_sim`]) |
//! | [`parallel_improved`] | the paper's proposed improvement: fine-grained matrix filtering, then the classic driver on contention-free request-buffer relaxation ([`reqbuf`]) |
//! | [`dijkstra`], [`bellman_ford`] | classic baselines |
//!
//! Multi-source / repeated runs should go through [`engine::SsspEngine`],
//! which caches the light/heavy matrix split per `(graph, Δ)` and reuses
//! relaxation workspaces across calls.
//!
//! All take a [`graphdata::CsrGraph`], a source vertex, and (where relevant)
//! a Δ from [`delta::DeltaStrategy`], and return an [`SsspResult`] whose
//! `dist[v]` is the shortest distance from the source (`f64::INFINITY` when
//! unreachable). [`validate::check_certificate`] verifies any result against
//! the SSSP optimality conditions.
//!
//! ```
//! use graphdata::gen::grid2d;
//! use graphdata::CsrGraph;
//! use sssp_core::{delta::DeltaStrategy, fused, dijkstra};
//!
//! let g = CsrGraph::from_edge_list(&grid2d(8, 8)).unwrap();
//! let ds = fused::delta_stepping_fused(&g, 0, DeltaStrategy::Unit.resolve(&g).unwrap());
//! let dj = dijkstra::dijkstra(&g, 0);
//! assert_eq!(ds.dist, dj.dist);
//! assert_eq!(ds.dist[63], 14.0); // Manhattan distance across the grid
//! ```

pub mod batch;
pub mod bellman_ford;
pub mod buckets;
pub mod budget;
pub mod canonical;
pub mod checkpoint;
pub mod delta;
pub mod dijkstra;
pub mod engine;
pub mod explore;
pub mod fused;
pub mod gblas_impl;
pub mod gblas_parallel;
pub mod gblas_select;
pub mod guard;
pub mod manifest;
pub mod parallel;
pub mod parallel_improved;
pub mod parallel_sim;
pub mod paths;
pub mod pull;
pub mod reqbuf;
pub mod result;
pub mod run;
pub mod schedule;
pub mod split_cache;
pub mod stats;
pub mod stepping;
pub mod validate;

pub use batch::{BatchConfig, BatchOutcome, BatchReport, BatchRunner};
pub use budget::{BudgetStop, CancelToken, ProgressGauge, RunBudget};
pub use checkpoint::{Checkpoint, StopPoint};
pub use guard::{GuardConfig, SsspError, Watchdog};
pub use manifest::{CheckpointManifest, ManifestEntry};
pub use result::SsspResult;
pub use run::{run_checked, run_with_budget, Implementation, RunReport};
pub use split_cache::{SplitCache, SplitCacheStats};
pub use stats::SsspStats;
pub use stepping::SteppingStrategy;

/// The distance value used for unreachable vertices.
pub const INF: f64 = f64::INFINITY;
