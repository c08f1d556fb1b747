//! # sssp-bench — the harness that regenerates every figure in the paper
//!
//! Each experiment lives in [`experiments`] and is driven by a binary
//! (`fig3`, `fig4`, `datasets`, `delta_sweep`, `phase_profile`) that prints
//! the paper-style table and writes machine-readable results; the `bench`
//! binary times the tracked baseline behind `BENCH_sssp.json`.
//!
//! | experiment | paper artifact | binary |
//! |---|---|---|
//! | [`experiments::fig3`] | Fig. 3: fused vs unfused, avg ≈ 3.7× | `cargo run -p sssp-bench --release --bin fig3` |
//! | [`experiments::fig4`] | Fig. 4: task-parallel speedup at 2/4 threads | `--bin fig4` |
//! | [`experiments::datasets`] | Sec. VI-A dataset inventory | `--bin datasets` |
//! | [`experiments::delta_sweep`] | Sec. VII Δ discussion | `--bin delta_sweep` |
//! | [`experiments::phase_profile`] | Sec. VI-C 35–40 % filter-time claim | `--bin phase_profile` |

pub mod experiments;
pub mod measure;
pub mod report;

pub use measure::{measure_median, measure_min, Reps};
pub use report::{markdown_table, write_json, write_csv};

use graphdata::CsrGraph;

/// Deterministic benchmark source: the vertex with the largest out-degree
/// (guaranteed to reach a large component on every suite graph).
pub fn bench_source(g: &CsrGraph) -> usize {
    (0..g.num_vertices())
        .max_by_key(|&v| g.out_degree(v))
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphdata::gen::star;

    #[test]
    fn bench_source_picks_hub() {
        let g = CsrGraph::from_edge_list(&star(10)).unwrap();
        assert_eq!(bench_source(&g), 0);
    }
}
