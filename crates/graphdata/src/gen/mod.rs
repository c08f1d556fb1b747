//! Synthetic graph generators.
//!
//! These stand in for the paper's SNAP / GraphChallenge datasets (see
//! DESIGN.md §3): [`rmat()`](rmat()) covers the Kronecker/scale-free family that
//! GraphChallenge uses, [`erdos_renyi`] gives uniform random graphs,
//! [`grid`] gives road-network-like low-degree high-diameter graphs, and
//! [`preferential`] gives Barabási–Albert power-law graphs. [`classic`]
//! holds deterministic shapes for unit tests.

pub mod classic;
pub mod erdos_renyi;
pub mod grid;
pub mod kronecker;
pub mod preferential;
pub mod rmat;

pub use classic::{binary_tree, complete, cycle, path, star};
pub use erdos_renyi::{gnm, gnp};
pub use grid::grid2d;
pub use kronecker::{kronecker, KroneckerSeed, HUB3_SEED, STAR_SEED};
pub use preferential::barabasi_albert;
pub use rmat::{rmat, RmatParams};

use crate::EdgeList;

/// Parse a generator spec — `grid:WxH`, `er:N,M`, `rmat:SCALE,EDGEFACTOR`,
/// `ba:N,M`, `path:N`, `cycle:N` — into an edge list. The one grammar of
/// the `sssp --gen` flag and the daemon's `LOAD GEN` request; the random
/// families use the fixed seed 42, so every front end agrees on what
/// e.g. `er:500,2000` means.
pub fn from_spec(spec: &str) -> Result<EdgeList, String> {
    let (kind, params) = spec
        .split_once(':')
        .ok_or_else(|| format!("bad gen spec '{spec}'"))?;
    let nums = |sep: char| -> Result<Vec<usize>, String> {
        params
            .split(sep)
            .map(|t| t.parse().map_err(|_| format!("bad number in '{spec}'")))
            .collect()
    };
    match kind {
        "grid" => {
            let d = nums('x')?;
            if d.len() != 2 {
                return Err("grid needs WxH".into());
            }
            Ok(grid2d(d[0], d[1]))
        }
        "er" => {
            let d = nums(',')?;
            if d.len() != 2 {
                return Err("er needs N,M".into());
            }
            Ok(gnm(d[0], d[1], 42))
        }
        "rmat" => {
            let d = nums(',')?;
            if d.len() != 2 {
                return Err("rmat needs SCALE,EDGEFACTOR".into());
            }
            Ok(rmat(RmatParams::graph500(d[0] as u32, d[1]), 42))
        }
        "ba" => {
            let d = nums(',')?;
            if d.len() != 2 {
                return Err("ba needs N,M".into());
            }
            Ok(barabasi_albert(d[0], d[1], 42))
        }
        "path" => Ok(path(nums(',')?[0])),
        "cycle" => Ok(cycle(nums(',')?[0])),
        other => Err(format!("unknown generator '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_grammar() {
        let g = from_spec("grid:4x4").unwrap();
        let csr = crate::CsrGraph::from_edge_list(&g).unwrap();
        assert_eq!(csr.num_vertices(), 16);
        assert!(from_spec("grid:4").is_err());
        assert!(from_spec("nope:1,2").is_err());
        assert!(from_spec("plain").is_err());
        assert!(from_spec("er:50,200").is_ok());
        assert!(from_spec("path:9").is_ok());
    }
}
