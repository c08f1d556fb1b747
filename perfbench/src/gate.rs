//! The correctness gate, run outside the timed regions.
//!
//! Every solve, resume and `OK` reply is compared with Dijkstra's
//! distance digest for its (graph, source); `SsspStats` must agree
//! between paths that promise bit-identical work. Each comparison is an
//! attempted operation, and a mismatch is a failed one.

use std::fmt::Debug;

/// Failure descriptions kept for the report; later ones are only counted.
const KEPT_PROBLEMS: usize = 20;

#[derive(Debug, Default)]
pub struct Gate {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Gate {
    /// Count one operation; `ok == false` fails it with `what()` as the
    /// description.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Fail the operation most recently recorded (a second check on the
    /// same operation), without counting another attempt.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < KEPT_PROBLEMS {
            self.problems.push(what);
        }
    }

    /// One operation whose output must equal `expected`.
    pub fn expect_eq<T: PartialEq + Debug>(&mut self, what: &str, expected: &T, got: &T) {
        self.record(expected == got, || {
            format!("{what}: expected {expected:?}, got {got:?}")
        });
    }

    /// An extra equality check on an operation already recorded.
    pub fn also_eq<T: PartialEq + Debug>(&mut self, what: &str, expected: &T, got: &T) {
        if expected != got {
            self.fail(format!("{what}: expected {expected:?}, got {got:?}"));
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    pub fn problems(&self) -> &[String] {
        &self.problems
    }

    pub fn passed(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn absorb(&mut self, other: Gate) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for p in other.problems {
            if self.problems.len() < KEPT_PROBLEMS {
                self.problems.push(p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphdata::{gen, CsrGraph};
    use sssp_core::{dijkstra::dijkstra, engine::SsspEngine, RunBudget};
    use sssp_serve::protocol::dist_digest;

    #[test]
    fn matching_solves_pass_and_a_corrupted_digest_trips_the_gate() {
        let g = CsrGraph::from_edge_list(&gen::grid2d(12, 12)).unwrap();
        let reference = dist_digest(&dijkstra(&g, 5).dist);
        let mut engine = SsspEngine::new(&g);
        let (r, _) = engine
            .run_fused(5, 1.0, &mut RunBudget::unlimited())
            .unwrap();
        let got = dist_digest(&r.dist);

        let mut gate = Gate::default();
        gate.expect_eq("fused source 5", &reference, &got);
        assert!(gate.passed());

        gate.expect_eq("fused source 5 (corrupted)", &reference, &(got ^ 1));
        assert!(!gate.passed());
        assert_eq!((gate.attempted(), gate.failed()), (2, 1));
        assert!(
            gate.problems()[0].contains("corrupted"),
            "{:?}",
            gate.problems()
        );
    }

    #[test]
    fn extra_checks_fail_without_counting_a_new_attempt() {
        let mut gate = Gate::default();
        gate.expect_eq("digest", &1u64, &1u64);
        gate.also_eq("stats", &2u64, &3u64);
        assert_eq!((gate.attempted(), gate.failed()), (1, 1));
        assert!(!Gate::default().passed(), "nothing checked is not a pass");
    }
}
