//! Metric names, units, and the printed report.
//!
//! Every workload prints every end-to-end metric in the untraced run and
//! every per-layer metric in the traced run. A per-layer metric a
//! workload cannot measure is printed as 0 in the JSON line and named,
//! with the reason, in the text above it.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. On the library workloads a solve
/// is one engine call; on `serve-mix` it is one request as the client
/// sees it, from encode to decoded reply. `improved.solve_ms.p90` is
/// printed but not listed: its pool of `nproc` workers plus the helping
/// caller oversubscribes a 2-vCPU machine, and its ten-seed spread
/// reached 0.19, too near the 0.25 cap on a bound to gate on.
pub const END_TO_END: &[(&str, &str)] = &[
    ("fused.solve_ms.p50", "ms"),
    ("fused.solve_ms.p90", "ms"),
    ("improved.solve_ms.p50", "ms"),
    ("rho.solve_ms.p50", "ms"),
    ("rho.solve_ms.p90", "ms"),
    ("resume.solve_ms.p50", "ms"),
    ("solves_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The solver paths every workload times.
pub const PATHS: [&str; 3] = ["fused", "improved", "rho"];

/// Per-layer kernel metrics, repeated for each of [`PATHS`].
pub const KERNEL_METRICS: &[(&str, &str)] = &[
    ("extract_ms", "ms"),
    ("relax_ms", "ms"),
    ("relaxations", "count"),
    ("improvements", "count"),
    ("buckets", "count"),
    ("light_phases", "count"),
    ("useful_ratio", "ratio"),
];

/// Per-layer metrics other than the kernel block: `(name, unit, module,
/// the end-to-end metric it should move and on which workload)`.
pub const PER_LAYER: &[(&str, &str, &str, &str)] = &[
    (
        "graphdata.gen_ms",
        "ms",
        "graphdata::gen",
        "setup_s on all workloads",
    ),
    (
        "graphdata.csr_ms",
        "ms",
        "graphdata::csr",
        "setup_s on all workloads",
    ),
    (
        "graphdata.csr_bytes",
        "bytes",
        "graphdata::csr",
        "setup_s and peak_rss_mb on all workloads",
    ),
    (
        "split.build_ms",
        "ms",
        "core::split_cache / fused::LightHeavy",
        "setup_s on all workloads",
    ),
    (
        "split.resident_bytes",
        "bytes",
        "core::split_cache",
        "peak_rss_mb on all workloads",
    ),
    (
        "pull.build_ms",
        "ms",
        "core::pull",
        "setup_s on powerlaw-w (0 on deep-grid)",
    ),
    (
        "pull.bytes",
        "bytes",
        "core::pull",
        "peak_rss_mb on powerlaw-w (0 on deep-grid)",
    ),
    (
        "direction.push_epochs",
        "count",
        "gblas::direction",
        "improved.solve_ms.* on powerlaw-w",
    ),
    (
        "direction.pull_epochs",
        "count",
        "gblas::direction",
        "improved.solve_ms.* on powerlaw-w",
    ),
    (
        "ref.dijkstra_ms.p50",
        "ms",
        "core::dijkstra",
        "none: the floor every path is judged against",
    ),
    (
        "floor_ratio.fused",
        "ratio",
        "core::fused over core::dijkstra",
        "fused.solve_ms.p50 on all workloads",
    ),
    (
        "floor_ratio.improved",
        "ratio",
        "core::parallel_improved over core::dijkstra",
        "improved.solve_ms.p50 on all workloads",
    ),
    (
        "floor_ratio.rho",
        "ratio",
        "core::stepping over core::dijkstra",
        "rho.solve_ms.p50 on all workloads",
    ),
    (
        "checkpoint.save_ms",
        "ms",
        "core::checkpoint",
        "resume.solve_ms.p50 on deep-grid",
    ),
    (
        "checkpoint.load_ms",
        "ms",
        "core::checkpoint",
        "resume.solve_ms.p50 on deep-grid",
    ),
    (
        "checkpoint.resume_ms",
        "ms",
        "core::checkpoint / engine::resume_stepping",
        "resume.solve_ms.p50 on deep-grid and serve-mix",
    ),
    (
        "checkpoint.bytes",
        "bytes",
        "core::checkpoint",
        "resume.solve_ms.p50 on deep-grid and serve-mix",
    ),
    (
        "batch.job_ms.p50",
        "ms",
        "core::batch",
        "fused.solve_ms.p50 and solves_per_s on serve-mix",
    ),
    (
        "engine.job_ms.p50",
        "ms",
        "core::engine",
        "fused.solve_ms.p50 and solves_per_s on serve-mix",
    ),
    (
        "batch.overhead_ms",
        "ms",
        "core::batch",
        "fused.solve_ms.p50 and solves_per_s on serve-mix",
    ),
    (
        "protocol.encode_us.p50",
        "us",
        "serve::protocol",
        "fused.solve_ms.p50 on serve-mix",
    ),
    (
        "protocol.decode_us.p50",
        "us",
        "serve::protocol",
        "fused.solve_ms.p50 on serve-mix",
    ),
    (
        "protocol.reply_bytes",
        "bytes",
        "serve::protocol",
        "fused.solve_ms.p50 on serve-mix",
    ),
    (
        "serve.req_ms.p50",
        "ms",
        "serve::server",
        "the *.solve_ms.p50 metrics on serve-mix",
    ),
    (
        "serve.req_ms.p99",
        "ms",
        "serve::server / core::checkpoint",
        "resume.solve_ms.p50 and the p90s on serve-mix",
    ),
    (
        "serve.req_per_s",
        "1/s",
        "serve::server",
        "solves_per_s on serve-mix",
    ),
    (
        "serve.overhead_ms",
        "ms",
        "serve::server / queue",
        "fused.solve_ms.p50 on serve-mix",
    ),
    (
        "serve.jobs_completed",
        "count",
        "serve::server",
        "solves_per_s on serve-mix",
    ),
    (
        "serve.jobs_partial",
        "count",
        "serve::server / core::checkpoint",
        "resume.solve_ms.p50 on serve-mix",
    ),
    (
        "serve.jobs_resumed",
        "count",
        "serve::server / core::manifest",
        "resume.solve_ms.p50 on serve-mix",
    ),
    (
        "serve.jobs_shed",
        "count",
        "serve::queue",
        "solves_per_s on serve-mix",
    ),
    (
        "serve.cache_builds",
        "count",
        "core::split_cache",
        "setup_s on serve-mix",
    ),
    (
        "serve.cache_hits",
        "count",
        "core::split_cache",
        "fused.solve_ms.p50 on serve-mix",
    ),
    (
        "serve.writer_timeouts",
        "count",
        "serve::server",
        "solves_per_s on serve-mix",
    ),
    (
        "serve.workers_poisoned",
        "count",
        "serve::supervisor",
        "solves_per_s on serve-mix",
    ),
    (
        "trace.overhead_ratio",
        "ratio",
        "perfbench::trace",
        "none: cost of the traced run itself",
    ),
];

/// Module of each kernel path, for the per-layer table.
const KERNEL_MODULES: [&str; 3] = ["core::fused", "core::parallel_improved", "core::stepping"];

/// Every per-layer metric in print order, as `(name, unit, module, moves)`.
pub fn per_layer() -> Vec<(String, &'static str, &'static str, String)> {
    let row = |&(n, u, m, mv): &(&str, &'static str, &'static str, &str)| {
        (n.to_string(), u, m, mv.to_string())
    };
    let mut out: Vec<_> = PER_LAYER[..7].iter().map(row).collect();
    for (path, module) in PATHS.iter().zip(KERNEL_MODULES) {
        for (m, unit) in KERNEL_METRICS {
            let moves = match *m {
                "extract_ms" => format!("{path}.solve_ms.* on deep-grid"),
                "relax_ms" => format!("{path}.solve_ms.* on powerlaw-w"),
                _ => format!("{path}.solve_ms.* on all workloads (exact count)"),
            };
            out.push((format!("kernel.{path}.{m}"), unit, module, moves));
        }
    }
    out.extend(PER_LAYER[7..].iter().map(row));
    out
}

/// Every per-layer metric in print order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    per_layer().into_iter().map(|(n, u, _, _)| (n, u)).collect()
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .chain(per_layer_names())
        .find(|(n, _)| n == name)
        .map(|(_, u)| u)
}

#[derive(Debug, Clone)]
struct Value {
    value: f64,
    unit: &'static str,
    samples: Option<usize>,
    note: Option<String>,
}

/// The metrics one run measured, plus text-only lines.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<String, Value>,
    absent: BTreeMap<String, String>,
    extra: Vec<(String, Value)>,
}

impl Report {
    /// Record a listed metric. Panics on a name not in the lists: that is
    /// a bug in the benchmark, not a measurement.
    pub fn set(&mut self, name: &str, value: f64, samples: Option<usize>) {
        self.set_noted(name, value, samples, None);
    }

    pub fn set_noted(
        &mut self,
        name: &str,
        value: f64,
        samples: Option<usize>,
        note: Option<String>,
    ) {
        let unit = unit_of(name).unwrap_or_else(|| panic!("unlisted metric {name}"));
        self.values.insert(
            name.to_string(),
            Value {
                value,
                unit,
                samples,
                note,
            },
        );
    }

    /// Mark a per-layer metric as not measurable on this workload.
    pub fn absent(&mut self, name: &str, reason: &str) {
        assert!(unit_of(name).is_some(), "unlisted metric {name}");
        self.absent.insert(name.to_string(), reason.to_string());
    }

    /// A text-only line: a metric printed for reading but not carried in
    /// the JSON line.
    pub fn extra(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        samples: Option<usize>,
        note: &str,
    ) {
        let note = (!note.is_empty()).then(|| note.to_string());
        self.extra.push((
            name.to_string(),
            Value {
                value,
                unit,
                samples,
                note,
            },
        ));
    }

    /// Record `name` as a metric if it is listed, else as a text line.
    pub fn set_or_print(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        samples: Option<usize>,
    ) {
        if unit_of(name).is_some() {
            self.set(name, value, samples);
        } else {
            self.extra(name, value, unit, samples, "printed only, not gated");
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.value)
    }

    /// The text block and the JSON `metrics` object for the chosen set.
    /// Returns the names of required metrics that are missing.
    pub fn render(&self, traced: bool) -> (Vec<String>, String, Vec<String>) {
        let names: Vec<(String, &'static str, String)> = if traced {
            per_layer()
                .into_iter()
                .map(|(n, u, m, mv)| (n, u, format!(" {{{m} -> {mv}}}")))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u, String::new()))
                .collect()
        };
        let mut lines = Vec::new();
        let mut json = Vec::new();
        let mut missing = Vec::new();
        for (name, unit, layer) in &names {
            match (self.values.get(name), self.absent.get(name)) {
                (Some(v), _) => {
                    lines.push(line(name, v) + layer);
                    json.push(format!(
                        "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                        num(v.value)
                    ));
                }
                (None, Some(reason)) if traced => {
                    lines.push(format!(
                        "metric {name} absent on this workload: {reason}{layer}"
                    ));
                    json.push(format!(
                        "\"{name}\": {{\"value\": 0, \"unit\": \"{unit}\"}}"
                    ));
                }
                _ => missing.push(name.clone()),
            }
        }
        if !traced {
            for (name, v) in &self.extra {
                lines.push(line(name, v));
            }
        }
        (lines, format!("{{{}}}", json.join(", ")), missing)
    }
}

fn line(name: &str, v: &Value) -> String {
    let mut s = format!("metric {name} = {} {}", num(v.value), v.unit);
    if let Some(n) = v.samples {
        s.push_str(&format!(" (n={n})"));
    }
    if let Some(note) = &v.note {
        s.push_str(&format!(" [{note}]"));
    }
    s
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_exactly_the_listed_metrics() {
        let spec = include_str!("../../BENCHMARK.json");
        let names: Vec<String> = crate::WORKLOADS
            .iter()
            .map(|w| w.to_string())
            .chain(END_TO_END.iter().map(|&(n, _)| n.to_string()))
            .chain(per_layer_names().into_iter().map(|(n, _)| n))
            .collect();
        for name in &names {
            assert!(
                spec.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing from BENCHMARK.json"
            );
        }
        assert_eq!(
            spec.matches("\"name\": ").count(),
            names.len(),
            "BENCHMARK.json declares unlisted names"
        );
    }

    #[test]
    fn render_marks_missing_and_absent_metrics() {
        let mut r = Report::default();
        r.set("setup_s", 1.5, Some(3));
        let (_, json, missing) = r.render(false);
        assert!(
            json.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"),
            "{json}"
        );
        assert!(missing.contains(&"peak_rss_mb".to_string()));

        r.absent("pull.bytes", "no pull epochs");
        let (lines, json, missing) = r.render(true);
        assert!(json.contains("\"pull.bytes\": {\"value\": 0"));
        assert!(lines.iter().any(|l| l.contains("pull.bytes absent")));
        assert!(!missing.contains(&"pull.bytes".to_string()));
    }
}
