//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <deep-grid|powerlaw-w|serve-mix> --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` measures the per-layer metrics from spans the benchmark
//! records around its own calls into each layer. Human-readable lines
//! come first; the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. The exit code is 0
//! only when the correctness gate passed and every metric was measured.
//! Spans are written to `.bench_out/spans-<workload>-<seed>.tsv`.
//!
//! Why each workload was chosen is recorded in `BENCHMARK.json`; the
//! module behind each per-layer metric, and the end-to-end metric and
//! workload it should move, in [`report::PER_LAYER`], and every traced
//! run prints them next to the values.

mod env;
mod gate;
mod library;
mod report;
mod serve_mix;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use gate::Gate;
use report::Report;
use trace::Tracer;

/// Directory (relative to the working directory) for checkpoints and
/// span dumps.
const OUT_DIR: &str = ".bench_out";

pub const WORKLOADS: [&str; 3] = ["deep-grid", "powerlaw-w", "serve-mix"];

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub out_dir: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (want one of {WORKLOADS:?})"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        out_dir: PathBuf::from(OUT_DIR),
    })
}

/// A per-workload stream id for the seeded generator, so workloads draw
/// unrelated sequences from one seed.
pub fn workload_stream(name: &str) -> u64 {
    name.bytes()
        .fold(0u64, |h, b| h.wrapping_mul(31).wrapping_add(u64::from(b)))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("error: cannot create {}: {e}", args.out_dir.display());
        return ExitCode::from(2);
    }
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("env nproc={} {}", env::nproc(), env::cache_line());

    let mut report = Report::default();
    let mut gate = Gate::default();
    let mut tr = Tracer::new(args.trace, Instant::now());
    match args.workload.as_str() {
        "deep-grid" => library::run(
            library::Library::DeepGrid,
            &args,
            &mut report,
            &mut gate,
            &mut tr,
        ),
        "powerlaw-w" => library::run(
            library::Library::PowerlawW,
            &args,
            &mut report,
            &mut gate,
            &mut tr,
        ),
        _ => serve_mix::run(&args, &mut report, &mut gate, &mut tr),
    }
    let rss = env::peak_rss_mb();
    if let Some(mb) = rss {
        report.set_noted(
            "peak_rss_mb",
            mb,
            None,
            Some("VmHWM of this process".into()),
        );
    }
    for name in [
        "graphdata.csr_bytes",
        "split.resident_bytes",
        "pull.bytes",
        "checkpoint.bytes",
    ] {
        if let Some(v) = report.get(name) {
            println!(
                "memory {name} = {} bytes (computed) next to peak_rss_mb = {:.1} MiB",
                v,
                rss.unwrap_or(0.0)
            );
        }
    }
    let failed_ratio = if gate.attempted() == 0 {
        1.0
    } else {
        gate.failed() as f64 / gate.attempted() as f64
    };
    report.extra(
        "failed_ratio",
        failed_ratio,
        "ratio",
        Some(gate.attempted() as usize),
        "failed over attempted",
    );

    if args.trace {
        print_self_times(&tr);
        let path = args
            .out_dir
            .join(format!("spans-{}-{}.tsv", args.workload, args.seed));
        match tr.write_tsv(&path) {
            Ok(()) => println!("spans {} written to {}", tr.spans().len(), path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }
    for p in gate.problems() {
        println!("gate FAILED: {p}");
    }
    let (lines, metrics, missing) = report.render(args.trace);
    for l in &lines {
        println!("{l}");
    }
    for m in &missing {
        println!("metric {m} MISSING");
    }
    let correct = gate.passed();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        gate.attempted(),
        gate.failed()
    );
    if correct && missing.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Per span name: count, total and self time, computed from the spans.
fn print_self_times(tr: &Tracer) {
    let self_ns = trace::self_times(tr.spans());
    let mut by_name: std::collections::BTreeMap<&str, (usize, u64, u64)> = Default::default();
    for (s, own) in tr.spans().iter().zip(self_ns) {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration_ns();
        e.2 += own;
    }
    for (name, (n, total, own)) in by_name {
        println!(
            "span {name}: n={n} total_ms={:.3} self_ms={:.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_and_reject_garbage() {
        let a = parse_args(&argv("--workload serve-mix --seed 9 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-mix", 9, 3, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload deep-grid --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload deep-grid --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload deep-grid --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
    }
}
