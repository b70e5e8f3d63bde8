//! Wall-clock benchmark of the LBM workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <duct-3d|serve-open> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every number is host time on the `gpu-sim` substrate with the V100
//! device model that `JobSpec::build` uses. The run prints the host
//! fingerprint, then every metric with its unit and sample count, then the
//! outcome of the correctness checks, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the run also attaches
//! observability hubs and reports the per-layer ledger instead. Workload
//! choices and the layer → end-to-end map are in `perfbench/RATIONALE.md`.

mod host;
mod ledger;
mod rigs;
mod serve;
mod stats;
mod workloads;

use std::process::ExitCode;

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value was computed from (1 for a count or a single
    /// measurement).
    pub samples: usize,
}

/// Metrics and check outcomes of one run.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Report {
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// Count one correctness check; a failed one is kept with its reason.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Failed ÷ attempted operations.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    obs::json::Value::str(&m.name).to_json(),
                    json_number(m.value),
                    obs::json::Value::str(m.unit).to_json()
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Full-precision JSON number (shortest round-trip form).
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value {v}");
    format!("{v:?}")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {val:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = val.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = val != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(run) = workloads::find(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?} (expected one of {})",
            args.workload,
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let (report, threads) = run(args.seed, args.seconds, args.trace);

    println!(
        "workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("host: {}", host::fingerprint(threads));
    for m in &report.metrics {
        println!(
            "{:<44} {:>16.6} {:<8} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "error_rate {:.6} ({} failed of {} attempted)",
        report.error_rate(),
        report.failed,
        report.attempted
    );
    for f in &report.failures {
        println!("FAILED: {f}");
    }
    println!("{}", report.json_line());
    ExitCode::SUCCESS
}
