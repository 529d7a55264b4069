//! The CounterPoint benchmark.
//!
//! ```text
//! perfbench --workload <case-study|solve-replay> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload: set-up (inputs, cones, one warm-up pass),
//! then passes back to back (a closed loop) for `--seconds`.  Every pass is
//! checked on the output contract (`contract.rs`).  `--trace 0` prints the
//! end-to-end metrics; `--trace 1` alternates untraced passes with traced,
//! layer-by-layer passes (`traced.rs`) and prints the per-layer metrics.  The
//! last line of standard output is the result as one JSON object.  See
//! README.md for the metrics and the steadiness record.

mod contract;
mod reference;
mod traced;
mod workload;

use std::time::{Duration, Instant};
use workload::{Inputs, Kind};

/// End-to-end metrics: name and unit.
const END_TO_END: [(&str, &str); 3] = [("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")];

/// A run's result.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// The workload's throughput, `run_s` restated: printed by name, but not
    /// in the result line, so the gate does not count `run_s` twice.
    throughput: Option<(&'static str, f64, &'static str)>,
}

/// The `q` quantile of `values` (linear interpolation between order
/// statistics; `values` must not be empty).
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Run-queue wait of this process's main thread (`/proc/self/schedstat`,
/// nanoseconds) and the host's steal time (`/proc/stat`, clock ticks).
fn wait_and_steal() -> Option<(u64, u64)> {
    let schedstat = std::fs::read_to_string("/proc/self/schedstat").ok()?;
    let wait = schedstat.split_whitespace().nth(1)?.parse().ok()?;
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let steal = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    Some((wait, steal))
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Tallies passes against the expected digest.
struct Checker {
    expected: u64,
    attempted: usize,
    failed: usize,
}

impl Checker {
    /// Counts one pass.
    fn check(&mut self, workload: &str, digest: Result<u64, String>) {
        self.attempted += 1;
        let failure = match digest {
            Ok(d) if d == self.expected => None,
            Ok(d) => Some(format!(
                "contract digest {d:#018x}, expected {:#018x}",
                self.expected
            )),
            Err(e) => Some(format!("pass failed: {e}")),
        };
        if let Some(message) = failure {
            self.failed += 1;
            eprintln!("{workload}: {message}");
        }
    }
}

/// Set-up plus the checked warm-up pass; returns the inputs, the checker
/// seeded with the expected digest, and the set-up time.
fn set_up(kind: Kind, started: Instant) -> (Inputs, Checker, f64) {
    let inputs = Inputs::new(kind);
    let mut checker = Checker {
        expected: contract::pinned(kind.name()).expect("every workload has a pinned digest"),
        attempted: 0,
        failed: 0,
    };
    checker.check(kind.name(), workload::pass(&inputs).map(|p| p.digest));
    (inputs, checker, started.elapsed().as_secs_f64())
}

/// Runs `kind` for `seconds` (at least one pass).
fn run(kind: Kind, seconds: u64, trace: bool, started: Instant) -> Outcome {
    let (inputs, mut checker, setup_s) = set_up(kind, started);
    let name = kind.name();
    let mut setup_layers = traced::Layers::new();
    setup_layers.insert("models.cone_build_s", inputs.cone_build_s);
    if trace && kind == Kind::SolveReplay {
        let json = traced::record(&inputs, &mut setup_layers);
        if Some(&json) != inputs.trace_json.as_ref() {
            eprintln!("{name}: the traced recording differs from the untraced trace");
            checker.failed += 1;
        }
    }

    let mut passes = Vec::new();
    let mut kernel = reference::Reference::new();
    let mut reference_times = Vec::new();
    let mut traced_passes = Vec::new();
    let before = wait_and_steal();
    let loop_started = Instant::now();
    let deadline = loop_started + Duration::from_secs(seconds);
    loop {
        reference_times.push(kernel.run());
        let outcome = workload::pass(&inputs);
        checker.check(
            name,
            outcome.as_ref().map(|p| p.digest).map_err(Clone::clone),
        );
        let Ok(untraced) = outcome else { break };
        if trace {
            let traced = traced::pass(&inputs).map(|(contract, mut layers, core_s)| {
                let overhead = core_s / untraced.inquiry_s - 1.0;
                layers.insert("telemetry.overhead_share", overhead);
                layers.insert("session.report_json_s", untraced.report_json_s);
                layers.extend(setup_layers.iter().map(|(k, v)| (*k, *v)));
                (contract.digest(), layers)
            });
            checker.check(name, traced.as_ref().map(|t| t.0).map_err(Clone::clone));
            if let Ok((_, layers)) = traced {
                traced_passes.push(layers);
            }
        }
        passes.push(untraced);
        if Instant::now() >= deadline {
            break;
        }
    }
    reference_times.push(kernel.run());

    let mut correct = checker.failed == 0 && !passes.is_empty();
    let mut metrics = Vec::new();
    let mut throughput = None;
    if trace {
        for (metric, unit) in traced::PER_LAYER {
            let values: Vec<f64> = traced_passes
                .iter()
                .map(|layers| layers.get(metric).copied().unwrap_or(0.0))
                .collect();
            let value = if values.is_empty() {
                0.0
            } else {
                median(&values)
            };
            metrics.push((metric, value, unit));
        }
    } else if !passes.is_empty() {
        // `run_s` is the median pass time in units of the reference kernel
        // (the mean of its runs just before and just after the pass), times
        // a constant near the kernel's quiet-host time.  Busy phases slow both
        // alike, so the ratio cancels phases as long as the run
        // (reference.rs; README.md, "Steadiness").
        let times: Vec<f64> = passes.iter().map(|p| p.pass_s).collect();
        let ratios: Vec<f64> = times
            .iter()
            .zip(reference_times.windows(2))
            .map(|(pass_s, around)| pass_s * 2.0 / (around[0] + around[1]))
            .collect();
        let run_s = median(&ratios) * reference::QUIET_S;
        let [fastest, p25, p50, p75, max] =
            [0.0, 0.25, 0.5, 0.75, 1.0].map(|q| quantile(&times, q));
        let [reference_min, reference_median] = [0.0, 0.5].map(|q| quantile(&reference_times, q));
        eprintln!(
            "{name}: {} passes, pass time min {fastest:.4} p25 {p25:.4} median {p50:.4} \
             p75 {p75:.4} max {max:.4} s; reference kernel min {reference_min:.4} \
             median {reference_median:.4} s (quiet host {:.4} s)",
            times.len(),
            reference::QUIET_S
        );
        if let (Some((wait0, steal0)), Some((wait1, steal1))) = (before, wait_and_steal()) {
            let wait_ms = wait1.saturating_sub(wait0) as f64 / 1e6;
            let loop_s = loop_started.elapsed().as_secs_f64();
            eprintln!(
                "{name}: main-thread run-queue wait {wait_ms:.1} ms in {loop_s:.1} s, \
                 host steal {} ticks",
                steal1.saturating_sub(steal0)
            );
        }
        let rss = peak_rss_mb().unwrap_or_else(|e| {
            eprintln!("{name}: {e}");
            correct = false;
            0.0
        });
        for ((metric, unit), value) in END_TO_END.into_iter().zip([run_s, setup_s, rss]) {
            metrics.push((metric, value, unit));
        }
        throughput = Some(match kind {
            Kind::CaseStudy => (
                "sim_maccesses_per_s",
                inputs.accesses as f64 / run_s / 1e6,
                "M/s",
            ),
            Kind::SolveReplay => ("verdicts_per_s", passes[0].verdicts as f64 / run_s, "1/s"),
        });
    }
    if metrics.iter().any(|(_, v, _)| !v.is_finite()) {
        correct = false;
        metrics.retain(|(_, v, _)| v.is_finite());
    }
    Outcome {
        correct,
        attempted: checker.attempted,
        failed: checker.failed,
        metrics,
        throughput,
    }
}

/// The result line the benchmark contract asks for.
fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

struct Args {
    kind: Kind,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut kind, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} value `{value}`"))
        };
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or(format!("unknown workload `{value}`"))?)
            }
            // Checked, but the inputs do not depend on it (`Inputs`).
            "--seed" => _ = number()?,
            "--seconds" => seconds = Some(number()?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("bad --trace value `{value}`")),
            },
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seconds: seconds.unwrap_or(55),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let started = Instant::now();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&raw).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!(
            "usage: perfbench --workload <case-study|solve-replay> --seed <n> \
             --seconds <s> --trace <0|1>"
        );
        std::process::exit(2);
    });
    let kind = args.kind;
    let outcome = run(kind, args.seconds, args.trace, started);
    for (name, value, unit) in outcome.metrics.iter().chain(&outcome.throughput) {
        println!(
            "{:<36} {value:>16.6} {unit}",
            format!("{}/{name}", kind.name())
        );
    }
    let fail_share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "{:<36} {fail_share:>16.6} ratio ({} of {} passes)",
        format!("{}/fail_share", kind.name()),
        outcome.failed,
        outcome.attempted
    );
    println!("{}", result_json(&outcome));
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::JsonValue;

    fn declared(section: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let config: JsonValue = serde_json::from_str(text).expect("BENCHMARK.json parses");
        let entries = config.get(section).and_then(JsonValue::as_array);
        entries
            .expect("section is an array")
            .iter()
            .map(|m| {
                let field = |key| m.get(key).and_then(JsonValue::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn names(metrics: &[(&str, f64, &str)]) -> Vec<(String, String)> {
        let pairs = metrics
            .iter()
            .map(|(n, _, u)| (n.to_string(), u.to_string()));
        pairs.collect()
    }

    #[test]
    fn metric_names_are_well_formed_and_match_benchmark_json() {
        let ours: Vec<(&str, &str)> = END_TO_END.into_iter().chain(traced::PER_LAYER).collect();
        for (name, unit) in &ours {
            let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            assert!(!name.is_empty() && name.chars().all(ok), "bad name {name}");
            assert!(
                unit.chars().all(|c| ok(c) || "/%".contains(c)),
                "bad unit {unit}"
            );
        }
        let expect = |list: &[(&str, &str)]| {
            let pairs = list.iter().map(|(n, u)| (n.to_string(), u.to_string()));
            pairs.collect::<Vec<_>>()
        };
        assert_eq!(declared("end_to_end"), expect(&END_TO_END));
        assert_eq!(declared("per_layer"), expect(&traced::PER_LAYER));
    }

    /// Runs one pass in each mode and checks the result line.
    fn check_workload(kind: Kind) {
        for trace in [false, true] {
            let outcome = run(kind, 0, trace, Instant::now());
            assert!(outcome.correct, "{} trace={trace} failed", kind.name());
            assert_eq!(outcome.failed, 0);
            assert!(outcome.attempted >= 2);
            let section = if trace { "per_layer" } else { "end_to_end" };
            assert_eq!(names(&outcome.metrics), declared(section));
            assert_eq!(outcome.throughput.is_some(), !trace);
            let line: JsonValue = serde_json::from_str(&result_json(&outcome)).unwrap();
            assert_eq!(line.get("correct"), Some(&JsonValue::Bool(true)));
        }
    }

    #[test]
    fn case_study_emits_every_metric() {
        check_workload(Kind::CaseStudy);
    }

    #[test]
    fn solve_replay_emits_every_metric() {
        check_workload(Kind::SolveReplay);
    }

    #[test]
    fn traced_split_reproduces_the_untraced_pass() {
        for kind in Kind::ALL {
            let inputs = Inputs::new(kind);
            let untraced = workload::pass(&inputs).unwrap();
            let (traced, _, _) = traced::pass(&inputs).unwrap();
            assert_eq!(traced.digest(), untraced.digest, "{}", kind.name());
            assert_eq!(Some(untraced.digest), contract::pinned(kind.name()));
        }
    }

    #[test]
    fn traced_recording_reproduces_the_trace() {
        let inputs = Inputs::new(Kind::SolveReplay);
        let mut layers = traced::Layers::new();
        assert_eq!(
            Some(traced::record(&inputs, &mut layers)),
            inputs.trace_json
        );
        assert!(layers["collect.trace_record_s"] > 0.0);
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&args(
            "--workload solve-replay --seed 3 --seconds 5 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (ok.kind, ok.seconds, ok.trace),
            (Kind::SolveReplay, 5, true)
        );
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload case-study --trace 2")).is_err());
        assert!(parse_args(&args("--workload case-study --bogus 1")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
    }
}
