//! The wall-clock benchmark of the DLA cluster.
//!
//! ```text
//! dla-benchmark --workload <name> --seed N --seconds S --trace 0|1
//!     one run of one workload; the last line of standard output is
//!     the driver's JSON object (end-to-end metrics untraced, per-layer
//!     metrics traced)
//! dla-benchmark [--seed N] [--seconds S] [--trace 1]
//!     all three workloads, one child process each, as a table; with
//!     --trace 1 a traced pass follows the untraced one
//! dla-benchmark --check-repeat [--seed N] [--seconds S]
//!     two untraced sets on one seed (each the median of three full
//!     runs, alternating) and one run on the next seed; fails when the
//!     two sets disagree by more than a metric's bound
//! ```
//!
//! Run it through `benchmark/run.sh`, which builds `dla-node` and this
//! binary first.

#![deny(rust_2018_idioms)]

mod env;
mod mesh;
mod probes;
mod report;
#[cfg(test)]
mod smoke;
mod spec;
mod stages;
mod stats;
mod trace;
mod workloads;

use report::{end_to_end, print_metrics, result_json, Metric};
use spec::{Better, Workload, END_TO_END, REFERENCE_SECONDS};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use workloads::{RunOutput, Sizes};

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check_repeat: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 12,
        seconds: REFERENCE_SECONDS,
        trace: false,
        check_repeat: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 1.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--check-repeat" => args.check_repeat = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn describe(run: &RunOutput) {
    println!(
        "workload {} sizes {:?} measured {:.2} s",
        run.workload.name(),
        run.sizes,
        run.measured_s
    );
    for failure in &run.samples.failures {
        println!("FAILED {failure}");
    }
}

/// One run of one workload, in this process.
fn run_one(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<bool, String> {
    let scratch = env::Scratch::new().map_err(|e| format!("creating benchmark/out: {e}"))?;
    // One CPU for the whole run, children included: see `CpuPin`.
    let pin = env::CpuPin::cheapest_sync_cpu(scratch.dir());
    if pin.is_none() {
        println!("warning: could not pin to one CPU; latencies will be bimodal");
    }
    if !trace {
        let sizes = Sizes::of(workload, seconds, 1);
        let run = workloads::run(workload, seed, sizes, &scratch, &mut None)?;
        describe(&run);
        let metrics = end_to_end(&run);
        print_metrics(&metrics);
        println!(
            "{}",
            result_json(run.samples.attempted, run.samples.failed, &metrics)
        );
        return Ok(run.samples.failed == 0);
    }
    // Traced pass: the same sizes twice, at half length each — first
    // with telemetry off (the reference throughput), then with the
    // recorder installed and the harness spans on.
    let sizes = Sizes::of(workload, seconds / 2.0, 1);
    let reference = workloads::run(workload, seed, sizes, &scratch, &mut None)?;
    describe(&reference);
    let mut tracer = Some(trace::Tracer::install());
    let traced = workloads::run(workload, seed, sizes, &scratch, &mut tracer)?;
    describe(&traced);
    let chrome = tracer.as_mut().expect("installed above").chrome_json();
    // The probes time isolated calls: telemetry goes off again first.
    drop(tracer);
    let path = env::out_root().join(format!("trace_{}.json", workload.name()));
    std::fs::write(&path, chrome).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("chrome trace written to {}", path.display());

    let reference_ops_per_s = reference.samples.attempted as f64 / reference.samples.op_seconds();
    let layers = probes::per_layer(
        &traced,
        reference_ops_per_s,
        &scratch,
        probes::Effort::full(),
    )?;
    for line in &layers.layer_map {
        println!("layer-map {line}");
    }
    let metrics: Vec<Metric> = spec::PER_LAYER
        .iter()
        .zip(layers.metrics)
        .map(|(spec, (name, value))| Metric {
            name,
            value,
            unit: spec.unit,
            note: String::new(),
        })
        .collect();
    print_metrics(&metrics);
    let attempted = reference.samples.attempted + traced.samples.attempted;
    let failed = reference.samples.failed + traced.samples.failed;
    println!("{}", result_json(attempted, failed, &metrics));
    Ok(failed == 0)
}

/// Metric values of one child run, by name.
type Values = BTreeMap<String, f64>;

/// Runs one workload in a child process (so peak memory and process
/// state are its own), echoes its output, and collects its metrics.
fn run_child(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Values, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the {} run: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut values = Values::new();
    for line in stdout.lines() {
        println!("  {line}");
        let mut fields = line.split_whitespace();
        if fields.next() == Some("metric") {
            if let (Some(name), Some(Ok(value))) = (fields.next(), fields.next().map(str::parse)) {
                values.insert(name.to_string(), value);
            }
        }
    }
    if output.status.success() {
        Ok(values)
    } else {
        Err(format!(
            "the {} run (seed {seed}, trace {}) failed: {}",
            workload.name(),
            u8::from(trace),
            output.status
        ))
    }
}

/// One full set: every workload once, untraced (and traced on request).
fn run_set(seed: u64, seconds: f64, trace: bool) -> Result<BTreeMap<&'static str, Values>, String> {
    let mut set = BTreeMap::new();
    for workload in Workload::ALL {
        println!("== {} (seed {seed}, telemetry off)", workload.name());
        set.insert(workload.name(), run_child(workload, seed, seconds, false)?);
        if trace {
            println!("== {} (seed {seed}, traced)", workload.name());
            run_child(workload, seed, seconds, true)?;
        }
    }
    Ok(set)
}

fn print_table(set: &BTreeMap<&'static str, Values>) {
    print!("{:<28}{:>6}", "end-to-end metric", "unit");
    for workload in Workload::ALL {
        print!("{:>16}", workload.name());
    }
    println!();
    for metric in END_TO_END {
        print!("{:<28}{:>6}", metric.name, metric.unit);
        for workload in Workload::ALL {
            print!("{:>16.4}", set[workload.name()][metric.name]);
        }
        println!();
    }
}

/// Runs behind each side of `--check-repeat`; a side's figure is their
/// median.
const RUNS_PER_SIDE: usize = 3;

/// `--check-repeat`: two sets of the same build and seed must agree on
/// every end-to-end metric within its bound (the two byte counts
/// exactly); a run on the next seed is recorded beside them. A set is
/// the per-metric median of three full runs, and the two sets' runs
/// alternate (first-second, second-first, ...), so that the machine's
/// slow drift falls on both alike.
fn check_repeat(seed: u64, seconds: f64) -> Result<bool, String> {
    let mut sides: [Vec<BTreeMap<&'static str, Values>>; 2] = [Vec::new(), Vec::new()];
    for round in 0..RUNS_PER_SIDE {
        for side in [round % 2, 1 - round % 2] {
            println!(
                "== set {} of 2, run {} of {RUNS_PER_SIDE}",
                side + 1,
                round + 1
            );
            sides[side].push(run_set(seed, seconds, false)?);
        }
    }
    let side_median = |side: usize, workload: &str, metric: &str| {
        let runs: Vec<f64> = sides[side]
            .iter()
            .map(|set| set[workload][metric])
            .collect();
        stats::median(&runs)
    };
    let other_seed = run_set(seed + 1, seconds, false)?;
    let mut agree = true;
    println!(
        "{:<16}{:<28}{:>14}{:>14}{:>9}{:>7}{:>14}",
        "workload",
        "metric",
        "first",
        "second",
        "spread",
        "bound",
        format!("seed {}", seed + 1)
    );
    for workload in Workload::ALL {
        for metric in END_TO_END {
            let (a, b) = (
                side_median(0, workload.name(), metric.name),
                side_median(1, workload.name(), metric.name),
            );
            let exact = metric.unit == "B";
            let worse = match metric.better {
                Better::Lower => (b - a) / a,
                Better::Higher => (a - b) / a,
            };
            let ok = if exact {
                a == b
            } else {
                worse.abs() <= metric.bound
            };
            agree &= ok;
            println!(
                "{:<16}{:<28}{:>14.4}{:>14.4}{:>8.1}%{:>6.0}%{:>14.4}{}",
                workload.name(),
                metric.name,
                a,
                b,
                worse * 100.0,
                metric.bound * 100.0,
                other_seed[workload.name()][metric.name],
                if ok { "" } else { "  <-- DISAGREE" }
            );
        }
    }
    Ok(agree)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("dla-benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.check_repeat {
        check_repeat(args.seed, args.seconds)
    } else if let Some(workload) = args.workload {
        run_one(workload, args.seed, args.seconds, args.trace)
    } else {
        run_set(args.seed, args.seconds, args.trace).map(|set| {
            print_table(&set);
            true
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("dla-benchmark: failed operations or disagreeing sets, see above");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("dla-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
