//! The strudel benchmark: one command, three workloads, end-to-end and
//! per-layer metrics, every answer checked.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-hot|serve-cold|paper-pipeline --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. A table of the
//! same metrics precedes it, and standard error carries the run's context
//! (commit, cores, kernel, poller backend, framings, seed) and detail. The
//! full record, and with `--trace 1` the spans, are written under
//! `perfbench/out/`.

mod loadgen;
mod pipeline;
mod replay;
mod report;
mod serve;
mod spans;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::{Report, END_TO_END, PER_LAYER};

const WORKLOADS: [&str; 3] = ["serve-hot", "serve-cold", "paper-pipeline"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut traced = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => {
                return Err(format!(
                    "unknown workload '{value}'; expected one of {WORKLOADS:?}"
                ))
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed '{value}'"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad seconds '{value}'"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        traced,
    })
}

/// The benchmark's output directory, inside the checkout.
pub fn out_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit the checkout was made from, when it carries git metadata.
fn commit() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let head = std::fs::read_to_string(root.join(".git/HEAD")).unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(root.join(".git").join(reference))
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".to_owned()),
        None if !head.is_empty() => head.to_owned(),
        None => "unknown".to_owned(),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    report.note("workload", &args.workload);
    report.note("seed", args.seed);
    report.note("seconds", args.seconds);
    report.note("trace", args.traced as u8);
    report.note("commit", commit());
    report.note(
        "nproc",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    report.note(
        "kernel",
        std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".to_owned()),
    );

    // The host's speed at the start, as the calibration kernel sees it.
    let calibrations: Vec<f64> = (0..5).map(|_| stats::calibrate()).collect();
    report.note("calibration_s", stats::median(&calibrations));

    let outcome = match args.workload.as_str() {
        "paper-pipeline" => {
            pipeline::run(args.seed, args.seconds, args.traced, &mut report);
            Ok(())
        }
        "serve-hot" => serve::run(
            serve::Kind::Hot,
            args.seed,
            args.seconds,
            args.traced,
            &mut report,
        ),
        "serve-cold" => serve::run(
            serve::Kind::Cold,
            args.seed,
            args.seconds,
            args.traced,
            &mut report,
        ),
        _ => unreachable!("validated by parse_args"),
    };
    if let Err(err) = outcome {
        eprintln!("perfbench: {}: {err}", args.workload);
        return ExitCode::FAILURE;
    }
    let tally = report.tally.clone();
    let failed_share = tally.failed as f64 / tally.attempted.max(1) as f64;
    report.set("ok_share", 1.0 - failed_share);
    report.set("peak_rss_mb", peak_rss_mb());
    report.note("failed_share", failed_share);
    for message in tally.messages {
        report.note("failure", message);
    }

    for (key, value) in &report.notes {
        eprintln!("# {key}: {value}");
    }
    if !args.traced {
        // Per-layer figures an untraced run measured on the way (printed in
        // the result line by traced runs only).
        for (name, unit) in PER_LAYER {
            if let Some(value) = report.metrics.get(name) {
                eprintln!("# measured.{name}: {value} {unit}");
            }
        }
    }
    let catalogue: &[(&str, &str)] = if args.traced { &PER_LAYER } else { &END_TO_END };
    let line = report.result_line(args.traced);
    write_record(&args, &report, &line);
    for (name, unit) in catalogue {
        let value = if *name == "setup_s" {
            report.setup_s
        } else {
            report.metrics.get(name).copied().unwrap_or(0.0)
        };
        println!("{name:<28} {value:>16.6} {unit}");
    }
    println!("{line}");
    ExitCode::SUCCESS
}

/// Writes the run's record: context, detail, and the result line.
fn write_record(args: &Args, report: &Report, line: &str) {
    let mut text = String::from("{\n  \"notes\": [\n");
    for (idx, (key, value)) in report.notes.iter().enumerate() {
        let sep = if idx + 1 == report.notes.len() {
            ""
        } else {
            ","
        };
        text.push_str(&format!(
            "    [{}, {}]{sep}\n",
            json_string(key),
            json_string(value)
        ));
    }
    text.push_str(&format!("  ],\n  \"result\": {line}\n}}\n"));
    let path = out_dir().join(format!("{}-trace{}.json", args.workload, args.traced as u8));
    if let Err(err) = std::fs::write(&path, text) {
        eprintln!("perfbench: could not write {}: {err}", path.display());
    }
}

/// A JSON string literal.
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
