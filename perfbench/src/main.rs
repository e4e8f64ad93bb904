//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 --matchd PATH`
//!
//! Writes scratch files and the traced run's spans under `.bench_out/`
//! in the working directory.
//! Runs one workload once and prints, as the last line of standard
//! output, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (every end-to-end metric untraced, every per-layer metric
//! traced). The lines before it carry the host fingerprint and the raw
//! samples behind every median. `run.py` builds `matchd` and this binary
//! and is the command to use.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use perfbench::bench::{end_to_end, per_layer, Measured, END_TO_END, PER_LAYER};
use perfbench::host::cpu_ticks;
use perfbench::run::Run;
use perfbench::stats::Summary;
use perfbench::workload::{find, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    matchd: PathBuf,
}

fn usage() -> ! {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1 --matchd PATH",
        names.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        matchd: PathBuf::new(),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--matchd" => args.matchd = PathBuf::from(value),
            _ => usage(),
        }
    }
    if args.workload.is_empty() || args.matchd.as_os_str().is_empty() || args.seconds <= 0.0 {
        usage()
    }
    args
}

/// A number as JSON: finite values as measured, anything else as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn summary_json(s: &Summary) -> String {
    let raw: Vec<String> = s.raw.iter().map(|v| num(*v)).collect();
    format!(
        "{{\"median\":{},\"q1\":{},\"q3\":{},\"raw\":[{}]}}",
        num(s.median),
        num(s.q1),
        num(s.q3),
        raw.join(",")
    )
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// nproc, CPU model, rustc, commit and the share of CPU time the host
/// stole since `before` (see `perfbench::host`), as one JSON object.
fn fingerprint(before: Option<(u64, u64)>) -> String {
    let steal = before
        .zip(cpu_ticks())
        .map(|((s0, t0), (s1, t1))| (s1 - s0) as f64 / (t1 - t0).max(1) as f64);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["--version"]);
    let commit = command_line("git", &["rev-parse", "HEAD"]);
    format!(
        "{{\"nproc\":{nproc},\"cpu\":{},\"rustc\":{},\"commit\":{},\"steal_share\":{}}}",
        serde_json::to_string(&cpu).unwrap_or_default(),
        serde_json::to_string(&rustc).unwrap_or_default(),
        serde_json::to_string(&commit).unwrap_or_default(),
        steal.map_or("null".to_string(), num)
    )
}

fn main() -> ExitCode {
    let args = parse_args();
    perfbench::wire::precise_timers();
    let ticks_before = cpu_ticks();
    let Some(workload) = find(&args.workload) else {
        usage()
    };
    let out = PathBuf::from(".bench_out");
    let workdir = out.join(format!(
        "{}-{}-{}",
        workload.name,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&workdir) {
        eprintln!("perfbench: cannot create {}: {e}", workdir.display());
        return ExitCode::FAILURE;
    }
    let mut run = Run::new(
        workload,
        args.seed,
        args.seconds,
        args.matchd.clone(),
        workdir.clone(),
        args.trace,
    );
    let measured: Result<Measured, String> = if args.trace {
        per_layer(&mut run)
    } else {
        end_to_end(&mut run)
    };
    let _ = std::fs::remove_dir_all(&workdir);
    let measured = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", workload.name);
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        let path = out.join(format!("spans-{}-{}.jsonl", workload.name, args.seed));
        if let Err(e) = run.spans.write_jsonl(&path, workload.name) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let selected = match measured.select(names) {
        Ok(s) => s,
        Err(missing) => {
            eprintln!("perfbench: metrics not measured: {missing:?}");
            return ExitCode::FAILURE;
        }
    };
    let samples: Vec<String> = measured
        .samples
        .iter()
        .map(|(n, s)| format!("\"{n}\":{}", summary_json(s)))
        .collect();
    // Values measured beside the metrics, such as `latency_p99_us`.
    let ungated: Vec<String> = measured
        .values
        .iter()
        .filter(|(n, _)| !names.iter().any(|(m, _)| m == n))
        .map(|(n, v)| format!("\"{n}\":{}", num(*v)))
        .collect();
    let kept: Vec<String> = measured
        .kept
        .iter()
        .map(|(n, k, t)| format!("\"{n}\":[{k},{t}]"))
        .collect();
    println!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{},\"ungated\":{{{}}},\"undisturbed\":{{{}}},\"samples\":{{{}}}}}",
        workload.name,
        args.seed,
        num(args.seconds),
        args.trace,
        fingerprint(ticks_before),
        ungated.join(","),
        kept.join(","),
        samples.join(",")
    );
    let correct = run.failures.is_empty();
    for f in run.failures.iter().take(20) {
        eprintln!("perfbench: gate: {f}");
    }
    // A run that fails the gate yields no numbers.
    let metrics: Vec<String> = if correct {
        selected
            .iter()
            .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", num(*v)))
            .collect()
    } else {
        Vec::new()
    };
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        run.attempted.max(1),
        run.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
