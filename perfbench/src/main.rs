//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <crowd|bubbles|live> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One workload per process, so `peak_rss_mb` and `setup_s` belong to
//! it. The run checks its outputs before it reports a number, prints a
//! context line (host facts, the host-speed reference readings, raw
//! host times, digests, sample counts) and then, as the last line, the
//! result object. It exits 1 when an output check failed
//! and 2 on a usage or set-up error (printing no result). See
//! `perfbench/NOTES.md` for the workloads, the metric definitions and
//! the known-defect ledger.

mod host;
mod live;
mod probe;
mod report;
mod sim;
mod stats;

use std::process::ExitCode;

use codec::json::Json;

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: the pass a sim child process runs.
    child: Option<ChildPass>,
}

/// Passes the sims run in child processes of their own, each on one
/// scenario seed (`--rss-pass <seed>`, `--setup-pass <seed>`).
#[derive(Clone, Copy, Debug, PartialEq)]
enum ChildPass {
    /// One bare pass; prints its digest and the process's peak RSS.
    Rss(u64),
    /// One build; prints its host time.
    Setup(u64),
}

const USAGE: &str =
    "usage: perfbench --workload <crowd|bubbles|live> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut child = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--rss-pass" | "--setup-pass" => {
                let seed = value
                    .parse()
                    .map_err(|_| format!("bad scenario seed {value}"))?;
                child = Some(if flag == "--rss-pass" {
                    ChildPass::Rss(seed)
                } else {
                    ChildPass::Setup(seed)
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        child,
    })
}

/// First line of `cmd`'s standard output, or `"unknown"`.
fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// Host and build facts recorded with every result.
fn host_facts(args: &Args) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    Json::obj()
        .field("workload", args.workload.as_str())
        .field("seed", args.seed)
        .field("seconds", args.seconds)
        .field("trace", args.trace)
        .field("nproc", nproc)
        .field("cpu", cpu)
        .field("rustc", command_line("rustc", &["--version"]))
        .field("commit", command_line("git", &["rev-parse", "HEAD"]))
}

/// The sim workload called `name`, if there is one.
fn sim_workload(name: &str) -> Option<&'static dyn sim::SimWorkload> {
    match name {
        "crowd" => Some(&sim::CrowdSize::FULL),
        "bubbles" => Some(&sim::BubblesSize::FULL),
        _ => None,
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(pass) = args.child {
        let line = match (sim_workload(&args.workload), pass) {
            (Some(w), ChildPass::Rss(seed)) => sim::rss_pass(w, seed),
            (Some(w), ChildPass::Setup(seed)) => sim::setup_pass(w, seed),
            (None, _) => Err(format!("no child pass for workload {}", args.workload)),
        };
        return match line {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let host = host_facts(&args);
    let run = match (sim_workload(&args.workload), args.workload.as_str()) {
        (Some(w), name) => sim::run(w, args.seed, args.seconds, args.trace, Some(name)),
        (None, "live") => live::live(&live::LiveSize::FULL, args.seed, args.seconds, args.trace),
        (None, other) => Err(format!("unknown workload {other}\n{USAGE}")),
    };
    let mut outcome = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = outcome.result_line(args.trace);
    let mut context = Json::obj().field("host", host);
    for (name, value) in std::mem::take(&mut outcome.facts) {
        context = context.field(&name, value);
    }
    context = context.field(
        "problems",
        Json::Arr(outcome.problems.iter().map(|p| p.as_str().into()).collect()),
    );
    println!("{}", context.to_string_compact());
    for p in &outcome.problems {
        eprintln!("perfbench: output check failed: {p}");
    }
    println!("{result}");
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a =
            parse_args(&argv("--workload live --seed 7 --seconds 12 --trace 1")).expect("valid");
        assert_eq!(
            a,
            Args {
                workload: "live".into(),
                seed: 7,
                seconds: 12.0,
                trace: true,
                child: None,
            }
        );
        let child = parse_args(&argv("--workload bubbles --rss-pass 99")).expect("valid");
        assert_eq!(child.child, Some(ChildPass::Rss(99)));
        let child = parse_args(&argv("--workload crowd --setup-pass 7")).expect("valid");
        assert_eq!(child.child, Some(ChildPass::Setup(7)));
        assert!(parse_args(&argv("--seed 7")).is_err());
        assert!(parse_args(&argv("--workload crowd --trace 2")).is_err());
        assert!(parse_args(&argv("--workload crowd --seconds -1")).is_err());
        assert!(parse_args(&argv("--workload crowd --seed")).is_err());
        assert!(parse_args(&argv("--workload crowd --bogus 1")).is_err());
    }
}
