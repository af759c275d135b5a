//! The `benchmark` binary.
//!
//! ```text
//! benchmark [--workload NAME]... [--seed N] [--seconds S] [--trace [0|1]] [--bless]
//! benchmark repeat --out DIR [--runs N] [--first-seed N] [--seconds S] [--trace [0|1]] [--workload NAME]...
//! benchmark compare A B
//! ```
//!
//! With one `--workload` the run happens in this process and the last
//! line of standard output is its result. With several (or none, meaning
//! all six), each workload runs in a child process of its own, so peak
//! memory is per workload, and each result line gains a `workload` key.

use preexec_json::Json;
use preexec_perfbench::compare::{compare, SPEC};
use preexec_perfbench::run::{run, Settings, DEFAULT_SEED};
use preexec_perfbench::workloads::NAMES;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage:
  benchmark [--workload NAME]... [--seed N] [--seconds S] [--trace [0|1]] [--bless]
  benchmark repeat --out DIR [--runs N] [--first-seed N] [--seconds S] [--trace [0|1]] [--workload NAME]...
  benchmark compare A B
workloads: select-cold sweep-cold sweep-warm atlas-grid adapt-suite serve-mix";

/// Seconds the timed loop runs by default (`run_seconds` in BENCHMARK.json).
const DEFAULT_SECONDS: f64 = 15.0;

struct Args {
    workloads: Vec<String>,
    settings: Settings,
    out: Option<PathBuf>,
    runs: u64,
    first_seed: u64,
    positional: Vec<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        settings: Settings {
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            bless: false,
        },
        out: None,
        runs: 10,
        first_seed: 1,
        positional: Vec::new(),
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = |flag: &str, v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number, got {v:?}"))
        };
        match arg.as_str() {
            "--workload" => {
                let w = value(arg)?;
                if !NAMES.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}"));
                }
                a.workloads.push(w);
            }
            "--seed" => a.settings.seed = number(arg, value(arg)?)?,
            "--seconds" => {
                let v = value(arg)?;
                a.settings.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds needs a number, got {v:?}"))?;
            }
            "--trace" => {
                a.settings.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--bless" => a.settings.bless = true,
            "--out" => a.out = Some(PathBuf::from(value(arg)?)),
            "--runs" => a.runs = number(arg, value(arg)?)?,
            "--first-seed" => a.first_seed = number(arg, value(arg)?)?,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            other => a.positional.push(other.to_string()),
        }
    }
    if a.workloads.is_empty() {
        a.workloads = NAMES.iter().map(|s| s.to_string()).collect();
    }
    Ok(a)
}

/// Arguments that rerun `workload` in a child process.
fn child_args(workload: &str, s: &Settings) -> Vec<String> {
    let mut args = vec![
        "--workload".to_string(),
        workload.to_string(),
        "--seed".to_string(),
        s.seed.to_string(),
        "--seconds".to_string(),
        s.seconds.to_string(),
        "--trace".to_string(),
        if s.trace { "1" } else { "0" }.to_string(),
    ];
    if s.bless {
        args.push("--bless".to_string());
    }
    args
}

/// Runs `workload` in a child process and returns its standard output.
fn child(workload: &str, s: &Settings) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate this binary: {e}"))?;
    let out = Command::new(exe)
        .args(child_args(workload, s))
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("start {workload}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload} exited with {}", out.status));
    }
    String::from_utf8(out.stdout).map_err(|e| format!("{workload}: output is not UTF-8: {e}"))
}

/// The result line of a child's output, tagged with its workload.
fn tagged(workload: &str, stdout: &str) -> Result<Json, String> {
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} printed nothing"))?;
    match preexec_json::parse(last).map_err(|e| format!("{workload}: {e}"))? {
        Json::Object(fields) => {
            let mut tagged = vec![("workload".to_string(), Json::Str(workload.to_string()))];
            tagged.extend(fields);
            Ok(Json::Object(tagged))
        }
        _ => Err(format!("{workload}: result is not an object")),
    }
}

/// One workload in this process.
fn single(workload: &str, s: &Settings) -> Result<(), String> {
    let scratch = Path::new("target/bench-tmp").join(format!("{workload}-{}", std::process::id()));
    let outcome = run(workload, s, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    let outcome = outcome?;
    for problem in &outcome.problems {
        eprintln!("benchmark: {workload}: {problem}");
    }
    println!("{}", outcome.summary);
    println!("{}", outcome.to_json());
    Ok(())
}

/// `benchmark repeat`: runs each workload `runs` times with consecutive
/// seeds, appending each result line to `<out>/<workload>.jsonl`.
fn repeat(a: &Args) -> Result<(), String> {
    let out = a.out.as_ref().ok_or("repeat needs --out DIR")?;
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    for workload in &a.workloads {
        let path = out.join(format!("{workload}.jsonl"));
        for seed in a.first_seed..a.first_seed + a.runs {
            let s = Settings {
                seed,
                ..a.settings.clone()
            };
            let stdout = child(workload, &s)?;
            for line in stdout.lines().filter(|l| l.starts_with('#')) {
                eprintln!("{line}");
            }
            let last = stdout.lines().last().unwrap_or_default();
            eprintln!("{workload} seed {seed}: {last}");
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .and_then(|mut f| writeln!(f, "{last}"))
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    Ok(())
}

fn main_with(args: &[String]) -> Result<(), String> {
    let a = parse(args)?;
    match a.positional.first().map(String::as_str) {
        Some("compare") => {
            let [_, x, y] = a.positional.as_slice() else {
                return Err("compare needs two result directories".into());
            };
            // The bounds of the BENCHMARK.json this binary was built with,
            // wherever it runs from.
            let spec = preexec_json::parse(SPEC).map_err(|e| format!("BENCHMARK.json: {e}"))?;
            let (report, moved) = compare(&spec, Path::new(x), Path::new(y))?;
            print!("{report}");
            println!("{moved} (metric, workload) pairs improved or regressed");
            Ok(())
        }
        Some("repeat") => repeat(&a),
        Some(other) => Err(format!("unknown command {other:?}")),
        None if a.workloads.len() == 1 => single(&a.workloads[0], &a.settings),
        None => {
            for workload in &a.workloads {
                let stdout = child(workload, &a.settings)?;
                let n = stdout.lines().count();
                for line in stdout.lines().take(n.saturating_sub(1)) {
                    println!("{line}");
                }
                println!("{}", tagged(workload, &stdout)?);
            }
            Ok(())
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match main_with(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
