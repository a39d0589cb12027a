//! `perfbench` — the repository benchmark: `soft run` and `soft serve`
//! timed end to end, and layer by layer in a separate traced run.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <interop|eth_flow_mod|fig4_two|serve> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --record-verdicts perfbench/verdicts.tsv
//! ```
//!
//! Run it from the repository root. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`). The line before it records the run environment and the
//! sample count behind every median and percentile. Scratch files go to
//! `.perfbench_out/` under the current directory; a traced run leaves
//! its spans there as a Chrome trace. See `perfbench/README.md` for the
//! workloads and the layer-to-end-to-end map.

mod serve;
mod session;
mod spans;
mod stats;
mod verdicts;

use soft::harness::json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Worker threads for every workload (the reference box has 2 cores).
pub const JOBS: usize = 2;
/// Witness fuzz mutations per confirmed witness.
pub const FUZZ: usize = 4;

/// A metric value with its unit, in output order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn to_json(&self) -> Json {
        Json::Object(
            self.0
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Json::Object(vec![
                            ("value".to_string(), num(*value)),
                            ("unit".to_string(), Json::Str(unit.to_string())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// A JSON number that keeps every digit of a measured value.
pub fn num(v: f64) -> Json {
    if v.is_finite() {
        Json::Float(v)
    } else {
        Json::Null
    }
}

/// A JSON array of measured values.
pub fn series(values: &[f64]) -> Json {
    Json::Array(values.iter().map(|&v| num(v)).collect())
}

/// Operation accounting behind `correct`, `attempted` and `failed`.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Count one operation; `Err` marks it failed (and is reported).
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            eprintln!("perfbench: FAILED: {e}");
            self.failures.push(e);
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// 1 − failed/attempted: the share of operations whose output was
    /// correct.
    pub fn pass_frac(&self) -> f64 {
        1.0 - self.failed() as f64 / self.attempted.max(1) as f64
    }
}

/// Check results gathered per test, so that a test is one operation
/// however many checks it took (table match, every witness replay,
/// every resubmit). One test that is wrong on every run then moves
/// `pass_frac` by its share of the tests, not by one check in hundreds.
#[derive(Default)]
pub struct PerTest(Vec<(String, Vec<String>)>);

impl PerTest {
    pub fn add(&mut self, test: &str, outcome: Result<(), String>) {
        let i = match self.0.iter().position(|(t, _)| t == test) {
            Some(i) => i,
            None => {
                self.0.push((test.to_string(), Vec::new()));
                self.0.len() - 1
            }
        };
        if let Err(e) = outcome {
            self.0[i].1.push(e);
        }
    }

    /// Count one operation per test, failed if any of its checks failed.
    pub fn settle(self, tally: &mut Tally) {
        for (_, errors) in self.0 {
            tally.op(if errors.is_empty() {
                Ok(())
            } else {
                Err(errors.join("; "))
            });
        }
    }
}

/// What one workload run hands back for printing.
pub struct Outcome {
    pub metrics: Metrics,
    pub tally: Tally,
    /// Sample counts and percentile ranks, recorded beside the env.
    pub samples: Vec<(String, Json)>,
    /// The traced run's spans, written out when the run ends.
    pub trace: Option<spans::Recorder>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let workload = flag(args, "--workload").ok_or("missing --workload")?;
    let seed = flag(args, "--seed")
        .ok_or("missing --seed")?
        .parse()
        .map_err(|_| "--seed takes an unsigned integer")?;
    let seconds: f64 = flag(args, "--seconds")
        .ok_or("missing --seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number")?;
    let trace = match flag(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
    };
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload: workload.to_string(),
        seed,
        seconds,
        trace,
    })
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Hand the heap that earlier sessions freed back to the OS, then
/// restart the peak resident set size from the current one (Linux
/// `clear_refs` value 5), so that every session's peak is measured from
/// the same baseline rather than on top of the allocator's retained
/// memory.
pub fn reset_peak_rss() {
    // SAFETY: glibc's malloc_trim only releases free pages of its own
    // arenas; it takes no pointers and is safe to call at any time.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MiB (`VmHWM`) since start
/// or the last [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a over the program's sources (paths and bytes, sorted), so runs
/// outside a git checkout still name the code they measured.
fn source_hash(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("src"), &mut files);
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn env_json(args: &Args, samples: Vec<(String, Json)>) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "none".into());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    Json::Object(vec![
        ("workload".to_string(), Json::Str(args.workload.clone())),
        ("trace".to_string(), Json::Bool(args.trace)),
        ("seed".to_string(), Json::UInt(args.seed)),
        ("seconds".to_string(), num(args.seconds)),
        ("nproc".to_string(), Json::UInt(nproc as u64)),
        ("jobs".to_string(), Json::UInt(JOBS as u64)),
        ("fuzz".to_string(), Json::UInt(FUZZ as u64)),
        ("commit".to_string(), Json::Str(commit)),
        (
            "source_fnv".to_string(),
            Json::Str(source_hash(Path::new("."))),
        ),
        ("rustc".to_string(), Json::Str(rustc)),
        ("samples".to_string(), Json::Object(samples)),
    ])
}

/// Scratch directory for one run, under the current directory.
pub fn work_dir() -> PathBuf {
    PathBuf::from(".perfbench_out").join(format!("run-{}", std::process::id()))
}

fn record_verdicts(path: &str) -> ExitCode {
    match session::record_verdicts() {
        Ok(rows) => {
            let text = format!(
                "# Expected verdicts, recorded with the fresh solver \
                 (perfbench --record-verdicts).\n{}",
                verdicts::render(&rows)
            );
            if let Err(e) = soft::harness::atomic_write(Path::new(path), text.as_bytes(), false) {
                eprintln!("perfbench: write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("perfbench: wrote {} rows to {path}", rows.len());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(path) = flag(&argv, "--record-verdicts") {
        return record_verdicts(path);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <interop|eth_flow_mod|fig4_two|serve> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let work = work_dir();
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let result = match args.workload.as_str() {
        "serve" => serve::run(args.seed, args.seconds, args.trace, &work),
        name if session::tests_for(name).is_some() => {
            session::run(name, args.seed, args.seconds, args.trace, &work)
        }
        name => Err(format!("unknown workload '{name}'")),
    };
    let _ = std::fs::remove_dir_all(&work);
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let env = env_json(&args, outcome.samples);
    if let Some(rec) = &outcome.trace {
        let path = format!(".perfbench_out/trace_{}_{}.json", args.workload, args.seed);
        let mut text = String::new();
        rec.to_trace_json(vec![("env".to_string(), env.clone())])
            .write_into(&mut text);
        match soft::harness::atomic_write(Path::new(&path), text.as_bytes(), false) {
            Ok(()) => eprintln!("perfbench: spans written to {path}"),
            Err(e) => eprintln!("perfbench: write {path}: {e}"),
        }
    }
    let mut text = String::new();
    Json::Object(vec![("env".to_string(), env)]).write_into(&mut text);
    println!("{text}");
    let correct = outcome.tally.failures.is_empty();
    let line = Json::Object(vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::UInt(outcome.tally.attempted)),
        ("failed".to_string(), Json::UInt(outcome.tally.failed())),
        ("metrics".to_string(), outcome.metrics.to_json()),
    ]);
    let mut text = String::new();
    line.write_into(&mut text);
    println!("{text}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_test_failing_many_checks_is_one_failed_operation() {
        let mut checks = PerTest::default();
        for test in ["packet_out", "set_config", "concrete", "queue_config"] {
            checks.add(test, Ok(()));
        }
        // Every one of 92 replays of one test fails: still one failed
        // test out of four.
        for i in 0..92 {
            checks.add("packet_out", Err(format!("witness {i}")));
        }
        let mut tally = Tally::default();
        checks.settle(&mut tally);
        assert_eq!((tally.attempted, tally.failed()), (4, 1));
        assert_eq!(tally.pass_frac(), 0.75);
        assert!(tally.failures[0].starts_with("witness 0; witness 1;"));
    }

    #[test]
    fn a_test_seen_only_through_passing_checks_passes() {
        let mut checks = PerTest::default();
        checks.add("concrete", Ok(()));
        checks.add("concrete", Ok(()));
        let mut tally = Tally::default();
        checks.settle(&mut tally);
        assert_eq!((tally.attempted, tally.failed()), (1, 0));
        assert_eq!(tally.pass_frac(), 1.0);
    }
}
