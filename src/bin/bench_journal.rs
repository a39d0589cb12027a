//! Journaling-overhead benchmark.
//!
//! Runs the same phase-1 exploration three ways — no journal, journal
//! without fsync, journal with fsync — and reports the wall-clock
//! overhead of each journaled mode over the plain run. The durability
//! design targets < 5% overhead for the no-fsync journal (the fsync mode
//! buys crash-consistency across power loss and is allowed to cost more).
//!
//! Usage: bench_journal [--test <id>] [--reps N] [--out FILE]

use soft::agents::OF10;
use soft::harness::{atomic_write, explore_journaled, run_test, TestCase};
use soft::protocol::Protocol;
use soft::sym::ExplorerConfig;
use soft::AgentKind;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn median_ms(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("wall times are finite"));
    samples[samples.len() / 2]
}

fn timed<F: FnOnce()>(f: F) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64() * 1e3
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let test_id = flag_value(&args, "--test").unwrap_or_else(|| "flow_mod".to_string());
    let reps: usize = match flag_value(&args, "--reps").as_deref() {
        None => 5,
        Some(v) => match v.parse() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("bench_journal: --reps must be a positive integer");
                return ExitCode::FAILURE;
            }
        },
    };
    let out = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_journal.json".to_string());

    let Some(test): Option<TestCase> = OF10.find_test(&test_id) else {
        eprintln!("bench_journal: unknown --test '{test_id}' (see `soft tests`)");
        return ExitCode::FAILURE;
    };

    let agent = AgentKind::Reference;
    let cfg = ExplorerConfig::default();
    let dir = std::env::temp_dir().join(format!("soft_bench_journal_{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("bench_journal: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let journal = dir.join("bench.wal");

    // Warm-up run: first exploration pays one-time interner setup.
    let baseline_paths = run_test(agent, &test, &cfg).paths.len();
    eprintln!("bench_journal: '{test_id}', {baseline_paths} paths, {reps} reps per mode");

    // Interleave the three modes within each round so clock-speed drift
    // during the benchmark biases none of them. The journaled modes make
    // the call `soft phase1` makes.
    let durable = |fsync: bool| {
        let _ = std::fs::remove_file(&journal);
        explore_journaled(agent, &test, &cfg, &journal, false, fsync).expect("durable run");
    };
    let (mut plain, mut nofsync, mut fsync) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps {
        plain.push(timed(|| {
            run_test(agent, &test, &cfg);
        }));
        nofsync.push(timed(|| durable(false)));
        fsync.push(timed(|| durable(true)));
    }
    let plain_ms = median_ms(&mut plain);
    let nofsync_ms = median_ms(&mut nofsync);
    let fsync_ms = median_ms(&mut fsync);
    let _ = std::fs::remove_dir_all(&dir);

    let nofsync_pct = (nofsync_ms / plain_ms - 1.0) * 100.0;
    let fsync_pct = (fsync_ms / plain_ms - 1.0) * 100.0;
    let within_target = nofsync_pct < 5.0;

    let json = format!(
        "{{\n  \"test\": \"{test_id}\",\n  \"reps\": {reps},\n  \"paths\": {baseline_paths},\n  \"plain_ms\": {plain_ms:.3},\n  \"journal_nofsync_ms\": {nofsync_ms:.3},\n  \"journal_fsync_ms\": {fsync_ms:.3},\n  \"overhead_nofsync_pct\": {nofsync_pct:.2},\n  \"overhead_fsync_pct\": {fsync_pct:.2},\n  \"nofsync_within_5pct\": {within_target}\n}}\n"
    );
    if let Err(e) = atomic_write(Path::new(&out), json.as_bytes(), true) {
        eprintln!("bench_journal: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "{out}: journal overhead {nofsync_pct:+.2}% (no fsync), {fsync_pct:+.2}% (fsync) over {plain_ms:.1} ms"
    );
    if within_target {
        ExitCode::SUCCESS
    } else {
        eprintln!("bench_journal: no-fsync overhead exceeds the 5% target");
        ExitCode::from(2)
    }
}
