//! Solver-core benchmark: fresh vs incremental crosscheck solving.
//!
//! For each test, explores both agents once (setup, untimed), then runs
//! the pair-matrix crosscheck twice — with the per-worker incremental
//! contexts disabled (every query a fresh solve) and enabled (assumption
//! probes over a persistent CNF with retained learned clauses) — and
//! records the wall-clock plus the merged [`SolverStats`] of each mode:
//! bit-blast vs CDCL-search time split, queries decided by
//! simplification, assumption probes and their Unsat hit rate, learned
//! clauses retained, and CNF cache hits. The DAG-sharing ratio of the group
//! conditions (unique hash-consed nodes / total nodes) is reported per
//! test as the structural headroom the incremental encoding exploits.
//!
//! Both modes must produce identical verdicts — the bench exits 1 on any
//! divergence, so the speedup numbers can never quietly come from drift.
//!
//! Usage: bench_solver [--test <id|interop|all|a,b,c>] [--jobs N]
//!                     [--reps N] [--out FILE] [--smoke]
//!
//! `--smoke` shrinks the suite to one quick test with a single rep — the
//! CI configuration, proving the bench stays runnable without paying for
//! the full matrix.

use soft::agents::OF10;
use soft::core::{crosscheck, CrosscheckConfig, CrosscheckResult, GroupedResults};
use soft::harness::{atomic_write, run_test, suite, TestCase, TestRunFile};
use soft::protocol::Protocol;
use soft::smt::{metrics::dag_shared_nodes, SolverBudget, SolverStats};
use soft::sym::ExplorerConfig;
use soft::witness::DEFAULT_SEED;
use soft::{AgentKind, Soft};
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

/// A stable digest of everything verdict-like in a crosscheck result.
/// Two runs with equal digests decided every pair identically. Witness
/// assignments are serialized in sorted variable order (the backing map
/// has no stable iteration order of its own).
fn verdict_digest(r: &CrosscheckResult) -> String {
    let mut parts: Vec<String> = r
        .inconsistencies
        .iter()
        .map(|i| {
            let mut vars: Vec<_> = i.witness.iter().collect();
            vars.sort_unstable();
            format!("{:?}|{:?}|{vars:?}", i.output_a, i.output_b)
        })
        .collect();
    parts.push(format!("queries={}", r.queries));
    parts.push(format!("unknown={}", r.unknown));
    parts.push(format!("unverified={:?}", r.unverified));
    parts.join("\n")
}

fn stats_json(s: &SolverStats) -> String {
    format!(
        "{{ \"queries\": {}, \"solved_by_simplification\": {}, \"cache_hits\": {}, \"sat_conflicts\": {}, \"assumption_probes\": {}, \"probe_unsat\": {}, \"core_prunes\": {}, \"learned_retained\": {}, \"cnf_cache_hits\": {}, \"bitblast_ms\": {:.3}, \"search_ms\": {:.3} }}",
        s.queries,
        s.solved_by_simplification,
        s.cache_hits,
        s.sat_conflicts,
        s.assumption_probes,
        s.probe_unsat,
        s.core_prunes,
        s.learned_retained,
        s.cnf_cache_hits,
        s.bitblast_ns as f64 / 1e6,
        s.search_ns as f64 / 1e6,
    )
}

struct TestReport {
    id: String,
    fresh_ms: f64,
    incremental_ms: f64,
    fresh: SolverStats,
    incremental: SolverStats,
    dag_total: u64,
    dag_unique: u64,
}

fn bench_one(test: &TestCase, jobs: usize, reps: usize) -> Result<TestReport, String> {
    let explorer = ExplorerConfig {
        solver_budget: SolverBudget::unlimited(),
        workers: jobs.max(1),
        seed: DEFAULT_SEED,
        ..ExplorerConfig::default()
    };
    let soft = Soft::new();
    let grouped = |agent: AgentKind| -> Result<GroupedResults, String> {
        let run = run_test(agent, test, &explorer);
        // Round-trip through the wire format, exactly what `check` sees.
        let text = TestRunFile::from_run(&run).to_json();
        let parsed = TestRunFile::from_json(&text).map_err(|e| format!("{}: {e}", test.id))?;
        soft.group_artifact(&parsed)
            .map_err(|e| format!("{}: {e}", test.id))
    };
    let ga = grouped(AgentKind::Reference)?;
    let gb = grouped(AgentKind::OpenVSwitch)?;
    let conditions: Vec<_> = ga
        .groups
        .iter()
        .chain(gb.groups.iter())
        .map(|g| g.condition.clone())
        .collect();
    let (dag_total, dag_unique) = dag_shared_nodes(&conditions);

    let run_mode = |incremental: bool| -> (f64, CrosscheckResult) {
        let cfg = CrosscheckConfig {
            solver_budget: SolverBudget::unlimited(),
            jobs: jobs.max(1),
            incremental,
            ..CrosscheckConfig::default()
        };
        let mut samples = Vec::with_capacity(reps);
        let mut last = None;
        for _ in 0..reps {
            let t0 = Instant::now();
            let r = crosscheck(&ga, &gb, &cfg);
            samples.push(t0.elapsed().as_secs_f64() * 1e3);
            last = Some(r);
        }
        (
            median_ms(&mut samples),
            last.expect("reps >= 1 guarantees a result"),
        )
    };
    // Interleaving buys nothing here (same inputs, same process); run
    // fresh first so its cold-cache numbers are never helped by warmup.
    let (fresh_ms, fresh) = run_mode(false);
    let (incremental_ms, incremental) = run_mode(true);
    if verdict_digest(&fresh) != verdict_digest(&incremental) {
        let diff: Vec<String> = verdict_digest(&fresh)
            .lines()
            .zip(verdict_digest(&incremental).lines())
            .filter(|(f, i)| f != i)
            .take(3)
            .map(|(f, i)| format!("  fresh: {f}\n  incr:  {i}"))
            .collect();
        return Err(format!(
            "{}: verdicts diverged between fresh and incremental solving \
             (fresh {} inconsistencies / {} unknown, incremental {} / {})\n{}",
            test.id,
            fresh.inconsistencies.len(),
            fresh.unknown,
            incremental.inconsistencies.len(),
            incremental.unknown,
            diff.join("\n")
        ));
    }
    Ok(TestReport {
        id: test.id.to_string(),
        fresh_ms,
        incremental_ms,
        fresh: fresh.solver,
        incremental: incremental.solver,
        dag_total,
        dag_unique,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let test_arg = flag_value(&args, "--test").unwrap_or_else(|| {
        if smoke {
            "queue_config".into()
        } else {
            "interop".into()
        }
    });
    let jobs: usize = match flag_value(&args, "--jobs").as_deref() {
        None => 8,
        Some(v) => match v.parse() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("bench_solver: --jobs must be a positive integer");
                return ExitCode::FAILURE;
            }
        },
    };
    let reps: usize = match flag_value(&args, "--reps").as_deref() {
        None => 1,
        Some(v) => match v.parse() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("bench_solver: --reps must be a positive integer");
                return ExitCode::FAILURE;
            }
        },
    };
    let out = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_solver.json".to_string());

    let tests: Vec<TestCase> = if test_arg == "all" {
        OF10.tests()
    } else if test_arg == "interop" {
        suite::interop_suite()
    } else {
        let catalog = OF10.tests();
        let mut picked = Vec::new();
        for id in test_arg.split(',') {
            match catalog.iter().find(|t| t.id == id) {
                Some(t) => picked.push(t.clone()),
                None => {
                    eprintln!("bench_solver: unknown --test '{id}' (see `soft tests`)");
                    return ExitCode::FAILURE;
                }
            }
        }
        picked
    };
    eprintln!(
        "bench_solver: {} test(s), jobs {jobs}, {reps} rep(s) per mode",
        tests.len()
    );

    let mut reports = Vec::new();
    for test in &tests {
        match bench_one(test, jobs, reps) {
            Ok(r) => {
                eprintln!(
                    "bench_solver: {}: fresh {:.0} ms, incremental {:.0} ms ({:.2}x), probes {} (unsat {})",
                    r.id,
                    r.fresh_ms,
                    r.incremental_ms,
                    r.fresh_ms / r.incremental_ms.max(0.001),
                    r.incremental.assumption_probes,
                    r.incremental.probe_unsat,
                );
                reports.push(r);
            }
            Err(e) => {
                eprintln!("bench_solver: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let fresh_total: f64 = reports.iter().map(|r| r.fresh_ms).sum();
    let inc_total: f64 = reports.iter().map(|r| r.incremental_ms).sum();
    let per_test = reports
        .iter()
        .map(|r| {
            format!(
                "    {{\n      \"test\": \"{}\",\n      \"fresh_ms\": {:.3},\n      \"incremental_ms\": {:.3},\n      \"speedup\": {:.3},\n      \"dag_nodes_total\": {},\n      \"dag_nodes_unique\": {},\n      \"fresh\": {},\n      \"incremental\": {}\n    }}",
                r.id,
                r.fresh_ms,
                r.incremental_ms,
                r.fresh_ms / r.incremental_ms.max(0.001),
                r.dag_total,
                r.dag_unique,
                stats_json(&r.fresh),
                stats_json(&r.incremental),
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"jobs\": {jobs},\n  \"reps\": {reps},\n  \"fresh_total_ms\": {fresh_total:.3},\n  \"incremental_total_ms\": {inc_total:.3},\n  \"speedup\": {:.3},\n  \"verdicts_identical\": true,\n  \"tests\": [\n{per_test}\n  ]\n}}\n",
        fresh_total / inc_total.max(0.001),
    );
    if let Err(e) = atomic_write(Path::new(&out), json.as_bytes(), true) {
        eprintln!("bench_solver: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "{out}: incremental {inc_total:.0} ms vs fresh {fresh_total:.0} ms = {:.2}x across {} test(s)",
        fresh_total / inc_total.max(0.001),
        reports.len()
    );
    ExitCode::SUCCESS
}
