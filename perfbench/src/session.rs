//! The `soft run` workloads (`interop`, `eth_flow_mod`, `fig4_two`):
//! timed sessions end to end, and the traced run that calls each layer's
//! public function in sequence on the same inputs.

use crate::serve::{self, ServeLayer, StoreLayer};
use crate::spans::Recorder;
use crate::verdicts::{self, Row};
use crate::{
    peak_rss_mb, reset_peak_rss, series, stats, Metrics, Outcome, PerTest, Tally, FUZZ, JOBS,
};
use soft::core::{crosscheck, CrosscheckConfig};
use soft::harness::json::Json;
use soft::harness::{run_test, suite, TestCase, TestRunFile};
use soft::smt::{SolverBudget, SolverStats};
use soft::sym::ExplorerConfig;
use soft::witness::{distill, reproduce_corpus, Corpus, DistillConfig};
use soft::{run_session, AgentKind, BaselineSeed, SessionConfig, Soft, TestOutcome};
use std::path::{Path, PathBuf};
use std::time::Instant;

pub const AGENT_A: AgentKind = AgentKind::Reference;
pub const AGENT_B: AgentKind = AgentKind::OpenVSwitch;

/// Seconds of one block of repeated set-ups; `setup_s` is the median
/// over every block of a run. One set-up takes well under a millisecond,
/// while the host's speed shifts over milliseconds to seconds, so a run
/// times its set-ups in blocks spread over its length.
const SETUP_SECS: f64 = 0.1;

/// The mixed interoperability workload.
pub fn interop_tests() -> Vec<TestCase> {
    vec![
        suite::packet_out(),
        suite::stats_request(),
        suite::set_config(),
        suite::cs_flow_mods(),
        suite::concrete(),
        suite::short_symb(),
        suite::queue_config(),
        suite::timeout_flow_mod(),
    ]
}

/// The tests a session workload runs, or `None` for an unknown name.
pub fn tests_for(workload: &str) -> Option<Vec<TestCase>> {
    match workload {
        "interop" => Some(interop_tests()),
        "eth_flow_mod" => Some(vec![suite::eth_flow_mod()]),
        "fig4_two" => Some(vec![suite::fig4_message_sequences().swap_remove(1)]),
        _ => None,
    }
}

/// The session settings every workload shares: `reference,ovs`,
/// `jobs = 2`, `fuzz = 4`, unlimited solver budget, incremental solving
/// (the default), fsync off unless asked for.
pub fn config(
    tests: Vec<TestCase>,
    seed: u64,
    dir: &Path,
    journal: bool,
    fsync: bool,
) -> SessionConfig {
    SessionConfig {
        agent_a: AGENT_A.into(),
        agent_b: AGENT_B.into(),
        tests,
        jobs: JOBS,
        seed,
        solver_budget: SolverBudget::unlimited(),
        retry_rungs: 0,
        fuzz_tries: FUZZ,
        out_prefix: format!("{}/", dir.display()),
        journal: journal.then(|| dir.join("session.wal")),
        resume: false,
        fsync,
        incremental: true,
        baseline: None,
    }
}

/// One finished session and what it published.
pub struct SessionRun {
    pub wall_s: f64,
    pub outcomes: Vec<TestOutcome>,
    /// Per test: (artifact A, artifact B, corpus) as published.
    pub published: Vec<(String, String, String)>,
    pub wal_bytes: u64,
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))
}

/// Run one session in `dir` (created fresh, removed afterwards).
pub fn run_once(cfg: &SessionConfig, dir: &Path) -> Result<SessionRun, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let t0 = Instant::now();
    let report = run_session(cfg)?;
    let wall_s = t0.elapsed().as_secs_f64();
    let mut published = Vec::new();
    for (o, t) in report.outcomes.iter().zip(&cfg.tests) {
        let artifact = |agent: AgentKind| dir.join(format!("{}_{}.json", agent.id(), t.id));
        published.push((
            read(&artifact(AGENT_A))?,
            read(&artifact(AGENT_B))?,
            read(&o.corpus_path)?,
        ));
    }
    let wal_bytes = cfg
        .journal
        .as_ref()
        .and_then(|p| std::fs::metadata(p).ok())
        .map_or(0, |m| m.len());
    let _ = std::fs::remove_dir_all(dir);
    Ok(SessionRun {
        wall_s,
        outcomes: report.outcomes,
        published,
        wal_bytes,
    })
}

/// Check a session against the verdict table, and replay every
/// confirmed witness of its corpora concretely. Each test is one
/// operation; its table check and its replays fold into it.
pub fn verify(run: &SessionRun, table: &[Row], tally: &mut Tally) {
    let mut checks = PerTest::default();
    for (o, (_, _, corpus)) in run.outcomes.iter().zip(&run.published) {
        checks.add(&o.test, verdicts::check(table, &Row::of(o)));
        if o.truncated {
            checks.add(&o.test, Err(format!("{}: exploration truncated", o.test)));
        }
        replay_corpus(&o.test, corpus, &mut checks);
    }
    checks.settle(tally);
}

/// Replay every confirmed witness of a published corpus, into the
/// test's checks.
pub fn replay_corpus(test: &str, text: &str, checks: &mut PerTest) {
    match Corpus::from_json_str(text) {
        Ok(corpus) => {
            for (i, r) in reproduce_corpus(&corpus, AGENT_A, AGENT_B, JOBS) {
                checks.add(
                    test,
                    r.map_err(|e| format!("{test}: witness {i} does not replay: {e}")),
                );
            }
        }
        Err(e) => checks.add(test, Err(format!("{test}: corpus does not parse: {e}"))),
    }
}

pub fn table() -> Result<Vec<Row>, String> {
    verdicts::parse(verdicts::EXPECTED)
}

pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: &Path,
) -> Result<Outcome, String> {
    if trace {
        traced(workload, seed, work)
    } else {
        timed(workload, seed, seconds, work)
    }
}

/// Set up sessions for [`SETUP_SECS`], timing each set-up into
/// `setups`: the workload's test cases from the suite, the session
/// config, and the program's own session start (`run_session` on the
/// config with its test list emptied: the session fingerprint, then a
/// fresh journal in a new output directory). Returns the last set-up,
/// with its tests put back; the session proper opens its journal afresh.
fn set_up(
    workload: &str,
    seed: u64,
    work: &Path,
    setups: &mut Vec<f64>,
) -> Result<(PathBuf, SessionConfig), String> {
    let mut prepared: Option<(PathBuf, SessionConfig)> = None;
    let block = Instant::now();
    while prepared.is_none() || block.elapsed().as_secs_f64() < SETUP_SECS {
        let t0 = Instant::now();
        let dir = work.join(format!("s{}", setups.len()));
        let tests = tests_for(workload).ok_or("unknown workload")?;
        let mut cfg = config(Vec::new(), seed, &dir, true, false);
        run_session(&cfg)?;
        setups.push(t0.elapsed().as_secs_f64());
        cfg.tests = tests;
        if let Some((old, _)) = prepared.replace((dir, cfg)) {
            let _ = std::fs::remove_dir_all(old);
        }
    }
    Ok(prepared.expect("at least one set-up"))
}

/// End-to-end: repeat (set-up, session, verify) until `seconds` have
/// passed, then set up once more, so that even a one-session run times
/// set-ups at two moments; report medians.
fn timed(workload: &str, seed: u64, seconds: f64, work: &Path) -> Result<Outcome, String> {
    let table = table()?;
    let mut tally = Tally::default();
    let (mut setups, mut walls, mut rss) = (vec![], vec![], vec![]);
    let start = Instant::now();
    while walls.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let (dir, cfg) = set_up(workload, seed, work, &mut setups)?;
        reset_peak_rss();
        let run = run_once(&cfg, &dir)?;
        walls.push(run.wall_s);
        rss.push(peak_rss_mb());
        verify(&run, &table, &mut tally);
    }
    let (dir, _) = set_up(workload, seed, work, &mut setups)?;
    let _ = std::fs::remove_dir_all(dir);
    let mut m = Metrics::default();
    m.put("setup_s", stats::median(&setups), "s");
    m.put("wall_s", stats::median(&walls), "s");
    m.put("peak_rss_mb", stats::median(&rss), "MiB");
    m.put("pass_frac", tally.pass_frac(), "frac");
    let mut samples = vec![
        ("sessions".to_string(), Json::UInt(walls.len() as u64)),
        ("setups".to_string(), Json::UInt(setups.len() as u64)),
        ("wall_s".to_string(), series(&walls)),
        ("peak_rss_mb".to_string(), series(&rss)),
        (
            "setup_s_quartiles".to_string(),
            series(&stats::quartiles(&setups)),
        ),
    ];
    if walls.len() >= 2 {
        samples.push((
            "wall_s_quartiles".to_string(),
            series(&stats::quartiles(&walls)),
        ));
    }
    Ok(Outcome {
        metrics: m,
        tally,
        samples,
        trace: None,
    })
}

/// Counters gathered from the phased layer calls.
#[derive(Default)]
pub struct Phased {
    pub paths: usize,
    pub feasibility_queries: u64,
    pub groups: usize,
    pub wire_bytes: usize,
    pub pairs: usize,
    pub solver: SolverStats,
    pub witnesses: usize,
    pub replays: usize,
    pub confirmed: usize,
    pub fuzz_added: usize,
    /// Per test, the corpus as the phased flow serializes it.
    pub corpora: Vec<String>,
}

/// Explore, encode, decode, group, crosscheck and distill each test by
/// calling each layer's public function in turn, with a span around
/// every call.
pub fn phased(rec: &mut Recorder, tests: &[TestCase], seed: u64) -> Result<Phased, String> {
    let explorer = ExplorerConfig {
        solver_budget: SolverBudget::unlimited(),
        workers: JOBS,
        seed,
        ..ExplorerConfig::default()
    };
    let check = CrosscheckConfig {
        solver_budget: SolverBudget::unlimited(),
        jobs: JOBS,
        retry_rungs: 0,
        incremental: true,
        ..CrosscheckConfig::default()
    };
    let distill_cfg = DistillConfig {
        jobs: JOBS,
        seed,
        fuzz_tries: FUZZ,
    };
    let soft = Soft::new();
    let mut p = Phased::default();
    for test in tests {
        let span = rec.enter("test");
        let run_a = rec.span("sym", |_| run_test(AGENT_A, test, &explorer));
        let run_b = rec.span("sym", |_| run_test(AGENT_B, test, &explorer));
        let (text_a, text_b) = rec.span("wire.encode", |_| {
            (
                TestRunFile::from_run(&run_a).to_json(),
                TestRunFile::from_run(&run_b).to_json(),
            )
        });
        let (file_a, file_b) = rec.span("wire.decode", |_| {
            (
                TestRunFile::from_json(&text_a),
                TestRunFile::from_json(&text_b),
            )
        });
        let (file_a, file_b) = (
            file_a.map_err(|e| format!("{}: decode A: {e}", test.id))?,
            file_b.map_err(|e| format!("{}: decode B: {e}", test.id))?,
        );
        let (ga, gb) = rec.span("group", |_| {
            (soft.group_artifact(&file_a), soft.group_artifact(&file_b))
        });
        let (ga, gb) = (
            ga.map_err(|e| format!("{}: group A: {e}", test.id))?,
            gb.map_err(|e| format!("{}: group B: {e}", test.id))?,
        );
        let result = rec.span("crosscheck", |_| crosscheck(&ga, &gb, &check));
        let (report, corpus) = rec.span("witness", |_| {
            let report = distill(test, &result, &ga, &gb, AGENT_A, AGENT_B, &distill_cfg);
            let corpus = report.corpus.to_json_string();
            (report, corpus)
        });
        rec.exit(span);
        p.paths += run_a.paths.len() + run_b.paths.len();
        p.feasibility_queries += run_a.stats.solver.queries + run_b.stats.solver.queries;
        p.groups += ga.groups.len() + gb.groups.len();
        p.wire_bytes += text_a.len() + text_b.len();
        p.pairs += ga.groups.len() * gb.groups.len();
        p.solver.merge(&result.solver);
        p.witnesses += report.stats.witnesses;
        p.replays += report.stats.replays;
        p.confirmed += report.stats.confirmed;
        p.fuzz_added += report.stats.fuzz_added;
        p.corpora.push(corpus);
    }
    Ok(p)
}

/// Session wall times with the journal on (no fsync), off, and on with
/// fsync, for the journal's share of a session.
pub struct JournalCost {
    pub with_s: f64,
    pub without_s: f64,
    pub fsync_s: f64,
    pub wal_bytes: u64,
}

/// The untraced reference session of a traced run: journal on, fsync
/// off, exactly as the end-to-end run times it.
pub fn reference_session(
    rec: &mut Recorder,
    tests: &[TestCase],
    seed: u64,
    work: &Path,
    table: &[Row],
    tally: &mut Tally,
) -> Result<SessionRun, String> {
    let dir = work.join("reference");
    let cfg = config(tests.to_vec(), seed, &dir, true, false);
    let run = rec.span("session", |_| run_once(&cfg, &dir))?;
    verify(&run, table, tally);
    Ok(run)
}

/// Price the journal: per test, a session with the journal on, off, and
/// on with fsync. These sessions are diff-seeded with the reference
/// session's verdicts (the `soft serve` baseline path), so they explore,
/// group, journal and distill but skip the solver, which the journal
/// does not touch; that keeps the three extra sessions affordable on
/// `eth_flow_mod`. Each must republish the reference corpus; a test
/// is one operation.
pub fn journal_sessions(
    rec: &mut Recorder,
    tests: &[TestCase],
    seed: u64,
    work: &Path,
    reference: &SessionRun,
    tally: &mut Tally,
) -> Result<JournalCost, String> {
    let mut cost = JournalCost {
        with_s: 0.0,
        without_s: 0.0,
        fsync_s: 0.0,
        wal_bytes: 0,
    };
    let mut checks = PerTest::default();
    for (k, test) in tests.iter().enumerate() {
        let (artifact_a, artifact_b, corpus) = &reference.published[k];
        let settings: [(&'static str, bool, bool); 3] = [
            ("session.seeded.journal", true, false),
            ("session.seeded.no_journal", false, false),
            ("session.seeded.fsync", true, true),
        ];
        for (name, journal, fsync) in settings {
            let dir = work.join(format!("journal{k}"));
            let mut cfg = config(vec![test.clone()], seed, &dir, journal, fsync);
            cfg.baseline = Some(BaselineSeed {
                artifact_a: artifact_a.clone(),
                artifact_b: artifact_b.clone(),
                verdicts: reference.outcomes[k].verdicts.clone(),
            });
            let run = rec.span(name, |_| run_once(&cfg, &dir))?;
            checks.add(
                test.id,
                if run.published[0].2 == *corpus {
                    Ok(())
                } else {
                    Err(format!(
                        "{}: {name} corpus differs from the reference",
                        test.id
                    ))
                },
            );
            match (journal, fsync) {
                (true, false) => {
                    cost.with_s += run.wall_s;
                    cost.wal_bytes += run.wal_bytes;
                }
                (false, _) => cost.without_s += run.wall_s,
                (true, true) => cost.fsync_s += run.wall_s,
            }
        }
    }
    checks.settle(tally);
    Ok(cost)
}

/// Fail hard unless the phased flow published exactly the corpora of an
/// untraced run (`source` names it), test by test: the traced run must
/// measure the same work.
pub fn same_work(
    phased: &Phased,
    untraced: &[&str],
    source: &str,
    tests: &[TestCase],
) -> Result<(), String> {
    if phased.corpora.len() != untraced.len() {
        return Err(format!("traced run and {source} covered different tests"));
    }
    for ((p, u), t) in phased.corpora.iter().zip(untraced).zip(tests) {
        if p != u {
            return Err(format!(
                "{}: traced (phased) corpus differs from the {source}'s; \
                 refusing to report per-layer numbers",
                t.id
            ));
        }
    }
    Ok(())
}

impl SessionRun {
    pub fn corpora(&self) -> Vec<&str> {
        self.published.iter().map(|p| p.2.as_str()).collect()
    }
}

fn frac(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-layer metrics, from the spans and counters of a traced run.
pub fn layer_metrics(
    rec: &Recorder,
    p: &Phased,
    session_s: f64,
    journal: &JournalCost,
    store: &StoreLayer,
    serve: &ServeLayer,
) -> Metrics {
    let self_ns = rec.self_ns_by_name();
    let ms = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6;
    let phased_s = [
        "sym",
        "wire.encode",
        "wire.decode",
        "group",
        "crosscheck",
        "witness",
    ]
    .iter()
    .map(|n| ms(n))
    .sum::<f64>()
        / 1e3;
    let s = &p.solver;
    let mut m = Metrics::default();
    m.put("sym.explore_ms", ms("sym"), "ms");
    m.put("sym.paths", p.paths as f64, "count");
    m.put(
        "sym.feasibility_queries",
        p.feasibility_queries as f64,
        "count",
    );
    m.put("group.ms", ms("group"), "ms");
    m.put("group.groups", p.groups as f64, "count");
    m.put("wire.encode_ms", ms("wire.encode"), "ms");
    m.put("wire.decode_ms", ms("wire.decode"), "ms");
    m.put("wire.bytes", p.wire_bytes as f64, "bytes");
    m.put("crosscheck.ms", ms("crosscheck"), "ms");
    m.put("crosscheck.pairs", p.pairs as f64, "count");
    m.put("smt.queries", s.queries as f64, "count");
    m.put(
        "smt.simplified_frac",
        frac(s.solved_by_simplification, s.queries),
        "frac",
    );
    m.put("smt.cache_hit_frac", frac(s.cache_hits, s.queries), "frac");
    m.put("smt.conflicts", s.sat_conflicts as f64, "count");
    m.put("smt.encode_ms", s.bitblast_ns as f64 / 1e6, "cpu_ms");
    m.put("smt.search_ms", s.search_ns as f64 / 1e6, "cpu_ms");
    m.put(
        "smt.core_prune_frac",
        frac(s.core_prunes, s.assumption_probes),
        "frac",
    );
    m.put("witness.distill_ms", ms("witness"), "ms");
    m.put("witness.replays", p.replays as f64, "count");
    m.put(
        "witness.confirmed_frac",
        frac(p.confirmed as u64, p.witnesses as u64),
        "frac",
    );
    m.put("witness.fuzz_added", p.fuzz_added as f64, "count");
    m.put(
        "journal.ms",
        (journal.with_s - journal.without_s) * 1e3,
        "ms",
    );
    m.put(
        "journal.fsync_ms",
        (journal.fsync_s - journal.with_s) * 1e3,
        "ms",
    );
    m.put("journal.bytes", journal.wal_bytes as f64, "bytes");
    m.put("session.overlap_frac", 1.0 - session_s / phased_s, "frac");
    m.put("store.lookup_ms", store.lookup_ms, "ms");
    m.put("store.publish_ms", store.publish_ms, "ms");
    m.put("store.entry_bytes", store.entry_bytes as f64, "bytes");
    m.put("proto.rtt_ms", serve.rtt_ms, "ms");
    m.put("serve.lookup_ms", serve.lookup_ms, "ms");
    m.put("serve.solve_ms", serve.solve_ms, "ms");
    m.put("serve.publish_ms", serve.publish_ms, "ms");
    m.put("serve.diff_seeded_frac", serve.diff_seeded_frac, "frac");
    m.put("serve.hit_queries", serve.hit_queries as f64, "count");
    m.put("serve.cold_s", serve.cold_s, "s");
    m.put("serve.hit_p50_ms", serve.latency.hit_p50_ms, "ms");
    m.put("serve.hit_p90_ms", serve.latency.hit_p90_ms, "ms");
    m.put("serve.diff_p50_ms", serve.latency.diff_p50_ms, "ms");
    m.put("serve.diff_p90_ms", serve.latency.diff_p90_ms, "ms");
    m
}

/// Per-layer: the untraced reference sessions (which also price the
/// journal), then the phased layer calls on the same tests, then the
/// store and serve layers on the published results.
fn traced(workload: &str, seed: u64, work: &Path) -> Result<Outcome, String> {
    let table = table()?;
    let tests = tests_for(workload).ok_or("unknown workload")?;
    let mut tally = Tally::default();
    let mut rec = Recorder::new();
    let session = reference_session(&mut rec, &tests, seed, work, &table, &mut tally)?;
    let phased = rec.span("phased", |r| phased(r, &tests, seed))?;
    same_work(&phased, &session.corpora(), "untraced session", &tests)?;
    let journal = journal_sessions(&mut rec, &tests, seed, work, &session, &mut tally)?;
    let entries = serve::entries_for(&tests, &session, seed);
    let store = rec.span("store", |_| {
        serve::store_layer(&work.join("store"), &entries)
    })?;
    let serve_layer = rec.span("serve", |_| serve::layer_probe(&work.join("serve"), seed))?;
    let metrics = layer_metrics(
        &rec,
        &phased,
        session.wall_s,
        &journal,
        &store,
        &serve_layer,
    );
    let samples = traced_samples(tests.len(), &store, serve_layer);
    Ok(Outcome {
        metrics,
        tally,
        samples,
        trace: Some(rec),
    })
}

/// The sample counts behind a traced run's numbers: one reference
/// session plus three journal-pricing sessions per test, the store
/// repetitions, the `status` round trips and the serve latencies.
pub fn traced_samples(tests: usize, store: &StoreLayer, serve: ServeLayer) -> Vec<(String, Json)> {
    let mut samples = vec![
        ("sessions".to_string(), Json::UInt(1 + 3 * tests as u64)),
        ("store_reps".to_string(), Json::UInt(store.reps as u64)),
        (
            "rtt_samples".to_string(),
            Json::UInt(serve.rtt_samples as u64),
        ),
    ];
    samples.extend(serve.latency.samples);
    samples
}

/// Record the expected verdict table with the fresh solver.
pub fn record_verdicts() -> Result<Vec<Row>, String> {
    let mut tests = interop_tests();
    tests.extend(tests_for("eth_flow_mod").expect("known workload"));
    tests.extend(tests_for("fig4_two").expect("known workload"));
    let dir = PathBuf::from(".perfbench_out").join("record");
    let mut cfg = config(tests, 1, &dir, false, false);
    cfg.incremental = false;
    let run = run_once(&cfg, &dir)?;
    Ok(run.outcomes.iter().map(Row::of).collect())
}
