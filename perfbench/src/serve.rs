//! The `serve` workload: an in-process `soft serve` daemon with 2
//! workers and one closed-loop client that submits each job on a new
//! connection with `soft::serve::request`, as `soft submit` does. Each
//! test is submitted cold once; then come unchanged resubmits (store
//! hits) and resubmits under a changed agent fingerprint (diff-seeded
//! re-solves), shuffled by the seed. Also the store, proto and serve
//! layer measurements shared with the traced runs of the session
//! workloads.

use crate::session::{self, SessionRun, AGENT_A, AGENT_B};
use crate::spans::Recorder;
use crate::verdicts::Row;
use crate::{peak_rss_mb, reset_peak_rss, series, stats, Metrics, Outcome, PerTest, Tally, FUZZ};
use soft::harness::json::Json;
use soft::harness::proto::{self, JobSpec};
use soft::harness::store::{job_key, logical_key, ResultStore, StoreEntry};
use soft::harness::TestCase;
use soft::serve::request;
use soft::witness::SplitMix64;
use soft::{agent_fingerprint, serve, ServeConfig};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon starts per cycle; `setup_s` is the median time to `status`.
const SETUP_ROUNDS: usize = 3;
/// Cycles per run at least (more while `--seconds` last); `wall_s` is
/// their median.
const MIN_CYCLES: usize = 3;
/// Worker-pool size of the daemon.
const WORKERS: usize = 2;
/// Percentiles considered when picking the highest reportable one.
const PERCENTILES: [f64; 4] = [50.0, 90.0, 99.0, 99.9];
/// `status` round trips timed for `proto.rtt_ms`.
const RTT_SAMPLES: usize = 30;
/// Store-layer repetitions (on fresh copies); medians are reported.
const STORE_REPS: usize = 3;

/// Tests submitted cold, then resubmitted as store hits: the interop
/// tests.
pub fn serve_tests() -> Vec<TestCase> {
    session::interop_tests()
}

/// Tests resubmitted under a changed fingerprint, with their count per
/// round: the ones whose re-exploration and re-distillation take
/// milliseconds, so that a run can hold a hundred diffs.
const DIFF_MIX: [(&str, usize); 4] = [
    ("concrete", 6),
    ("queue_config", 6),
    ("timeout_flow_mod", 14),
    ("short_symb", 14),
];

pub fn spec(test: &str, seed: u64, fp_a: Option<String>, fp_b: Option<String>) -> JobSpec {
    JobSpec {
        protocol: "of10".to_string(),
        agent_a: AGENT_A.id().to_string(),
        agent_b: AGENT_B.id().to_string(),
        test: test.to_string(),
        seed,
        budget_conflicts: None,
        fuzz: FUZZ as u64,
        retry_rungs: 0,
        fp_a,
        fp_b,
    }
}

/// An in-process `soft serve` on its own store.
pub struct Daemon {
    handle: JoinHandle<Result<(), String>>,
    pub addr: String,
    pub store: PathBuf,
}

impl Daemon {
    /// Start a daemon on a fresh store; returns it with the seconds
    /// from spawning it until it answered `status`.
    pub fn start(store: &Path) -> Result<(Daemon, f64), String> {
        let _ = std::fs::remove_dir_all(store);
        let t0 = Instant::now();
        let cfg = ServeConfig {
            store: store.to_path_buf(),
            port: 0,
            workers: WORKERS,
            fsync: false,
        };
        let handle = std::thread::spawn(move || serve(&cfg));
        let addr_file = store.join("addr");
        let addr = loop {
            if let Ok(a) = std::fs::read_to_string(&addr_file) {
                if !a.is_empty() {
                    break a;
                }
            }
            if handle.is_finished() {
                return Err(match handle.join() {
                    Ok(Err(e)) => format!("serve: {e}"),
                    _ => "serve exited before listening".to_string(),
                });
            }
            if t0.elapsed() > Duration::from_secs(30) {
                return Err("serve did not publish its address".to_string());
            }
            std::thread::sleep(Duration::from_micros(200));
        };
        let status = request(&addr, &proto::status_request())?;
        let setup_s = t0.elapsed().as_secs_f64();
        if str_field(&status, "type") != Some("status") {
            return Err(format!("status answered {status}"));
        }
        Ok((
            Daemon {
                handle,
                addr,
                store: store.to_path_buf(),
            },
            setup_s,
        ))
    }

    pub fn status(&self) -> Result<Json, String> {
        request(&self.addr, &proto::status_request())
    }

    /// Drain the daemon and wait until its thread has ended.
    pub fn drain(self) -> Result<(), String> {
        request(&self.addr, &proto::drain_request())?;
        match self.handle.join() {
            Ok(r) => r,
            Err(_) => Err("serve thread panicked".to_string()),
        }
    }
}

fn str_field<'a>(v: &'a Json, key: &str) -> Option<&'a str> {
    v.get(key).and_then(|x| x.as_str().ok())
}

fn u64_field(v: &Json, key: &str) -> u64 {
    v.get(key).and_then(|x| x.as_u64().ok()).unwrap_or(0)
}

/// One answered job: what kind it was, how long it took, what came back.
struct Answer {
    test: String,
    kind: Kind,
    ms: f64,
    reply: Json,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Cold,
    Hit,
    Diff,
}

/// Submit a job on a new connection and time the answer.
fn submit(addr: &str, test: &str, kind: Kind, spec: &JobSpec) -> Result<Answer, String> {
    let t0 = Instant::now();
    let reply = request(addr, &spec.to_json())?;
    Ok(Answer {
        test: test.to_string(),
        kind,
        ms: t0.elapsed().as_secs_f64() * 1e3,
        reply,
    })
}

/// Check one answer; cold answers against the verdict table, hits and
/// diffs byte for byte against the cold corpus.
fn check_answer(a: &Answer, cold_corpus: Option<&str>, table: &[Row]) -> Result<(), String> {
    let r = &a.reply;
    if str_field(r, "type") != Some("result") {
        return Err(format!("{}: daemon answered {r}", a.test));
    }
    let hit = r.get("store_hit").and_then(|v| v.as_bool().ok()) == Some(true);
    let corpus = str_field(r, "corpus").unwrap_or("");
    match a.kind {
        Kind::Cold => {
            let s = r.field("summary")?;
            let row = Row {
                test: a.test.clone(),
                paths_a: u64_field(s, "paths_a") as usize,
                paths_b: u64_field(s, "paths_b") as usize,
                inconsistencies: u64_field(s, "inconsistencies") as usize,
                unverified: u64_field(s, "unverified") as usize,
                confirmed: u64_field(s, "confirmed") as usize,
                clusters: u64_field(s, "clusters") as usize,
            };
            if hit {
                return Err(format!("{}: cold submit answered from the store", a.test));
            }
            crate::verdicts::check(table, &row)
        }
        Kind::Hit | Kind::Diff => {
            if a.kind == Kind::Hit && !hit {
                return Err(format!("{}: unchanged resubmit missed the store", a.test));
            }
            if a.kind == Kind::Diff && hit {
                return Err(format!("{}: changed fingerprint hit the store", a.test));
            }
            if Some(corpus) != cold_corpus {
                return Err(format!("{}: corpus differs from the cold answer", a.test));
            }
            Ok(())
        }
    }
}

/// The job mix of one run, and everything measured along it.
struct Mix {
    daemon: Daemon,
    setups: Vec<f64>,
    cold: Vec<Answer>,
    cold_s: f64,
    mix_s: f64,
    mixed: Vec<Answer>,
    /// Peak RSS from the first cold job to the end of the mix.
    peak_rss_mb: f64,
    /// Solver queries the daemon issued over the rounds beyond those
    /// its diff answers report: queries issued by store hits.
    hit_queries: u64,
}

impl Mix {
    fn cold_corpus(&self, test: &str) -> Option<&str> {
        self.cold
            .iter()
            .find(|a| a.test == test)
            .and_then(|a| str_field(&a.reply, "corpus"))
    }

    fn latencies(&self, kind: Kind) -> Vec<f64> {
        self.mixed
            .iter()
            .filter(|a| a.kind == kind)
            .map(|a| a.ms)
            .collect()
    }
}

/// A job mix: the tests submitted cold (and later as store hits), the
/// tests resubmitted under changed fingerprints, and how often. Every
/// round holds each test `hits_per_test` times as a hit and each diff
/// test as often as its count says, in seeded order, so every seed
/// times the same multiset of jobs.
pub struct Plan<'a> {
    tests: &'a [String],
    diffs: &'a [(&'a str, usize)],
    hits_per_test: usize,
    rounds: usize,
}

/// Start the daemon (several times, for `setup_s`), submit the plan's
/// tests cold, then run its rounds. Every answer is checked; each test
/// is one operation in `tally`, failed if any of its answers (cold,
/// hits, diffs) or witness replays is wrong. Two daemon-wide operations
/// follow: no `job_errors`, and the rounds' store hits issued no solver
/// queries (the daemon's `check_queries` grew by exactly what the diff
/// answers report). The daemon is left running.
fn run_mix(
    work: &Path,
    seed: u64,
    plan: &Plan,
    table: &[Row],
    tally: &mut Tally,
) -> Result<Mix, String> {
    let mut setups = Vec::new();
    let mut daemon = None;
    for i in 0..SETUP_ROUNDS {
        let (d, setup_s) = Daemon::start(&work.join(format!("store{i}")))?;
        setups.push(setup_s);
        if let Some(old) = daemon.replace(d) {
            old.drain()?;
        }
    }
    let daemon = daemon.expect("SETUP_ROUNDS >= 1");
    let addr = daemon.addr.clone();
    reset_peak_rss();
    let t_cold = Instant::now();
    let mut cold = Vec::new();
    for t in plan.tests {
        cold.push(submit(&addr, t, Kind::Cold, &spec(t, seed, None, None))?);
    }
    let cold_s = t_cold.elapsed().as_secs_f64();
    let mut mix = Mix {
        daemon,
        setups,
        cold,
        cold_s,
        mix_s: 0.0,
        mixed: Vec::new(),
        peak_rss_mb: 0.0,
        hit_queries: 0,
    };
    let mut checks = PerTest::default();
    for a in &mix.cold {
        checks.add(&a.test, check_answer(a, None, table));
        if let Some(corpus) = str_field(&a.reply, "corpus") {
            session::replay_corpus(&a.test, corpus, &mut checks);
        }
    }
    let before = mix.daemon.status()?;
    let mut rng = SplitMix64::new(seed);
    let t_mix = Instant::now();
    for _ in 0..plan.rounds {
        let mut jobs: Vec<(Kind, &str)> = Vec::new();
        for t in plan.tests {
            jobs.extend(std::iter::repeat_n(
                (Kind::Hit, t.as_str()),
                plan.hits_per_test,
            ));
        }
        for &(t, n) in plan.diffs {
            jobs.extend(std::iter::repeat_n((Kind::Diff, t), n));
        }
        for i in (1..jobs.len()).rev() {
            jobs.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for (kind, t) in jobs {
            let answer = if kind == Kind::Hit {
                submit(&addr, t, kind, &spec(t, seed, None, None))?
            } else {
                let fp = Some(format!("{:016x}", rng.next_u64()));
                let s = if rng.below(2) == 0 {
                    spec(t, seed, fp, None)
                } else {
                    spec(t, seed, None, fp)
                };
                submit(&addr, t, kind, &s)?
            };
            checks.add(
                &answer.test,
                check_answer(&answer, mix.cold_corpus(&answer.test), table),
            );
            mix.mixed.push(answer);
        }
    }
    mix.mix_s = t_mix.elapsed().as_secs_f64();
    mix.peak_rss_mb = peak_rss_mb();
    let after = mix.daemon.status()?;
    checks.settle(tally);
    let errors = u64_field(&after, "job_errors");
    tally.op(if errors == 0 {
        Ok(())
    } else {
        Err(format!("daemon reported {errors} job error(s)"))
    });
    let issued = u64_field(&after, "check_queries") - u64_field(&before, "check_queries");
    let by_diffs: u64 = mix
        .mixed
        .iter()
        .filter(|a| a.kind == Kind::Diff)
        .map(|a| u64_field(&a.reply, "check_queries"))
        .sum();
    mix.hit_queries = issued.saturating_sub(by_diffs);
    tally.op(if issued == by_diffs {
        Ok(())
    } else {
        Err(format!(
            "the daemon issued {issued} solver queries over the rounds, \
             but its diff answers report {by_diffs}: store hits reached the solver"
        ))
    });
    Ok(mix)
}

/// Median and p90 of a latency set, which must hold at least 10
/// samples beyond its p90. The sample count and the highest percentile
/// it supports are recorded beside them in `record`.
fn latency_summary(
    name: &str,
    ms: &[f64],
    record: &mut Vec<(String, Json)>,
) -> Result<(f64, f64), String> {
    let supported = stats::highest_supported(ms.len(), &PERCENTILES, 10).unwrap_or(0.0);
    if supported < 90.0 {
        return Err(format!(
            "{name}: {} samples cannot support a p90 with 10 beyond it",
            ms.len()
        ));
    }
    let (p50, p90) = (stats::percentile(ms, 50.0), stats::percentile(ms, 90.0));
    record.extend([
        (format!("{name}_samples"), Json::UInt(ms.len() as u64)),
        (format!("{name}_p50_ms"), crate::num(p50)),
        (format!("{name}_p90_ms"), crate::num(p90)),
        (format!("{name}_highest_percentile"), crate::num(supported)),
        (
            format!("{name}_highest_percentile_ms"),
            crate::num(stats::percentile(ms, supported)),
        ),
    ]);
    Ok((p50, p90))
}

/// The `serve` workload's plan: its tests cold, then rounds of 40 hits
/// (5 per test) and the 40 diffs of [`DIFF_MIX`].
fn cycle_plan(tests: &[String], rounds: usize) -> Plan<'_> {
    Plan {
        tests,
        diffs: &DIFF_MIX,
        hits_per_test: 5,
        rounds,
    }
}

/// End-to-end: repeat cycles (fresh store and daemon, cold submits, one
/// round of hits and diffs) until `seconds` have passed and at least
/// `MIN_CYCLES` ran; report medians. Latencies pool over the cycles, so
/// each p90 rests on at least 120 samples.
pub fn run(seed: u64, seconds: f64, trace: bool, work: &Path) -> Result<Outcome, String> {
    let table = session::table()?;
    let tests: Vec<String> = serve_tests().iter().map(|t| t.id.to_string()).collect();
    let mut tally = Tally::default();
    if trace {
        return traced(seed, work, &tests, &table, tally);
    }
    let start = Instant::now();
    let (mut setups, mut walls, mut colds, mut rss) = (vec![], vec![], vec![], vec![]);
    let (mut hits, mut diffs) = (Vec::new(), Vec::new());
    let mut cold_ms = Vec::new();
    while walls.len() < MIN_CYCLES || start.elapsed().as_secs_f64() < seconds {
        let dir = work.join(format!("cycle{}", walls.len()));
        let mix = run_mix(&dir, seed, &cycle_plan(&tests, 1), &table, &mut tally)?;
        if cold_ms.is_empty() {
            for a in &mix.cold {
                cold_ms.push((a.test.clone(), crate::num(a.ms)));
            }
        }
        setups.extend(&mix.setups);
        walls.push(mix.cold_s + mix.mix_s);
        colds.push(mix.cold_s);
        rss.push(mix.peak_rss_mb);
        hits.extend(mix.latencies(Kind::Hit));
        diffs.extend(mix.latencies(Kind::Diff));
        mix.daemon.drain()?;
        let _ = std::fs::remove_dir_all(&dir);
    }
    let latency = Latency::of(&hits, &diffs)?;
    let mut m = Metrics::default();
    m.put("setup_s", stats::median(&setups), "s");
    m.put("wall_s", stats::median(&walls), "s");
    m.put("peak_rss_mb", stats::median(&rss), "MiB");
    m.put("pass_frac", tally.pass_frac(), "frac");
    let mut samples = latency.samples;
    samples.push(("cycles".to_string(), Json::UInt(walls.len() as u64)));
    samples.push(("setups".to_string(), Json::UInt(setups.len() as u64)));
    samples.push(("wall_s".to_string(), series(&walls)));
    samples.push(("cold_s".to_string(), series(&colds)));
    samples.push(("first_cycle_cold_ms".to_string(), Json::Object(cold_ms)));
    samples.push(("peak_rss_mb".to_string(), series(&rss)));
    Ok(Outcome {
        metrics: m,
        tally,
        samples,
        trace: None,
    })
}

/// Answer latencies of a mix.
pub struct Latency {
    pub hit_p50_ms: f64,
    pub hit_p90_ms: f64,
    pub diff_p50_ms: f64,
    pub diff_p90_ms: f64,
    /// Sample counts and percentiles, for the run record.
    pub samples: Vec<(String, Json)>,
}

impl Latency {
    fn of(hits: &[f64], diffs: &[f64]) -> Result<Latency, String> {
        let mut samples = Vec::new();
        let (hit_p50_ms, hit_p90_ms) = latency_summary("hit", hits, &mut samples)?;
        let (diff_p50_ms, diff_p90_ms) = latency_summary("diff", diffs, &mut samples)?;
        Ok(Latency {
            hit_p50_ms,
            hit_p90_ms,
            diff_p50_ms,
            diff_p90_ms,
            samples,
        })
    }
}

/// Per-layer numbers of a serve exchange.
pub struct ServeLayer {
    pub cold_s: f64,
    pub latency: Latency,
    pub rtt_ms: f64,
    pub rtt_samples: usize,
    pub lookup_ms: f64,
    pub solve_ms: f64,
    pub publish_ms: f64,
    pub diff_seeded_frac: f64,
    pub hit_queries: u64,
}

/// After a mix: `status` round trips, and the daemon's own per-job
/// lookup/solve/publish averages.
fn serve_layer(mix: &Mix) -> Result<ServeLayer, String> {
    let latency = Latency::of(&mix.latencies(Kind::Hit), &mix.latencies(Kind::Diff))?;
    let mut rtts = Vec::with_capacity(RTT_SAMPLES);
    for _ in 0..RTT_SAMPLES {
        let t0 = Instant::now();
        mix.daemon.status()?;
        rtts.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let after = mix.daemon.status()?;
    let served = u64_field(&after, "jobs_served").max(1) as f64;
    let solved = (u64_field(&after, "jobs_served") - u64_field(&after, "store_hits")).max(1) as f64;
    let (mut seeded, mut pairs) = (0, 0);
    for a in mix.mixed.iter().filter(|a| a.kind == Kind::Diff) {
        seeded += u64_field(&a.reply, "seeded_pairs");
        pairs += a
            .reply
            .get("summary")
            .map_or(0, |s| u64_field(s, "pairs_total"));
    }
    Ok(ServeLayer {
        cold_s: mix.cold_s,
        latency,
        rtt_ms: stats::median(&rtts),
        rtt_samples: rtts.len(),
        lookup_ms: u64_field(&after, "lookup_ms") as f64 / served,
        solve_ms: u64_field(&after, "solve_ms") as f64 / solved,
        publish_ms: u64_field(&after, "publish_ms") as f64 / solved,
        diff_seeded_frac: if pairs == 0 {
            0.0
        } else {
            seeded as f64 / pairs as f64
        },
        hit_queries: mix.hit_queries,
    })
}

/// The serve layer for the session workloads' traced runs: a fixed
/// exchange on `queue_config` (one cold job, then 100 hits and 100
/// diffs) on a fresh daemon.
pub fn layer_probe(work: &Path, seed: u64) -> Result<ServeLayer, String> {
    let table = session::table()?;
    let mut tally = Tally::default();
    let tests = ["queue_config".to_string()];
    let plan = Plan {
        tests: &tests,
        diffs: &[("queue_config", 20)],
        hits_per_test: 20,
        rounds: 5,
    };
    let mix = run_mix(work, seed, &plan, &table, &mut tally)?;
    let layer = serve_layer(&mix)?;
    mix.daemon.drain()?;
    match tally.failures.first() {
        Some(e) => Err(format!("serve layer probe: {e}")),
        None => Ok(layer),
    }
}

/// Per-layer numbers of the store.
pub struct StoreLayer {
    pub lookup_ms: f64,
    pub publish_ms: f64,
    pub entry_bytes: u64,
    pub reps: usize,
}

/// A store entry (with its content and logical keys) per test, as the
/// daemon would publish the session's results.
pub fn entries_for(
    tests: &[TestCase],
    run: &SessionRun,
    seed: u64,
) -> Vec<(String, String, StoreEntry)> {
    let (fp_a, fp_b) = (agent_fingerprint(AGENT_A), agent_fingerprint(AGENT_B));
    tests
        .iter()
        .zip(&run.outcomes)
        .zip(&run.published)
        .map(|((t, o), (artifact_a, artifact_b, corpus))| {
            let spec = spec(t.id, seed, None, None);
            // The daemon's outcome summary: the same eleven fields, in
            // the same order.
            let n = |v: usize| Json::UInt(v as u64);
            let summary = Json::Object(vec![
                ("paths_a".to_string(), n(o.paths_a)),
                ("paths_b".to_string(), n(o.paths_b)),
                ("truncated".to_string(), Json::Bool(o.truncated)),
                ("inconsistencies".to_string(), n(o.inconsistencies)),
                ("unverified".to_string(), n(o.unverified)),
                ("confirmed".to_string(), n(o.confirmed)),
                ("clusters".to_string(), n(o.clusters)),
                ("fuzz_added".to_string(), n(o.fuzz_added)),
                ("pairs_total".to_string(), n(o.pairs_total)),
                ("seeded_pairs".to_string(), n(o.seeded_pairs)),
                ("check_queries".to_string(), n(o.check_queries)),
            ]);
            let entry = StoreEntry {
                fp_a: fp_a.clone(),
                fp_b: fp_b.clone(),
                artifact_a: artifact_a.clone(),
                artifact_b: artifact_b.clone(),
                corpus: corpus.clone(),
                summary,
                verdicts: o.verdicts.clone(),
                spec: Some(spec.clone()),
            };
            (job_key(&fp_a, &fp_b, &spec), logical_key(&spec), entry)
        })
        .collect()
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for e in std::fs::read_dir(from)? {
        let e = e?;
        let dest = to.join(e.file_name());
        if e.file_type()?.is_dir() {
            copy_dir(&e.path(), &dest)?;
        } else {
            std::fs::copy(e.path(), dest)?;
        }
    }
    Ok(())
}

/// Publish the entries into a store, then time `ResultStore::lookup` of
/// every entry and `ResultStore::publish` of it again on fresh copies of
/// that store. Reports the median total per pass.
pub fn store_layer(
    dir: &Path,
    entries: &[(String, String, StoreEntry)],
) -> Result<StoreLayer, String> {
    let io = |e: std::io::Error| format!("store layer: {e}");
    let published = dir.join("published");
    let _ = std::fs::remove_dir_all(dir);
    let store = ResultStore::open(&published, false).map_err(io)?;
    for (key, logical, entry) in entries {
        store.publish(key, logical, entry).map_err(io)?;
    }
    let mut entry_bytes = 0;
    for e in std::fs::read_dir(published.join("jobs")).map_err(io)? {
        entry_bytes += e.map_err(io)?.metadata().map_err(io)?.len();
    }
    let (mut lookups, mut publishes) = (Vec::new(), Vec::new());
    for rep in 0..STORE_REPS {
        let copy = dir.join(format!("copy{rep}"));
        copy_dir(&published, &copy).map_err(io)?;
        let store = ResultStore::open(&copy, false).map_err(io)?;
        let t0 = Instant::now();
        let mut found = Vec::with_capacity(entries.len());
        for (key, _, _) in entries {
            found.push(
                store
                    .lookup(key)?
                    .ok_or_else(|| format!("store lost {key}"))?,
            );
        }
        lookups.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        for ((key, logical, _), entry) in entries.iter().zip(&found) {
            store.publish(key, logical, entry).map_err(io)?;
        }
        publishes.push(t0.elapsed().as_secs_f64() * 1e3);
        let _ = std::fs::remove_dir_all(&copy);
    }
    Ok(StoreLayer {
        lookup_ms: stats::median(&lookups),
        publish_ms: stats::median(&publishes),
        entry_bytes,
        reps: STORE_REPS,
    })
}

/// Per-layer for `serve`: the job mix, the serve layer after it, the
/// store layer on the daemon's published store, then the session layers
/// (journal sessions and phased calls) on the same tests.
fn traced(
    seed: u64,
    work: &Path,
    tests: &[String],
    table: &[Row],
    mut tally: Tally,
) -> Result<Outcome, String> {
    let mut rec = Recorder::new();
    let mix = rec.span("serve.mix", |_| {
        run_mix(work, seed, &cycle_plan(tests, 3), table, &mut tally)
    })?;
    let serve_layer = rec.span("serve.layer", |_| serve_layer(&mix))?;
    let store_dir = mix.daemon.store.clone();
    mix.daemon.drain()?;
    let published = ResultStore::open(&store_dir, false).map_err(|e| format!("store: {e}"))?;
    let (fp_a, fp_b) = (agent_fingerprint(AGENT_A), agent_fingerprint(AGENT_B));
    let mut entries = Vec::new();
    for t in tests {
        let s = spec(t, seed, None, None);
        let key = job_key(&fp_a, &fp_b, &s);
        let entry = published
            .lookup(&key)?
            .ok_or_else(|| format!("store lost {t}"))?;
        entries.push((key, logical_key(&s), entry));
    }
    let store = rec.span("store", |_| store_layer(&work.join("store_copy"), &entries))?;
    let cases = serve_tests();
    let session_run = session::reference_session(&mut rec, &cases, seed, work, table, &mut tally)?;
    let phased = rec.span("phased", |r| session::phased(r, &cases, seed))?;
    session::same_work(&phased, &session_run.corpora(), "untraced session", &cases)?;
    let daemon_corpora: Vec<&str> = entries.iter().map(|e| e.2.corpus.as_str()).collect();
    session::same_work(&phased, &daemon_corpora, "daemon", &cases)?;
    let journal =
        session::journal_sessions(&mut rec, &cases, seed, work, &session_run, &mut tally)?;
    let metrics = session::layer_metrics(
        &rec,
        &phased,
        session_run.wall_s,
        &journal,
        &store,
        &serve_layer,
    );
    let samples = session::traced_samples(cases.len(), &store, serve_layer);
    Ok(Outcome {
        metrics,
        tally,
        samples,
        trace: Some(rec),
    })
}
