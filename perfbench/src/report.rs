//! Turns rounds and spans into the named metrics and prints them.

use std::collections::{BTreeMap, HashMap};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use rubic::metrics::{median, percentile};
use rubic::stm::{AbortReason, StatsSnapshot};
use rubic::{ColocationReport, TenantReport};

use crate::runs::{self, Kind, Opts, RoundOut};
use crate::spans::{self, Collected, Name, Span};

/// End-to-end metrics (`--trace 0`), every workload.
pub const END_TO_END: [(&str, &str); 4] = [
    ("tasks_per_s", "1/s"),
    ("tasks_per_s.min_tenant", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), every workload; a metric of a layer
/// the workload does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("stm.commits", "count"),
    ("stm.reads_per_commit", "count"),
    ("stm.writes_per_commit", "count"),
    ("stm.ro_commit_frac", "frac"),
    ("stm.abort_ratio", "frac"),
    ("stm.abort_ratio.intruder", "frac"),
    ("stm.abort_ratio.vacation", "frac"),
    ("stm.aborts.read-validation", "count"),
    ("stm.aborts.lock-busy", "count"),
    ("stm.aborts.cm-kill", "count"),
    ("stm.aborts.snapshot-stale", "count"),
    ("stm.atomically_ns.p50", "ns"),
    ("stm.atomically_ns.p99", "ns"),
    ("stm.atomically_ns.n", "count"),
    ("stm.self_ns.p50", "ns"),
    ("stm.attempts_per_txn", "count"),
    ("workloads.rbtree.task_ns.p50", "ns"),
    ("workloads.rbtree.task_ns.p99", "ns"),
    ("workloads.rbtree.task_ns.n", "count"),
    ("workloads.intruder.task_ns.p50", "ns"),
    ("workloads.intruder.task_ns.p99", "ns"),
    ("workloads.intruder.task_ns.n", "count"),
    ("workloads.vacation.task_ns.p50", "ns"),
    ("workloads.vacation.task_ns.p99", "ns"),
    ("workloads.vacation.task_ns.n", "count"),
    ("workloads.btree.insert_ns.p50", "ns"),
    ("workloads.btree.insert_ns.p99", "ns"),
    ("workloads.btree.insert_ns.n", "count"),
    ("workloads.rbtree.populate_s", "s"),
    ("workloads.vacation.populate_s", "s"),
    ("workloads.intruder.flows_completed", "count"),
    ("runtime.busy_frac", "frac"),
    ("runtime.unaccounted_frac", "frac"),
    ("runtime.parks_per_s", "1/s"),
    ("runtime.parked_frac", "frac"),
    ("runtime.admit_us.p50", "us"),
    ("runtime.admit_us.p99", "us"),
    ("runtime.admit_us.n", "count"),
    ("runtime.start_ms", "ms"),
    ("runtime.stop_ms", "ms"),
    ("runtime.queue.send_us.p50", "us"),
    ("runtime.queue.send_us.p99", "us"),
    ("runtime.queue.send_us.n", "count"),
    ("runtime.queue.residency_us.p50", "us"),
    ("runtime.queue.residency_us.p99", "us"),
    ("runtime.queue.residency_us.n", "count"),
    ("runtime.queue.steals_per_kitem", "count"),
    ("runtime.queue.gated_steal_frac", "frac"),
    ("runtime.queue.idle_poll_frac", "frac"),
    ("runtime.queue.item_wall_us.p50", "us"),
    ("runtime.queue.item_accounted_frac", "frac"),
    ("controllers.round_ms.p50", "ms"),
    ("controllers.round_ms.p99", "ms"),
    ("controllers.rounds", "count"),
    ("controllers.level_changes_per_s", "1/s"),
    ("controllers.mean_level", "count"),
    ("controllers.oversub", "x"),
    ("controllers.rounds_to_converge", "count"),
    ("controllers.decide_ns.p99", "ns"),
    ("core.speedup.intruder", "x"),
    ("core.speedup.vacation", "x"),
    ("core.nash", "x"),
    ("tasks_per_s.intruder", "1/s"),
    ("tasks_per_s.vacation", "1/s"),
    ("bench.trace_overhead", "frac"),
    ("bench.spans", "count"),
    ("bench.spans_dropped", "count"),
    ("bench.span_sample_every", "count"),
];

/// A finished run: what to print and whether its outputs were right.
pub struct Outcome {
    attempted: u64,
    failures: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
}

impl Outcome {
    /// True when no output check, panic or watchdog failed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Prints one line per metric and note, then the JSON result line.
    pub fn print(&self) {
        for f in &self.failures {
            eprintln!("perfbench: FAILED {f}");
            println!("# FAILED {f}");
        }
        for n in &self.notes {
            println!("# {n}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{name} = {value} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    finite(*value)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failures.len(),
            metrics.join(", ")
        );
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn med(values: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.into_iter().collect();
    finite(median(&v))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The part of a round the end-to-end metrics use. An end-to-end round
/// runs in a process of its own and sends this back as text.
#[derive(Debug, Default)]
struct RoundRates {
    setup_s: f64,
    window_s: f64,
    attempted: u64,
    peak_rss_mb: f64,
    ticks: Vec<f64>,
    tenants: Vec<Vec<f64>>,
    failures: Vec<String>,
}

impl RoundRates {
    fn of(r: &RoundOut) -> Self {
        RoundRates {
            setup_s: r.setup_s,
            window_s: r.window_s,
            attempted: r.attempted,
            peak_rss_mb: 0.0,
            ticks: r.ticks.clone(),
            tenants: r.tenants.iter().map(|t| t.ticks.clone()).collect(),
            failures: r.failures.clone(),
        }
    }

    fn to_text(&self) -> String {
        let list = |v: &[f64]| v.iter().map(f64::to_string).collect::<Vec<_>>().join(",");
        let mut out = format!(
            "round.setup_s {}\nround.window_s {}\nround.attempted {}\nround.peak_rss_mb {}\nround.ticks {}\n",
            self.setup_s,
            self.window_s,
            self.attempted,
            self.peak_rss_mb,
            list(&self.ticks)
        );
        for t in &self.tenants {
            out += &format!("round.tenant {}\n", list(t));
        }
        for f in &self.failures {
            out += &format!("round.failure {f}\n");
        }
        out
    }

    fn from_text(text: &str) -> Result<Self, String> {
        let list = |v: &str| -> Result<Vec<f64>, String> {
            v.split(',')
                .filter(|x| !x.is_empty())
                .map(|x| x.parse::<f64>().map_err(|e| format!("{x}: {e}")))
                .collect()
        };
        let num = |v: &str| v.parse::<f64>().map_err(|e| format!("{v}: {e}"));
        let mut r = RoundRates::default();
        let mut seen = 0;
        for line in text.lines() {
            let Some((key, value)) = line.split_once(' ') else {
                continue;
            };
            match key {
                "round.setup_s" => r.setup_s = num(value)?,
                "round.window_s" => r.window_s = num(value)?,
                "round.attempted" => {
                    r.attempted = value.parse().map_err(|e| format!("{value}: {e}"))?;
                }
                "round.peak_rss_mb" => r.peak_rss_mb = num(value)?,
                "round.ticks" => r.ticks = list(value)?,
                "round.tenant" => r.tenants.push(list(value)?),
                "round.failure" => r.failures.push(value.to_string()),
                _ => continue,
            }
            seen += 1;
        }
        if seen < 5 || r.tenants.is_empty() {
            return Err("incomplete round report".to_string());
        }
        Ok(r)
    }
}

/// Each tenant's rate: the median of its tick rates over all rounds.
fn tenant_rates(rounds: &[RoundRates]) -> Vec<f64> {
    let tenants = rounds.iter().map(|r| r.tenants.len()).min().unwrap_or(0);
    (0..tenants)
        .map(|t| med(rounds.iter().flat_map(|r| r.tenants[t].iter().copied())))
        .collect()
}

/// The workload's rate: the median of its tick rates over all rounds.
fn pass_rate(rounds: &[RoundRates]) -> f64 {
    med(rounds.iter().flat_map(|r| r.ticks.iter().copied()))
}

fn vm_hwm_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or_else(
            || {
                eprintln!("perfbench: VmHWM unavailable; peak_rss_mb reads 0");
                0.0
            },
            |kb| kb / 1024.0,
        )
}

/// The smallest `VmHWM` among the rounds that reported one. A round's
/// peak holds the epoch garbage in flight, which grows with the drain
/// rate, so on queue-drain it rises by up to 2 MB in rounds the host
/// runs fast; the smallest peak is the workload's own footprint.
fn least_peak_rss(rounds: &[RoundRates]) -> f64 {
    let least = rounds
        .iter()
        .map(|r| r.peak_rss_mb)
        .filter(|&mb| mb > 0.0)
        .fold(f64::INFINITY, f64::min);
    finite(least)
}

fn totals(rounds: &[RoundRates]) -> (u64, Vec<String>) {
    let attempted = rounds.iter().map(|r| r.attempted).sum();
    let failures = rounds.iter().flat_map(|r| r.failures.clone()).collect();
    (attempted, failures)
}

/// `--round r` (internal): runs one untraced round in this process and
/// prints it for the parent run of [`end_to_end`].
pub fn print_round(kind: Kind, o: &Opts, r: u64) {
    let mut rates = RoundRates::of(&runs::round(kind, o, r, false));
    rates.peak_rss_mb = vm_hwm_mb();
    print!("{}", rates.to_text());
}

/// Runs round `r` as a child process (`--round r`), so every round
/// starts from a fresh heap and reports its own peak RSS.
fn round_in_child(kind: Kind, o: &Opts, r: u64) -> RoundRates {
    let failed = |why: String| RoundRates {
        // Count the failed round as a full pass so a crashing child
        // cannot keep queue-drain asking for more rounds.
        window_s: o.seconds,
        failures: vec![format!("round {r}: {why}")],
        ..RoundRates::default()
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => return failed(format!("cannot find own executable: {e}")),
    };
    let output = Command::new(exe)
        .args(["--workload", kind.name(), "--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string(), "--trace", "0"])
        .args(["--round", &r.to_string()])
        .stderr(Stdio::inherit())
        .output();
    match output {
        Ok(out) if out.status.success() => {
            RoundRates::from_text(&String::from_utf8_lossy(&out.stdout)).unwrap_or_else(failed)
        }
        Ok(out) => failed(format!("round process exited with {}", out.status)),
        Err(e) => failed(format!("cannot start round process: {e}")),
    }
}

/// `--trace 0`: the untraced pass, one process per round, and its
/// end-to-end metrics.
#[must_use]
pub fn end_to_end(kind: Kind, o: &Opts) -> Outcome {
    let mut rounds: Vec<RoundRates> = Vec::new();
    while runs::wants_round(
        kind,
        o,
        &rounds.iter().map(|r| r.window_s).collect::<Vec<_>>(),
    ) {
        rounds.push(round_in_child(kind, o, rounds.len() as u64));
    }
    let rates = tenant_rates(&rounds);
    let min_tenant = rates.iter().copied().fold(f64::INFINITY, f64::min);
    let values = [
        pass_rate(&rounds),
        finite(min_tenant),
        med(rounds.iter().map(|r| r.setup_s)),
        least_peak_rss(&rounds),
    ];
    let mut notes = vec![format!("rounds={}", rounds.len())];
    for (name, rate) in kind.tenants().iter().zip(&rates) {
        notes.push(format!("tasks_per_s.{name} = {rate} 1/s"));
    }
    let (attempted, failures) = totals(&rounds);
    notes.push(format!(
        "failed_share = {}",
        ratio(failures.len() as f64, attempted as f64)
    ));
    Outcome {
        attempted,
        failures,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect(),
        notes,
    }
}

fn durations(spans: &[Span], name: Name, tenant: Option<u8>) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && tenant.is_none_or(|t| s.tenant == t))
        .map(|s| s.ns() as f64)
        .collect()
}

struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    fn set(&mut self, name: &'static str, v: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.0.insert(name, finite(v));
    }

    /// Sets `<p50>`, `<p99>` and (if given) `<n>` from `values` divided
    /// by `scale`.
    fn dist(&mut self, names: [&'static str; 3], values: &[f64], scale: f64) {
        if values.is_empty() {
            return;
        }
        self.set(names[0], percentile(values, 50.0) / scale);
        self.set(names[1], percentile(values, 99.0) / scale);
        self.set(names[2], values.len() as f64);
    }
}

fn sum_stats(stats: impl Iterator<Item = StatsSnapshot>) -> StatsSnapshot {
    stats.fold(StatsSnapshot::default(), |mut acc, s| {
        acc.commits += s.commits;
        acc.aborts += s.aborts;
        acc.reads += s.reads;
        acc.writes += s.writes;
        acc.ro_commits += s.ro_commits;
        for (a, b) in acc.abort_reasons.iter_mut().zip(s.abort_reasons) {
            *a += b;
        }
        acc
    })
}

fn abort_ratio(s: &StatsSnapshot) -> f64 {
    ratio(s.aborts as f64, (s.commits + s.aborts) as f64)
}

fn stm_metrics(m: &mut Metrics, kind: Kind, rounds: &[RoundOut]) {
    let all = sum_stats(rounds.iter().flat_map(|r| r.tenants.iter().map(|t| t.stm)));
    m.set("stm.commits", all.commits as f64);
    m.set(
        "stm.reads_per_commit",
        ratio(all.reads as f64, all.commits as f64),
    );
    m.set(
        "stm.writes_per_commit",
        ratio(all.writes as f64, all.commits as f64),
    );
    m.set(
        "stm.ro_commit_frac",
        ratio(all.ro_commits as f64, all.commits as f64),
    );
    m.set("stm.abort_ratio", abort_ratio(&all));
    for (name, reason) in [
        ("stm.aborts.read-validation", AbortReason::ReadValidation),
        ("stm.aborts.lock-busy", AbortReason::LockBusy),
        ("stm.aborts.cm-kill", AbortReason::CmKill),
        ("stm.aborts.snapshot-stale", AbortReason::SnapshotStale),
    ] {
        m.set(name, all.abort_reasons[reason.code() as usize] as f64);
    }
    if kind == Kind::Colo {
        for (t, name) in [
            (0, "stm.abort_ratio.intruder"),
            (1, "stm.abort_ratio.vacation"),
        ] {
            let s = sum_stats(rounds.iter().map(|r| r.tenants[t].stm));
            m.set(name, abort_ratio(&s));
        }
    }
}

/// Queue-handler spans: transaction latency, STM self time, insert
/// latency, residency, and the per-item accounting of
/// residency + STM self + insert against send → handler end.
fn queue_span_metrics(m: &mut Metrics, spans: &[Span], c: &Collected) {
    let mut attempt_ns: HashMap<u64, u64> = HashMap::new();
    let mut attempt_txn: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.name == Name::Attempt) {
        *attempt_ns.entry(s.parent).or_default() += s.ns();
        attempt_txn.insert(s.id, s.parent);
    }
    let mut insert_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.name == Name::Insert) {
        if let Some(&txn) = attempt_txn.get(&s.parent) {
            *insert_ns.entry(txn).or_default() += s.ns();
        }
    }
    let residency: HashMap<u64, &Span> = spans
        .iter()
        .filter(|s| s.name == Name::Residency)
        .map(|s| (s.parent, s))
        .collect();
    let (mut atomically, mut self_ns, mut wall_us, mut accounted) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for a in spans.iter().filter(|s| s.name == Name::Atomically) {
        let own = a
            .ns()
            .saturating_sub(attempt_ns.get(&a.id).copied().unwrap_or(0));
        atomically.push(a.ns() as f64);
        self_ns.push(own as f64);
        if let Some(r) = residency.get(&a.parent) {
            let wall = a.end.saturating_sub(r.start) as f64;
            let parts = (r.ns() + own + insert_ns.get(&a.id).copied().unwrap_or(0)) as f64;
            wall_us.push(wall / 1e3);
            accounted.push(ratio(parts, wall));
        }
    }
    m.dist(
        [
            "stm.atomically_ns.p50",
            "stm.atomically_ns.p99",
            "stm.atomically_ns.n",
        ],
        &atomically,
        1.0,
    );
    m.set("stm.self_ns.p50", med(self_ns));
    let t = &c.totals[0];
    m.set(
        "stm.attempts_per_txn",
        ratio(t.attempts as f64, t.txns as f64),
    );
    m.dist(
        [
            "workloads.btree.insert_ns.p50",
            "workloads.btree.insert_ns.p99",
            "workloads.btree.insert_ns.n",
        ],
        &durations(spans, Name::Insert, None),
        1.0,
    );
    m.dist(
        [
            "runtime.queue.residency_us.p50",
            "runtime.queue.residency_us.p99",
            "runtime.queue.residency_us.n",
        ],
        &durations(spans, Name::Residency, None),
        1e3,
    );
    m.dist(
        [
            "runtime.queue.send_us.p50",
            "runtime.queue.send_us.p99",
            "runtime.queue.send_us.n",
        ],
        &durations(spans, Name::SendBatch, None),
        1e3,
    );
    m.set("runtime.queue.item_wall_us.p50", med(wall_us));
    m.set("runtime.queue.item_accounted_frac", med(accounted));
}

/// Rounds after which the level stays within ±max(0.5, 10%) of its
/// median over the trace's second half (the whole trace if it never
/// settles).
fn rounds_to_converge(report: &rubic::runtime::RunReport) -> f64 {
    let points = report.trace.points();
    let tail: Vec<f64> = points[points.len() / 2..]
        .iter()
        .map(|p| f64::from(p.level))
        .collect();
    if tail.is_empty() {
        return 0.0;
    }
    let target = median(&tail);
    report
        .trace
        .convergence_round(target, (0.1 * target).max(0.5))
        .unwrap_or(points.len() as u64) as f64
}

fn level_changes(report: &rubic::runtime::RunReport) -> usize {
    report
        .trace
        .points()
        .windows(2)
        .filter(|w| w[0].level != w[1].level)
        .count()
}

fn runtime_and_controller_metrics(m: &mut Metrics, o: &Opts, rounds: &[RoundOut], c: &Collected) {
    let (mut task_ns, mut park_ns, mut life_ns, mut parks) = (0u64, 0u64, 0u64, 0u64);
    for t in &c.totals {
        task_ns += t.task_ns;
        park_ns += t.park_ns;
        life_ns += t.life_ns;
        parks += t.parks;
    }
    let life = life_ns as f64;
    m.set("runtime.busy_frac", ratio(task_ns as f64, life));
    m.set("runtime.parked_frac", ratio(park_ns as f64, life));
    m.set(
        "runtime.unaccounted_frac",
        ratio(life - task_ns as f64 - park_ns as f64, life),
    );
    let reports: Vec<&rubic::runtime::RunReport> = rounds
        .iter()
        .flat_map(|r| r.tenants.iter().map(|t| &t.report))
        .collect();
    let pool_s: f64 = reports.iter().map(|r| r.elapsed.as_secs_f64()).sum();
    m.set("runtime.parks_per_s", ratio(parks as f64, pool_s));
    m.dist(
        [
            "runtime.admit_us.p50",
            "runtime.admit_us.p99",
            "runtime.admit_us.n",
        ],
        &durations(&c.spans, Name::Admit, None),
        1e3,
    );
    m.set(
        "runtime.start_ms",
        med(durations(&c.spans, Name::PoolStart, None)) / 1e6,
    );
    m.set(
        "runtime.stop_ms",
        med(durations(&c.spans, Name::PoolStop, None)) / 1e6,
    );

    let round_ns = durations(&c.spans, Name::Round, None);
    if !round_ns.is_empty() {
        m.set(
            "controllers.round_ms.p50",
            percentile(&round_ns, 50.0) / 1e6,
        );
        m.set(
            "controllers.round_ms.p99",
            percentile(&round_ns, 99.0) / 1e6,
        );
    }
    let decide_ns = durations(&c.spans, Name::Decide, None);
    m.set("controllers.rounds", decide_ns.len() as f64);
    if !decide_ns.is_empty() {
        m.set("controllers.decide_ns.p99", percentile(&decide_ns, 99.0));
    }
    let changes: usize = reports.iter().map(|r| level_changes(r)).sum();
    m.set(
        "controllers.level_changes_per_s",
        ratio(changes as f64, pool_s),
    );
    m.set(
        "controllers.mean_level",
        med(reports.iter().map(|r| r.trace.mean_level())),
    );
    m.set(
        "controllers.oversub",
        med(rounds.iter().map(|r| {
            r.tenants
                .iter()
                .map(|t| t.report.trace.mean_level())
                .sum::<f64>()
                / f64::from(o.nproc)
        })),
    );
    m.set(
        "controllers.rounds_to_converge",
        med(reports.iter().map(|r| rounds_to_converge(r))),
    );
}

fn queue_counter_metrics(m: &mut Metrics, rounds: &[RoundOut]) {
    let processed: u64 = rounds.iter().map(|r| r.queue.processed).sum();
    let steals: u64 = rounds.iter().map(|r| r.queue.steals).sum();
    let gated: u64 = rounds.iter().map(|r| r.queue.gated_steals).sum();
    let tasks: u64 = rounds.iter().map(|r| r.tenants[0].report.total_tasks).sum();
    m.set(
        "runtime.queue.steals_per_kitem",
        ratio(steals as f64 * 1e3, processed as f64),
    );
    m.set(
        "runtime.queue.gated_steal_frac",
        ratio(gated as f64, steals as f64),
    );
    m.set(
        "runtime.queue.idle_poll_frac",
        ratio(tasks.saturating_sub(processed) as f64, tasks as f64),
    );
}

/// Speed-ups over the level-1 solo baselines and their Nash product,
/// per untraced round through `rubic::ColocationReport`, medians over
/// rounds.
fn core_metrics(m: &mut Metrics, untraced: &[RoundOut], baselines: [f64; 2]) {
    let (mut si, mut sv, mut nash) = (Vec::new(), Vec::new(), Vec::new());
    for r in untraced {
        let tenants = ["intruder", "vacation"]
            .iter()
            .zip(&r.tenants)
            .map(|(name, t)| TenantReport {
                name: (*name).to_string(),
                policy: "RUBIC",
                arrival: Duration::ZERO,
                period: Duration::from_millis(10),
                report: t.report.clone(),
            })
            .collect();
        let colo = ColocationReport {
            duration: Duration::from_secs_f64(r.window_s),
            tenants,
        };
        si.push(colo.tenants[0].speedup(baselines[0]));
        sv.push(colo.tenants[1].speedup(baselines[1]));
        nash.push(colo.nash_product(&baselines));
    }
    m.set("core.speedup.intruder", med(si));
    m.set("core.speedup.vacation", med(sv));
    m.set("core.nash", med(nash));
    let rates = tenant_rates(&untraced.iter().map(RoundRates::of).collect::<Vec<_>>());
    m.set("tasks_per_s.intruder", rates[0]);
    m.set("tasks_per_s.vacation", rates[1]);
}

fn spans_path(kind: Kind) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}.tsv", kind.name()))
}

/// `--trace 1`: an untraced pass, a traced pass, (colo) the solo
/// baselines, and the per-layer metrics. The two passes split the
/// run's `seconds` between them.
#[must_use]
pub fn traced(kind: Kind, o: &Opts) -> Outcome {
    let o = &Opts {
        seconds: o.seconds / 2.0,
        ..*o
    };
    let (untraced, traced) = runs::run_interleaved(kind, o);
    let c = spans::drain();
    let mut notes = Vec::new();
    let path = spans_path(kind);
    match spans::write_tsv(&path, &c.spans) {
        Ok(()) => notes.push(format!("spans written to {}", path.display())),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }

    let mut m = Metrics(PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect());
    stm_metrics(&mut m, kind, &traced);
    runtime_and_controller_metrics(&mut m, o, &traced, &c);
    match kind {
        Kind::RbtRead => {
            m.dist(
                [
                    "workloads.rbtree.task_ns.p50",
                    "workloads.rbtree.task_ns.p99",
                    "workloads.rbtree.task_ns.n",
                ],
                &durations(&c.spans, Name::Task, Some(0)),
                1.0,
            );
            m.set(
                "workloads.rbtree.populate_s",
                med(traced.iter().map(|r| r.populate_s)),
            );
        }
        Kind::Colo => {
            for (t, names) in [
                (
                    0,
                    [
                        "workloads.intruder.task_ns.p50",
                        "workloads.intruder.task_ns.p99",
                        "workloads.intruder.task_ns.n",
                    ],
                ),
                (
                    1,
                    [
                        "workloads.vacation.task_ns.p50",
                        "workloads.vacation.task_ns.p99",
                        "workloads.vacation.task_ns.n",
                    ],
                ),
            ] {
                m.dist(names, &durations(&c.spans, Name::Task, Some(t)), 1.0);
            }
            m.set(
                "workloads.vacation.populate_s",
                med(traced.iter().map(|r| r.populate_s)),
            );
            m.set(
                "workloads.intruder.flows_completed",
                traced.iter().map(|r| r.flows_completed).sum::<u64>() as f64,
            );
            core_metrics(
                &mut m,
                &untraced,
                runs::colo_baselines(o, runs::window(Kind::Colo, o)),
            );
        }
        Kind::QueueDrain => {
            queue_span_metrics(&mut m, &c.spans, &c);
            queue_counter_metrics(&mut m, &traced);
        }
    }
    let (untraced, traced): (Vec<RoundRates>, Vec<RoundRates>) = (
        untraced.iter().map(RoundRates::of).collect(),
        traced.iter().map(RoundRates::of).collect(),
    );
    let (untraced_rate, traced_rate) = (pass_rate(&untraced), pass_rate(&traced));
    m.set(
        "bench.trace_overhead",
        1.0 - ratio(traced_rate, untraced_rate),
    );
    m.set("bench.spans", c.spans.len() as f64);
    m.set("bench.spans_dropped", c.dropped as f64);
    m.set("bench.span_sample_every", spans::TASK_SAMPLE_EVERY as f64);
    notes.push(format!(
        "tasks_per_s untraced = {untraced_rate} 1/s, traced = {traced_rate} 1/s"
    ));

    let (a1, mut failures) = totals(&untraced);
    let (a2, f2) = totals(&traced);
    failures.extend(f2);
    Outcome {
        attempted: a1 + a2,
        failures,
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, m.0[name], unit))
            .collect(),
        notes,
    }
}

/// `--workload all`: each workload in a child process of its own.
pub fn run_all(seed: u64, seconds: u32, trace: bool) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for kind in Kind::ALL {
        let status = Command::new(&exe)
            .args(["--workload", kind.name(), "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("perfbench: {} exited with {s}", kind.name());
                ok = false;
            }
            Err(e) => {
                eprintln!("perfbench: could not run {}: {e}", kind.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
