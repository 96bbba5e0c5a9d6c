//! The three workloads, each run as a sequence of rounds. A round sets
//! the workload up from scratch (timed as set-up), measures it, stops
//! it and checks its outputs.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rubic::controllers::Policy;
use rubic::runtime::{MalleablePool, PoolConfig, RunReport, ShardedWorkload, Workload};
use rubic::stm::{StatsSnapshot, Stm};
use rubic::workloads::{
    BTreeFamily, IntruderConfig, IntruderWorkload, RbTreeConfig, RbTreeWorkloadOn, TBTreeMap,
    TOrdMap, VacationConfig, VacationWorkload,
};
use rubic::TenantSpec;

use crate::adapters::{AdmitBoard, TimedController, Traced};
use crate::spans::{self, Name};

/// Vacation rows per relation table.
pub const VACATION_RELATIONS: u64 = 65_536;
/// Vacation tasks a colo round measures per second of its nominal
/// window (about Vacation's co-located rate on a 2-vCPU host).
const VACATION_TASKS_PER_S: f64 = 40_000.0;
/// Keys of the queue-drain map.
pub const QUEUE_KEYS: u64 = 65_536;
/// Items one queue-drain round pushes.
pub const QUEUE_ITEMS: usize = 1 << 18;
/// Queue capacity, the closed loop's window.
pub const QUEUE_CAPACITY: usize = 1024;
/// Items per `send_batch` call (the queue's own per-lock batch).
pub const QUEUE_SEND_BATCH: usize = 32;
/// Rounds of `rbt-read`, whose rounds agree within a few percent.
pub const RBT_ROUNDS: u32 = 8;
/// Rounds of colo. On identical inputs its rounds differ by about 12%,
/// three times what their own ticks explain, so more, shorter rounds
/// steady the pass's median.
pub const COLO_ROUNDS: u32 = 24;
/// Sampling interval of a window. A pass's rate is the median of the
/// per-tick rates of all its rounds.
const TICK: Duration = Duration::from_millis(200);
/// Unmeasured time at the start of each window: the fresh structures'
/// layout settles and the controllers leave level 1.
const WARMUP: Duration = Duration::from_millis(400);

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's RBT micro on the per-node B-tree, fixed level.
    RbtRead,
    /// Intruder and Vacation co-located under RUBIC.
    Colo,
    /// Upserts drained through the sharded queue under RUBIC.
    QueueDrain,
}

impl Kind {
    /// Every workload, in reporting order.
    pub const ALL: [Kind; 3] = [Kind::RbtRead, Kind::Colo, Kind::QueueDrain];

    /// Command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::RbtRead => "rbt-read",
            Kind::Colo => "colo-intruder-vacation",
            Kind::QueueDrain => "queue-drain",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Tenant names, indexed by tenant number.
    #[must_use]
    pub fn tenants(self) -> &'static [&'static str] {
        match self {
            Kind::RbtRead => &["rbtree"],
            Kind::Colo => &["intruder", "vacation"],
            Kind::QueueDrain => &["queue"],
        }
    }
}

/// Run parameters shared by every round.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Input seed.
    pub seed: u64,
    /// Measured seconds per pass.
    pub seconds: f64,
    /// Workers per pool (the host's available parallelism).
    pub nproc: u32,
}

/// SplitMix64: the benchmark's own input generator.
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// The seed of input stream `salt` in round `round`.
#[must_use]
pub fn derive_seed(seed: u64, round: u64, salt: u64) -> u64 {
    SplitMix::new(
        seed ^ round.wrapping_mul(0xA076_1D64_78BD_642F) ^ salt.wrapping_mul(0xE703_7ED1_A0B4_28DB),
    )
    .next_u64()
}

/// One tenant's share of a round.
#[derive(Debug, Clone)]
pub struct TenantOut {
    /// Rate of each tick of the window, tasks/s.
    pub ticks: Vec<f64>,
    /// The pool's report.
    pub report: RunReport,
    /// STM counter deltas over the warm-up and window.
    pub stm: StatsSnapshot,
}

/// Queue counters of one queue-drain round.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueueOut {
    /// Items handed to the handler.
    pub processed: u64,
    /// Cross-shard steals.
    pub steals: u64,
    /// Steals from gated workers' shards.
    pub gated_steals: u64,
}

/// What one round measured and checked.
#[derive(Debug, Clone, Default)]
pub struct RoundOut {
    /// Construction, population and pool spawn, seconds.
    pub setup_s: f64,
    /// Workload-level rate of each tick, tasks/s (on queue-drain one
    /// value: items/s over the whole drain).
    pub ticks: Vec<f64>,
    /// Measured seconds of the round.
    pub window_s: f64,
    /// Per tenant, in [`Kind::tenants`] order.
    pub tenants: Vec<TenantOut>,
    /// Time to build and fill the workload's main structure, seconds.
    pub populate_s: f64,
    /// Intruder flows reassembled (colo only).
    pub flows_completed: u64,
    /// Queue counters (queue-drain only).
    pub queue: QueueOut,
    /// Tasks attempted (completed plus panicked).
    pub attempted: u64,
    /// Output-oracle violations, worker panics and stall warnings.
    pub failures: Vec<String>,
}

fn start_pool<W: Workload>(
    spec: &TenantSpec,
    initial: u32,
    workload: W,
    trace: Option<u8>,
) -> MalleablePool {
    let cfg = PoolConfig::new(spec.pool_size)
        .initial_level(initial)
        .monitor_period(spec.period)
        .name(spec.name.clone());
    // The same controller `Tenant::start` builds.
    let controller = spec.policy.build(&spec.policy_cfg);
    let Some(tenant) = trace else {
        return MalleablePool::start(cfg, workload, controller);
    };
    let board = AdmitBoard::new(spec.pool_size);
    let start = spans::now();
    let pool = MalleablePool::start(
        cfg,
        Traced::new(workload, tenant, Arc::clone(&board)),
        Box::new(TimedController::new(controller, tenant, board)),
    );
    spans::record(Name::PoolStart, tenant, start, spans::now());
    pool
}

fn stop_pool(pool: MalleablePool, trace: Option<u8>) -> RunReport {
    let start = spans::now();
    let report = pool.stop();
    if let Some(tenant) = trace {
        spans::record(Name::PoolStop, tenant, start, spans::now());
    }
    report
}

/// Failures every pool report can show on its own.
fn check_report(report: &RunReport, failures: &mut Vec<String>) {
    for _ in 0..report.worker_panics {
        failures.push(format!("{}: worker panic", report.name));
    }
    for _ in 0..report.stall_warnings {
        failures.push(format!("{}: stall watchdog fired", report.name));
    }
}

fn attempted(report: &RunReport) -> u64 {
    report.total_tasks + report.worker_panics
}

/// Per-tick rates of a measured window.
struct Window {
    /// Each counter's per-tick rates.
    per: Vec<Vec<f64>>,
    /// Per-tick sums of the counters' rates.
    sums: Vec<f64>,
    /// Measured seconds.
    secs: f64,
}

/// Waits [`WARMUP`], then samples `counters` every [`TICK`]. The window
/// ends after `window`, or, with `until = Some((i, n))`, once counter `i`
/// has advanced by `n` (or after four times `window` if it never does).
fn window_rates(
    window: Duration,
    counters: &[&dyn Fn() -> u64],
    until: Option<(usize, u64)>,
) -> Window {
    // A work target is checked this often, so the round stops within
    // a few ms of reaching it.
    const POLL: Duration = Duration::from_millis(10);
    std::thread::sleep(WARMUP);
    let start = Instant::now();
    let first: Vec<u64> = counters.iter().map(|c| c()).collect();
    let mut prev = first.clone();
    let mut tick_start = start;
    let mut w = Window {
        per: vec![Vec::new(); counters.len()],
        sums: Vec::new(),
        secs: 0.0,
    };
    let deadline = start + if until.is_some() { window * 4 } else { window };
    loop {
        let next_tick = (tick_start + TICK).min(deadline);
        let wake = if until.is_some() {
            next_tick.min(Instant::now() + POLL)
        } else {
            next_tick
        };
        if let Some(d) = wake.checked_duration_since(Instant::now()) {
            std::thread::sleep(d);
        }
        let now = Instant::now();
        let reached = until.is_some_and(|(i, n)| counters[i]().saturating_sub(first[i]) >= n);
        let over = reached || now >= deadline;
        if now < next_tick && !over {
            continue;
        }
        let dt = now.duration_since(tick_start).as_secs_f64();
        // A final partial tick shorter than a quarter tick is too short
        // to rate on its own; its work still counts in `secs`.
        if dt >= TICK.as_secs_f64() / 4.0 {
            let mut sum = 0.0;
            for (j, counter) in counters.iter().enumerate() {
                let v = counter();
                let rate = v.saturating_sub(prev[j]) as f64 / dt;
                prev[j] = v;
                w.per[j].push(rate);
                sum += rate;
            }
            w.sums.push(sum);
        }
        tick_start = now;
        if over {
            w.secs = now.duration_since(start).as_secs_f64();
            return w;
        }
    }
}

/// `rbt-read`: one fixed-level tenant running the paper's RBT micro on
/// the per-node B-tree.
#[must_use]
pub fn rbt_round(o: &Opts, round: u64, window: Duration, traced: bool) -> RoundOut {
    let cfg = RbTreeConfig {
        seed: derive_seed(o.seed, round, 1),
        ..RbTreeConfig::paper()
    };
    let key_range = cfg.key_range;
    let t0 = Instant::now();
    let stm = Stm::new();
    let w = Arc::new(RbTreeWorkloadOn::<BTreeFamily>::new(cfg, stm.clone()));
    let populate_s = t0.elapsed().as_secs_f64();
    let spec = TenantSpec::new("rbtree", o.nproc, Policy::Fixed(o.nproc));
    let pool = start_pool(&spec, o.nproc, Arc::clone(&w), traced.then_some(0));
    let setup_s = t0.elapsed().as_secs_f64();

    let before = stm.stats().snapshot();
    let mut win = window_rates(window, &[&|| stm.stats().commits()], None);
    let delta = stm.stats().snapshot().delta_since(&before);
    let report = stop_pool(pool, traced.then_some(0));

    let mut failures = Vec::new();
    check_report(&report, &mut failures);
    match w.map().check_invariants() {
        Ok(n) if n > 0 && n as u64 <= key_range => {}
        Ok(n) => failures.push(format!("rbtree: {n} entries outside (0, {key_range}]")),
        Err(e) => failures.push(format!("rbtree: invariant violated: {e}")),
    }
    RoundOut {
        setup_s,
        ticks: win.sums,
        window_s: win.secs,
        attempted: attempted(&report),
        tenants: vec![TenantOut {
            ticks: win.per.swap_remove(0),
            report,
            stm: delta,
        }],
        populate_s,
        failures,
        ..RoundOut::default()
    }
}

/// `colo-intruder-vacation`: Intruder and Vacation as two RUBIC-tuned
/// tenants of `nproc` workers each.
#[must_use]
pub fn colo_round(o: &Opts, round: u64, window: Duration, traced: bool) -> RoundOut {
    let icfg = IntruderConfig {
        seed: derive_seed(o.seed, round, 2),
        ..IntruderConfig::paper()
    };
    let vcfg = VacationConfig {
        seed: derive_seed(o.seed, round, 3),
        ..VacationConfig::low_contention(VACATION_RELATIONS)
    };
    let t0 = Instant::now();
    let stm_i = Stm::new();
    let intruder = Arc::new(IntruderWorkload::new(icfg, stm_i.clone()));
    let p0 = Instant::now();
    let stm_v = Stm::new();
    let vacation = Arc::new(VacationWorkload::new(vcfg, stm_v.clone()));
    let populate_s = p0.elapsed().as_secs_f64();
    let spec_i = TenantSpec::new("intruder", o.nproc, Policy::Rubic);
    let spec_v = TenantSpec::new("vacation", o.nproc, Policy::Rubic);
    let pool_i = start_pool(&spec_i, 1, Arc::clone(&intruder), traced.then_some(0));
    let pool_v = start_pool(&spec_v, 1, Arc::clone(&vacation), traced.then_some(1));
    let setup_s = t0.elapsed().as_secs_f64();

    let (bi, bv) = (stm_i.stats().snapshot(), stm_v.stats().snapshot());
    // The window ends when Vacation has completed a fixed number of
    // tasks: its tables grow with every booking, so fixed work gives
    // every round the same data volume and the same per-task cost curve.
    let vacation_tasks = (VACATION_TASKS_PER_S * window.as_secs_f64()) as u64;
    let mut win = window_rates(
        window,
        &[&|| pool_i.total_tasks(), &|| pool_v.total_tasks()],
        Some((1, vacation_tasks)),
    );
    let di = stm_i.stats().snapshot().delta_since(&bi);
    let dv = stm_v.stats().snapshot().delta_since(&bv);
    let rep_i = stop_pool(pool_i, traced.then_some(0));
    let rep_v = stop_pool(pool_v, traced.then_some(1));

    let mut failures = Vec::new();
    check_report(&rep_i, &mut failures);
    check_report(&rep_v, &mut failures);
    let reserved = vacation.manager().total_reserved_units(&stm_v);
    let booked = vacation.manager().total_customer_bookings();
    if reserved != booked {
        failures.push(format!(
            "vacation: {reserved} reserved units but {booked} customer bookings"
        ));
    }
    let flows_completed = intruder.flows_completed();
    if flows_completed == 0 {
        failures.push("intruder: no flow completed".to_string());
    }
    let open = intruder.open_sessions();
    let open_bound = o.nproc as usize * icfg.flows_per_batch as usize;
    if open > open_bound {
        failures.push(format!("intruder: {open} open sessions > {open_bound}"));
    }
    RoundOut {
        setup_s,
        ticks: win.sums,
        window_s: win.secs,
        attempted: attempted(&rep_i) + attempted(&rep_v),
        tenants: vec![
            TenantOut {
                ticks: std::mem::take(&mut win.per[0]),
                report: rep_i,
                stm: di,
            },
            TenantOut {
                ticks: std::mem::take(&mut win.per[1]),
                report: rep_v,
                stm: dv,
            },
        ],
        populate_s,
        flows_completed,
        failures,
        ..RoundOut::default()
    }
}

/// One queue item: an upsert of `key` to `val`. `sent` is the send time
/// in the traced run (0 otherwise).
#[derive(Debug, Clone, Copy)]
pub struct Item {
    key: u64,
    val: u64,
    sent: u64,
}

/// The upsert body: keep the larger value, so the map ends holding each
/// key's last-sent value whatever order the workers drain in.
fn upsert_body(
    map: &TBTreeMap<u64, u64>,
    tx: &mut rubic::stm::Transaction,
    it: Item,
    insert: impl FnOnce(&mut rubic::stm::Transaction) -> rubic::stm::TxResult<Option<u64>>,
) -> rubic::stm::TxResult<()> {
    if map.get(tx, &it.key)?.is_none_or(|cur| cur < it.val) {
        insert(tx)?;
    }
    Ok(())
}

fn raw_handler(stm: Stm, map: TBTreeMap<u64, u64>) -> impl Fn(Item) + Send + Sync + 'static {
    move |it: Item| {
        stm.atomically(|tx| upsert_body(&map, tx, it, |tx| map.insert(tx, it.key, it.val)));
    }
}

fn traced_handler(stm: Stm, map: TBTreeMap<u64, u64>) -> impl Fn(Item) + Send + Sync + 'static {
    move |it: Item| {
        let task = spans::sampled_task();
        let mut attempts = 0u64;
        if task == 0 {
            stm.atomically(|tx| {
                attempts += 1;
                upsert_body(&map, tx, it, |tx| map.insert(tx, it.key, it.val))
            });
            spans::add_txn(0, attempts);
            return;
        }
        let begin = spans::now();
        spans::record_with_id(spans::next_id(), Name::Residency, 0, it.sent, begin, task);
        let txn = spans::next_id();
        stm.atomically(|tx| {
            attempts += 1;
            let attempt = spans::next_id();
            let a0 = spans::now();
            let result = upsert_body(&map, tx, it, |tx| {
                let i0 = spans::now();
                let r = map.insert(tx, it.key, it.val);
                spans::record_with_id(spans::next_id(), Name::Insert, 0, i0, spans::now(), attempt);
                r
            });
            spans::record_with_id(attempt, Name::Attempt, 0, a0, spans::now(), txn);
            result
        });
        spans::record_with_id(txn, Name::Atomically, 0, begin, spans::now(), task);
        spans::add_txn(0, attempts);
    }
}

/// `queue-drain`: the main thread pushes [`QUEUE_ITEMS`] upserts through
/// `send_batch` into a RUBIC-tuned sharded-queue pool; the round's rate
/// is items over first send → drained.
#[must_use]
pub fn queue_round(o: &Opts, round: u64, traced: bool) -> RoundOut {
    // Inputs, generated before set-up: the fill order and the item
    // stream, plus the expected final map.
    let mut rng = SplitMix::new(derive_seed(o.seed, round, 4));
    let mut fill: Vec<u64> = (0..QUEUE_KEYS).collect();
    for i in (1..fill.len()).rev() {
        fill.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let items: Vec<(u64, u64)> = (1..=QUEUE_ITEMS as u64)
        .map(|val| (rng.below(QUEUE_KEYS), val))
        .collect();
    let mut expected = vec![0u64; QUEUE_KEYS as usize];
    for &(k, v) in &items {
        expected[k as usize] = v;
    }

    let t0 = Instant::now();
    let stm = Stm::new();
    let map: TBTreeMap<u64, u64> = TBTreeMap::new();
    for &k in &fill {
        stm.atomically(|tx| map.insert(tx, k, 0).map(drop));
    }
    let populate_s = t0.elapsed().as_secs_f64();
    let spec = TenantSpec::new("queue", o.nproc, Policy::Rubic);
    let shards = o.nproc as usize;
    let (pool, sender, handle) = if traced {
        let (w, tx) = ShardedWorkload::new(
            shards,
            QUEUE_CAPACITY,
            traced_handler(stm.clone(), map.clone()),
        );
        let h = w.handle();
        (start_pool(&spec, 1, w, Some(0)), tx, h)
    } else {
        let (w, tx) = ShardedWorkload::new(
            shards,
            QUEUE_CAPACITY,
            raw_handler(stm.clone(), map.clone()),
        );
        let h = w.handle();
        (start_pool(&spec, 1, w, None), tx, h)
    };
    let setup_s = t0.elapsed().as_secs_f64();

    let mut failures = Vec::new();
    let before = stm.stats().snapshot();
    let start = Instant::now();
    for chunk in items.chunks(QUEUE_SEND_BATCH) {
        let sent = if traced {
            let sample = spans::sample_send();
            let s0 = spans::now();
            let r = sender.send_batch(chunk.iter().map(|&(key, val)| Item { key, val, sent: s0 }));
            if sample {
                spans::record(Name::SendBatch, 0, s0, spans::now());
            }
            r
        } else {
            sender.send_batch(chunk.iter().map(|&(key, val)| Item { key, val, sent: 0 }))
        };
        if sent.is_err() {
            failures.push("queue: closed while sending".to_string());
            break;
        }
    }
    drop(sender);
    handle.wait_drained();
    let window_s = start.elapsed().as_secs_f64();
    let delta = stm.stats().snapshot().delta_since(&before);
    let report = stop_pool(pool, traced.then_some(0));

    check_report(&report, &mut failures);
    let processed = handle.processed();
    if processed != QUEUE_ITEMS as u64 {
        failures.push(format!(
            "queue: processed {processed} of {QUEUE_ITEMS} items"
        ));
    }
    match map.check_invariants() {
        Ok(n) if n as u64 == QUEUE_KEYS => {}
        Ok(n) => failures.push(format!("queue: map holds {n} keys, expected {QUEUE_KEYS}")),
        Err(e) => failures.push(format!("queue: invariant violated: {e}")),
    }
    let entries = map.snapshot_entries();
    let wrong = entries
        .iter()
        .filter(|&&(k, v)| expected.get(k as usize) != Some(&v))
        .count();
    if wrong > 0 {
        failures.push(format!(
            "queue: {wrong} keys do not hold their last-sent value"
        ));
    }
    RoundOut {
        setup_s,
        ticks: vec![QUEUE_ITEMS as f64 / window_s],
        window_s,
        attempted: QUEUE_ITEMS as u64,
        tenants: vec![TenantOut {
            ticks: vec![QUEUE_ITEMS as f64 / window_s],
            report,
            stm: delta,
        }],
        populate_s,
        queue: QueueOut {
            processed,
            steals: handle.steals(),
            gated_steals: handle.gated_steals(),
        },
        failures,
        ..RoundOut::default()
    }
}

/// Rounds of a fixed-window workload (0 for queue-drain).
#[must_use]
pub fn window_rounds(kind: Kind) -> u32 {
    match kind {
        Kind::RbtRead => RBT_ROUNDS,
        Kind::Colo => COLO_ROUNDS,
        Kind::QueueDrain => 0,
    }
}

/// Measured seconds of one round of a fixed-window workload: its
/// rounds split `o.seconds`.
#[must_use]
pub fn window(kind: Kind, o: &Opts) -> Duration {
    Duration::from_secs_f64(o.seconds / f64::from(window_rounds(kind).max(1)))
}

/// True while a pass whose rounds measured `done` seconds each needs
/// another round: [`window_rounds`] rounds for the fixed-window
/// workloads; queue-drain rounds until `o.seconds` of draining is
/// measured (at least three).
#[must_use]
pub fn wants_round(kind: Kind, o: &Opts, done: &[f64]) -> bool {
    match kind {
        Kind::RbtRead | Kind::Colo => done.len() < window_rounds(kind) as usize,
        Kind::QueueDrain => done.len() < 3 || done.iter().sum::<f64>() < o.seconds,
    }
}

/// Runs round `r` of `kind`.
#[must_use]
pub fn round(kind: Kind, o: &Opts, r: u64, traced: bool) -> RoundOut {
    match kind {
        Kind::RbtRead => rbt_round(o, r, window(kind, o), traced),
        Kind::Colo => colo_round(o, r, window(kind, o), traced),
        Kind::QueueDrain => queue_round(o, r, traced),
    }
}

/// Runs an untraced and a traced pass of `kind` with their rounds
/// alternating, so both see the same host drift. Round `r` of both
/// passes gets the same inputs.
#[must_use]
pub fn run_interleaved(kind: Kind, o: &Opts) -> (Vec<RoundOut>, Vec<RoundOut>) {
    let (mut plain, mut traced) = (Vec::<RoundOut>::new(), Vec::<RoundOut>::new());
    let windows = |rounds: &[RoundOut]| rounds.iter().map(|r| r.window_s).collect::<Vec<_>>();
    loop {
        let (more_plain, more_traced) = (
            wants_round(kind, o, &windows(&plain)),
            wants_round(kind, o, &windows(&traced)),
        );
        if !more_plain && !more_traced {
            return (plain, traced);
        }
        if more_plain {
            plain.push(round(kind, o, plain.len() as u64, false));
        }
        if more_traced {
            traced.push(round(kind, o, traced.len() as u64, true));
        }
    }
}

/// Level-1 solo throughput of each colo tenant, measured with
/// `rubic::measure_sequential` over `window` on fresh workloads.
#[must_use]
pub fn colo_baselines(o: &Opts, window: Duration) -> [f64; 2] {
    let icfg = IntruderConfig {
        seed: derive_seed(o.seed, 0, 2),
        ..IntruderConfig::paper()
    };
    let vcfg = VacationConfig {
        seed: derive_seed(o.seed, 0, 3),
        ..VacationConfig::low_contention(VACATION_RELATIONS)
    };
    let intruder = rubic::measure_sequential(IntruderWorkload::new(icfg, Stm::new()), window);
    let vacation = rubic::measure_sequential(VacationWorkload::new(vcfg, Stm::new()), window);
    [intruder, vacation]
}
