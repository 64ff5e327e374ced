//! Deterministic, seeded fault injection for the AMPC round engine and
//! the worker pool.
//!
//! The AMPC model assumes machines that can stall or die between rounds;
//! this module is the controlled way to make that happen. A [`FaultPlan`]
//! describes *which* faults fire *where*, keyed by `(round, machine)` and
//! a seed — never by thread id, worker id or wall clock — so a plan
//! reproduces the exact same injections for any thread count, which
//! is what lets the chaos equivalence matrix pin bit-identity under
//! faults.
//!
//! ## Plan format (`AMPC_FAULTS`)
//!
//! A comma-separated list of `key=value` fields:
//!
//! ```text
//! seed=7,panic=1/40,stall=1/48,stall_ms=1,merge=1/400,alloc=1/64,abort=1/96
//! ```
//!
//! * `seed=N` — seed mixed into every injection decision (default 0).
//! * `panic=1/N` — a machine body panics with probability 1/N (per
//!   `(round, machine)` cell; `0` disables, the default).
//! * `stall=1/N`, `stall_ms=M` — a machine body sleeps `M` ms.
//! * `merge=1/N` — the round's merge fails (per round).
//! * `alloc=1/N` — a machine body allocates and touches a scratch burst
//!   (pressure on the allocation-discipline gate).
//! * `abort=1/N` — the pool worker running the machine is poisoned: it
//!   panics the task *and* exits after the batch, forcing a supervised
//!   respawn.
//!
//! Any other field name is rejected, and a malformed `AMPC_FAULTS` is
//! ignored as a whole.
//!
//! Every injected fault fires on **attempt 0 only**: a retried round
//! replays from the same input store with no faults, so the merged result
//! is byte-identical to an un-faulted run. Real (non-injected) failures
//! are still retried the same bounded number of times and then surfaced —
//! a deterministic error reproduces identically on every attempt, so
//! retries never change *which* error the caller sees.
//!
//! The round engine runs every round through one crate-private supervisor
//! (`supervise`), the one owner of the plan and deadline lookup, the
//! bounded retry loop and the injection points; the engine supplies only
//! its attempt body. When no plan, deadline or retry budget is
//! configured, supervision collapses to one direct call of that body —
//! the no-op branch the hot path pays.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, Once};
use std::time::{Duration, Instant};

/// A fault injected into one machine's body execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskFault {
    /// Panic inside the machine body (caught, retried).
    Panic,
    /// Sleep for the plan's `stall_ms` before running the body.
    Stall,
    /// Allocate and touch a scratch burst before running the body.
    AllocPressure,
    /// Poison the executing pool worker (it panics the task and exits
    /// after the batch, triggering a supervised respawn).
    AbortWorker,
}

/// The panic payload of every injected panic. Backends downcast the
/// caught payload to this type to tell an injected fault from a real bug.
#[derive(Debug, Clone, Copy)]
pub struct InjectedPanic;

/// A deterministic, seeded description of which faults fire where.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed mixed into every injection decision.
    pub seed: u64,
    /// Fire a [`TaskFault::Panic`] in 1-in-`panic_rate` cells (0 = never).
    pub panic_rate: u64,
    /// Fire a [`TaskFault::Stall`] in 1-in-`stall_rate` cells.
    pub stall_rate: u64,
    /// How long a stalled body sleeps.
    pub stall_ms: u64,
    /// Fail the merge of 1-in-`merge_rate` rounds.
    pub merge_rate: u64,
    /// Fire a [`TaskFault::AllocPressure`] in 1-in-`alloc_rate` cells.
    pub alloc_rate: u64,
    /// Poison the worker of 1-in-`abort_rate` cells.
    pub abort_rate: u64,
}

impl FaultPlan {
    /// Parses the `AMPC_FAULTS` plan format.
    ///
    /// # Errors
    ///
    /// A description of the first malformed field.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan {
            stall_ms: 1,
            ..FaultPlan::default()
        };
        for field in text.split(',').map(str::trim).filter(|f| !f.is_empty()) {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("fault field `{field}` is not key=value"))?;
            let rate = |value: &str| -> Result<u64, String> {
                let digits = value.strip_prefix("1/").unwrap_or(value);
                digits
                    .parse::<u64>()
                    .map_err(|_| format!("fault rate `{value}` is neither `1/N` nor an integer"))
            };
            match key.trim() {
                "seed" => plan.seed = rate(value.trim())?,
                "panic" => plan.panic_rate = rate(value.trim())?,
                "stall" => plan.stall_rate = rate(value.trim())?,
                "stall_ms" => plan.stall_ms = rate(value.trim())?,
                "merge" => plan.merge_rate = rate(value.trim())?,
                "alloc" => plan.alloc_rate = rate(value.trim())?,
                "abort" => plan.abort_rate = rate(value.trim())?,
                other => return Err(format!("unknown fault field `{other}`")),
            }
        }
        Ok(plan)
    }

    /// The fault (if any) injected into machine `machine` of round `round`
    /// on attempt `attempt`. Retried attempts are never faulted, so a
    /// bounded retry always converges on the plan's own injections.
    pub fn task_fault(&self, round: u64, machine: u64, attempt: u32) -> Option<TaskFault> {
        if attempt > 0 {
            return None;
        }
        let roll = mix(self.seed, round, machine);
        // Disjoint sub-rolls per kind: deriving each decision from its own
        // bits keeps e.g. panic and abort cells from always coinciding.
        if fires(roll, 0, self.abort_rate) {
            Some(TaskFault::AbortWorker)
        } else if fires(roll, 1, self.panic_rate) {
            Some(TaskFault::Panic)
        } else if fires(roll, 2, self.stall_rate) {
            Some(TaskFault::Stall)
        } else if fires(roll, 3, self.alloc_rate) {
            Some(TaskFault::AllocPressure)
        } else {
            None
        }
    }

    /// Whether round `round`'s merge fails on attempt `attempt`.
    pub fn merge_fails(&self, round: u64, attempt: u32) -> bool {
        attempt == 0 && fires(mix(self.seed, round, u64::MAX), 4, self.merge_rate)
    }
}

/// splitmix64-style finalizer over the injection cell coordinates.
fn mix(seed: u64, round: u64, machine: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(round.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(machine.wrapping_mul(0x94d0_49bb_1331_11eb))
        .wrapping_add(0x2545_f491_4f6c_dd1d);
    z ^= z >> 30;
    z = z.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One kind's decision: a distinct byte rotation of the cell roll modulo
/// the rate. Rate 0 never fires.
fn fires(roll: u64, kind: u32, rate: u64) -> bool {
    rate != 0 && roll.rotate_left(kind * 13).is_multiple_of(rate)
}

// ---------------------------------------------------------------------------
// Process-global plan + knobs.

static INIT: Once = Once::new();
static ENABLED: AtomicBool = AtomicBool::new(false);
static PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);
/// Per-round deadline in milliseconds; 0 = no deadline.
static ROUND_DEADLINE_MS: AtomicU64 = AtomicU64::new(0);
/// Bounded retry count for failed rounds. `u32::MAX` = unset (derive the
/// default: 2 when a plan is active, 0 otherwise).
static ROUND_RETRIES: AtomicU32 = AtomicU32::new(u32::MAX);

fn ensure_init() {
    INIT.call_once(|| {
        if let Ok(text) = std::env::var("AMPC_FAULTS") {
            match FaultPlan::parse(&text) {
                Ok(plan) => {
                    *PLAN.lock().unwrap_or_else(|e| e.into_inner()) = Some(plan);
                    ENABLED.store(true, Ordering::Release);
                    silence_injected_panics();
                }
                Err(error) => eprintln!("ignoring malformed AMPC_FAULTS: {error}"),
            }
        }
        if let Some(ms) = env_u64("AMPC_ROUND_DEADLINE_MS") {
            ROUND_DEADLINE_MS.store(ms, Ordering::Relaxed);
        }
        if let Some(retries) = env_u64("AMPC_ROUND_RETRIES") {
            ROUND_RETRIES.store(retries.min(u32::MAX as u64 - 1) as u32, Ordering::Relaxed);
        }
    });
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// The active plan, if any. The disabled fast path is one relaxed load.
pub fn active() -> Option<FaultPlan> {
    ensure_init();
    if !ENABLED.load(Ordering::Acquire) {
        return None;
    }
    PLAN.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Installs (or with `None`, clears) the process-wide plan — the test
/// hook; production configuration goes through `AMPC_FAULTS`.
pub fn install(plan: Option<FaultPlan>) {
    ensure_init();
    let enabled = plan.is_some();
    *PLAN.lock().unwrap_or_else(|e| e.into_inner()) = plan;
    ENABLED.store(enabled, Ordering::Release);
    if enabled {
        silence_injected_panics();
    }
}

static HOOK: Once = Once::new();

/// Injected panics are expected, caught and retried — chaining the panic
/// hook once keeps a chaos run from flooding stderr with hundreds of
/// "thread panicked" reports while leaving real panics fully reported.
fn silence_injected_panics() {
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                previous(info);
            }
        }));
    });
}

/// The per-round deadline, `None` when disabled.
pub fn round_deadline() -> Option<Duration> {
    ensure_init();
    match ROUND_DEADLINE_MS.load(Ordering::Relaxed) {
        0 => None,
        ms => Some(Duration::from_millis(ms)),
    }
}

/// Sets the per-round deadline in milliseconds (0 disables). Wired from
/// `ServiceConfig::round_deadline_ms` and the `AMPC_ROUND_DEADLINE_MS`
/// env var.
pub fn set_round_deadline_ms(ms: u64) {
    ensure_init();
    ROUND_DEADLINE_MS.store(ms, Ordering::Relaxed);
}

/// How many times a failed round is retried before its failure surfaces.
/// Defaults to 2 while a plan is active (so every injected fault heals on
/// replay) and 0 otherwise; override via [`set_max_round_retries`] or
/// `AMPC_ROUND_RETRIES`.
pub fn max_round_retries() -> u32 {
    ensure_init();
    match ROUND_RETRIES.load(Ordering::Relaxed) {
        u32::MAX => {
            if ENABLED.load(Ordering::Acquire) || round_deadline().is_some() {
                2
            } else {
                0
            }
        }
        explicit => explicit,
    }
}

/// Overrides the bounded retry count for failed rounds.
pub fn set_max_round_retries(retries: u32) {
    ensure_init();
    ROUND_RETRIES.store(retries.min(u32::MAX - 1), Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Worker poisoning (the AbortWorker channel into the pool's supervisor).

thread_local! {
    static POISONED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Marks the current thread's pool worker as poisoned; the worker loop
/// checks this after every task and respawns itself.
pub fn poison_current_worker() {
    POISONED.with(|flag| flag.set(true));
}

/// Reads and clears the current thread's poison flag.
pub fn take_worker_poison() -> bool {
    POISONED.with(|flag| flag.replace(false))
}

// ---------------------------------------------------------------------------
// Injection side effects + counters.

/// Cumulative process-wide fault/recovery counters, for tests and
/// `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Injected machine-body panics (including worker aborts).
    pub injected_panics: u64,
    /// Injected stalls.
    pub injected_stalls: u64,
    /// Injected merge failures.
    pub injected_merge_failures: u64,
    /// Injected allocation bursts.
    pub injected_allocs: u64,
    /// Workers poisoned (each forces one supervised respawn).
    pub worker_poisons: u64,
    /// Rounds that were retried after a failed attempt.
    pub rounds_retried: u64,
    /// Round attempts discarded because they overran the deadline.
    pub deadline_trips: u64,
}

static INJECTED_PANICS: AtomicU64 = AtomicU64::new(0);
static INJECTED_STALLS: AtomicU64 = AtomicU64::new(0);
static INJECTED_MERGES: AtomicU64 = AtomicU64::new(0);
static INJECTED_ALLOCS: AtomicU64 = AtomicU64::new(0);
static WORKER_POISONS: AtomicU64 = AtomicU64::new(0);
static ROUNDS_RETRIED: AtomicU64 = AtomicU64::new(0);
static DEADLINE_TRIPS: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the process-wide fault/recovery counters.
pub fn counters() -> FaultCounters {
    FaultCounters {
        injected_panics: INJECTED_PANICS.load(Ordering::Relaxed),
        injected_stalls: INJECTED_STALLS.load(Ordering::Relaxed),
        injected_merge_failures: INJECTED_MERGES.load(Ordering::Relaxed),
        injected_allocs: INJECTED_ALLOCS.load(Ordering::Relaxed),
        worker_poisons: WORKER_POISONS.load(Ordering::Relaxed),
        rounds_retried: ROUNDS_RETRIED.load(Ordering::Relaxed),
        deadline_trips: DEADLINE_TRIPS.load(Ordering::Relaxed),
    }
}

/// Performs the side effect of an injected task fault. `Panic` and
/// `AbortWorker` do not return.
fn apply(fault: TaskFault) {
    match fault {
        TaskFault::Panic => {
            INJECTED_PANICS.fetch_add(1, Ordering::Relaxed);
            std::panic::panic_any(InjectedPanic);
        }
        TaskFault::Stall => {
            INJECTED_STALLS.fetch_add(1, Ordering::Relaxed);
            let ms = active().map_or(1, |plan| plan.stall_ms.max(1));
            std::thread::sleep(Duration::from_millis(ms));
        }
        TaskFault::AllocPressure => {
            INJECTED_ALLOCS.fetch_add(1, Ordering::Relaxed);
            // One touched allocation: enough to show up in the alloc-count
            // gate without blowing the budget at sane rates.
            let burst = vec![0u8; 4096];
            std::hint::black_box(&burst);
        }
        TaskFault::AbortWorker => {
            INJECTED_PANICS.fetch_add(1, Ordering::Relaxed);
            WORKER_POISONS.fetch_add(1, Ordering::Relaxed);
            poison_current_worker();
            std::panic::panic_any(InjectedPanic);
        }
    }
}

/// Whether a caught panic payload is an injected fault.
pub fn is_injected_panic(payload: &(dyn std::any::Any + Send)) -> bool {
    payload.downcast_ref::<InjectedPanic>().is_some()
}

// ---------------------------------------------------------------------------
// Round supervision.

/// Why one round attempt did not produce a report.
pub(crate) enum AttemptFailure {
    /// A deterministic model error — reproduces identically on every
    /// attempt, so it surfaces immediately without retrying.
    Fatal(ampc_model::ModelError),
    /// The attempt overran the per-round deadline (in milliseconds); its
    /// results were discarded before touching the engine's state.
    Deadline(u64),
}

/// One attempt of a supervised round, handed to the engine's attempt
/// body by [`supervise`]: the injection points the body calls, and the
/// attempt's deadline. Without a plan every hook is one untaken branch.
pub(crate) struct Attempt<'p> {
    plan: Option<&'p FaultPlan>,
    round: u64,
    number: u32,
    /// `(attempt start, per-round limit)` when a deadline is configured.
    deadline: Option<(Instant, Duration)>,
}

impl Attempt<'_> {
    /// Fires the task fault the plan puts on `machine` in this attempt, if
    /// any. Called before each machine body; keyed on the machine id, never
    /// the chunk or worker, so the same cells fault for any thread count.
    #[inline]
    pub(crate) fn before_machine(&self, machine: usize) {
        if let Some(plan) = self.plan {
            if let Some(fault) = plan.task_fault(self.round, machine as u64, self.number) {
                apply(fault);
            }
        }
    }

    /// Loses this attempt's merge when the plan fails it: the attempt
    /// unwinds with an injected panic and the retry replays the round from
    /// its untouched input store.
    pub(crate) fn before_merge(&self) {
        if let Some(plan) = self.plan {
            if plan.merge_fails(self.round, self.number) {
                INJECTED_MERGES.fetch_add(1, Ordering::Relaxed);
                std::panic::panic_any(InjectedPanic);
            }
        }
    }

    /// [`AttemptFailure::Deadline`] once this attempt has run longer than
    /// the per-round deadline.
    pub(crate) fn check_deadline(&self) -> Result<(), AttemptFailure> {
        match self.deadline {
            Some((started, limit)) if started.elapsed() > limit => {
                Err(AttemptFailure::Deadline(limit.as_millis() as u64))
            }
            _ => Ok(()),
        }
    }
}

/// Runs round `round` through `attempt_fn` under the active plan, deadline
/// and retry budget ([`max_round_retries`]), retrying with exponential
/// backoff until an attempt succeeds or the budget is spent. Panics out of
/// an attempt (injected or real) are caught and retried, so an attempt
/// must leave the engine untouched until it commits — the "failed rounds
/// leave no trace" invariant.
///
/// `round` is the engine's completed-round count, which only advances on
/// success: every attempt of one logical round, at every thread count,
/// sees the same injection cells.
pub(crate) fn supervise<T>(
    round: usize,
    mut attempt_fn: impl FnMut(&Attempt<'_>) -> Result<T, AttemptFailure>,
) -> Result<T, ampc_model::ModelError> {
    let plan = active();
    let limit = round_deadline();
    let max_retries = max_round_retries();
    if plan.is_none() && limit.is_none() && max_retries == 0 {
        // The production fast path: one attempt, no unwind guard, and
        // hooks that never fire.
        let clean = Attempt {
            plan: None,
            round: round as u64,
            number: 0,
            deadline: None,
        };
        return attempt_fn(&clean).map_err(|failure| match failure {
            AttemptFailure::Fatal(error) => error,
            AttemptFailure::Deadline(_) => unreachable!("no deadline configured"),
        });
    }
    let mut number = 0u32;
    loop {
        let attempt = Attempt {
            plan: plan.as_ref(),
            round: round as u64,
            number,
            deadline: limit.map(|limit| (Instant::now(), limit)),
        };
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| attempt_fn(&attempt)));
        match outcome {
            Ok(Ok(value)) => return Ok(value),
            Ok(Err(AttemptFailure::Fatal(error))) => return Err(error),
            Ok(Err(AttemptFailure::Deadline(deadline_ms))) => {
                DEADLINE_TRIPS.fetch_add(1, Ordering::Relaxed);
                if number >= max_retries {
                    return Err(ampc_model::ModelError::RoundDeadlineExceeded {
                        round,
                        deadline_ms,
                        attempts: number + 1,
                    });
                }
            }
            Err(payload) => {
                // An AbortWorker fault in a chunk that ran inline panicked
                // on the calling thread itself — clear the stray poison
                // flag (no pool worker to respawn here).
                let _ = take_worker_poison();
                if number >= max_retries {
                    return Err(ampc_model::ModelError::RoundPanicked {
                        round,
                        detail: panic_detail(payload.as_ref()),
                    });
                }
            }
        }
        ROUNDS_RETRIED.fetch_add(1, Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(1u64 << number.min(6)));
        number += 1;
    }
}

/// Best-effort description of a caught panic payload.
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if is_injected_panic(payload) {
        "injected fault".to_string()
    } else if let Some(text) = payload.downcast_ref::<&'static str>() {
        (*text).to_string()
    } else if let Some(text) = payload.downcast_ref::<String>() {
        text.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_rates_and_rejects_junk() {
        let plan = FaultPlan::parse(
            "seed=7, panic=1/40, stall=48, stall_ms=2, merge=1/400, alloc=1/64, abort=1/96",
        )
        .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.panic_rate, 40);
        assert_eq!(plan.stall_rate, 48);
        assert_eq!(plan.stall_ms, 2);
        assert_eq!(plan.merge_rate, 400);
        assert_eq!(plan.alloc_rate, 64);
        assert_eq!(plan.abort_rate, 96);
        assert_eq!(
            FaultPlan::parse("").unwrap(),
            FaultPlan {
                stall_ms: 1,
                ..FaultPlan::default()
            }
        );
        assert!(FaultPlan::parse("panic").is_err());
        assert!(FaultPlan::parse("panic=x").is_err());
        assert!(FaultPlan::parse("warp=1/2").is_err());
        assert!(FaultPlan::parse("kill=1/128").is_err());
    }

    #[test]
    fn decisions_are_deterministic_and_attempt_gated() {
        let plan =
            FaultPlan::parse("seed=3,panic=1/8,stall=1/8,alloc=1/8,abort=1/16,merge=1/4").unwrap();
        let mut fired = 0usize;
        for round in 0..64u64 {
            for machine in 0..64u64 {
                let first = plan.task_fault(round, machine, 0);
                assert_eq!(first, plan.task_fault(round, machine, 0), "stable");
                assert_eq!(
                    plan.task_fault(round, machine, 1),
                    None,
                    "retries run clean"
                );
                fired += usize::from(first.is_some());
            }
            assert_eq!(plan.merge_fails(round, 0), plan.merge_fails(round, 0));
            assert!(!plan.merge_fails(round, 1));
        }
        // ~3/8 of 4096 cells; loose bounds, the point is "plenty but not all".
        assert!(fired > 400 && fired < 3000, "{fired} faults fired");
    }

    #[test]
    fn zero_rates_never_fire() {
        let plan = FaultPlan::default();
        for round in 0..32u64 {
            for machine in 0..32u64 {
                assert_eq!(plan.task_fault(round, machine, 0), None);
            }
            assert!(!plan.merge_fails(round, 0));
        }
    }

    #[test]
    fn worker_poison_is_thread_local_and_one_shot() {
        assert!(!take_worker_poison());
        poison_current_worker();
        assert!(take_worker_poison());
        assert!(!take_worker_poison());
        let other = std::thread::spawn(take_worker_poison).join().unwrap();
        assert!(!other);
    }
}
