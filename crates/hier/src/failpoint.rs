//! A tiny fault-injection facility in the spirit of the `fail` crate.
//!
//! Compiled only under the `failpoints` feature; release builds without the
//! feature compile every [`crate::failpoint!`] site to nothing.  Sites are
//! armed by name through [`arm`]/[`arm_at`], fire deterministically on
//! their n-th evaluation, and can target one shard index so a chaos test
//! kills a chosen worker regardless of thread scheduling.

use hyperstream_graphblas::{GrbError, GrbResult};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// What an armed failpoint does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// Panic the evaluating thread (worker-death injection).
    Panic,
    /// Return [`GrbError::Injected`] from the site (fallible sites only;
    /// panic-only sites escalate this to a panic).
    Error,
    /// Sleep for the given duration, then continue (timeout injection).
    Sleep(Duration),
}

/// A site key: name plus an optional shard-index restriction.
type SiteKey = (&'static str, Option<usize>);

struct Site {
    action: FailAction,
    /// Fire on the n-th evaluation of this site (1-based).
    nth: u64,
    /// Evaluations of this site seen so far.
    hits: u64,
    /// Times the site has fired.
    fired: u64,
}

struct Registry {
    sites: HashMap<SiteKey, Site>,
}

/// Fast disarmed-path check: a single relaxed load when nothing is armed.
static ANY_ARMED: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<Registry> {
    static REG: OnceLock<Mutex<Registry>> = OnceLock::new();
    REG.get_or_init(|| {
        Mutex::new(Registry {
            sites: HashMap::new(),
        })
    })
}

fn lock_registry() -> std::sync::MutexGuard<'static, Registry> {
    // The registry mutex is poisoned if a worker panics *while holding it*;
    // the registry is just counters, so recover the data.
    registry()
        .lock()
        .unwrap_or_else(|poison| poison.into_inner())
}

/// Arm `name` for every shard index: fires on its `nth` evaluation
/// (1-based) with `action`.
pub fn arm(name: &'static str, nth: u64, action: FailAction) {
    arm_at(name, None, nth, action);
}

/// Arm `name` restricted to evaluations reporting shard index `idx`
/// (`None` = any index).  Per-index arming is the deterministic form: each
/// worker evaluates its own sites in a scheduling-independent order.
pub fn arm_at(name: &'static str, idx: Option<usize>, nth: u64, action: FailAction) {
    let mut reg = lock_registry();
    reg.sites.insert(
        (name, idx),
        Site {
            action,
            nth: nth.max(1),
            hits: 0,
            fired: 0,
        },
    );
    ANY_ARMED.store(true, Ordering::Release);
}

/// Disarm one site (both its wildcard and every per-index entry).
pub fn disarm(name: &str) {
    let mut reg = lock_registry();
    reg.sites.retain(|(n, _), _| *n != name);
    if reg.sites.is_empty() {
        ANY_ARMED.store(false, Ordering::Release);
    }
}

/// Disarm every site and reset all counters.
pub fn disarm_all() {
    let mut reg = lock_registry();
    reg.sites.clear();
    ANY_ARMED.store(false, Ordering::Release);
}

/// Evaluations seen by `name` (summed over its per-index entries) since it
/// was armed.  Counting only happens while the site is armed.
pub fn hits(name: &str) -> u64 {
    let reg = lock_registry();
    reg.sites
        .iter()
        .filter(|((n, _), _)| *n == name)
        .map(|(_, s)| s.hits)
        .sum()
}

/// Total fires across every armed site — a run taken with the feature
/// compiled in reads this to attest that no fault actually fired
/// (`tests/fault_injection.rs` pins it at zero for a disarmed build).
pub fn total_fired() -> u64 {
    let reg = lock_registry();
    reg.sites.values().map(|s| s.fired).sum()
}

/// Times `name` has fired since it was armed.
pub fn fired(name: &str) -> u64 {
    let reg = lock_registry();
    reg.sites
        .iter()
        .filter(|((n, _), _)| *n == name)
        .map(|(_, s)| s.fired)
        .sum()
}

/// Look up the action to take for one evaluation, maintaining counters.
/// Exact `(name, Some(idx))` entries take precedence over the wildcard.
fn evaluate(name: &'static str, idx: usize) -> Option<FailAction> {
    if !ANY_ARMED.load(Ordering::Acquire) {
        return None;
    }
    let mut reg = lock_registry();
    let key = if reg.sites.contains_key(&(name, Some(idx))) {
        (name, Some(idx))
    } else {
        (name, None)
    };
    let site = reg.sites.get_mut(&key)?;
    site.hits += 1;
    if site.hits == site.nth {
        site.fired += 1;
        Some(site.action)
    } else {
        None
    }
}

/// Evaluate a fallible failpoint site.  Used through
/// [`crate::failpoint!`]; `idx` is `usize::MAX` for sites with no shard
/// identity.
pub fn check(name: &'static str, idx: usize) -> GrbResult<()> {
    match evaluate(name, idx) {
        None => Ok(()),
        Some(FailAction::Panic) => panic!("failpoint '{name}' injected panic (shard {idx})"),
        Some(FailAction::Error) => Err(GrbError::Injected(name)),
        Some(FailAction::Sleep(d)) => {
            std::thread::sleep(d);
            Ok(())
        }
    }
}

/// Evaluate a panic-only failpoint site (infallible contexts).  An armed
/// `Error` action escalates to a panic here.
pub fn check_panic_only(name: &'static str, idx: usize) {
    match evaluate(name, idx) {
        None => {}
        Some(FailAction::Sleep(d)) => std::thread::sleep(d),
        Some(_) => panic!("failpoint '{name}' injected panic (shard {idx})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global; every test uses its own site names so
    // the cases stay independent under the parallel test runner.

    #[test]
    fn disarmed_sites_are_inert() {
        assert!(check("fp-test-inert", 0).is_ok());
        assert_eq!(hits("fp-test-inert"), 0);
    }

    #[test]
    fn nth_evaluation_fires_exactly_once() {
        arm("fp-test-nth", 3, FailAction::Error);
        assert!(check("fp-test-nth", 0).is_ok());
        assert!(check("fp-test-nth", 1).is_ok());
        assert_eq!(
            check("fp-test-nth", 2),
            Err(GrbError::Injected("fp-test-nth"))
        );
        assert!(check("fp-test-nth", 0).is_ok());
        assert_eq!(hits("fp-test-nth"), 4);
        assert_eq!(fired("fp-test-nth"), 1);
        disarm("fp-test-nth");
        assert!(check("fp-test-nth", 2).is_ok());
    }

    #[test]
    fn per_index_arming_only_hits_that_index() {
        arm_at("fp-test-idx", Some(2), 1, FailAction::Error);
        assert!(check("fp-test-idx", 0).is_ok());
        assert!(check("fp-test-idx", 1).is_ok());
        assert!(check("fp-test-idx", 2).is_err());
        disarm("fp-test-idx");
    }

    #[test]
    fn sleep_action_delays_then_continues() {
        arm(
            "fp-test-sleep",
            1,
            FailAction::Sleep(Duration::from_millis(5)),
        );
        let start = std::time::Instant::now();
        assert!(check("fp-test-sleep", 0).is_ok());
        assert!(start.elapsed() >= Duration::from_millis(5));
        disarm("fp-test-sleep");
    }
}
