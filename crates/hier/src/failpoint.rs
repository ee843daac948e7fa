//! A tiny fault-injection facility in the spirit of the `fail` crate,
//! scoped to one engine.
//!
//! Compiled only under the `failpoints` feature; without it the handle is
//! a zero-sized type whose sites are inlined no-ops.  Every
//! [`HierMatrix`](crate::HierMatrix) and
//! [`ShardedHierMatrix`](crate::ShardedHierMatrix) owns one [`Failpoints`]
//! handle, and a sharded engine shares its own with every shard, so an arm
//! reaches each of that engine's workers and no other engine in the
//! process.  Sites are armed by name through [`Failpoints::arm`], fire
//! once, deterministically, on their n-th evaluation, and can target one
//! shard index so a chaos test kills a chosen worker regardless of thread
//! scheduling.

use hyperstream_graphblas::{GrbError, GrbResult};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
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

#[derive(Debug)]
struct Site {
    action: FailAction,
    /// Fire on the n-th evaluation of this site (1-based).
    nth: u64,
    /// Evaluations of this site seen so far.
    hits: u64,
}

/// One engine's armed fault sites.  Clones share the table: a sharded
/// engine hands its shards clones, so an arm made after construction
/// reaches every worker.
#[derive(Debug, Clone, Default)]
pub struct Failpoints {
    sites: Arc<Mutex<HashMap<SiteKey, Site>>>,
}

impl Failpoints {
    /// Arm `name` to fire with `action` on its `nth` evaluation (1-based),
    /// restricted to evaluations reporting shard index `idx` (`None` = any
    /// index).  Per-index arming is the deterministic form: each worker
    /// evaluates its own sites in a scheduling-independent order.
    pub fn arm(&self, name: &'static str, idx: Option<usize>, nth: u64, action: FailAction) {
        let site = Site {
            action,
            nth: nth.max(1),
            hits: 0,
        };
        self.sites.lock().insert((name, idx), site);
    }

    /// Times `name` has fired since it was armed, over its per-index arms.
    pub fn fired(&self, name: &str) -> u64 {
        let sites = self.sites.lock();
        let fired = sites
            .iter()
            .filter(|((n, _), s)| *n == name && s.hits >= s.nth);
        fired.count() as u64
    }

    /// Count one evaluation and say what to do.  An exact `(name,
    /// Some(idx))` arm takes precedence over the wildcard.
    fn evaluate(&self, name: &'static str, idx: usize) -> Option<FailAction> {
        let mut sites = self.sites.lock();
        let key = if sites.contains_key(&(name, Some(idx))) {
            (name, Some(idx))
        } else {
            (name, None)
        };
        let site = sites.get_mut(&key)?;
        site.hits += 1;
        (site.hits == site.nth).then_some(site.action)
    }

    /// Evaluate a fallible site; `idx` is `usize::MAX` for sites with no
    /// shard identity.
    pub(crate) fn check(&self, name: &'static str, idx: usize) -> GrbResult<()> {
        match self.evaluate(name, idx) {
            None => Ok(()),
            Some(FailAction::Panic) => panic!("failpoint '{name}' injected panic (shard {idx})"),
            Some(FailAction::Error) => Err(GrbError::Injected(name)),
            Some(FailAction::Sleep(d)) => {
                std::thread::sleep(d);
                Ok(())
            }
        }
    }

    /// Evaluate a panic-only site (infallible contexts).  An armed `Error`
    /// action escalates to a panic here.
    pub(crate) fn check_panic(&self, name: &'static str, idx: usize) {
        if self.check(name, idx).is_err() {
            panic!("failpoint '{name}' injected panic (shard {idx})");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nth_evaluation_fires_exactly_once_on_its_own_handle() {
        let (armed, other) = (Failpoints::default(), Failpoints::default());
        armed.arm("site", None, 3, FailAction::Error);
        for idx in 0..4 {
            assert!(other.check("site", idx).is_ok(), "another handle is inert");
        }
        assert!(armed.check("site", 0).is_ok());
        assert!(armed.check("site", 1).is_ok());
        assert_eq!(armed.check("site", 2), Err(GrbError::Injected("site")));
        assert!(armed.check("site", 0).is_ok());
        assert_eq!((armed.fired("site"), other.fired("site")), (1, 0));
        let clone = armed.clone();
        clone.arm("late", None, 1, FailAction::Error);
        assert!(armed.check("late", 0).is_err(), "clones share one table");
    }

    #[test]
    fn per_index_arming_only_hits_that_index() {
        let (a, b) = (Failpoints::default(), Failpoints::default());
        a.arm("site", Some(2), 1, FailAction::Error);
        b.arm("site", Some(1), 1, FailAction::Error);
        assert!(a.check("site", 0).is_ok());
        assert!(a.check("site", 1).is_ok());
        assert!(b.check("site", 2).is_ok());
        assert!(a.check("site", 2).is_err());
        assert!(b.check("site", 1).is_err());
        assert_eq!((a.fired("site"), b.fired("site")), (1, 1));
    }

    #[test]
    fn sleep_action_delays_then_continues() {
        let (slow, fast) = (Failpoints::default(), Failpoints::default());
        slow.arm("site", None, 1, FailAction::Sleep(Duration::from_millis(5)));
        let start = std::time::Instant::now();
        assert!(fast.check("site", 0).is_ok());
        assert!(slow.check("site", 0).is_ok());
        assert!(start.elapsed() >= Duration::from_millis(5));
    }
}
