//! Deterministic failpoint registry (fault injection).
//!
//! Always compiled: the binary the chaos gates kill is the binary the
//! benchmark measures. The gate is a run-time one — a process-wide count
//! of armed sites — so while nothing is armed (every production run)
//! [`check`], [`maybe_panic`] and [`is_armed`] cost one atomic load and
//! never touch the registry lock. Tests arm named *sites* with
//! [`FaultRule`]s and the instrumented code asks [`check`] what should
//! happen at `(site, key)` — typically a trace chunk index or a request
//! tick. All rules are deterministic: explicit key sets, per-key attempt
//! counters, or a seeded hash for probabilistic plans, so a failing
//! schedule replays bit-identically.
//!
//! The registry is process-global (worker threads must observe the plan
//! armed by the test thread). Tests that arm sites must serialise on a
//! lock of their own and [`clear`] the registry when done.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// What a failpoint site should do for one `(site, key)` evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic with this message (exercises panic-isolation paths).
    Panic(String),
    /// Return a site-interpreted error with this message.
    Error(String),
    /// Deliver a short read: the site should truncate its buffer to this
    /// many bytes before decoding.
    ShortRead(usize),
    /// Flip one bit of the byte at this offset in the site's buffer.
    CorruptByte(usize),
}

/// When a rule fires at an armed site.
#[derive(Debug, Clone)]
pub enum FaultRule {
    /// Fire on exactly these keys, every time they are evaluated.
    OnKeys(Vec<u64>, FaultAction),
    /// Fire on the first `n` evaluations of each key, then stop — models a
    /// transient failure that a bounded retry should absorb.
    FirstAttempts(u32, FaultAction),
    /// Fire on keys whose seeded hash lands under `millis`/1000 —
    /// reproducible "random" fault plans without wall-clock entropy.
    Seeded {
        /// Plan seed; the same seed always selects the same keys.
        seed: u64,
        /// Firing probability in thousandths (0..=1000).
        millis: u32,
        /// Action taken when selected.
        action: FaultAction,
    },
}

struct SiteState {
    rule: FaultRule,
    /// Evaluations so far per key (drives [`FaultRule::FirstAttempts`]).
    seen: HashMap<u64, u32>,
    /// Total number of times this site fired.
    fired: u64,
}

type Registry = HashMap<String, SiteState>;

/// Number of armed sites: the registry's length, stored (`Release`) under
/// the registry lock by whoever changes it and read (`Acquire`) by every
/// site before it would take that lock. The count guards no data of its
/// own — the rules are published by the mutex — it only says whether
/// there is anything to look up. A site that must see a rule is ordered
/// after the `arm` by whatever handed it its work (a ring push, a thread
/// spawn), like any other write of the arming thread.
static ARMED: AtomicUsize = AtomicUsize::new(0);

/// The registry, locked. (A `Panic` action unwinds out of [`maybe_panic`]
/// after [`check`] has dropped the guard, so injected panics never poison
/// the lock.)
fn registry() -> MutexGuard<'static, Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY
        .get_or_init(Mutex::default)
        .lock()
        .expect("a thread panicked inside the fault registry")
}

/// Change the registry and republish its length as the armed count.
fn update(change: impl FnOnce(&mut Registry)) {
    let mut reg = registry();
    change(&mut reg);
    ARMED.store(reg.len(), Ordering::Release);
}

/// Arm `site` with `rule`, replacing any previous rule and resetting its
/// counters.
pub fn arm(site: &str, rule: FaultRule) {
    update(|reg| {
        reg.insert(
            site.to_string(),
            SiteState {
                rule,
                seen: HashMap::new(),
                fired: 0,
            },
        );
    });
}

/// Disarm one site.
pub fn disarm(site: &str) {
    update(|reg| {
        reg.remove(site);
    });
}

/// Disarm every site (call at the end of each test that arms one).
pub fn clear() {
    update(Registry::clear);
}

/// Times `site` has fired since it was armed, 0 if not armed.
pub fn fired(site: &str) -> u64 {
    registry().get(site).map_or(0, |s| s.fired)
}

/// Whether `site` is armed right now — for a hot loop that hoists the
/// question out (one answer per batch instead of a [`check`] per item),
/// and for a fast path that must stand aside while a site it would skip
/// is armed.
#[inline]
pub fn is_armed(site: &str) -> bool {
    ARMED.load(Ordering::Acquire) != 0 && registry().contains_key(site)
}

/// SplitMix64-style mix for the seeded rule: key selection depends only on
/// `(seed, key)`, never on evaluation order or thread timing.
fn mix(seed: u64, key: u64) -> u64 {
    let mut z = seed ^ key.wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Evaluate `site` at `key`: `None` means proceed normally, `Some(action)`
/// means the site must enact the injected fault. Each evaluation advances
/// the per-key attempt counter, so retry loops naturally walk past a
/// [`FaultRule::FirstAttempts`] rule.
#[inline]
pub fn check(site: &str, key: u64) -> Option<FaultAction> {
    if ARMED.load(Ordering::Acquire) == 0 {
        return None;
    }
    check_armed(site, key)
}

/// [`check`] once something is armed: the registry lookup.
#[cold]
fn check_armed(site: &str, key: u64) -> Option<FaultAction> {
    let mut reg = registry();
    let state = reg.get_mut(site)?;
    let attempt = state.seen.entry(key).or_insert(0);
    *attempt += 1;
    let action = match &state.rule {
        FaultRule::OnKeys(keys, action) if keys.contains(&key) => Some(action.clone()),
        FaultRule::FirstAttempts(n, action) if *attempt <= *n => Some(action.clone()),
        FaultRule::Seeded {
            seed,
            millis,
            action,
        } if mix(*seed, key) % 1000 < u64::from(*millis) => Some(action.clone()),
        _ => None,
    };
    if action.is_some() {
        state.fired += 1;
    }
    action
}

/// Evaluate `site` at `key` and panic if the armed action is
/// [`FaultAction::Panic`]; other actions are ignored (sites that can only
/// panic use this shorthand).
#[inline]
pub fn maybe_panic(site: &str, key: u64) {
    if ARMED.load(Ordering::Acquire) != 0 {
        maybe_panic_armed(site, key);
    }
}

/// [`maybe_panic`] once something is armed — out of line, so that a hot
/// loop inlines a load and a branch, not the lookup and the panic.
#[cold]
fn maybe_panic_armed(site: &str, key: u64) {
    if let Some(FaultAction::Panic(msg)) = check_armed(site, key) {
        panic!("{msg}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The registry is process-global; serialise the tests in this module.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn on_keys_fires_only_on_listed_keys() {
        let _g = LOCK.lock().unwrap();
        clear();
        arm(
            "t.keys",
            FaultRule::OnKeys(vec![2, 5], FaultAction::Panic("boom".into())),
        );
        assert!(is_armed("t.keys") && !is_armed("t.other"));
        assert_eq!(check("t.keys", 1), None);
        assert_eq!(check("t.keys", 2), Some(FaultAction::Panic("boom".into())));
        assert_eq!(check("t.keys", 5), Some(FaultAction::Panic("boom".into())));
        assert_eq!(fired("t.keys"), 2);
        clear();
        assert!(!is_armed("t.keys"));
    }

    #[test]
    fn first_attempts_is_transient_per_key() {
        let _g = LOCK.lock().unwrap();
        clear();
        arm(
            "t.transient",
            FaultRule::FirstAttempts(2, FaultAction::Error("flaky".into())),
        );
        for key in [7u64, 9] {
            assert!(check("t.transient", key).is_some());
            assert!(check("t.transient", key).is_some());
            assert_eq!(check("t.transient", key), None, "third attempt clean");
        }
        clear();
    }

    #[test]
    fn seeded_rule_is_deterministic() {
        let _g = LOCK.lock().unwrap();
        clear();
        let plan = |seed: u64| -> Vec<u64> {
            arm(
                "t.seeded",
                FaultRule::Seeded {
                    seed,
                    millis: 200,
                    action: FaultAction::ShortRead(3),
                },
            );
            (0..100)
                .filter(|&k| check("t.seeded", k).is_some())
                .collect()
        };
        let a = plan(42);
        let b = plan(42);
        assert_eq!(a, b);
        assert!(!a.is_empty() && a.len() < 100, "~20% of keys selected");
        clear();
    }

    #[test]
    fn unarmed_sites_are_silent() {
        let _g = LOCK.lock().unwrap();
        assert_eq!(check("t.nothing", 0), None);
        maybe_panic("t.nothing", 0);
    }
}
