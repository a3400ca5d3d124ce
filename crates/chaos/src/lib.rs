//! # gcgt-chaos
//!
//! Deterministic fault injection for the modeled GCGT stack.
//!
//! The workspace's whole value proposition is bitwise reproducibility:
//! every modeled millisecond derives from counters, never from the wall
//! clock. Fault injection has to obey the same contract — a "random"
//! transient failure must strike the same operation of the same query on
//! every run, whatever the host scheduling. This crate provides exactly
//! that:
//!
//! * [`FaultPlan`] — a seeded, `Copy` description of which fault domains
//!   misbehave and how hard, plus the [`RetryPolicy`] recovery sites use.
//!   The default plan is **empty**: no domain ever fails, and the stack is
//!   bitwise identical to a build without chaos at all (the neutrality
//!   invariant `tests/chaos_oracle.rs` pins).
//! * [`FaultInjector`] — the per-query-view evaluation state of a plan: a
//!   counter-indexed hash gate per [`FaultDomain`]. Deterministic because
//!   the decision for operation *k* of domain *d* is a pure function of
//!   `(seed, salt, d, k)`; scheduling-independent because every query view
//!   derives a **fresh** injector (the same way it zeroes every other
//!   counter), so a query sees the same fault sequence no matter which
//!   worker runs it or what ran before.
//! * Bounded bursts — [`FaultRate::burst`] caps *consecutive* failures at
//!   one recovery site, which makes recovery provable: a retry loop
//!   allowed more attempts than the burst always succeeds, so under any
//!   such plan surviving outputs are bitwise equal to the fault-free
//!   oracle (faults only ever show up in statistics and modeled time).
//! * [`TypedFailure`] — the error value recovery sites return when a fault
//!   cannot be absorbed (retries disabled or budget exhausted, injected
//!   query failure, corrupt compressed payload). It travels up through the
//!   launches, the apps and the executor as `Err`, and the serving pool
//!   maps it into a typed per-query error, so one bad query can never take
//!   the pool down.
//!
//! The crate is dependency-free and sits below `gcgt-simt`: the simulated
//! `Device` owns the injector and exposes the charge points; engines never
//! see randomness, only the (deterministic) verdicts.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

/// Where in the modeled stack a fault strikes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultDomain {
    /// A transient device allocation failure (a query's scratch, or a
    /// streamed partition's upload): the allocator stalls and the caller
    /// retries after backoff. Distinct
    /// from a genuine capacity `OomError`, which is never injected.
    DeviceAlloc,
    /// A PCIe transfer failure on a coalesced partition upload
    /// (`PartitionCache::stream`): the whole upload is wasted, re-charged,
    /// and retried after backoff.
    Transfer,
    /// A device↔device link fault on a sharded boundary exchange
    /// (`ShardEngine`): the exchange is re-charged and retried.
    Exchange,
    /// A per-query execution failure, checked once when a query view is
    /// taken. Terminal by design — there is nothing to retry below the
    /// query — so it surfaces as a typed per-query error.
    Query,
}

/// Number of fault domains (array sizing).
pub const NUM_DOMAINS: usize = 4;

/// Every domain, in index order.
pub const ALL_DOMAINS: [FaultDomain; NUM_DOMAINS] = [
    FaultDomain::DeviceAlloc,
    FaultDomain::Transfer,
    FaultDomain::Exchange,
    FaultDomain::Query,
];

impl FaultDomain {
    /// Stable display name (stats, traces, error messages).
    pub fn name(self) -> &'static str {
        match self {
            FaultDomain::DeviceAlloc => "device-alloc",
            FaultDomain::Transfer => "transfer",
            FaultDomain::Exchange => "exchange",
            FaultDomain::Query => "query",
        }
    }

    /// Domain index, `0..NUM_DOMAINS`.
    pub fn index(self) -> usize {
        match self {
            FaultDomain::DeviceAlloc => 0,
            FaultDomain::Transfer => 1,
            FaultDomain::Exchange => 2,
            FaultDomain::Query => 3,
        }
    }

    /// The seed perturbation of this domain — a distinct odd constant per
    /// domain, so two domains at the same operation ordinal never share a
    /// verdict stream.
    fn tag(self) -> u64 {
        [
            0x9E37_79B9_7F4A_7C15,
            0xC2B2_AE3D_27D4_EB4F,
            0x1656_67B1_9E37_79F9,
            0x2545_F491_4F6C_DD1D,
        ][self.index()]
    }
}

/// How often a domain fails, and how long a run of consecutive failures
/// can get.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultRate {
    /// Failure probability per operation, in thousandths (0 = never,
    /// 1000 = every operation until the burst cap intervenes).
    pub per_mille: u16,
    /// Upper bound on **consecutive** failures the injector will deal a
    /// single recovery site: after `burst` failures in a row, the next
    /// verdict is forced to success. A retry loop allowed more attempts
    /// than this always recovers, which is what makes surviving outputs
    /// provably fault-free. Clamped to at least 1 when the rate is
    /// non-zero.
    pub burst: u32,
}

impl FaultRate {
    /// A domain that never fails.
    pub const OFF: FaultRate = FaultRate {
        per_mille: 0,
        burst: 0,
    };

    /// A rate failing `per_mille`/1000 operations with at most `burst`
    /// consecutive failures per recovery site.
    pub fn new(per_mille: u16, burst: u32) -> Self {
        Self {
            per_mille: per_mille.min(1000),
            burst: burst.max(1),
        }
    }

    /// Whether this rate can ever fail.
    pub fn is_off(self) -> bool {
        self.per_mille == 0
    }
}

/// Recovery policy shared by every retryable fault domain: modeled
/// exponential backoff, no wall clock anywhere.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Failures a single recovery site may absorb before escalating to
    /// [`TypedFailure::FaultBudgetExhausted`]. `0` disables retries
    /// entirely: the first injected fault is terminal.
    pub max_attempts: u32,
    /// Modeled milliseconds of the first backoff.
    pub base_backoff_ms: f64,
    /// Backoff growth factor per consecutive failure (exponential).
    pub multiplier: f64,
}

impl Default for RetryPolicy {
    /// Four attempts, 0.05 ms initial backoff, doubling — generous enough
    /// to absorb any default-burst plan.
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_backoff_ms: 0.05,
            multiplier: 2.0,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries: every injected fault in a retryable
    /// domain escalates immediately.
    pub fn disabled() -> Self {
        Self {
            max_attempts: 0,
            ..Self::default()
        }
    }

    /// Whether recovery sites retry at all.
    pub fn enabled(&self) -> bool {
        self.max_attempts > 0
    }

    /// Modeled backoff before retry number `failure` (1-based):
    /// `base × multiplier^(failure-1)`.
    pub fn backoff_ms(&self, failure: u32) -> f64 {
        self.base_backoff_ms * self.multiplier.powi(failure.saturating_sub(1) as i32)
    }
}

/// A seeded, deterministic description of what goes wrong during a run.
///
/// The plan is plain `Copy` data: it travels from
/// `SessionBuilder::fault_plan` into every worker device, and each query
/// view derives a fresh [`FaultInjector`] from it. [`FaultPlan::default`]
/// is the **empty plan** — every domain off — under which the whole stack
/// is bitwise identical to a run with no plan installed at all.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Root seed of every verdict.
    pub seed: u64,
    /// Transient `Device::alloc` failures.
    pub device_alloc: FaultRate,
    /// PCIe transfer failures on partition-cache faults.
    pub transfer: FaultRate,
    /// Interconnect failures on sharded boundary exchanges.
    pub exchange: FaultRate,
    /// Terminal per-query execution failures.
    pub query: FaultRate,
    /// How recovery sites respond to the retryable domains.
    pub retry: RetryPolicy,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            device_alloc: FaultRate::OFF,
            transfer: FaultRate::OFF,
            exchange: FaultRate::OFF,
            query: FaultRate::OFF,
            retry: RetryPolicy::default(),
        }
    }
}

impl FaultPlan {
    /// The empty plan: nothing ever fails (alias of `default`, named for
    /// intent at call sites).
    pub fn empty() -> Self {
        Self::default()
    }

    /// A plan failing every *recoverable* domain (alloc, transfer,
    /// exchange) at `per_mille`/1000 with 2-failure bursts under the
    /// default retry policy — the shape the chaos smoke and bench sweeps
    /// drive. Query-level faults stay off so every query survives.
    pub fn uniform(seed: u64, per_mille: u16) -> Self {
        let rate = FaultRate::new(per_mille, 2);
        Self {
            seed,
            device_alloc: rate,
            transfer: rate,
            exchange: rate,
            query: FaultRate::OFF,
            retry: RetryPolicy::default(),
        }
    }

    /// Whether no domain can ever fail.
    pub fn is_empty(&self) -> bool {
        self.device_alloc.is_off()
            && self.transfer.is_off()
            && self.exchange.is_off()
            && self.query.is_off()
    }

    /// The rate of one domain.
    pub fn rate(&self, domain: FaultDomain) -> FaultRate {
        match domain {
            FaultDomain::DeviceAlloc => self.device_alloc,
            FaultDomain::Transfer => self.transfer,
            FaultDomain::Exchange => self.exchange,
            FaultDomain::Query => self.query,
        }
    }

    /// A fresh injector over this plan. `salt` distinguishes verdict
    /// streams that must differ — the serving pool salts with the query's
    /// submission index (its trace track), so different queries of a batch
    /// see different fault sequences while the same query always sees the
    /// same one, at any worker count.
    pub fn injector(&self, salt: u64) -> FaultInjector {
        FaultInjector {
            plan: *self,
            salt,
            ops: [0; NUM_DOMAINS],
            consecutive: [0; NUM_DOMAINS],
        }
    }
}

/// Finalizer of splitmix64 — a well-mixed pure function of the 64-bit
/// input, the only "randomness" in the crate.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The evaluation state of a [`FaultPlan`]: per-domain operation counters
/// and consecutive-failure tracking. One injector per query view — derived
/// fresh alongside the zeroed cost counters, never shared or reused.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    salt: u64,
    ops: [u64; NUM_DOMAINS],
    consecutive: [u32; NUM_DOMAINS],
}

impl FaultInjector {
    /// The plan this injector evaluates.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The verdict for the next operation of `domain`: `true` = inject a
    /// fault. Pure function of `(seed, salt, domain, ordinal)` gated by
    /// the burst cap, so the sequence is identical on every run.
    pub fn should_fail(&mut self, domain: FaultDomain) -> bool {
        let d = domain.index();
        let op = self.ops[d];
        self.ops[d] += 1;
        let rate = self.plan.rate(domain);
        if rate.is_off() {
            return false;
        }
        if self.consecutive[d] >= rate.burst.max(1) {
            // Burst cap: force success so bounded retry loops provably
            // recover.
            self.consecutive[d] = 0;
            return false;
        }
        let h = splitmix64(self.plan.seed ^ domain.tag() ^ self.salt.rotate_left(17) ^ op);
        let fail = (h % 1000) < u64::from(rate.per_mille);
        if fail {
            self.consecutive[d] += 1;
        } else {
            self.consecutive[d] = 0;
        }
        fail
    }

    /// Operations gated so far in `domain` (testing / introspection).
    pub fn ops(&self, domain: FaultDomain) -> u64 {
        self.ops[domain.index()]
    }
}

/// The error recovery sites return when a fault cannot be absorbed. It is
/// an ordinary value: the `Expander` hook, the launches, the apps and the
/// executor return it as `Err`, and the serving pool maps it into a typed
/// per-query error — a query fails without unwinding and without the
/// failure ever being an opaque string panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TypedFailure {
    /// A retryable domain failed more times than the [`RetryPolicy`]
    /// allows (or retries were disabled).
    FaultBudgetExhausted {
        /// [`FaultDomain::name`] of the exhausted domain.
        domain: &'static str,
        /// Consecutive failures absorbed before giving up.
        failures: u32,
    },
    /// An injected terminal per-query execution failure
    /// ([`FaultDomain::Query`]).
    InjectedQueryFailure,
    /// A compressed payload failed structural validation at first touch
    /// (the deferred-validation load path). Sticky: the same partition
    /// reports the same error on every subsequent touch.
    CorruptGraph(String),
}

impl std::fmt::Display for TypedFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TypedFailure::FaultBudgetExhausted { domain, failures } => {
                write!(f, "{domain} fault persisted through {failures} attempts")
            }
            TypedFailure::InjectedQueryFailure => write!(f, "injected query execution failure"),
            TypedFailure::CorruptGraph(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for TypedFailure {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fails() {
        let mut inj = FaultPlan::default().injector(0);
        for _ in 0..10_000 {
            for d in ALL_DOMAINS {
                assert!(!inj.should_fail(d));
            }
        }
        assert!(FaultPlan::default().is_empty());
        assert!(!FaultPlan::uniform(1, 50).is_empty());
    }

    #[test]
    fn verdict_stream_is_deterministic_and_salt_sensitive() {
        let plan = FaultPlan::uniform(0xDEAD_BEEF, 200);
        let stream = |salt: u64| -> Vec<bool> {
            let mut inj = plan.injector(salt);
            (0..256)
                .map(|_| inj.should_fail(FaultDomain::Transfer))
                .collect()
        };
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8), "salt must decorrelate streams");
        assert!(stream(7).iter().any(|&f| f), "200‰ must fail sometimes");
        assert!(stream(7).iter().any(|&f| !f), "200‰ must pass sometimes");
    }

    #[test]
    fn burst_caps_consecutive_failures() {
        let mut plan = FaultPlan::uniform(3, 1000);
        plan.transfer = FaultRate::new(1000, 3);
        let mut inj = plan.injector(0);
        let mut consecutive = 0u32;
        for _ in 0..1000 {
            if inj.should_fail(FaultDomain::Transfer) {
                consecutive += 1;
                assert!(consecutive <= 3, "burst cap exceeded");
            } else {
                consecutive = 0;
            }
        }
        assert!(inj.ops(FaultDomain::Transfer) == 1000);
    }

    #[test]
    fn rate_frequency_roughly_matches_per_mille() {
        let plan = FaultPlan::uniform(42, 100);
        let mut inj = plan.injector(0);
        let fails = (0..10_000)
            .filter(|_| inj.should_fail(FaultDomain::Exchange))
            .count();
        // 10% nominal; the burst cap only suppresses long runs, so the
        // observed rate stays in a broad band around it.
        assert!((500..2000).contains(&fails), "got {fails} / 10000");
    }

    #[test]
    fn backoff_grows_exponentially() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_ms(1), 0.05);
        assert_eq!(p.backoff_ms(2), 0.10);
        assert_eq!(p.backoff_ms(3), 0.20);
        assert!(RetryPolicy::disabled().max_attempts == 0);
        assert!(!RetryPolicy::disabled().enabled());
    }

    #[test]
    fn typed_failure_renders() {
        let f = TypedFailure::FaultBudgetExhausted {
            domain: "transfer",
            failures: 4,
        };
        assert!(f.to_string().contains("transfer"));
    }
}
