//! The two-tier TDC system: sharded OC nodes in front of one DC node.

use cdn_cache::hash::mix64;
use cdn_cache::{AccessKind, CachePolicy, ObjectId, Request};

use crate::latency::{LatencyModel, ServedBy};
use scip::Scip;

/// A structured configuration rejection: every variant names the field and
/// the constraint it violated, so callers can report (or match on) the
/// exact problem instead of unwinding from a deep `assert!`.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `oc_nodes` must be at least 1.
    ZeroOcNodes,
    /// `oc_capacity` must be positive.
    ZeroOcCapacity,
    /// `dc_capacity` must be positive.
    ZeroDcCapacity,
    /// `deploy_fraction` must be finite and non-negative.
    BadDeployFraction(f64),
    /// The fault schedule does not fit the system; the message says how.
    BadResilience(&'static str),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroOcNodes => write!(f, "oc_nodes must be >= 1"),
            ConfigError::ZeroOcCapacity => write!(f, "oc_capacity must be > 0 bytes"),
            ConfigError::ZeroDcCapacity => write!(f, "dc_capacity must be > 0 bytes"),
            ConfigError::BadDeployFraction(v) => {
                write!(f, "deploy_fraction must be finite and >= 0, got {v}")
            }
            ConfigError::BadResilience(what) => write!(f, "resilience config: {what}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// System shape and sizing.
#[derive(Debug, Clone, Copy)]
pub struct TdcConfig {
    /// Number of OC nodes (requests shard by object hash).
    pub oc_nodes: usize,
    /// Byte capacity of each OC node.
    pub oc_capacity: u64,
    /// Byte capacity of the DC layer.
    pub dc_capacity: u64,
    /// Tick at which SCIP deploys everywhere (`u64::MAX` = never).
    pub deploy_at: u64,
    /// Seed.
    pub seed: u64,
}

impl Default for TdcConfig {
    fn default() -> Self {
        TdcConfig {
            oc_nodes: 4,
            oc_capacity: 256 << 20,
            dc_capacity: 1 << 30,
            deploy_at: u64::MAX,
            seed: 7,
        }
    }
}

impl TdcConfig {
    /// Check the shape for values that would only fail later and deeper
    /// (zero modulus panics, caches that can never admit anything).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.oc_nodes == 0 {
            return Err(ConfigError::ZeroOcNodes);
        }
        if self.oc_capacity == 0 {
            return Err(ConfigError::ZeroOcCapacity);
        }
        if self.dc_capacity == 0 {
            return Err(ConfigError::ZeroDcCapacity);
        }
        Ok(())
    }
}

/// The assembled system.
#[derive(Debug)]
pub struct Tdc {
    cfg: TdcConfig,
    oc: Vec<Scip>,
    dc: Scip,
    latency: LatencyModel,
}

impl Tdc {
    /// Build a TDC instance, panicking on an invalid shape (see
    /// [`Tdc::try_new`] for the non-panicking path).
    pub fn new(cfg: TdcConfig, latency: LatencyModel) -> Self {
        Self::try_new(cfg, latency).expect("invalid TdcConfig")
    }

    /// Build a TDC instance, rejecting invalid shapes with a
    /// [`ConfigError`] instead of panicking downstream.
    pub fn try_new(cfg: TdcConfig, latency: LatencyModel) -> Result<Self, ConfigError> {
        cfg.validate()?;
        Ok(Tdc {
            cfg,
            oc: (0..cfg.oc_nodes).map(|i| Self::oc_node(&cfg, i)).collect(),
            dc: Scip::deploying_at(cfg.dc_capacity, cfg.deploy_at, cfg.seed ^ 0xDC),
            latency,
        })
    }

    /// OC node `node`, cold: its capacity, the deploy tick, its own seed.
    fn oc_node(cfg: &TdcConfig, node: usize) -> Scip {
        Scip::deploying_at(cfg.oc_capacity, cfg.deploy_at, cfg.seed ^ node as u64)
    }

    /// The OC shard a request maps to.
    #[inline]
    pub(crate) fn primary_shard(&self, id: ObjectId) -> usize {
        (mix64(id.0) % self.oc.len() as u64) as usize
    }

    /// Serve one request through OC → DC → origin; returns which layer
    /// answered and the user-perceived latency in ms.
    pub fn serve(&mut self, req: &Request) -> (ServedBy, f64) {
        let shard = self.primary_shard(req.id);
        let served = if self.oc[shard].on_request(req).is_hit() {
            ServedBy::Oc
        } else if self.dc.on_request(req).is_hit() {
            ServedBy::Dc
        } else {
            ServedBy::Origin
        };
        (served, self.latency.latency_ms(req.size, served))
    }

    /// Aggregate bytes resident across all caches.
    pub fn used_bytes(&self) -> u64 {
        self.oc.iter().map(|n| n.used_bytes()).sum::<u64>() + self.dc.used_bytes()
    }

    /// OC node count.
    pub fn n_oc(&self) -> usize {
        self.oc.len()
    }

    /// The latency model in force.
    pub fn latency(&self) -> &LatencyModel {
        &self.latency
    }

    /// Is `id` resident on OC node `node`? Read-only (no LRU movement).
    pub(crate) fn oc_contains(&self, node: usize, id: ObjectId) -> bool {
        self.oc[node].queue().contains(id)
    }

    /// Drive OC node `node` exactly as the plain serving path would.
    pub(crate) fn oc_request(&mut self, node: usize, req: &Request) -> AccessKind {
        self.oc[node].on_request(req)
    }

    /// Is `id` resident in the DC layer? Read-only.
    pub(crate) fn dc_contains(&self, id: ObjectId) -> bool {
        self.dc.queue().contains(id)
    }

    /// Drive the DC node exactly as the plain serving path would.
    pub(crate) fn dc_request(&mut self, req: &Request) -> AccessKind {
        self.dc.on_request(req)
    }

    /// Mutable access to the DC node (eviction recording).
    pub(crate) fn dc_mut(&mut self) -> &mut Scip {
        &mut self.dc
    }

    /// Crash OC node `node`: all cache state (contents, SCIP histories,
    /// bandit weights) is lost; the node restarts cold with its original
    /// capacity, deploy tick and seed.
    pub(crate) fn reset_oc_node(&mut self, node: usize) {
        self.oc[node] = Self::oc_node(&self.cfg, node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdn_cache::object::micro_trace;

    fn tiny() -> Tdc {
        Tdc::new(
            TdcConfig {
                oc_nodes: 2,
                oc_capacity: 100,
                dc_capacity: 300,
                deploy_at: u64::MAX,
                seed: 1,
            },
            LatencyModel::default(),
        )
    }

    #[test]
    fn first_touch_goes_to_origin_then_oc() {
        let mut t = tiny();
        let reqs = micro_trace(&[(1, 10), (1, 10)]);
        let (s0, l0) = t.serve(&reqs[0]);
        let (s1, l1) = t.serve(&reqs[1]);
        assert_eq!(s0, ServedBy::Origin);
        assert_eq!(s1, ServedBy::Oc);
        assert!(l1 < l0);
    }

    #[test]
    fn dc_catches_oc_evictions() {
        let mut t = tiny();
        // Fill one OC shard past capacity; DC (3× bigger) still holds the
        // object, so a re-request is a DC hit, not origin.
        let mut reqs = Vec::new();
        for i in 0..30u64 {
            reqs.push((i, 10));
        }
        reqs.push((0, 10));
        let trace = micro_trace(&reqs);
        let mut last = ServedBy::Origin;
        for r in &trace {
            last = t.serve(r).0;
        }
        assert!(matches!(last, ServedBy::Dc | ServedBy::Oc));
    }

    #[test]
    fn sharding_is_stable() {
        let mut t = tiny();
        let reqs = micro_trace(&[(5, 10), (5, 10), (5, 10)]);
        t.serve(&reqs[0]);
        assert_eq!(t.serve(&reqs[1]).0, ServedBy::Oc);
        assert_eq!(t.serve(&reqs[2]).0, ServedBy::Oc);
    }

    #[test]
    fn invalid_shapes_are_structured_errors() {
        let l = LatencyModel::default();
        let base = TdcConfig::default();
        for (cfg, want) in [
            (
                TdcConfig {
                    oc_nodes: 0,
                    ..base
                },
                ConfigError::ZeroOcNodes,
            ),
            (
                TdcConfig {
                    oc_capacity: 0,
                    ..base
                },
                ConfigError::ZeroOcCapacity,
            ),
            (
                TdcConfig {
                    dc_capacity: 0,
                    ..base
                },
                ConfigError::ZeroDcCapacity,
            ),
        ] {
            assert_eq!(cfg.validate(), Err(want.clone()));
            assert_eq!(Tdc::try_new(cfg, l).err(), Some(want.clone()));
            // Errors render the field name for operators.
            assert!(!want.to_string().is_empty());
        }
        assert!(Tdc::try_new(base, l).is_ok());
    }

    #[test]
    fn reset_loses_node_state() {
        let mut t = tiny();
        let reqs = micro_trace(&[(1, 10), (2, 10), (3, 10), (4, 10)]);
        for r in &reqs {
            t.serve(r);
        }
        let before = t.used_bytes();
        assert!(before > 0);
        t.reset_oc_node(0);
        t.reset_oc_node(1);
        // Only DC bytes remain.
        assert!(t.used_bytes() < before);
        assert_eq!(t.oc.iter().map(|n| n.used_bytes()).sum::<u64>(), 0);
    }
}
