//! Full cache replacement algorithms (victim selection + insertion +
//! promotion), the paper's §6.4 comparison set.
//!
//! Passive (recency/frequency structured): [`lru`], [`lruk`], [`s4lru`],
//! [`sslru`], [`gdsf`], [`lhd`], [`arc`]. Active (learned eviction):
//! [`lecar`], [`cacheus`], [`lrb`], [`glcache`]. Plus the offline
//! [`belady`] oracle policy plotted as the offline reference in every
//! figure.

pub mod arc;
pub mod belady;
pub mod cacheus;
pub mod gdsf;
pub mod glcache;
pub mod lecar;
pub mod lhd;
pub mod lrb;
pub mod lru;
pub mod lruk;
pub mod s4lru;
pub mod sslru;

pub use arc::Arc;
pub use belady::BeladyPolicy;
pub use cacheus::Cacheus;
pub use gdsf::Gdsf;
pub use glcache::GlCache;
pub use lecar::LeCar;
pub use lhd::Lhd;
pub use lrb::{Lrb, LrbConfig};
pub use lru::Lru;
pub use lruk::LruK;
pub use s4lru::S4Lru;
pub use sslru::SsLru;

/// Total-order wrapper for `f64` priorities in `BTreeSet`s. Priorities in
/// this crate are always finite; `total_cmp` keeps the order total anyway.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrdF64(pub f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::OrdF64;

    #[test]
    fn ordf64_orders_and_dedups() {
        use std::collections::BTreeSet;
        let mut s = BTreeSet::new();
        s.insert(OrdF64(3.5));
        s.insert(OrdF64(1.0));
        s.insert(OrdF64(2.0));
        s.insert(OrdF64(1.0));
        let v: Vec<f64> = s.iter().map(|o| o.0).collect();
        assert_eq!(v, vec![1.0, 2.0, 3.5]);
    }
}
