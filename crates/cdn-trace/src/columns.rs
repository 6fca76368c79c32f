//! Structure-of-arrays trace storage for the replay engine.
//!
//! A `Vec<Request>` interleaves id/size/tick/wall-clock per record; the
//! sweep wants the opposite: one contiguous column per field so replay
//! loops stream exactly the fields they touch and a multi-million-request
//! trace is materialized once and shared (`Arc<TraceColumns>`) across
//! worker threads instead of being cloned per job.

use std::sync::Arc;

use cdn_cache::{ObjectId, Request, Tick};

/// A trace decomposed into per-field columns (equal lengths).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceColumns {
    /// Object of each request.
    pub ids: Vec<ObjectId>,
    /// Size in bytes of each request.
    pub sizes: Vec<u64>,
    /// Logical time of each request.
    pub ticks: Vec<Tick>,
    /// Wall-clock seconds since trace start of each request.
    pub wall_secs: Vec<f64>,
}

/// A trace shared across sweep workers without copying.
pub type SharedTrace = Arc<TraceColumns>;

impl TraceColumns {
    /// Empty columns.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty columns with room for `n` requests.
    pub fn with_capacity(n: usize) -> Self {
        TraceColumns {
            ids: Vec::with_capacity(n),
            sizes: Vec::with_capacity(n),
            ticks: Vec::with_capacity(n),
            wall_secs: Vec::with_capacity(n),
        }
    }

    /// Decompose an interleaved trace.
    pub fn from_requests(trace: &[Request]) -> Self {
        let mut c = Self::with_capacity(trace.len());
        for r in trace {
            c.push(*r);
        }
        c
    }

    /// Rebuild the interleaved representation.
    pub fn to_requests(&self) -> Vec<Request> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }

    /// Append one request.
    pub fn push(&mut self, r: Request) {
        self.ids.push(r.id);
        self.sizes.push(r.size);
        self.ticks.push(r.tick);
        self.wall_secs.push(r.wall_secs);
    }

    /// Requests stored.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no requests are stored.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Reassemble request `i`.
    ///
    /// # Panics
    /// If `i` is out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> Request {
        Request {
            tick: self.ticks[i],
            id: self.ids[i],
            size: self.sizes[i],
            wall_secs: self.wall_secs[i],
        }
    }

    /// Stream the requests in order (values, not references — `Request`
    /// is `Copy`-sized and rebuilt from the columns in registers).
    pub fn iter(&self) -> impl Iterator<Item = Request> + '_ {
        self.ids
            .iter()
            .zip(&self.sizes)
            .zip(&self.ticks)
            .zip(&self.wall_secs)
            .map(|(((&id, &size), &tick), &wall_secs)| Request {
                tick,
                id,
                size,
                wall_secs,
            })
    }

    /// Bytes held by the four columns.
    pub fn memory_bytes(&self) -> usize {
        self.ids.capacity() * std::mem::size_of::<ObjectId>()
            + self.sizes.capacity() * 8
            + self.ticks.capacity() * 8
            + self.wall_secs.capacity() * 8
    }

    /// Wrap in an [`Arc`] for zero-copy sharing across sweep workers.
    pub fn into_shared(self) -> SharedTrace {
        Arc::new(self)
    }

    /// Semantic integrity check over the decoded trace: column lengths
    /// must agree, every record must have a nonzero size, ticks must be
    /// strictly increasing and wall-clock timestamps finite and
    /// non-decreasing. Run this after loading an untrusted trace — the
    /// binary readers verify the *bytes* (checksums, framing), this
    /// verifies the *values*.
    pub fn validate(&self) -> Result<(), crate::io::TraceError> {
        use crate::io::TraceError;
        let n = self.ids.len();
        if self.sizes.len() != n || self.ticks.len() != n || self.wall_secs.len() != n {
            return Err(TraceError::NonMonotonicTime { tick: 0 });
        }
        for i in 0..n {
            if self.sizes[i] == 0 {
                return Err(TraceError::ZeroSizeRecord {
                    tick: self.ticks[i],
                });
            }
            if !self.wall_secs[i].is_finite()
                || (i > 0
                    && (self.ticks[i] <= self.ticks[i - 1]
                        || self.wall_secs[i] < self.wall_secs[i - 1]))
            {
                return Err(TraceError::NonMonotonicTime {
                    tick: self.ticks[i],
                });
            }
        }
        Ok(())
    }

    /// Append all of `other`'s records (the streaming reader uses this to
    /// coalesce disk chunks into larger replay chunks).
    pub fn append_columns(&mut self, other: &TraceColumns) {
        self.ids.extend_from_slice(&other.ids);
        self.sizes.extend_from_slice(&other.sizes);
        self.ticks.extend_from_slice(&other.ticks);
        self.wall_secs.extend_from_slice(&other.wall_secs);
    }

    /// 64-bit FNV-1a content hash over `(id, size, wall_secs)` of every
    /// record (ticks are positional and add no information); the
    /// golden-trace suite pins the generator's output with it.
    pub fn content_hash(&self) -> u64 {
        let mut h = crate::checksum::Fnv1a64::new();
        for i in 0..self.len() {
            h.update(&self.ids[i].0.to_le_bytes());
            h.update(&self.sizes[i].to_le_bytes());
            h.update(&self.wall_secs[i].to_bits().to_le_bytes());
        }
        h.finish()
    }
}

impl From<&[Request]> for TraceColumns {
    fn from(trace: &[Request]) -> Self {
        Self::from_requests(trace)
    }
}

impl FromIterator<Request> for TraceColumns {
    fn from_iter<I: IntoIterator<Item = Request>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut c = Self::with_capacity(iter.size_hint().0);
        for r in iter {
            c.push(r);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{GeneratorConfig, TraceGenerator};

    #[test]
    fn roundtrip_preserves_everything() {
        let trace = TraceGenerator::generate(GeneratorConfig {
            requests: 5_000,
            core_objects: 800,
            ..GeneratorConfig::default()
        });
        let cols = TraceColumns::from_requests(&trace);
        assert_eq!(cols.len(), trace.len());
        assert_eq!(cols.to_requests(), trace);
    }

    #[test]
    fn iter_matches_get() {
        let trace = cdn_cache::object::micro_trace(&[(1, 10), (2, 20), (1, 10)]);
        let cols = TraceColumns::from_requests(&trace);
        for (i, r) in cols.iter().enumerate() {
            assert_eq!(r, cols.get(i));
            assert_eq!(r, trace[i]);
        }
    }

    #[test]
    fn shared_is_zero_copy() {
        let cols =
            TraceColumns::from_requests(&cdn_cache::object::micro_trace(&[(1, 1)])).into_shared();
        let other = cols.clone();
        assert!(std::ptr::eq(cols.ids.as_ptr(), other.ids.as_ptr()));
    }

    #[test]
    fn empty_and_capacity() {
        let c = TraceColumns::new();
        assert!(c.is_empty());
        let c = TraceColumns::with_capacity(16);
        assert_eq!(c.len(), 0);
        assert!(c.memory_bytes() >= 16 * 32);
    }

    #[test]
    fn validate_accepts_generated_and_rejects_bad_values() {
        let trace = TraceGenerator::generate(GeneratorConfig {
            requests: 2_000,
            core_objects: 300,
            ..GeneratorConfig::default()
        });
        let cols = TraceColumns::from_requests(&trace);
        cols.validate().unwrap();

        let mut zero = cols.clone();
        zero.sizes[17] = 0;
        assert!(matches!(
            zero.validate().unwrap_err(),
            crate::io::TraceError::ZeroSizeRecord { tick: 17 }
        ));

        let mut backwards = cols.clone();
        backwards.wall_secs[100] = backwards.wall_secs[99] - 1.0;
        assert!(matches!(
            backwards.validate().unwrap_err(),
            crate::io::TraceError::NonMonotonicTime { tick: 100 }
        ));

        let mut dup_tick = cols.clone();
        dup_tick.ticks[5] = dup_tick.ticks[4];
        assert!(matches!(
            dup_tick.validate().unwrap_err(),
            crate::io::TraceError::NonMonotonicTime { .. }
        ));

        let mut ragged = cols;
        ragged.sizes.pop();
        assert!(ragged.validate().is_err());
    }

    #[test]
    fn content_hash_detects_changes() {
        let trace = cdn_cache::object::micro_trace(&[(1, 10), (2, 20), (3, 30)]);
        let cols = TraceColumns::from_requests(&trace);
        let mut other = cols.clone();
        other.sizes[1] = 21;
        assert_ne!(other.content_hash(), cols.content_hash());
    }

    #[test]
    fn from_iterator_collects() {
        let trace = cdn_cache::object::micro_trace(&[(3, 30), (4, 40)]);
        let cols: TraceColumns = trace.iter().copied().collect();
        assert_eq!(cols.to_requests(), trace);
    }
}
