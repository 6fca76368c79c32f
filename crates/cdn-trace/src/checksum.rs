//! Checksums and content hashing for trace integrity.
//!
//! Two distinct needs, two functions:
//!
//! - [`crc32`]: the IEEE 802.3 CRC (polynomial `0xEDB88320`), used by the
//!   v2 binary trace format to detect any corrupted byte within a chunk.
//!   Table-driven, one table per process, no dependencies.
//! - [`Fnv1a64`] / [`fnv1a64`]: a cheap 64-bit content hash, behind
//!   [`crate::TraceColumns::content_hash`] and the golden-trace pins.

use std::sync::OnceLock;

const CRC_SLICES: usize = 16;

fn crc_tables() -> &'static [[u32; 256]; CRC_SLICES] {
    static TABLES: OnceLock<[[u32; 256]; CRC_SLICES]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; CRC_SLICES];
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        // t[k][i] = CRC of byte i followed by k zero bytes — lets sixteen
        // input bytes fold per loop iteration (slicing-by-16).
        for i in 0..256 {
            let mut c = t[0][i];
            for k in 1..CRC_SLICES {
                c = t[0][(c & 0xFF) as usize] ^ (c >> 8);
                t[k][i] = c;
            }
        }
        t
    })
}

/// IEEE CRC-32 of `bytes` (same polynomial as zlib/PNG/Ethernet).
///
/// Slicing-by-16: sixteen bytes per table step instead of one, because
/// this sits on the trace-prefetch thread's critical path — with the
/// classic byte-at-a-time loop the CRC alone caps streamed replay well
/// below the in-RAM hot loop, and on a single-core host every CRC cycle
/// is stolen directly from the replay loop.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = crc_tables();
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(16);
    for w in &mut words {
        let a = u64::from_le_bytes(w[0..8].try_into().unwrap()) ^ u64::from(c);
        let b = u64::from_le_bytes(w[8..16].try_into().unwrap());
        c = t[15][(a & 0xFF) as usize]
            ^ t[14][((a >> 8) & 0xFF) as usize]
            ^ t[13][((a >> 16) & 0xFF) as usize]
            ^ t[12][((a >> 24) & 0xFF) as usize]
            ^ t[11][((a >> 32) & 0xFF) as usize]
            ^ t[10][((a >> 40) & 0xFF) as usize]
            ^ t[9][((a >> 48) & 0xFF) as usize]
            ^ t[8][(a >> 56) as usize]
            ^ t[7][(b & 0xFF) as usize]
            ^ t[6][((b >> 8) & 0xFF) as usize]
            ^ t[5][((b >> 16) & 0xFF) as usize]
            ^ t[4][((b >> 24) & 0xFF) as usize]
            ^ t[3][((b >> 32) & 0xFF) as usize]
            ^ t[2][((b >> 40) & 0xFF) as usize]
            ^ t[1][((b >> 48) & 0xFF) as usize]
            ^ t[0][(b >> 56) as usize];
    }
    let mut tail = words.remainder().chunks_exact(8);
    for w in &mut tail {
        let lo = u32::from_le_bytes(w[0..4].try_into().unwrap()) ^ c;
        let hi = u32::from_le_bytes(w[4..8].try_into().unwrap());
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in tail.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// FNV-1a 64-bit over a byte stream fed incrementally.
#[derive(Debug, Clone)]
pub struct Fnv1a64(u64);

impl Default for Fnv1a64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a64 {
    const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;

    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a64(Self::OFFSET)
    }

    /// Fold `bytes` into the running hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
    }

    /// Current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a 64-bit of one byte slice.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::new();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_detects_any_single_byte_change() {
        let data = b"the quick brown fox jumps over the lazy dog".to_vec();
        let base = crc32(&data);
        for i in 0..data.len() {
            let mut changed = data.clone();
            changed[i] ^= 0x40;
            assert_ne!(crc32(&changed), base, "flip at byte {i} undetected");
        }
    }

    #[test]
    fn fnv_known_vector() {
        // FNV-1a 64 of "a" per the reference implementation.
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
    }

    #[test]
    fn trace_hash_sensitive_to_every_field() {
        use crate::TraceColumns;
        let base =
            TraceColumns::from_requests(&cdn_cache::object::micro_trace(&[(1, 10), (2, 20)]));
        let h = base.content_hash();
        let mut other_id = base.clone();
        other_id.ids[1] = 3u64.into();
        let mut other_size = base.clone();
        other_size.sizes[0] = 11;
        let mut other_wall = base.clone();
        other_wall.wall_secs[0] += 0.5;
        for t in [&other_id, &other_size, &other_wall] {
            assert_ne!(t.content_hash(), h);
        }
        assert_eq!(base.content_hash(), h);
    }
}
