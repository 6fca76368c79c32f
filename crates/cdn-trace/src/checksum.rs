//! Checksums and content hashing for trace integrity.
//!
//! Two distinct needs, two hashes:
//!
//! - [`crc32`]: the IEEE 802.3 CRC (polynomial `0xEDB88320`), used by the
//!   v2 binary trace format to detect any corrupted byte within a chunk,
//!   and by `cdnd`'s snapshot framing. On x86_64 with PCLMULQDQ, inputs of
//!   64 bytes or more go through a carry-less-multiply folding kernel;
//!   everything else (and the kernel's sub-16-byte tail) goes through a
//!   slicing-by-16 table loop. Both compute the same register, so the
//!   value never depends on which path ran.
//! - [`Fnv1a64`]: a cheap 64-bit content hash, behind
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
/// This sits on the trace-prefetch thread's critical path, where every
/// CRC cycle is stolen from replay on a small host. Where the CPU has
/// PCLMULQDQ and SSE4.1 (detected once, at run time), an input of at
/// least 64 bytes is folded 64 bytes per step by a carry-less-multiply
/// kernel up to its last multiple of 16 bytes, and the table loop
/// finishes the tail from the kernel's register. Anywhere else the
/// slicing-by-16 table loop does all of it.
pub fn crc32(bytes: &[u8]) -> u32 {
    let (c, tail) = clmul::update(0xFFFF_FFFF, bytes);
    table_update(c, tail) ^ 0xFFFF_FFFF
}

/// Advance the CRC register `c` (pre-inverted, not yet post-inverted)
/// over `bytes` by slicing-by-16: sixteen bytes per table step instead
/// of one.
fn table_update(mut c: u32, bytes: &[u8]) -> u32 {
    let t = crc_tables();
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
    c
}

/// CRC-32 by carry-less multiplication (PCLMULQDQ), after Intel's "Fast
/// CRC Computation for Generic Polynomials Using PCLMULQDQ Instruction"
/// and Linux's `crc32-pclmul`. Four 128-bit lanes each fold 16 bytes
/// forward by 64 bytes per step; the lanes then fold into one, and a
/// 128 → 64 → 32-bit fold plus a Barrett reduction leave the register.
///
/// In the bit-reflected domain every constant is `x^n mod P(x)`, bit
/// reversed over 32 bits and shifted left by one (the
/// `folding_constants_follow_from_the_polynomial` test recomputes them).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Fold by 4 × 128 bits: `x^(4·128+32)`, `x^(4·128−32)`.
    pub(super) const FOLD4: (u64, u64) = (0x1_5444_2bd4, 0x1_c6e4_1596);
    /// Fold by 128 bits: `x^(128+32)`, `x^(128−32)`.
    pub(super) const FOLD1: (u64, u64) = (0x1_7519_97d0, 0x0_ccaa_009e);
    /// The 64 → 32-bit fold: `x^64`.
    pub(super) const K5: u64 = 0x1_63cd_6124;
    /// The polynomial P(x) itself, bit reversed over 33 bits.
    pub(super) const P: u64 = 0x1_DB71_0641;
    /// Barrett's μ = floor(x^64 / P(x)), bit reversed over 33 bits.
    pub(super) const MU: u64 = 0x1_F701_1641;

    /// Advance the register `c` over the longest prefix of `bytes` that
    /// is a multiple of 16 bytes, when `bytes` is at least 64 bytes long
    /// and the CPU has the kernel's features. Returns the new register
    /// and the bytes left for the table loop.
    pub(super) fn update(c: u32, bytes: &[u8]) -> (u32, &[u8]) {
        if bytes.len() < 64
            || !(is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1"))
        {
            return (c, bytes);
        }
        let (head, tail) = bytes.split_at(bytes.len() & !15);
        // SAFETY: both target features were detected on this CPU just
        // above, and `head` is at least 64 bytes and a multiple of 16.
        (unsafe { fold(c, head) }, tail)
    }

    /// Advance the register `c` over all of `head`.
    ///
    /// # Safety
    ///
    /// The CPU must support PCLMULQDQ and SSE4.1. `head.len()` must be
    /// at least 64 and a multiple of 16.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    unsafe fn fold(c: u32, head: &[u8]) -> u32 {
        let (blocks, _) = head.as_chunks::<16>();
        let (lines, rest) = blocks.as_chunks::<4>();
        let (first, lines) = lines.split_first().expect("at least 64 bytes");
        let mut lanes = first.each_ref().map(load);
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(c as i32));

        let k = _mm_set_epi64x(FOLD4.1 as i64, FOLD4.0 as i64);
        for line in lines {
            for (lane, block) in lanes.iter_mut().zip(line) {
                *lane = _mm_xor_si128(fold16(*lane, k), load(block));
            }
        }

        let k = _mm_set_epi64x(FOLD1.1 as i64, FOLD1.0 as i64);
        let mut x = lanes[0];
        for lane in &lanes[1..] {
            x = _mm_xor_si128(fold16(x, k), *lane);
        }
        for block in rest {
            x = _mm_xor_si128(fold16(x, k), load(block));
        }

        // 128 → 64 bits: the low half times x^(128−32), added to the high
        // half (this also appends the 32 zero bits a CRC implies).
        x = _mm_xor_si128(_mm_srli_si128::<8>(x), _mm_clmulepi64_si128::<0x01>(k, x));
        // 64 → 32 bits.
        let low32 = _mm_set_epi64x(0, 0xFFFF_FFFF);
        let k5 = _mm_set_epi64x(0, K5 as i64);
        let t = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), k5);
        x = _mm_xor_si128(_mm_srli_si128::<4>(x), t);
        // Barrett reduction of the remaining 64 bits modulo P(x).
        let pmu = _mm_set_epi64x(MU as i64, P as i64);
        let t = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pmu);
        let t = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t, low32), pmu);
        _mm_extract_epi32::<1>(_mm_xor_si128(x, t)) as u32
    }

    /// One 128-bit fold: `x.lo · k.lo ⊕ x.hi · k.hi`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold16(x: __m128i, k: __m128i) -> __m128i {
        _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(x, k),
            _mm_clmulepi64_si128::<0x11>(x, k),
        )
    }

    #[inline(always)]
    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is 16 readable bytes, and an unaligned load has
        // no alignment requirement.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }
}

/// Without the x86_64 kernel, the table loop does all the work.
#[cfg(not(target_arch = "x86_64"))]
mod clmul {
    pub(super) fn update(c: u32, bytes: &[u8]) -> (u32, &[u8]) {
        (c, bytes)
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The CRC's definition, one bit at a time.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
            }
        }
        !c
    }

    /// `n` pseudo-random bytes (xorshift64), reproducible.
    fn noise(n: usize) -> Vec<u8> {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_agrees_with_table_loop_and_bitwise_oracle() {
        // One 64 Ki-record chunk of the v2 format is 1 572 864 bytes.
        let lens = (0..=1024).chain([65_535, 65_537, 1_572_864]);
        let max = 1_572_864 + 16;
        let data = noise(max);
        for len in lens {
            for offset in 0..16 {
                let bytes = &data[offset..offset + len];
                let table = table_update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF;
                assert_eq!(
                    crc32(bytes),
                    table,
                    "kernel vs table, len {len} offset {offset}"
                );
                assert_eq!(
                    table,
                    crc32_bitwise(bytes),
                    "table vs bitwise, len {len} offset {offset}"
                );
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn kernel_takes_every_whole_16_byte_block_from_64_bytes_up() {
        if !(is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")) {
            return;
        }
        let data = noise(200);
        for len in [63, 64, 79, 80, 127, 128, 200] {
            let (_, tail) = clmul::update(0xFFFF_FFFF, &data[..len]);
            let taken = if len < 64 { 0 } else { len & !15 };
            assert_eq!(tail.len(), len - taken, "len {len}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn folding_constants_follow_from_the_polynomial() {
        // P(x) = x^32 + 0x04C11DB7, in normal (unreflected) bit order.
        const POLY: u64 = 0x1_04C1_1DB7;
        // x^n mod P(x), reflected over 32 bits and shifted left by one.
        let k = |n: u32| {
            let mut r = 1u64;
            for _ in 0..n {
                r <<= 1;
                if r & (1 << 32) != 0 {
                    r ^= POLY;
                }
            }
            u64::from((r as u32).reverse_bits()) << 1
        };
        // floor(x^64 / P(x)) by long division, reflected over 33 bits.
        let mut rem = 1u128 << 64;
        let mut quot = 0u64;
        for i in (0..=32).rev() {
            if rem & (1 << (32 + i)) != 0 {
                rem ^= u128::from(POLY) << i;
                quot |= 1 << i;
            }
        }
        let reflect33 = |v: u64| v.reverse_bits() >> 31;
        assert_eq!(clmul::FOLD4, (k(4 * 128 + 32), k(4 * 128 - 32)));
        assert_eq!(clmul::FOLD1, (k(128 + 32), k(128 - 32)));
        assert_eq!(clmul::K5, k(64));
        assert_eq!(clmul::P, reflect33(POLY));
        assert_eq!(clmul::MU, reflect33(quot));
    }

    #[test]
    fn crc32_detects_any_single_byte_change() {
        // The short input stays on the table loop; the long one reaches
        // the kernel (and its table-loop tail) wherever it is available.
        let inputs = [
            b"the quick brown fox jumps over the lazy dog".to_vec(),
            noise(1000),
        ];
        for data in inputs {
            let base = crc32(&data);
            for i in 0..data.len() {
                let mut changed = data.clone();
                changed[i] ^= 0x40;
                assert_ne!(
                    crc32(&changed),
                    base,
                    "flip at byte {i} of {} undetected",
                    data.len()
                );
            }
        }
    }

    #[test]
    fn fnv_known_vector() {
        // FNV-1a 64 of "a" per the reference implementation.
        let mut h = Fnv1a64::new();
        h.update(b"a");
        assert_eq!(h.finish(), 0xAF63_DC4C_8601_EC8C);
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
