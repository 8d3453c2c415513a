//! Compressed row storage for scan-based indexes.
//!
//! Probe throughput at bench scale is bandwidth-bound: a flat scan
//! streams every stored row past the dot-product kernels once per query
//! block, so halving the bytes per row halves the memory traffic of the
//! hot path. [`RowStore`] packs rows in one of three layouts —
//!
//! * [`RowFormat::F32`] — the exact layout every index used before this
//!   abstraction existed. Zero-copy: kernels scan the stored slice
//!   directly, and every bitwise-exactness guarantee of the f32 path
//!   (self-distance 0, `Sharded(Flat) == Flat`, refresh == rebuild)
//!   holds unchanged.
//! * [`RowFormat::F16`] — IEEE 754 binary16, round-to-nearest-even on
//!   store, exact widening on load (every f16 is representable in f32).
//!   ~3 decimal digits of mantissa; right for embedding-style data in
//!   O(1) dynamic range, wrong for data spanning many orders of
//!   magnitude (values above 65504 overflow to ±inf).
//! * [`RowFormat::Bf16`] — bfloat16 (truncated-f32 exponent, 8-bit
//!   mantissa), round-to-nearest-even on store. Keeps the full f32
//!   dynamic range at half the precision of f16; the safe default when
//!   the input scale is unknown.
//!
//! Compressed rows decode to f32 *inside* the kernel tiles (or into a
//! scratch block for gathered scans) and accumulate in f32, so the only
//! precision loss is the one storage rounding per component. Rankings
//! are **not** bitwise-stable against the f32 path — nearly-tied
//! neighbours can swap — which is why compressed configurations are
//! gated on measured recall@k (the recall-floor proptest, engine
//! calibration), never on exact-ranking parity. Decoding is itself
//! deterministic and identical across dispatch levels (`cvtph_ps`
//! computes exactly [`f16_to_f32`]), so a given store still ranks
//! identically on every machine.

/// Storage layout of packed index rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RowFormat {
    /// Full-width rows; the exact pre-existing layout (zero-copy scans).
    #[default]
    F32,
    /// IEEE binary16 half-width rows (decoded to f32 in kernel tiles).
    F16,
    /// bfloat16 half-width rows (truncated-exponent f32, 8-bit mantissa).
    Bf16,
}

impl RowFormat {
    /// Parse a CLI/env value: `f32` | `f16` | `bf16` (case-insensitive).
    pub fn parse(s: &str) -> Option<RowFormat> {
        match s.trim().to_ascii_lowercase().as_str() {
            "f32" => Some(RowFormat::F32),
            "f16" | "half" => Some(RowFormat::F16),
            "bf16" | "bfloat16" => Some(RowFormat::Bf16),
            _ => None,
        }
    }

    /// Short label for report rows (round-trips through [`Self::parse`]).
    pub fn label(&self) -> &'static str {
        match self {
            RowFormat::F32 => "f32",
            RowFormat::F16 => "f16",
            RowFormat::Bf16 => "bf16",
        }
    }

    /// Bytes one stored component occupies.
    pub fn bytes_per_component(&self) -> usize {
        match self {
            RowFormat::F32 => 4,
            RowFormat::F16 | RowFormat::Bf16 => 2,
        }
    }
}

/// A borrowed view of packed rows in their stored layout — what the
/// format-aware kernels ([`crate::kernels::distance_batch_rows`])
/// consume. The `F32` arm is the exact slice the pre-rowstore kernels
/// scanned.
#[derive(Debug, Clone, Copy)]
pub enum RowsView<'a> {
    F32(&'a [f32]),
    F16(&'a [u16]),
    Bf16(&'a [u16]),
}

/// Convert one f32 to IEEE binary16 bits, round-to-nearest-even —
/// matching what `vcvtps2ph` (rounding mode RN) produces, so software
/// and hardware encodings of the same store are interchangeable.
/// Overflow saturates to ±inf, NaN stays NaN (quieted).
pub fn f32_to_f16(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let abs = bits & 0x7fff_ffff;
    if abs >= 0x7f80_0000 {
        // Inf stays inf; NaN maps to a quiet NaN payload.
        return if abs > 0x7f80_0000 { sign | 0x7e00 } else { sign | 0x7c00 };
    }
    let exp = ((abs >> 23) as i32) - 127 + 15;
    let man = abs & 0x007f_ffff;
    if exp >= 31 {
        return sign | 0x7c00; // overflow → inf
    }
    if exp <= 0 {
        if exp < -11 {
            return sign; // underflows even the smallest subnormal's half-ulp
        }
        // Subnormal: shift the (implicit-1) 24-bit mantissa down to
        // multiples of 2^-24, rounding to nearest-even on the dropped
        // bits.
        let man24 = man | 0x0080_0000;
        let shift = (14 - exp) as u32;
        let v = (man24 >> shift) as u16;
        let rem = man24 & ((1u32 << shift) - 1);
        let half = 1u32 << (shift - 1);
        let round = rem > half || (rem == half && (v & 1) == 1);
        return sign | (v + round as u16);
    }
    // Normal: keep the top 10 mantissa bits, round-to-nearest-even on
    // the 13 dropped ones. A mantissa carry overflows cleanly into the
    // exponent field (and from exponent 30 into inf), which is the
    // correct rounding in both cases.
    let v = ((exp as u16) << 10) | (man >> 13) as u16;
    let rem = man & 0x1fff;
    let round = rem > 0x1000 || (rem == 0x1000 && (v & 1) == 1);
    sign | (v + round as u16)
}

/// Widen IEEE binary16 bits to f32 — exact (every f16 value is
/// representable), and bitwise what `vcvtph2ps` computes.
pub fn f16_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = (h >> 10) & 0x1f;
    let man = (h & 0x03ff) as u32;
    let bits = if exp == 0x1f {
        sign | 0x7f80_0000 | (man << 13) // inf / NaN, payload preserved
    } else if exp == 0 {
        if man == 0 {
            sign // ±0
        } else {
            // Subnormal: normalize. The top set bit at position p means
            // the value is 1.xxx × 2^(p − 24).
            let p = 31 - man.leading_zeros();
            sign | ((p + 103) << 23) | ((man << (23 - p)) & 0x007f_ffff)
        }
    } else {
        sign | ((exp as u32 + 112) << 23) | (man << 13)
    };
    f32::from_bits(bits)
}

/// Convert one f32 to bfloat16 bits, round-to-nearest-even. NaN is
/// truncated with a forced quiet bit so it never rounds into inf.
pub fn f32_to_bf16(x: f32) -> u16 {
    let bits = x.to_bits();
    if x.is_nan() {
        return ((bits >> 16) as u16) | 0x0040;
    }
    ((bits.wrapping_add(0x7fff + ((bits >> 16) & 1))) >> 16) as u16
}

/// Widen bfloat16 bits to f32 — exact by construction (bf16 is a
/// truncated f32).
pub fn bf16_to_f32(h: u16) -> f32 {
    f32::from_bits((h as u32) << 16)
}

/// Packed row storage in a [`RowFormat`]-selected layout. Rows go in as
/// f32 slices (encoded on store) and come out either as a zero-copy
/// [`RowsView`] for the format-aware kernels or decoded back to f32 for
/// callers that need full-width rows (norm computation, quantizer
/// training, gathered scans).
#[derive(Debug, Clone, Default)]
pub struct RowStore {
    format: RowFormat,
    dim: usize,
    /// Backing storage for [`RowFormat::F32`] (empty otherwise).
    full: Vec<f32>,
    /// Backing storage for the half-width formats (empty for f32).
    half: Vec<u16>,
}

impl RowStore {
    pub fn new(dim: usize, format: RowFormat) -> Self {
        assert!(dim > 0, "row dimension must be positive");
        RowStore { format, dim, full: Vec::new(), half: Vec::new() }
    }

    pub fn format(&self) -> RowFormat {
        self.format
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Stored row count.
    pub fn len(&self) -> usize {
        match self.format {
            RowFormat::F32 => self.full.len() / self.dim,
            _ => self.half.len() / self.dim,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.full.is_empty() && self.half.is_empty()
    }

    /// Re-establish the row width of an **empty** store (the 0-row
    /// first-batch path of [`crate::FlatIndex::add_batch`]).
    pub fn set_dim(&mut self, dim: usize) {
        assert!(self.is_empty(), "cannot re-dim a populated store");
        assert!(dim > 0, "row dimension must be positive");
        self.dim = dim;
    }

    /// Append packed f32 rows, encoding into the storage format.
    pub fn push_rows(&mut self, flat: &[f32]) {
        debug_assert!(flat.len().is_multiple_of(self.dim));
        let format = self.format;
        match format {
            RowFormat::F32 => self.full.extend_from_slice(flat),
            _ => self.half.extend(flat.iter().map(|&x| encode_one(format, x))),
        }
    }

    /// Overwrite one stored row in place.
    pub fn overwrite_row(&mut self, id: u32, v: &[f32]) {
        debug_assert_eq!(v.len(), self.dim);
        let i = id as usize * self.dim;
        let format = self.format;
        match format {
            RowFormat::F32 => self.full[i..i + self.dim].copy_from_slice(v),
            _ => {
                for (dst, &x) in self.half[i..i + self.dim].iter_mut().zip(v) {
                    *dst = encode_one(format, x);
                }
            }
        }
    }

    /// The full stored slice when (and only when) rows are f32 — the
    /// zero-copy path every pre-rowstore caller keeps using.
    pub fn as_f32(&self) -> Option<&[f32]> {
        match self.format {
            RowFormat::F32 => Some(&self.full),
            _ => None,
        }
    }

    /// Stored-layout view of rows `row0 .. row0 + nrows` for the
    /// format-aware kernels.
    pub fn view_range(&self, row0: usize, nrows: usize) -> RowsView<'_> {
        let (a, b) = (row0 * self.dim, (row0 + nrows) * self.dim);
        match self.format {
            RowFormat::F32 => RowsView::F32(&self.full[a..b]),
            RowFormat::F16 => RowsView::F16(&self.half[a..b]),
            RowFormat::Bf16 => RowsView::Bf16(&self.half[a..b]),
        }
    }

    /// View of every stored row.
    pub fn view(&self) -> RowsView<'_> {
        self.view_range(0, self.len())
    }

    /// Rows `row0 .. row0 + nrows` as f32: the stored slice itself for
    /// f32 (zero-copy, bitwise the input), a decode into `scratch` for
    /// the half-width formats. What the decoded slice holds is exactly
    /// what the kernels score, so norms and quantizers derived from it
    /// are consistent with probe-time arithmetic.
    pub fn decoded_range<'a>(
        &'a self,
        row0: usize,
        nrows: usize,
        scratch: &'a mut Vec<f32>,
    ) -> &'a [f32] {
        let (a, b) = (row0 * self.dim, (row0 + nrows) * self.dim);
        match self.format {
            RowFormat::F32 => &self.full[a..b],
            _ => {
                scratch.clear();
                scratch.extend(self.half[a..b].iter().map(|&h| decode_one(self.format, h)));
                scratch
            }
        }
    }

    /// Every stored row as f32 (see [`Self::decoded_range`]).
    pub fn decoded_all<'a>(&'a self, scratch: &'a mut Vec<f32>) -> &'a [f32] {
        self.decoded_range(0, self.len(), scratch)
    }

    /// The raw backing storage `(full, half)` in stored layout — what
    /// snapshots persist. Exactly one of the two is non-empty for a
    /// populated store, per [`Self::format`].
    pub(crate) fn raw_parts(&self) -> (&[f32], &[u16]) {
        (&self.full, &self.half)
    }

    /// Rebuild a store from snapshot parts. Returns `None` when the
    /// parts are structurally invalid for `(dim, format)`: a component
    /// count that is not a whole number of rows, or data in the wrong
    /// backing vector for the format.
    pub(crate) fn from_raw(
        dim: usize,
        format: RowFormat,
        full: Vec<f32>,
        half: Vec<u16>,
    ) -> Option<RowStore> {
        if dim == 0 {
            return None;
        }
        let (used, other) = match format {
            RowFormat::F32 => (full.len(), half.len()),
            _ => (half.len(), full.len()),
        };
        if other != 0 || !used.is_multiple_of(dim) {
            return None;
        }
        Some(RowStore { format, dim, full, half })
    }

    /// Gather the rows named by `ids` (in order) into `out` as packed,
    /// decoded f32 — the scratch block for gathered scans over
    /// compressed rows (IVF posting lists).
    pub fn gather_decoded(&self, ids: &[u32], out: &mut Vec<f32>) {
        out.clear();
        out.reserve(ids.len() * self.dim);
        for &id in ids {
            let i = id as usize * self.dim;
            match self.format {
                RowFormat::F32 => out.extend_from_slice(&self.full[i..i + self.dim]),
                _ => out
                    .extend(self.half[i..i + self.dim].iter().map(|&h| decode_one(self.format, h))),
            }
        }
    }
}

/// Encode one component into a half-width format (not meaningful for
/// [`RowFormat::F32`], which stores verbatim).
fn encode_one(format: RowFormat, x: f32) -> u16 {
    match format {
        RowFormat::F16 => f32_to_f16(x),
        RowFormat::Bf16 => f32_to_bf16(x),
        RowFormat::F32 => unreachable!("f32 rows are stored verbatim"),
    }
}

/// Decode one half-width component back to f32.
fn decode_one(format: RowFormat, h: u16) -> f32 {
    match format {
        RowFormat::F16 => f16_to_f32(h),
        RowFormat::Bf16 => bf16_to_f32(h),
        RowFormat::F32 => unreachable!("f32 rows are stored verbatim"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f16_roundtrip_is_exact_for_representable_values() {
        // Every f16 widens exactly, so decode(encode(decode(h))) == decode(h).
        for h in [0u16, 1, 0x03ff, 0x0400, 0x3c00, 0x7bff, 0x8000, 0xfbff] {
            let x = f16_to_f32(h);
            assert_eq!(f32_to_f16(x), h, "h={h:#06x} x={x}");
        }
        // And a full sweep of all finite f16 bit patterns round-trips.
        for h in 0..=0xffffu16 {
            let x = f16_to_f32(h);
            if x.is_nan() {
                assert!(f16_to_f32(f32_to_f16(x)).is_nan());
            } else {
                assert_eq!(f32_to_f16(x), h, "h={h:#06x}");
            }
        }
    }

    #[test]
    fn f16_encode_rounds_to_nearest_even() {
        // 1.0 + 2^-11 sits exactly between 1.0 and the next f16 up
        // (1.0 + 2^-10): ties go to the even mantissa (1.0).
        assert_eq!(f32_to_f16(1.0 + 2f32.powi(-11)), 0x3c00);
        // The next odd boundary rounds up: 1.0 + 3·2^-11 → 1.0 + 2·2^-10.
        assert_eq!(f32_to_f16(1.0 + 3.0 * 2f32.powi(-11)), 0x3c02);
        // Anything past the midpoint rounds up.
        assert_eq!(f32_to_f16(1.0 + 2f32.powi(-11) + 2f32.powi(-20)), 0x3c01);
        // Overflow saturates to inf; tiny values flush through subnormals
        // to zero.
        assert_eq!(f32_to_f16(1e6), 0x7c00);
        assert_eq!(f32_to_f16(-1e6), 0xfc00);
        assert_eq!(f32_to_f16(2f32.powi(-26)), 0); // below half the smallest subnormal
        assert_eq!(f32_to_f16(2f32.powi(-24)), 1); // smallest subnormal
        assert_eq!(f16_to_f32(1), 2f32.powi(-24));
    }

    #[test]
    fn bf16_is_truncated_f32_with_rne() {
        assert_eq!(bf16_to_f32(f32_to_bf16(1.0)), 1.0);
        assert_eq!(bf16_to_f32(f32_to_bf16(-2.5)), -2.5);
        // Round-to-nearest-even on the dropped 16 bits.
        let x = f32::from_bits(0x3f80_8000); // exactly between two bf16s
        assert_eq!(f32_to_bf16(x), 0x3f80, "tie goes to even");
        let y = f32::from_bits(0x3f81_8000);
        assert_eq!(f32_to_bf16(y), 0x3f82, "odd tie rounds up");
        // Full f32 dynamic range survives.
        assert_eq!(bf16_to_f32(f32_to_bf16(1e30)).log10().round(), 30.0);
        assert!(bf16_to_f32(f32_to_bf16(f32::NAN)).is_nan());
        assert_eq!(bf16_to_f32(f32_to_bf16(f32::INFINITY)), f32::INFINITY);
    }

    #[test]
    fn f32_store_is_bitwise_the_input() {
        let rows = [1.0f32, -2.5, 3.25, 0.5, f32::MIN_POSITIVE, -0.0];
        let mut store = RowStore::new(3, RowFormat::F32);
        store.push_rows(&rows);
        assert_eq!(store.len(), 2);
        assert_eq!(store.as_f32().unwrap(), &rows);
        let mut scratch = Vec::new();
        assert_eq!(store.decoded_all(&mut scratch), &rows);
        match store.view_range(1, 1) {
            RowsView::F32(r) => assert_eq!(r, &rows[3..6]),
            other => panic!("expected an f32 view, got {other:?}"),
        }
    }

    #[test]
    fn half_store_decodes_what_it_encoded() {
        let rows = [0.125f32, -1.0, 0.3, 2.75, -0.0625, 100.0];
        for format in [RowFormat::F16, RowFormat::Bf16] {
            let mut store = RowStore::new(2, format);
            store.push_rows(&rows);
            assert_eq!(store.len(), 3);
            assert!(store.as_f32().is_none(), "{format:?} must not expose an f32 slice");
            let mut scratch = Vec::new();
            let dec = store.decoded_all(&mut scratch).to_vec();
            // Exactly-representable values survive bit-for-bit; the rest
            // land within one storage ulp.
            for (d, &x) in dec.iter().zip(&rows) {
                assert!((d - x).abs() <= 0.01 * (1.0 + x.abs()), "{format:?}: {d} vs {x}");
            }
            assert_eq!(dec[0], 0.125, "powers of two store exactly");
            // Gather pulls decoded rows in id order.
            let mut out = Vec::new();
            store.gather_decoded(&[2, 0], &mut out);
            assert_eq!(out[..2], dec[4..6]);
            assert_eq!(out[2..], dec[0..2]);
            // Overwrite replaces the stored encoding.
            let mut store = store.clone();
            store.overwrite_row(1, &[7.0, -8.0]);
            let dec = store.decoded_range(1, 1, &mut scratch).to_vec();
            assert_eq!(dec, vec![7.0, -8.0]);
        }
    }

    #[test]
    fn format_parsing_and_labels_roundtrip() {
        for f in [RowFormat::F32, RowFormat::F16, RowFormat::Bf16] {
            assert_eq!(RowFormat::parse(f.label()), Some(f));
        }
        assert_eq!(RowFormat::parse("F16"), Some(RowFormat::F16));
        assert_eq!(RowFormat::parse("bfloat16"), Some(RowFormat::Bf16));
        assert_eq!(RowFormat::parse("f64"), None);
        assert_eq!(RowFormat::default(), RowFormat::F32);
        assert_eq!(RowFormat::F16.bytes_per_component(), 2);
        assert_eq!(RowFormat::F32.bytes_per_component(), 4);
    }
}
