//! # dial-simd
//!
//! The one SIMD switch of the workspace: which instruction set the
//! explicit kernels in `dial-ann` and `dial-tensor` dispatch to, detected
//! once per process, and the cap that pins **both** crates below it:
//! `DIAL_FORCE_SCALAR=1` in the environment or [`set_force_scalar`] at
//! runtime pin them to their scalar fallbacks, and [`set_max_level`]
//! caps dispatch at any level (how the parity tests reach every body the
//! host has).
//!
//! The x86-64 tiers nest: an AVX-512 host ([`SimdLevel::Avx512`]) runs
//! `dial-tensor`'s 512-bit bodies where a kernel has one and the AVX2
//! bodies everywhere else — `dial-ann`'s kernels included, which ask
//! [`SimdLevel::has_avx2`] rather than for one exact level.
//!
//! Every kernel behind this switch is bitwise equal to its scalar oracle,
//! so flipping it changes speed and [`simd_label`], never a result.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// The instruction set the kernels dispatch to, detected once per
/// process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// The original autovectorized kernels — fallback and parity oracle.
    Scalar,
    /// x86-64 with AVX2 + FMA (FMA gates dispatch but is deliberately
    /// not emitted: contraction would change roundings and break the
    /// bitwise-parity contract).
    Avx2,
    /// x86-64 with AVX2 + FMA and AVX-512F: `dial-tensor`'s products and
    /// transcendentals run 16 lanes wide, every other kernel its AVX2
    /// body. FMA is still never emitted.
    Avx512,
    /// aarch64 NEON (baseline on that architecture).
    Neon,
}

impl SimdLevel {
    /// Whether the AVX2 bodies may run at this level: at [`Avx2`] and at
    /// [`Avx512`], whose hosts have AVX2 + FMA too.
    ///
    /// [`Avx2`]: SimdLevel::Avx2
    /// [`Avx512`]: SimdLevel::Avx512
    #[inline]
    pub fn has_avx2(self) -> bool {
        matches!(self, SimdLevel::Avx2 | SimdLevel::Avx512)
    }

    /// Position in the cap order: scalar, then the 256-bit and 128-bit
    /// tiers, then AVX-512.
    #[inline]
    fn rank(self) -> u8 {
        match self {
            SimdLevel::Scalar => 0,
            SimdLevel::Avx2 | SimdLevel::Neon => 1,
            SimdLevel::Avx512 => 2,
        }
    }
}

struct Caps {
    level: SimdLevel,
    f16c: bool,
}

static CAPS: OnceLock<Caps> = OnceLock::new();
/// [`SimdLevel::rank`] of the highest level dispatch may use. Relaxed
/// everywhere: the cap publishes no other data, and every level yields
/// the same results.
static CAP: AtomicU8 = AtomicU8::new(UNCAPPED);
const UNCAPPED: u8 = 2;

#[inline]
fn caps() -> &'static Caps {
    CAPS.get_or_init(|| {
        if std::env::var("DIAL_FORCE_SCALAR").is_ok_and(|v| !v.is_empty() && v != "0") {
            CAP.store(SimdLevel::Scalar.rank(), Ordering::Relaxed);
        }
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                let level = if std::arch::is_x86_feature_detected!("avx512f") {
                    SimdLevel::Avx512
                } else {
                    SimdLevel::Avx2
                };
                return Caps { level, f16c: std::arch::is_x86_feature_detected!("f16c") };
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            return Caps { level: SimdLevel::Neon, f16c: false };
        }
        #[allow(unreachable_code)]
        Caps { level: SimdLevel::Scalar, f16c: false }
    })
}

/// The dispatch level kernels will use *right now* — the detected
/// capability, lowered to the cap of [`set_max_level`] /
/// [`set_force_scalar`] when that is below it.
#[inline]
pub fn simd_level() -> SimdLevel {
    let level = caps().level;
    let cap = CAP.load(Ordering::Relaxed);
    if level.rank() <= cap {
        level
    } else if level == SimdLevel::Avx512 && cap == SimdLevel::Avx2.rank() {
        SimdLevel::Avx2
    } else {
        SimdLevel::Scalar
    }
}

/// Whether the CPU has F16C (`vcvtph2ps`) — gates the fused f16 row
/// tiles of `dial-ann` on top of [`SimdLevel::has_avx2`].
#[inline]
pub fn has_f16c() -> bool {
    caps().f16c
}

/// Whether scalar dispatch is currently forced (env override,
/// [`set_force_scalar`] or a [`set_max_level`] of `Scalar`).
pub fn force_scalar() -> bool {
    caps();
    CAP.load(Ordering::Relaxed) == SimdLevel::Scalar.rank()
}

/// Force (or release) scalar dispatch at runtime, for `dial-ann` and
/// `dial-tensor` together. Benches use this to measure the scalar
/// baseline and the SIMD path in one process; callers should save
/// [`force_scalar`] and restore it so an ambient `DIAL_FORCE_SCALAR=1`
/// stays in force. Releasing lifts any cap.
pub fn set_force_scalar(on: bool) {
    caps();
    CAP.store(if on { SimdLevel::Scalar.rank() } else { UNCAPPED }, Ordering::Relaxed);
}

/// The highest level dispatch may use: [`SimdLevel::Avx512`] when
/// uncapped, [`SimdLevel::Scalar`] when scalar is forced.
pub fn max_level() -> SimdLevel {
    caps();
    match CAP.load(Ordering::Relaxed) {
        0 => SimdLevel::Scalar,
        1 => SimdLevel::Avx2,
        _ => SimdLevel::Avx512,
    }
}

/// Cap dispatch at `level` for both crates: below it the kernels run the
/// next lower body the host has (`Avx2` on an AVX-512 host keeps every
/// kernel on its AVX2 body; `Scalar` is [`set_force_scalar`]`(true)`;
/// `Avx512` lifts the cap, and `Neon` is `Avx2`'s rank). Process-wide,
/// like [`set_force_scalar`]; save [`max_level`] and restore it.
pub fn set_max_level(level: SimdLevel) {
    caps();
    CAP.store(level.rank(), Ordering::Relaxed);
}

/// Run `f` once at every level this host has, lowest first — `Scalar`,
/// then `Avx2` (or `Neon`), then `Avx512` — with dispatch capped there,
/// and restore the cap afterwards. The parity tests' loop: every body
/// against the scalar oracle, not just the one dispatch picks. Callers
/// are serialized on one lock, so two such tests in one binary cannot
/// move each other's cap; a level the host lacks is skipped with a note
/// on stderr.
pub fn for_each_level(mut f: impl FnMut(SimdLevel)) {
    static LOCK: Mutex<()> = Mutex::new(());
    /// Puts the cap back even when `f` panics.
    struct Restore(SimdLevel);
    impl Drop for Restore {
        fn drop(&mut self) {
            set_max_level(self.0);
        }
    }
    let _held = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let _restore = Restore(max_level());
    for cap in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512] {
        set_max_level(cap);
        let level = simd_level();
        if level.rank() < cap.rank() {
            eprintln!("note: this host has no {cap:?}; those bodies are not tested here");
            continue;
        }
        f(level);
    }
}

/// Label of the active dispatch path for reports: `"avx512"`, `"avx2"`,
/// `"neon"`, or `"scalar"`.
pub fn simd_label() -> &'static str {
    match simd_level() {
        SimdLevel::Scalar => "scalar",
        SimdLevel::Avx2 => "avx2",
        SimdLevel::Avx512 => "avx512",
        SimdLevel::Neon => "neon",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test, so no other test in this binary moves the cap under it.
    #[test]
    fn caps_lower_the_level_and_forcing_scalar_reports_scalar() {
        let was = max_level();
        let detected = caps().level;

        set_force_scalar(true);
        assert!(force_scalar());
        assert_eq!(simd_level(), SimdLevel::Scalar);
        assert_eq!(simd_label(), "scalar");
        assert_eq!(max_level(), SimdLevel::Scalar);

        set_max_level(SimdLevel::Avx2);
        assert!(!force_scalar());
        let want = if detected == SimdLevel::Avx512 { SimdLevel::Avx2 } else { detected };
        assert_eq!(simd_level(), want);
        assert_ne!(simd_label(), "avx512");

        set_force_scalar(false);
        assert_eq!(simd_level(), detected);
        assert_eq!(max_level(), SimdLevel::Avx512);
        // Whatever the host, a level that runs the AVX2 bodies says so.
        assert_eq!(
            simd_level().has_avx2(),
            matches!(detected, SimdLevel::Avx2 | SimdLevel::Avx512)
        );

        let mut seen = Vec::new();
        for_each_level(|level| seen.push(level));
        assert_eq!(seen[0], SimdLevel::Scalar);
        assert_eq!(seen.last(), Some(&detected));
        assert_eq!(max_level(), SimdLevel::Avx512, "for_each_level restores the cap");

        set_max_level(was);
    }
}
