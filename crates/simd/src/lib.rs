//! # dial-simd
//!
//! The one SIMD switch of the workspace: which instruction set the
//! explicit kernels in `dial-ann` and `dial-tensor` dispatch to, detected
//! once per process, and the force-scalar toggle that pins **both** crates
//! to their scalar fallbacks (`DIAL_FORCE_SCALAR=1` in the environment, or
//! [`set_force_scalar`] at runtime).
//!
//! Every kernel behind this switch is bitwise equal to its scalar oracle,
//! so flipping it changes speed and [`simd_label`], never a result.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

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
    /// aarch64 NEON (baseline on that architecture).
    Neon,
}

struct Caps {
    level: SimdLevel,
    f16c: bool,
}

static CAPS: OnceLock<Caps> = OnceLock::new();
// Relaxed everywhere: the flag publishes no other data, and either value
// yields the same results.
static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

#[inline]
fn caps() -> &'static Caps {
    CAPS.get_or_init(|| {
        if std::env::var("DIAL_FORCE_SCALAR").is_ok_and(|v| !v.is_empty() && v != "0") {
            FORCE_SCALAR.store(true, Ordering::Relaxed);
        }
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                return Caps {
                    level: SimdLevel::Avx2,
                    f16c: std::arch::is_x86_feature_detected!("f16c"),
                };
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
/// capability unless scalar dispatch is forced.
#[inline]
pub fn simd_level() -> SimdLevel {
    let caps = caps();
    if FORCE_SCALAR.load(Ordering::Relaxed) {
        SimdLevel::Scalar
    } else {
        caps.level
    }
}

/// Whether the CPU has F16C (`vcvtph2ps`) — gates the fused f16 row
/// tiles of `dial-ann` on top of [`SimdLevel::Avx2`].
#[inline]
pub fn has_f16c() -> bool {
    caps().f16c
}

/// Whether scalar dispatch is currently forced (env override or
/// [`set_force_scalar`]).
pub fn force_scalar() -> bool {
    caps();
    FORCE_SCALAR.load(Ordering::Relaxed)
}

/// Force (or release) scalar dispatch at runtime, for `dial-ann` and
/// `dial-tensor` together. Benches use this to measure the scalar
/// baseline and the SIMD path in one process; callers should save
/// [`force_scalar`] and restore it so an ambient `DIAL_FORCE_SCALAR=1`
/// stays in force.
pub fn set_force_scalar(on: bool) {
    caps();
    FORCE_SCALAR.store(on, Ordering::Relaxed);
}

/// Label of the active dispatch path for reports: `"avx2"`, `"neon"`,
/// or `"scalar"`.
pub fn simd_label() -> &'static str {
    match simd_level() {
        SimdLevel::Scalar => "scalar",
        SimdLevel::Avx2 => "avx2",
        SimdLevel::Neon => "neon",
    }
}
