//! Runtime CPU-feature detection and the `P3_FORCE_SCALAR` override.
//!
//! Dispatch policy: hardware capability is detected once per process
//! (`is_x86_feature_detected!`), then clamped by two overrides —
//!
//! * the `P3_FORCE_SCALAR` environment variable (`1`/`true`/`yes`), read
//!   once at first query, which pins everything to the scalar reference
//!   paths in production builds; and
//! * [`set_force_scalar`], the programmatic equivalent used by tests
//!   that need both paths in one process (it takes precedence over the
//!   env var and can be flipped at runtime).
//!
//! The first capability query logs the selected implementation once to
//! stderr, so every binary states which code path its numbers came from.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// SIMD dispatch level for the codec kernels, in increasing capability.
/// On `x86_64`, `Sse2` is the compile-time floor (always available);
/// `Scalar` is reachable only through the overrides — which is exactly
/// what keeps the scalar oracle testable in release builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Pure scalar reference code.
    Scalar,
    /// 128-bit `std::arch` kernels using only SSE2 (the x86_64 baseline).
    Sse2,
    /// 256-bit AVX2 kernels (runtime-detected).
    Avx2,
}

impl SimdLevel {
    /// Stable lowercase name (logs, CLI).
    pub fn as_str(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

/// Programmatic force-scalar override: 0 = defer to the environment,
/// 1 = force scalar, 2 = force SIMD (ignore the env var).
static FORCE: AtomicU8 = AtomicU8::new(0);

/// Override feature detection at runtime. `true` pins every kernel to
/// its scalar reference implementation; `false` re-enables detection
/// even if `P3_FORCE_SCALAR` is set. Used by tests that need both paths
/// in one process.
pub fn set_force_scalar(force: bool) {
    FORCE.store(if force { 1 } else { 2 }, Ordering::Relaxed);
}

/// Whether scalar code is currently forced (programmatic override first,
/// then the `P3_FORCE_SCALAR` environment variable, read once).
pub fn force_scalar() -> bool {
    match FORCE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => *env_force(),
    }
}

fn env_force() -> &'static bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    ENV.get_or_init(|| {
        matches!(
            std::env::var("P3_FORCE_SCALAR").as_deref(),
            Ok("1") | Ok("true") | Ok("yes") | Ok("on")
        )
    })
}

/// Hardware capability, detected once, before any override.
fn hw_level() -> SimdLevel {
    static HW: OnceLock<SimdLevel> = OnceLock::new();
    *HW.get_or_init(detect_level)
}

#[cfg(target_arch = "x86_64")]
fn detect_level() -> SimdLevel {
    if std::arch::is_x86_feature_detected!("avx2") {
        SimdLevel::Avx2
    } else {
        // SSE2 is part of the x86_64 baseline; no runtime check needed.
        SimdLevel::Sse2
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_level() -> SimdLevel {
    SimdLevel::Scalar
}

#[cfg(target_arch = "x86_64")]
fn detect_aes() -> bool {
    std::arch::is_x86_feature_detected!("aes")
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_aes() -> bool {
    false
}

fn hw_aes() -> bool {
    static HW: OnceLock<bool> = OnceLock::new();
    *HW.get_or_init(detect_aes)
}

/// Log the selected implementation once per process, on first query.
fn log_once() {
    static LOGGED: OnceLock<()> = OnceLock::new();
    LOGGED.get_or_init(|| {
        let forced = force_scalar();
        let level = if forced { SimdLevel::Scalar } else { hw_level() };
        let aes = if forced || !hw_aes() { "soft" } else { "aesni" };
        eprintln!(
            "p3-par: codec dispatch simd={} aes={}{}",
            level.as_str(),
            aes,
            if forced { " (scalar forced)" } else { "" },
        );
    });
}

/// The SIMD level codec kernels should dispatch to right now.
pub fn simd_level() -> SimdLevel {
    log_once();
    if force_scalar() {
        SimdLevel::Scalar
    } else {
        hw_level()
    }
}

/// Whether the AES-NI pipeline should be used (detected and not forced
/// off). Falls back to the T-table implementation when `false`.
pub fn aes_ni() -> bool {
    log_once();
    !force_scalar() && hw_aes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn force_scalar_overrides_detection() {
        set_force_scalar(true);
        assert_eq!(simd_level(), SimdLevel::Scalar);
        assert!(!aes_ni());
        set_force_scalar(false);
        #[cfg(target_arch = "x86_64")]
        assert!(simd_level() >= SimdLevel::Sse2);
        // Leave the process in its default env-driven state.
        FORCE.store(0, Ordering::Relaxed);
    }

    #[test]
    fn levels_are_ordered() {
        assert!(SimdLevel::Scalar < SimdLevel::Sse2);
        assert!(SimdLevel::Sse2 < SimdLevel::Avx2);
        assert_eq!(SimdLevel::Avx2.as_str(), "avx2");
    }
}
