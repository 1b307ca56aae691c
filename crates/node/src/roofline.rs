//! Roofline model for the MI250X GCD.
//!
//! A kernel with arithmetic intensity `I` (flops per HBM byte) attains
//! `min(peak_compute, I × memory_bandwidth)`. The GCD's FP64 ridge point —
//! where the two roofs meet — sits near 15 flops/byte (23.95 TF/s over
//! 1.635 TB/s), which is why the paper's applications split so cleanly
//! into memory-bound (PIC, hydro, MC transport: I ≲ 1) and compute-bound
//! (dense linear algebra, GEMM-heavy genomics: I ≫ 100) classes in the
//! Tables 6-7 models.

use crate::gemm::Precision;
use crate::hbm::HbmStack;
use crate::mi250x::Gcd;
use frontier_sim_core::prelude::*;

/// A kernel characterized by its arithmetic intensity.
#[derive(Debug, Clone, Copy)]
pub struct Kernel {
    /// Flops executed per byte moved from/to HBM.
    pub intensity: f64,
    pub precision: Precision,
}

impl Kernel {
    pub fn new(intensity: f64, precision: Precision) -> Self {
        assert!(intensity > 0.0);
        Kernel {
            intensity,
            precision,
        }
    }

    /// STREAM triad: 2 flops per 24 bytes of FP64 traffic.
    pub fn stream_triad() -> Self {
        Kernel::new(2.0 / 24.0, Precision::Fp64)
    }

    /// 7-point stencil: ~8 flops per 8 read+written bytes per point
    /// (perfect cache reuse of neighbors).
    pub fn stencil_7pt() -> Self {
        Kernel::new(0.5, Precision::Fp64)
    }

    /// Large dense GEMM: N/8-ish; effectively far past the ridge.
    pub fn dgemm_large() -> Self {
        Kernel::new(1000.0, Precision::Fp64)
    }
}

/// The roofline of one GCD.
#[derive(Debug, Clone)]
pub struct Roofline {
    gcd: Gcd,
}

impl Roofline {
    pub fn mi250x_gcd() -> Self {
        Roofline {
            gcd: Gcd::mi250x(0),
        }
    }

    fn compute_roof(&self, p: Precision) -> Flops {
        match p {
            Precision::Fp64 => self.gcd.peak_fp64_vector(),
            Precision::Fp32 => self.gcd.peak_fp32_vector(),
            Precision::Fp16 => self.gcd.peak_fp16_matrix(),
        }
    }

    fn memory_roof(&self) -> Bandwidth {
        let hbm: &HbmStack = self.gcd.hbm();
        hbm.peak_bandwidth()
    }

    /// Attainable throughput for a kernel.
    pub fn attainable(&self, k: Kernel) -> Flops {
        let mem_bound = Flops::per_sec(k.intensity * self.memory_roof().as_bytes_per_sec());
        self.compute_roof(k.precision).min(mem_bound)
    }

    /// Arithmetic intensity of the ridge point for a precision.
    pub fn ridge_point(&self, p: Precision) -> f64 {
        self.compute_roof(p).as_per_sec() / self.memory_roof().as_bytes_per_sec()
    }

    /// Is the kernel memory-bound on this GCD?
    pub fn is_memory_bound(&self, k: Kernel) -> bool {
        k.intensity < self.ridge_point(k.precision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp64_ridge_is_near_15() {
        let r = Roofline::mi250x_gcd();
        let ridge = r.ridge_point(Precision::Fp64);
        assert!((14.0..16.0).contains(&ridge), "{ridge}");
    }

    #[test]
    fn stream_is_memory_bound_gemm_is_not() {
        let r = Roofline::mi250x_gcd();
        assert!(r.is_memory_bound(Kernel::stream_triad()));
        assert!(r.is_memory_bound(Kernel::stencil_7pt()));
        assert!(!r.is_memory_bound(Kernel::dgemm_large()));
    }

    #[test]
    fn attainable_is_min_of_roofs() {
        let r = Roofline::mi250x_gcd();
        // Triad: 1/12 flop/byte x 1.6352 TB/s = 136 GF/s.
        let triad = r.attainable(Kernel::stream_triad());
        assert!((triad.as_gf() - 136.3).abs() < 2.0, "{}", triad.as_gf());
        // GEMM: capped at the compute roof.
        let gemm = r.attainable(Kernel::dgemm_large());
        assert!((gemm.as_tf() - 23.95).abs() < 0.1);
    }

    #[test]
    fn attainable_monotone_in_intensity() {
        let r = Roofline::mi250x_gcd();
        let mut last = 0.0;
        for i in [0.1, 0.5, 2.0, 10.0, 50.0, 500.0] {
            let a = r.attainable(Kernel::new(i, Precision::Fp64)).as_per_sec();
            assert!(a >= last);
            last = a;
        }
    }

    #[test]
    fn fp16_ridge_is_8x_fp64() {
        let r = Roofline::mi250x_gcd();
        let ratio = r.ridge_point(Precision::Fp16) / r.ridge_point(Precision::Fp64);
        assert!((ratio - 8.0).abs() < 0.01);
    }

    #[test]
    fn fft_is_memory_bound_on_a_gcd() {
        // The GESTS proxy treats the local transform as HBM-bound; confirm
        // against the roofline: FFT intensity ~ 5·log2(N)/(2·16) flops/byte
        // per pass stays below the FP64 ridge (~15) for any practical N.
        let n = 1u64 << 40; // absurdly large transform
        let intensity = 5.0 * (n as f64).log2() / 32.0;
        let r = Roofline::mi250x_gcd();
        assert!(
            r.is_memory_bound(Kernel::new(intensity, Precision::Fp64)),
            "FFT intensity {intensity} should sit below the ridge {}",
            r.ridge_point(Precision::Fp64)
        );
    }

    #[test]
    fn gemm_intensity_is_past_the_ridge() {
        // Dense GEMM at practical sizes: intensity N/8-ish >> ridge — the
        // compute-bound side of the split (LSMS, CoMet, HPL).
        let r = Roofline::mi250x_gcd();
        for n in [1024.0, 8192.0] {
            let intensity = n / 8.0;
            assert!(!r.is_memory_bound(Kernel::new(intensity, Precision::Fp64)));
        }
    }
}
