//! Unit-safe quantity types.
//!
//! The Frontier paper mixes decimal (GB, TB/s) and binary (GiB, PiB) units
//! freely — and so does real procurement. [`Bytes`], [`Bandwidth`], and
//! [`Flops`] make the distinction explicit at the type level so the spec
//! tables in `frontier-core` can be derived without unit mistakes.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

use crate::time::SimTime;

/// A byte count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(pub u64);

impl Bytes {
    pub const ZERO: Bytes = Bytes(0);

    #[inline]
    pub const fn new(b: u64) -> Self {
        Bytes(b)
    }
    /// Decimal kilobytes (10^3).
    #[inline]
    pub const fn kb(n: u64) -> Self {
        Bytes(n * 1_000)
    }
    /// Decimal megabytes (10^6).
    #[inline]
    pub const fn mb(n: u64) -> Self {
        Bytes(n * 1_000_000)
    }
    /// Decimal gigabytes (10^9).
    #[inline]
    pub const fn gb(n: u64) -> Self {
        Bytes(n * 1_000_000_000)
    }
    /// Decimal terabytes (10^12).
    #[inline]
    pub const fn tb(n: u64) -> Self {
        Bytes(n * 1_000_000_000_000)
    }
    /// Binary kibibytes (2^10).
    #[inline]
    pub const fn kib(n: u64) -> Self {
        Bytes(n << 10)
    }
    /// Binary mebibytes (2^20).
    #[inline]
    pub const fn mib(n: u64) -> Self {
        Bytes(n << 20)
    }
    /// Binary gibibytes (2^30).
    #[inline]
    pub const fn gib(n: u64) -> Self {
        Bytes(n << 30)
    }
    /// Binary tebibytes (2^40).
    #[inline]
    pub const fn tib(n: u64) -> Self {
        Bytes(n << 40)
    }

    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }
    /// Value in decimal gigabytes.
    #[inline]
    pub fn as_gb(self) -> f64 {
        self.0 as f64 / 1e9
    }
    /// Value in decimal terabytes.
    #[inline]
    pub fn as_tb(self) -> f64 {
        self.0 as f64 / 1e12
    }
    /// Value in decimal petabytes.
    #[inline]
    pub fn as_pb(self) -> f64 {
        self.0 as f64 / 1e15
    }
    /// Value in binary gibibytes.
    #[inline]
    pub fn as_gib(self) -> f64 {
        self.0 as f64 / (1u64 << 30) as f64
    }
    /// Value in binary tebibytes.
    #[inline]
    pub fn as_tib(self) -> f64 {
        self.0 as f64 / (1u64 << 40) as f64
    }
    /// Value in binary pebibytes.
    #[inline]
    pub fn as_pib(self) -> f64 {
        self.0 as f64 / (1u64 << 50) as f64
    }

    #[inline]
    pub fn saturating_sub(self, other: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(other.0))
    }
    #[inline]
    pub fn min(self, other: Bytes) -> Bytes {
        Bytes(self.0.min(other.0))
    }
    #[inline]
    pub fn max(self, other: Bytes) -> Bytes {
        Bytes(self.0.max(other.0))
    }
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for Bytes {
    type Output = Bytes;
    #[inline]
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}
impl AddAssign for Bytes {
    #[inline]
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}
impl Sub for Bytes {
    type Output = Bytes;
    #[inline]
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 - rhs.0)
    }
}
impl Mul<u64> for Bytes {
    type Output = Bytes;
    #[inline]
    fn mul(self, rhs: u64) -> Bytes {
        Bytes(self.0 * rhs)
    }
}
impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        Bytes(iter.map(|b| b.0).sum())
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0 as f64;
        if b < 1e3 {
            write!(f, "{}B", self.0)
        } else if b < 1e6 {
            write!(f, "{:.2}KB", b / 1e3)
        } else if b < 1e9 {
            write!(f, "{:.2}MB", b / 1e6)
        } else if b < 1e12 {
            write!(f, "{:.2}GB", b / 1e9)
        } else if b < 1e15 {
            write!(f, "{:.2}TB", b / 1e12)
        } else {
            write!(f, "{:.2}PB", b / 1e15)
        }
    }
}

/// A data rate, stored in bytes per second as `f64`.
///
/// `f64` keeps the flow solvers simple (they work with fractional shares of
/// links); the ~15 significant digits of a double are far beyond the fidelity
/// of any bandwidth model here.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Bandwidth(pub f64);

impl Bandwidth {
    pub const ZERO: Bandwidth = Bandwidth(0.0);

    /// From bytes per second.
    #[inline]
    pub const fn bytes_per_sec(v: f64) -> Self {
        Bandwidth(v)
    }
    /// From decimal MB/s.
    #[inline]
    pub fn mb_s(v: f64) -> Self {
        Bandwidth(v * 1e6)
    }
    /// From decimal GB/s.
    #[inline]
    pub fn gb_s(v: f64) -> Self {
        Bandwidth(v * 1e9)
    }
    /// From decimal TB/s.
    #[inline]
    pub fn tb_s(v: f64) -> Self {
        Bandwidth(v * 1e12)
    }
    /// From gigabits per second (network convention, decimal).
    #[inline]
    pub fn gbit_s(v: f64) -> Self {
        Bandwidth(v * 1e9 / 8.0)
    }

    #[inline]
    pub fn as_bytes_per_sec(self) -> f64 {
        self.0
    }
    #[inline]
    pub fn as_mb_s(self) -> f64 {
        self.0 / 1e6
    }
    #[inline]
    pub fn as_gb_s(self) -> f64 {
        self.0 / 1e9
    }
    #[inline]
    pub fn as_tb_s(self) -> f64 {
        self.0 / 1e12
    }

    /// Time to move `bytes` at this rate. Panics in debug builds if the rate
    /// is not strictly positive.
    #[inline]
    pub fn time_for(self, bytes: Bytes) -> SimTime {
        debug_assert!(self.0 > 0.0, "time_for on non-positive bandwidth");
        SimTime::from_secs_f64(bytes.as_f64() / self.0)
    }

    #[inline]
    pub fn min(self, other: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.min(other.0))
    }
    #[inline]
    pub fn max(self, other: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.max(other.0))
    }
}

impl Add for Bandwidth {
    type Output = Bandwidth;
    #[inline]
    fn add(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0 + rhs.0)
    }
}
impl AddAssign for Bandwidth {
    #[inline]
    fn add_assign(&mut self, rhs: Bandwidth) {
        self.0 += rhs.0;
    }
}
impl Sub for Bandwidth {
    type Output = Bandwidth;
    #[inline]
    fn sub(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0 - rhs.0)
    }
}
impl Mul<f64> for Bandwidth {
    type Output = Bandwidth;
    #[inline]
    fn mul(self, rhs: f64) -> Bandwidth {
        Bandwidth(self.0 * rhs)
    }
}
impl Div<f64> for Bandwidth {
    type Output = Bandwidth;
    #[inline]
    fn div(self, rhs: f64) -> Bandwidth {
        Bandwidth(self.0 / rhs)
    }
}
impl Sum for Bandwidth {
    fn sum<I: Iterator<Item = Bandwidth>>(iter: I) -> Bandwidth {
        Bandwidth(iter.map(|b| b.0).sum())
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.0;
        if v < 1e6 {
            write!(f, "{:.1}KB/s", v / 1e3)
        } else if v < 1e9 {
            write!(f, "{:.1}MB/s", v / 1e6)
        } else if v < 1e12 {
            write!(f, "{:.1}GB/s", v / 1e9)
        } else {
            write!(f, "{:.2}TB/s", v / 1e12)
        }
    }
}

/// Floating-point operation throughput, in FLOP/s.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Flops(pub f64);

impl Flops {
    pub const ZERO: Flops = Flops(0.0);

    #[inline]
    pub const fn per_sec(v: f64) -> Self {
        Flops(v)
    }
    /// Gigaflops per second.
    #[inline]
    pub fn gf(v: f64) -> Self {
        Flops(v * 1e9)
    }
    /// Teraflops per second.
    #[inline]
    pub fn tf(v: f64) -> Self {
        Flops(v * 1e12)
    }
    /// Petaflops per second.
    #[inline]
    pub fn pf(v: f64) -> Self {
        Flops(v * 1e15)
    }
    /// Exaflops per second.
    #[inline]
    pub fn ef(v: f64) -> Self {
        Flops(v * 1e18)
    }

    #[inline]
    pub fn as_per_sec(self) -> f64 {
        self.0
    }
    #[inline]
    pub fn as_gf(self) -> f64 {
        self.0 / 1e9
    }
    #[inline]
    pub fn as_tf(self) -> f64 {
        self.0 / 1e12
    }
    #[inline]
    pub fn as_pf(self) -> f64 {
        self.0 / 1e15
    }
    #[inline]
    pub fn as_ef(self) -> f64 {
        self.0 / 1e18
    }

    /// Time to execute `flop_count` operations at this rate.
    #[inline]
    pub fn time_for(self, flop_count: f64) -> SimTime {
        debug_assert!(self.0 > 0.0, "time_for on non-positive flops");
        SimTime::from_secs_f64(flop_count / self.0)
    }

    #[inline]
    pub fn min(self, other: Flops) -> Flops {
        Flops(self.0.min(other.0))
    }
}

impl Add for Flops {
    type Output = Flops;
    #[inline]
    fn add(self, rhs: Flops) -> Flops {
        Flops(self.0 + rhs.0)
    }
}
impl Mul<f64> for Flops {
    type Output = Flops;
    #[inline]
    fn mul(self, rhs: f64) -> Flops {
        Flops(self.0 * rhs)
    }
}
impl Sum for Flops {
    fn sum<I: Iterator<Item = Flops>>(iter: I) -> Flops {
        Flops(iter.map(|x| x.0).sum())
    }
}

impl fmt::Display for Flops {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.0;
        if v < 1e12 {
            write!(f, "{:.1}GF/s", v / 1e9)
        } else if v < 1e15 {
            write!(f, "{:.2}TF/s", v / 1e12)
        } else if v < 1e18 {
            write!(f, "{:.2}PF/s", v / 1e15)
        } else {
            write!(f, "{:.3}EF/s", v / 1e18)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_constructors() {
        assert_eq!(Bytes::kib(1).as_u64(), 1024);
        assert_eq!(Bytes::mib(1).as_u64(), 1 << 20);
        assert_eq!(Bytes::gib(1).as_u64(), 1 << 30);
        assert_eq!(Bytes::gb(1).as_u64(), 1_000_000_000);
        assert_eq!(Bytes::tb(2).as_u64(), 2_000_000_000_000);
    }

    #[test]
    fn decimal_vs_binary_matters() {
        // This is the whole point of the type: 1 GiB != 1 GB.
        assert!(Bytes::gib(1) > Bytes::gb(1));
        assert!((Bytes::gib(1).as_gb() - 1.073_741_824).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_time_for() {
        let bw = Bandwidth::gb_s(2.0);
        let t = bw.time_for(Bytes::gb(1));
        assert!((t.as_secs_f64() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn gbit_convention() {
        // 200 Gb/s Slingshot NIC = 25 GB/s.
        assert!((Bandwidth::gbit_s(200.0).as_gb_s() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn flops_scaling() {
        assert!((Flops::ef(2.0).as_pf() - 2000.0).abs() < 1e-6);
        let t = Flops::tf(1.0).time_for(0.5e12);
        assert!((t.as_secs_f64() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Bytes::gb(3).to_string(), "3.00GB");
        assert_eq!(Bandwidth::gb_s(1.5).to_string(), "1.5GB/s");
        assert_eq!(Flops::tf(24.0).to_string(), "24.00TF/s");
    }

    #[test]
    fn sums() {
        let total: Bytes = (0..4).map(|_| Bytes::gib(64)).sum();
        assert_eq!(total, Bytes::gib(256));
        let bw: Bandwidth = (0..4).map(|_| Bandwidth::gb_s(50.0)).sum();
        assert!((bw.as_gb_s() - 200.0).abs() < 1e-9);
    }
}
