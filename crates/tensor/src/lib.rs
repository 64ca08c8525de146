//! Dense row-major `f32` matrices and the kernels point-cloud networks need.
//!
//! The paper's feature computation is a shared MLP over batched rows —
//! matrix-matrix products (Fig. 3) — plus a handful of irregular operators
//! that regular DNN stacks lack: row gather by neighbor index, grouped max
//! reduction, and centroid subtraction. The Rust ecosystem has no DNN stack
//! we are allowed to depend on here ("thin DNN ecosystem; point-cloud ops
//! hand-rolled"), so this crate implements exactly the kernel set the seven
//! evaluated networks require, with nothing speculative:
//!
//! * [`Matrix`] — the storage type,
//! * [`ops`] — matmul (three transpose variants), bias broadcast,
//!   elementwise arithmetic, ReLU and its gradient mask, column statistics,
//! * [`group`] — gather / grouped-reduce / scatter kernels used by
//!   aggregation in both the original and the delayed formulation.
//!
//! # Example
//!
//! ```
//! use mesorasi_tensor::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! let c = mesorasi_tensor::ops::matmul(&a, &b);
//! assert_eq!(c, a);
//! ```
//!
//! # Kernel tiers and dtypes
//!
//! The matmul family runs through register-tiled micro-kernels ([`simd`]
//! supplies the vector inner loops behind runtime detection; the `simd`
//! cargo feature, on by default, gates them), cache-blocked by packing
//! `B` panel-major ([`panel`]) from 16 output rows up. The
//! pre-tier loops survive as [`ops::naive`] — the bit-identical semantics
//! reference. [`Matrix64`] and [`ops64`] carry the `f64` shadow-precision
//! tier: sequential, deterministic mirrors of every forward kernel, used
//! by the planned engine's opt-in f64 execution mode to measure what f32
//! costs in end-task accuracy.

// The `simd` module is the workspace's single unsafe island; everything
// else in this crate (and every other crate) refuses unsafe code.
#![deny(unsafe_code)]

pub mod group;
pub mod matrix;
pub mod matrix64;
pub mod ops;
pub mod ops64;
pub mod panel;
pub mod simd;

pub use matrix::Matrix;
pub use matrix64::Matrix64;

/// Element precision of a planned execution.
///
/// The workspace's native storage is `f32` ([`Matrix`]); `F64` selects the
/// shadow-precision tier, which replays planned forwards through the
/// [`ops64`] kernels on [`Matrix64`] values. Bit-identity guarantees
/// (tape vs. planned, thread-count invariance) hold *within* a dtype —
/// that is the per-dtype contract; across dtypes only closeness holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Dtype {
    /// Native single precision — the fast tier, and the default.
    #[default]
    F32,
    /// Shadow double precision: sequential, deterministic, for measuring
    /// the end-task accuracy delta of f32 execution.
    F64,
}

impl std::fmt::Display for Dtype {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Dtype::F32 => write!(f, "f32"),
            Dtype::F64 => write!(f, "f64"),
        }
    }
}
