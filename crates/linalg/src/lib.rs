//! Dense linear-algebra substrate for the UADB reproduction.
//!
//! The UADB paper depends on PyOD detectors and a PyTorch MLP, both of
//! which sit on top of BLAS/LAPACK. This crate provides the minimal dense
//! kernel set those systems need, built from scratch:
//!
//! * [`Matrix`] — row-major dense `f64` matrix with cache-friendly matmul,
//! * [`gemm`] — cache-blocked, allocation-free GEMM kernel behind
//!   [`Matrix::matmul`] ([`gemm::gemm_into`] takes caller-owned buffers
//!   and one flag saying whether the rhs is all finite),
//! * [`eigen::sym_eigen`] — cyclic Jacobi eigendecomposition for symmetric
//!   matrices (PCA, GMM covariances),
//! * [`lu::LuDecomposition`] — LU with partial pivoting (solve, inverse,
//!   determinant; GMM precision matrices),
//! * [`cholesky::cholesky`] — SPD factorisation (covariance sampling),
//! * [`distance`] — pairwise Euclidean distances (LOF/KNN/COF/SOD/CBLOF),
//! * [`colstats`] — column means/variances/covariance matrices.
//!
//! All routines are deterministic and allocation-conscious: hot loops
//! operate on slices with pre-allocated outputs, per the Rust perf-book
//! guidance the repo follows.

pub mod cholesky;
pub mod colstats;
pub mod distance;
pub mod eigen;
pub mod error;
pub mod gemm;
pub mod lu;
pub mod matrix;
pub mod vecops;

pub use error::LinalgError;
pub use matrix::Matrix;

/// Convenience result alias for fallible linear-algebra routines.
pub type Result<T> = std::result::Result<T, LinalgError>;
