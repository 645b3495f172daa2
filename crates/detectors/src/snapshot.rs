//! Versioned binary snapshots of **fitted** detector state.
//!
//! UADB's serving story needs the teacher next to the distilled booster:
//! production A/B of "teacher vs. booster" (the paper's whole premise)
//! is impossible if the fitted IForest trees, PCA bases or ECOD tail
//! tables die with the training process. [`DetectorSnapshot`] gives every
//! detector a save/load on its *fitted state* — not its config — so a
//! frozen teacher scores queries bit-identically after a round trip
//! through disk.
//!
//! ## Format
//!
//! A snapshot is `tag || payload`:
//!
//! * `tag` — one stable byte per detector kind (see [`kind_tag`]); the
//!   numbers are part of the on-disk format and must never be reused.
//! * `payload` — the detector's own fitted-state layout, written by its
//!   [`DetectorSnapshot::write_fitted`] impl. All integers are
//!   little-endian `u64` (or a single tag byte), all floats raw IEEE-754
//!   bits, so loads reproduce scoring **bit-identically**.
//!
//! There is no magic/version/trailer here: snapshots are designed to be
//! embedded as a record inside an outer versioned container (the serve
//! crate's model-file format), which provides those. The
//! [`save`]/[`load`] helpers operate on any `Write`/`Read`. The
//! little-endian primitives they use ([`write_u64`], [`read_f64s`] and
//! the rest) are public: that container is written with the same codec.
//!
//! ## Safety against corrupt input
//!
//! Loaders treat every length and index as untrusted: lengths are capped
//! before allocation, and any index that scoring would later use to
//! address memory (tree child pointers, feature indices, centroid ids)
//! is bounds-checked at load time, so a corrupted file yields a typed
//! [`SnapshotError`] — never a panic or an out-of-bounds access.
//! Symmetrically, [`save`] refuses NaN-poisoned fitted state with
//! [`SnapshotError::InvalidState`]: writing it anyway would produce a
//! file every loader rejects.

use crate::traits::{Detector, DetectorKind};
use std::fmt;
use std::io::{self, Read, Write};
use uadb_linalg::Matrix;

/// Errors from [`save`] / [`load`].
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying I/O failure (including truncated input).
    Io(io::Error),
    /// The kind tag does not name a known detector.
    UnknownKind(u8),
    /// Structurally invalid content (with a description of what).
    Corrupt(&'static str),
    /// The in-memory detector cannot be snapshotted as-is: it was never
    /// fitted, or its fitted state carries non-finite values that no
    /// loader would accept back.
    InvalidState(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "i/o failure: {e}"),
            SnapshotError::UnknownKind(tag) => {
                write!(f, "unknown detector kind tag {tag}")
            }
            SnapshotError::Corrupt(what) => write!(f, "corrupt detector snapshot: {what}"),
            SnapshotError::InvalidState(what) => {
                write!(f, "detector state is not snapshotable: {what}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Sanity caps while reading untrusted snapshots: any length beyond
/// these is treated as corruption rather than an allocation request.
pub(crate) const MAX_LEN: u64 = 1 << 26;
pub(crate) const MAX_DIM: u64 = 1 << 24;

/// A detector whose fitted state can be serialised and restored.
///
/// The contract is **bit-identity**: for any fitted detector `d` and any
/// query matrix `q`, `load(save(d)).score(q)` returns exactly the bits
/// `d.score(q)` returns. The config a detector was *built* with is not
/// part of the contract — only what scoring needs travels (hence e.g. a
/// restored IForest scores with the exact trees it was fitted with, but
/// reports default `max_samples` and RNG seed, which only `fit` uses).
///
/// `Sync` is a supertrait so a loaded teacher can be shared across
/// scoring workers the same way a booster is.
pub trait DetectorSnapshot: Detector + Sync {
    /// The kind this snapshot serialises as (stable on-disk tag).
    fn kind(&self) -> DetectorKind;

    /// Fitted feature dimensionality (what a query row must have).
    fn fitted_dim(&self) -> usize;

    /// Writes the fitted-state payload (everything after the kind tag).
    ///
    /// Must fail with [`SnapshotError::InvalidState`] — before writing
    /// any byte that a buffering caller would have to unwind — when the
    /// detector is unfitted or its state contains non-finite values.
    fn write_fitted(&self, w: &mut dyn Write) -> Result<(), SnapshotError>;
}

/// The stable on-disk tag of a detector kind. Part of the format: tags
/// are append-only and never reused.
pub fn kind_tag(kind: DetectorKind) -> u8 {
    match kind {
        DetectorKind::IForest => 1,
        DetectorKind::Hbos => 2,
        DetectorKind::Lof => 3,
        DetectorKind::Knn => 4,
        DetectorKind::Pca => 5,
        DetectorKind::Ocsvm => 6,
        DetectorKind::Cblof => 7,
        DetectorKind::Cof => 8,
        DetectorKind::Sod => 9,
        DetectorKind::Ecod => 10,
        DetectorKind::Gmm => 11,
        DetectorKind::Loda => 12,
        DetectorKind::Copod => 13,
        DetectorKind::DeepSvdd => 14,
    }
}

/// Inverse of [`kind_tag`].
pub fn kind_from_tag(tag: u8) -> Option<DetectorKind> {
    DetectorKind::ALL.into_iter().find(|&k| kind_tag(k) == tag)
}

/// Instantiates a snapshot-capable detector with PyOD default
/// hyper-parameters — the snapshot-aware twin of [`DetectorKind::build`].
/// All 14 kinds are snapshot-able.
pub fn build(kind: DetectorKind, seed: u64) -> Box<dyn DetectorSnapshot> {
    match kind {
        DetectorKind::IForest => Box::new(crate::iforest::IForest::with_seed(seed)),
        DetectorKind::Hbos => Box::new(crate::hbos::Hbos::default()),
        DetectorKind::Lof => Box::new(crate::lof::Lof::default()),
        DetectorKind::Knn => Box::new(crate::knn::Knn::default()),
        DetectorKind::Pca => Box::new(crate::pca::Pca::default()),
        DetectorKind::Ocsvm => Box::new(crate::ocsvm::OcSvm::default()),
        DetectorKind::Cblof => Box::new(crate::cblof::Cblof::with_seed(seed)),
        DetectorKind::Cof => Box::new(crate::cof::Cof::default()),
        DetectorKind::Sod => Box::new(crate::sod::Sod::default()),
        DetectorKind::Ecod => Box::new(crate::ecod::Ecod::default()),
        DetectorKind::Gmm => Box::new(crate::gmm::Gmm::with_seed(seed)),
        DetectorKind::Loda => Box::new(crate::loda::Loda::with_seed(seed)),
        DetectorKind::Copod => Box::new(crate::copod::Copod::default()),
        DetectorKind::DeepSvdd => Box::new(crate::deep_svdd::DeepSvdd::with_seed(seed)),
    }
}

/// Writes `tag || payload` for a fitted detector.
pub fn save<W: Write>(det: &dyn DetectorSnapshot, mut w: W) -> Result<(), SnapshotError> {
    w.write_all(&[kind_tag(det.kind())])?;
    det.write_fitted(&mut w)?;
    w.flush()?;
    Ok(())
}

/// Convenience: [`save`] into a fresh byte vector.
pub fn save_to_vec(det: &dyn DetectorSnapshot) -> Result<Vec<u8>, SnapshotError> {
    let mut buf = Vec::new();
    save(det, &mut buf)?;
    Ok(buf)
}

/// Reads `tag || payload` back into a fitted, scoreable detector.
pub fn load<R: Read>(mut r: R) -> Result<Box<dyn DetectorSnapshot>, SnapshotError> {
    let tag = read_u8(&mut r)?;
    let kind = kind_from_tag(tag).ok_or(SnapshotError::UnknownKind(tag))?;
    load_payload(kind, &mut r)
}

/// Reads a fitted detector of a known kind (tag already consumed).
pub fn load_payload(
    kind: DetectorKind,
    r: &mut dyn Read,
) -> Result<Box<dyn DetectorSnapshot>, SnapshotError> {
    Ok(match kind {
        DetectorKind::IForest => Box::new(crate::iforest::IForest::read_fitted(r)?),
        DetectorKind::Hbos => Box::new(crate::hbos::Hbos::read_fitted(r)?),
        DetectorKind::Lof => Box::new(crate::lof::Lof::read_fitted(r)?),
        DetectorKind::Knn => Box::new(crate::knn::Knn::read_fitted(r)?),
        DetectorKind::Pca => Box::new(crate::pca::Pca::read_fitted(r)?),
        DetectorKind::Ocsvm => Box::new(crate::ocsvm::OcSvm::read_fitted(r)?),
        DetectorKind::Cblof => Box::new(crate::cblof::Cblof::read_fitted(r)?),
        DetectorKind::Cof => Box::new(crate::cof::Cof::read_fitted(r)?),
        DetectorKind::Sod => Box::new(crate::sod::Sod::read_fitted(r)?),
        DetectorKind::Ecod => Box::new(crate::ecod::Ecod::read_fitted(r)?),
        DetectorKind::Gmm => Box::new(crate::gmm::Gmm::read_fitted(r)?),
        DetectorKind::Loda => Box::new(crate::loda::Loda::read_fitted(r)?),
        DetectorKind::Copod => Box::new(crate::copod::Copod::read_fitted(r)?),
        DetectorKind::DeepSvdd => Box::new(crate::deep_svdd::DeepSvdd::read_fitted(r)?),
    })
}

// ---------------------------------------------------------------------
// The little-endian codec. Every detector's impl and the serve crate's
// model files use exactly these primitives, so the wire encoding cannot
// drift between them. Generic over the stream so a caller holding a
// concrete reader or writer keeps monomorphised calls.
// ---------------------------------------------------------------------

/// Writes one byte.
pub(crate) fn write_u8<W: Write + ?Sized>(w: &mut W, v: u8) -> io::Result<()> {
    w.write_all(&[v])
}

/// Writes a little-endian `u32`.
pub fn write_u32<W: Write + ?Sized>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Writes a little-endian `u64`.
pub fn write_u64<W: Write + ?Sized>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Writes an `f64` as its raw IEEE-754 bits, little-endian.
pub fn write_f64<W: Write + ?Sized>(w: &mut W, v: f64) -> io::Result<()> {
    w.write_all(&v.to_bits().to_le_bytes())
}

/// Writes each value with [`write_f64`]; no length prefix.
pub fn write_f64s<W: Write + ?Sized>(w: &mut W, vs: &[f64]) -> io::Result<()> {
    for &v in vs {
        write_f64(w, v)?;
    }
    Ok(())
}

/// Reads one byte.
pub fn read_u8<R: Read + ?Sized>(r: &mut R) -> io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

/// Reads a little-endian `u32`.
pub fn read_u32<R: Read + ?Sized>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

/// Reads a little-endian `u64`.
pub fn read_u64<R: Read + ?Sized>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Reads an `f64` written by [`write_f64`], bit for bit.
pub fn read_f64<R: Read + ?Sized>(r: &mut R) -> io::Result<f64> {
    Ok(f64::from_bits(read_u64(r)?))
}

/// Reads `n` values written by [`write_f64s`].
pub fn read_f64s<R: Read + ?Sized>(r: &mut R, n: usize) -> io::Result<Vec<f64>> {
    // Cap the up-front reservation: `n` comes from an untrusted length
    // field, and a tiny crafted file must not force a huge allocation
    // before EOF is discovered. Genuine data grows the vec as it reads.
    let mut out = Vec::with_capacity(n.min(8192));
    for _ in 0..n {
        out.push(read_f64(r)?);
    }
    Ok(out)
}

/// Writes `rows, cols, data` for a matrix.
pub(crate) fn write_matrix(w: &mut dyn Write, m: &Matrix) -> io::Result<()> {
    write_u64(w, m.rows() as u64)?;
    write_u64(w, m.cols() as u64)?;
    write_f64s(w, m.as_slice())
}

/// Reads a length field, rejecting anything over `cap` as corruption.
pub(crate) fn read_len(
    r: &mut dyn Read,
    cap: u64,
    what: &'static str,
) -> Result<usize, SnapshotError> {
    let v = read_u64(r)?;
    if v > cap {
        return Err(SnapshotError::Corrupt(what));
    }
    Ok(v as usize)
}

/// Reads a matrix written by [`write_matrix`], capping both dimensions.
pub(crate) fn read_matrix(r: &mut dyn Read, what: &'static str) -> Result<Matrix, SnapshotError> {
    let rows = read_len(r, MAX_LEN, what)?;
    let cols = read_len(r, MAX_DIM, what)?;
    if (rows as u64).saturating_mul(cols as u64) > MAX_LEN {
        return Err(SnapshotError::Corrupt(what));
    }
    let data = read_f64s(r, rows * cols)?;
    Matrix::from_vec(rows, cols, data).map_err(|_| SnapshotError::Corrupt(what))
}

/// Save-time guard: every value must be finite, or the state is
/// rejected before a single payload byte is written.
pub(crate) fn ensure_finite(vs: &[f64], what: &'static str) -> Result<(), SnapshotError> {
    if vs.iter().all(|v| v.is_finite()) {
        Ok(())
    } else {
        Err(SnapshotError::InvalidState(what))
    }
}

/// Load-time guard: the mirror of [`ensure_finite`] for untrusted input.
pub(crate) fn check_finite(vs: &[f64], what: &'static str) -> Result<(), SnapshotError> {
    if vs.iter().all(|v| v.is_finite()) {
        Ok(())
    } else {
        Err(SnapshotError::Corrupt(what))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_unique_and_invertible() {
        let mut tags: Vec<u8> = DetectorKind::ALL.iter().map(|&k| kind_tag(k)).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), 14);
        for k in DetectorKind::ALL {
            assert_eq!(kind_from_tag(kind_tag(k)), Some(k));
        }
        assert_eq!(kind_from_tag(0), None);
        assert_eq!(kind_from_tag(200), None);
    }

    #[test]
    fn unknown_tag_is_typed_error() {
        assert!(matches!(load(&[0u8][..]), Err(SnapshotError::UnknownKind(0))));
        assert!(matches!(load(&[99u8][..]), Err(SnapshotError::UnknownKind(99))));
        // Empty input is an I/O error, not a panic.
        assert!(matches!(load(&[][..]), Err(SnapshotError::Io(_))));
    }

    #[test]
    fn unfitted_detectors_refuse_to_save() {
        for kind in DetectorKind::ALL {
            let det = build(kind, 0);
            assert!(
                matches!(save_to_vec(det.as_ref()), Err(SnapshotError::InvalidState(_))),
                "{} saved while unfitted",
                kind.name()
            );
        }
    }

    #[test]
    fn error_display_is_informative() {
        assert!(SnapshotError::UnknownKind(7).to_string().contains('7'));
        assert!(SnapshotError::Corrupt("x").to_string().contains('x'));
        assert!(SnapshotError::InvalidState("nan").to_string().contains("nan"));
    }
}
