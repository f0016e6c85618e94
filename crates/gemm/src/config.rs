//! GEMM problem configuration.
//!
//! A [`GemmConfig`] fully describes one small-GEMM kernel: shapes, leading
//! dimensions, operand layouts and accumulation mode. Like LIBXSMM, the
//! generator hard-wires all of this into the emitted code — there are no
//! runtime shape parameters in the generated kernel.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Storage layout of the B operand.
///
/// A and C are always column-major (the LIBXSMM convention used by the
/// paper); B may be row-major (the `C += A·Bᵀ` case of Fig. 8, where outer
/// products can consume B directly) or column-major (the `C += A·B` case of
/// Fig. 9, which requires the in-kernel transposition of §IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BLayout {
    /// B is stored row-major: element (k, n) is at `B[k * ldb + n]`.
    RowMajor,
    /// B is stored column-major: element (k, n) is at `B[n * ldb + k]`.
    ColMajor,
}

/// Accumulation mode of the generated kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Beta {
    /// `C = A · B(ᵀ)` — the accumulators are zero-initialised.
    Zero,
    /// `C += A · B(ᵀ)` — the existing C block is loaded first (the paper's
    /// setting).
    One,
}

/// The execution engine a kernel is generated for.
///
/// The paper's Fig. 1 shows the two engine classes of the M4: the **SME**
/// outer-product units (two, shared per cluster) and the core-private
/// **Neon** FMLA pipes. Small or awkwardly-shaped GEMMs amortise the SME
/// kernels' fixed streaming-mode and ZA-transfer overheads poorly and run
/// faster on Neon; large shapes saturate the SME units. The `sme-router`
/// crate picks a backend per request; the autotuner scores candidates of
/// both backends on the timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Backend {
    /// The SME outer-product generator ([`crate::generate`]).
    Sme,
    /// The Neon FMLA-by-element generator ([`crate::neon::generate_neon`]).
    Neon,
}

impl Backend {
    /// Both backends, SME first.
    pub const fn all() -> [Backend; 2] {
        [Backend::Sme, Backend::Neon]
    }

    /// Stable textual name (used by the plan store's JSON format).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Sme => "Sme",
            Backend::Neon => "Neon",
        }
    }

    /// Inverse of [`Backend::name`].
    pub fn from_name(name: &str) -> Option<Backend> {
        match name {
            "Sme" => Some(Backend::Sme),
            "Neon" => Some(Backend::Neon),
            _ => None,
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Strategy for moving C blocks between memory and the ZA array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ZaTransferStrategy {
    /// Direct `ldr za` / `str za` array-vector transfers.
    Direct,
    /// Two-step transfers through Z registers (`ld1w`/`st1w` + `mova`), the
    /// faster load path identified in §III-G.
    TwoStep,
}

/// Errors reported while validating a configuration or generating a kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GemmError {
    /// A dimension was zero or exceeds the supported range.
    InvalidDimension(String),
    /// A leading dimension is smaller than the corresponding extent.
    InvalidLeadingDimension(String),
    /// The requested feature is not supported by this generator.
    Unsupported(String),
}

impl fmt::Display for GemmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GemmError::InvalidDimension(msg) => write!(f, "invalid dimension: {msg}"),
            GemmError::InvalidLeadingDimension(msg) => {
                write!(f, "invalid leading dimension: {msg}")
            }
            GemmError::Unsupported(msg) => write!(f, "unsupported configuration: {msg}"),
        }
    }
}

impl std::error::Error for GemmError {}

/// Description of one small-GEMM kernel.
///
/// Shapes follow BLAS conventions: `C` is `m × n`, `A` is `m × k`, `B` is
/// `k × n`. A and C are column-major with leading dimensions `lda` and
/// `ldc`; the layout of B is selected by [`BLayout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GemmConfig {
    /// Rows of C and A.
    pub m: usize,
    /// Columns of C and B.
    pub n: usize,
    /// Contraction dimension (columns of A, rows of B).
    pub k: usize,
    /// Leading dimension of A (≥ m).
    pub lda: usize,
    /// Leading dimension of B (≥ n for row-major, ≥ k for column-major).
    pub ldb: usize,
    /// Leading dimension of C (≥ m).
    pub ldc: usize,
    /// Layout of B.
    pub b_layout: BLayout,
    /// Accumulation mode.
    pub beta: Beta,
    /// How C blocks are moved in and out of the ZA array.
    pub c_transfer: ZaTransferStrategy,
}

impl GemmConfig {
    /// A `C += A·Bᵀ` configuration (row-major B) with tight leading
    /// dimensions — the Fig. 8 setting.
    pub fn abt(m: usize, n: usize, k: usize) -> Self {
        GemmConfig {
            m,
            n,
            k,
            lda: m,
            ldb: n,
            ldc: m,
            b_layout: BLayout::RowMajor,
            beta: Beta::One,
            c_transfer: ZaTransferStrategy::TwoStep,
        }
    }

    /// A `C += A·B` configuration (column-major B) with tight leading
    /// dimensions — the Fig. 9 setting.
    pub fn ab(m: usize, n: usize, k: usize) -> Self {
        GemmConfig {
            ldb: k,
            b_layout: BLayout::ColMajor,
            ..Self::abt(m, n, k)
        }
    }

    /// Builder: set explicit leading dimensions.
    pub fn with_leading_dims(mut self, lda: usize, ldb: usize, ldc: usize) -> Self {
        self.lda = lda;
        self.ldb = ldb;
        self.ldc = ldc;
        self
    }

    /// Builder: set the accumulation mode.
    pub fn with_beta(mut self, beta: Beta) -> Self {
        self.beta = beta;
        self
    }

    /// Builder: set the ZA transfer strategy for C blocks.
    pub fn with_c_transfer(mut self, strategy: ZaTransferStrategy) -> Self {
        self.c_transfer = strategy;
        self
    }

    /// Number of floating-point operations one kernel execution performs.
    pub fn flops(&self) -> u64 {
        2 * self.m as u64 * self.n as u64 * self.k as u64
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), GemmError> {
        const MAX_DIM: usize = 1 << 20;
        for (name, v) in [("m", self.m), ("n", self.n), ("k", self.k)] {
            if v == 0 || v > MAX_DIM {
                return Err(GemmError::InvalidDimension(format!(
                    "{name} = {v} must be in 1..={MAX_DIM}"
                )));
            }
        }
        if self.lda < self.m {
            return Err(GemmError::InvalidLeadingDimension(format!(
                "lda = {} must be >= m = {}",
                self.lda, self.m
            )));
        }
        if self.ldc < self.m {
            return Err(GemmError::InvalidLeadingDimension(format!(
                "ldc = {} must be >= m = {}",
                self.ldc, self.m
            )));
        }
        let min_ldb = match self.b_layout {
            BLayout::RowMajor => self.n,
            BLayout::ColMajor => self.k,
        };
        if self.ldb < min_ldb {
            return Err(GemmError::InvalidLeadingDimension(format!(
                "ldb = {} must be >= {} for {:?} B",
                self.ldb, min_ldb, self.b_layout
            )));
        }
        Ok(())
    }

    /// Byte offset of element (row, col) of A.
    pub fn a_offset(&self, row: usize, col: usize) -> usize {
        (col * self.lda + row) * 4
    }

    /// Byte offset of element (k, n) of B.
    pub fn b_offset(&self, k: usize, n: usize) -> usize {
        match self.b_layout {
            BLayout::RowMajor => (k * self.ldb + n) * 4,
            BLayout::ColMajor => (n * self.ldb + k) * 4,
        }
    }

    /// Byte offset of element (row, col) of C.
    pub fn c_offset(&self, row: usize, col: usize) -> usize {
        (col * self.ldc + row) * 4
    }

    /// Number of `f32` elements the A buffer must hold.
    pub fn a_len(&self) -> usize {
        self.lda * self.k
    }

    /// Number of `f32` elements the B buffer must hold.
    pub fn b_len(&self) -> usize {
        match self.b_layout {
            BLayout::RowMajor => self.ldb * self.k,
            BLayout::ColMajor => self.ldb * self.n,
        }
    }

    /// Number of `f32` elements the C buffer must hold.
    pub fn c_len(&self) -> usize {
        self.ldc * self.n
    }
}

impl fmt::Display for GemmConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = match self.b_layout {
            BLayout::RowMajor => "B^T (row-major B)",
            BLayout::ColMajor => "B (column-major B)",
        };
        write!(
            f,
            "C{} A*{} m={} n={} k={} lda={} ldb={} ldc={}",
            if self.beta == Beta::One { " +=" } else { " =" },
            b,
            self.m,
            self.n,
            self.k,
            self.lda,
            self.ldb,
            self.ldc
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_produce_valid_configs() {
        let c = GemmConfig::abt(80, 80, 512);
        assert!(c.validate().is_ok());
        assert_eq!(c.b_layout, BLayout::RowMajor);
        assert_eq!(c.ldb, 80);
        let c = GemmConfig::ab(33, 47, 512);
        assert!(c.validate().is_ok());
        assert_eq!(c.b_layout, BLayout::ColMajor);
        assert_eq!(c.ldb, 512);
        assert_eq!(c.flops(), 2 * 33 * 47 * 512);
    }

    #[test]
    fn leading_dimension_checks() {
        let c = GemmConfig::abt(32, 32, 64).with_leading_dims(16, 32, 32);
        assert!(matches!(
            c.validate(),
            Err(GemmError::InvalidLeadingDimension(_))
        ));
        let c = GemmConfig::abt(32, 32, 64).with_leading_dims(32, 16, 32);
        assert!(matches!(
            c.validate(),
            Err(GemmError::InvalidLeadingDimension(_))
        ));
        let c = GemmConfig::ab(32, 32, 64).with_leading_dims(32, 32, 32);
        assert!(matches!(
            c.validate(),
            Err(GemmError::InvalidLeadingDimension(_))
        ));
        let c = GemmConfig::abt(32, 32, 64).with_leading_dims(40, 40, 48);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn zero_dimensions_rejected() {
        let c = GemmConfig::abt(0, 32, 64);
        assert!(matches!(c.validate(), Err(GemmError::InvalidDimension(_))));
    }

    #[test]
    fn offsets_follow_layouts() {
        let c = GemmConfig::abt(8, 8, 8).with_leading_dims(10, 12, 14);
        assert_eq!(c.a_offset(3, 2), (2 * 10 + 3) * 4);
        assert_eq!(c.c_offset(3, 2), (2 * 14 + 3) * 4);
        assert_eq!(c.b_offset(5, 7), (5 * 12 + 7) * 4, "row-major B");
        let c = GemmConfig::ab(8, 8, 8).with_leading_dims(10, 12, 14);
        assert_eq!(c.b_offset(5, 7), (7 * 12 + 5) * 4, "column-major B");
    }

    #[test]
    fn buffer_lengths() {
        let c = GemmConfig::abt(8, 6, 4).with_leading_dims(10, 7, 9);
        assert_eq!(c.a_len(), 40);
        assert_eq!(c.b_len(), 28);
        assert_eq!(c.c_len(), 54);
        let c = GemmConfig::ab(8, 6, 4).with_leading_dims(10, 5, 9);
        assert_eq!(c.b_len(), 30);
    }

    #[test]
    fn display_mentions_shape() {
        let text = GemmConfig::abt(80, 80, 512).to_string();
        assert!(text.contains("m=80"));
        assert!(text.contains("B^T"));
    }

    #[test]
    fn error_display() {
        let e = GemmError::Unsupported("bf16".into());
        assert!(e.to_string().contains("bf16"));
    }
}
