//! The paper's Table 2 dataset catalog, reproduced at configurable scale.
//!
//! Each entry names a dataset from the evaluation, its full-size shape, and
//! a generator for a scaled stand-in with the same statistical character
//! (see DESIGN.md §3 substitutions 5–6). `scale = 1.0` regenerates the full
//! paper sizes (hundreds of GB — only do that on a machine that fits them);
//! the harness default is `1/1000`.

use crate::gmm::{Balance, MixtureSpec};
use crate::uniform::{uniform_matrix, univariate_matrix};
use knor_matrix::DMatrix;

/// The five datasets of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaperDataset {
    /// Friendster graph top-8 eigenvectors: 66M x 8, 4GB. Natural clusters.
    Friendster8,
    /// Friendster graph top-32 eigenvectors: 66M x 32, 16GB.
    Friendster32,
    /// Rand-Multivariate 856M x 16, 103GB.
    RM856M,
    /// Rand-Multivariate 1.1B x 32, 251GB.
    RM1B,
    /// Rand-Univariate 2.1B x 64, 1.1TB.
    RU2B,
}

impl PaperDataset {
    /// All entries in Table 2 order.
    pub fn all() -> [PaperDataset; 5] {
        [Self::Friendster8, Self::Friendster32, Self::RM856M, Self::RM1B, Self::RU2B]
    }

    /// Table 2 name.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Friendster8 => "Friendster-8",
            Self::Friendster32 => "Friendster-32",
            Self::RM856M => "RM856M",
            Self::RM1B => "RM1B",
            Self::RU2B => "RU2B",
        }
    }

    /// Full-size row count from Table 2.
    pub fn full_n(&self) -> u64 {
        match self {
            Self::Friendster8 | Self::Friendster32 => 66_000_000,
            Self::RM856M => 856_000_000,
            Self::RM1B => 1_100_000_000,
            Self::RU2B => 2_100_000_000,
        }
    }

    /// Dimensionality from Table 2.
    pub fn d(&self) -> usize {
        match self {
            Self::Friendster8 => 8,
            Self::Friendster32 => 32,
            Self::RM856M => 16,
            Self::RM1B => 32,
            Self::RU2B => 64,
        }
    }

    /// Generate the scaled stand-in. `scale` multiplies the row count;
    /// dimensionality is kept at the paper's value.
    pub fn generate(&self, scale: f64, seed: u64) -> ScaledDataset {
        assert!(scale > 0.0);
        let n = ((self.full_n() as f64 * scale).round() as usize).max(64);
        let d = self.d();
        let data = match self {
            Self::Friendster8 | Self::Friendster32 => {
                // 10 planted components: the paper's canonical k=10 runs
                // on Friendster root fully, which is what drives its MTI
                // and row-cache results; larger-k sweeps split clusters.
                MixtureSpec {
                    n,
                    d,
                    k: 10,
                    separation: 8.0,
                    sigma: 0.5,
                    balance: Balance::PowerLaw(1.2),
                    noise: 0.02,
                    seed,
                }
                .generate()
                .data
            }
            Self::RM856M | Self::RM1B => uniform_matrix(n, d, seed),
            Self::RU2B => univariate_matrix(n, d, seed),
        };
        ScaledDataset { source: *self, scale, data }
    }

    /// Full-size payload bytes (`n * d * 8`).
    pub fn full_bytes(&self) -> u64 {
        self.full_n() * self.d() as u64 * 8
    }
}

/// A generated scaled dataset, tagged with its provenance.
#[derive(Debug, Clone)]
pub struct ScaledDataset {
    /// Which Table 2 entry this stands in for.
    pub source: PaperDataset,
    /// The applied row-count scale factor.
    pub scale: f64,
    /// The generated matrix.
    pub data: DMatrix,
}

impl ScaledDataset {
    /// Payload bytes of the scaled data.
    pub fn bytes(&self) -> u64 {
        (self.data.len() * 8) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_matches_table2() {
        assert_eq!(PaperDataset::Friendster8.d(), 8);
        assert_eq!(PaperDataset::Friendster32.d(), 32);
        assert_eq!(PaperDataset::RM856M.d(), 16);
        assert_eq!(PaperDataset::RM1B.d(), 32);
        assert_eq!(PaperDataset::RU2B.d(), 64);
        // Table 2 sizes: 4GB, 16GB, ~103GB, ~251GB, ~1.1TB.
        assert_eq!(PaperDataset::Friendster8.full_bytes(), 66_000_000 * 8 * 8);
        assert!(PaperDataset::RU2B.full_bytes() > 1_000_000_000_000);
    }

    #[test]
    fn scaled_generation_shapes() {
        for ds in PaperDataset::all() {
            let g = ds.generate(1.0e-5, 1);
            assert_eq!(g.data.ncol(), ds.d());
            assert!(g.data.nrow() >= 64);
            assert_eq!(g.source, ds);
        }
    }

    #[test]
    fn deterministic() {
        let a = PaperDataset::Friendster8.generate(1e-5, 5);
        let b = PaperDataset::Friendster8.generate(1e-5, 5);
        assert_eq!(a.data, b.data);
    }
}
