//! Standalone linear layers at the model's four linear-site shapes, with
//! weights built here, so a site can be timed on same-shaped inputs and
//! the codebook engine checked against an f64 matmul of known weights.

use nnlut_core::calibrate::RowCapture;
use nnlut_tensor::Matrix;
use nnlut_transformer::{Linear, MatmulMode};

use crate::recipe::{self, Rng};
use crate::stats::RelErr;
use crate::Checks;

/// One linear site of an encoder layer: its name, shape and how many
/// times a layer applies it (q, k and v share one shape).
#[derive(Debug, Clone, Copy)]
pub struct Site {
    pub name: &'static str,
    pub in_dim: usize,
    pub out_dim: usize,
    pub per_layer: usize,
}

/// The six linears of an encoder layer, grouped by shape.
pub const SITES: [Site; 4] = [
    Site {
        name: "qkv",
        in_dim: recipe::HIDDEN,
        out_dim: recipe::HIDDEN,
        per_layer: 3,
    },
    Site {
        name: "out",
        in_dim: recipe::HIDDEN,
        out_dim: recipe::HIDDEN,
        per_layer: 1,
    },
    Site {
        name: "ffn_in",
        in_dim: recipe::HIDDEN,
        out_dim: recipe::FFN,
        per_layer: 1,
    },
    Site {
        name: "ffn_out",
        in_dim: recipe::FFN,
        out_dim: recipe::HIDDEN,
        per_layer: 1,
    },
];

/// Seed of the standalone weights and calibration rows (fixed; the
/// check rows come from the workload seed).
const LAYER_SEED: u64 = 0x1A7E_5EED;
/// Calibration rows per standalone codebook bake.
const CALIB_ROWS: usize = 512;
/// Rows in the codebook check.
const CHECK_ROWS: usize = 64;
/// Bound on a standalone codebook layer's relative error against the f64
/// matmul of its weights, on rows from its calibration distribution. A
/// bias-only output scores about 1; a wrong table or code scores above.
const CODEBOOK_LAYER_REL_ERR_BOUND: f64 = 0.9;

/// `rows × dim` activation rows ~ N(0, 1), the scale of the LayerNorm
/// outputs that feed the model's linears.
pub fn rows(rng: &mut Rng, n: usize, dim: usize) -> Matrix {
    Matrix::from_vec(n, dim, (0..n * dim).map(|_| rng.normal() as f32).collect())
}

/// A dense layer with Xavier-uniform weights and N(0, 0.02²) biases.
pub struct Layer {
    pub linear: Linear,
    pub weight: Matrix,
    pub bias: Vec<f32>,
}

impl Layer {
    /// Builds the layer for `site`, salted by `salt`.
    pub fn new(site: Site, salt: u64) -> Self {
        let mut rng = Rng::new(LAYER_SEED ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let a = (6.0 / (site.in_dim + site.out_dim) as f64).sqrt();
        let weight = Matrix::from_vec(
            site.in_dim,
            site.out_dim,
            (0..site.in_dim * site.out_dim)
                .map(|_| (a * (2.0 * rng.unit() - 1.0)) as f32)
                .collect(),
        );
        let bias: Vec<f32> = (0..site.out_dim)
            .map(|_| (0.02 * rng.normal()) as f32)
            .collect();
        Self {
            linear: Linear::new(weight.clone(), bias.clone()),
            weight,
            bias,
        }
    }

    /// The same layer with its codebook baked on N(0, 1) calibration rows.
    pub fn baked(site: Site, salt: u64) -> Self {
        let mut layer = Self::new(site, salt);
        let mut rng = Rng::new(LAYER_SEED ^ 0xCA11 ^ salt);
        let mut capture = RowCapture::new(site.in_dim, CALIB_ROWS, LAYER_SEED ^ salt);
        capture.record_rows(rows(&mut rng, CALIB_ROWS, site.in_dim).as_slice());
        layer
            .linear
            .bake_codebook(&capture, &recipe::codebook_spec(), salt);
        layer
    }

    /// `x·W + b` in f64.
    pub fn reference(&self, x: &Matrix) -> Vec<f64> {
        let (n, k) = x.shape();
        let m = self.weight.cols();
        let mut out = vec![0.0f64; n * m];
        for r in 0..n {
            let o = &mut out[r * m..(r + 1) * m];
            for (ov, &b) in o.iter_mut().zip(&self.bias) {
                *ov = b as f64;
            }
            for (i, &xv) in x.row(r).iter().enumerate().take(k) {
                for (ov, &w) in o.iter_mut().zip(self.weight.row(i)) {
                    *ov += xv as f64 * w as f64;
                }
            }
        }
        out
    }
}

/// The codebook engine's checks on a standalone layer of every site
/// shape: its output against the f64 matmul of the weights built here,
/// and bit-identical outputs for rows that `assign_row` maps to identical
/// codes (each check row is paired with a copy nudged by one part in
/// 10⁶, which almost always keeps every code).
pub fn check_codebook(seed: u64, checks: &mut Checks) {
    let mut rng = Rng::traffic(seed, 4);
    let mut worst = 0.0f64;
    let mut same_code_pairs = 0usize;
    for (i, site) in SITES.iter().enumerate().skip(1) {
        let layer = Layer::baked(*site, i as u64);
        let cb = layer.linear.codebook().expect("the layer was just baked");
        let x = rows(&mut rng, CHECK_ROWS, site.in_dim);
        let nudged = Matrix::from_vec(
            CHECK_ROWS,
            site.in_dim,
            x.as_slice().iter().map(|v| v * (1.0 + 1e-6)).collect(),
        );
        let out = layer.linear.apply(&x, MatmulMode::Codebook);
        let out_nudged = layer.linear.apply(&nudged, MatmulMode::Codebook);
        let mut err = RelErr::default();
        err.add(out.as_slice(), &layer.reference(&x));
        worst = worst.max(err.value());
        let mut codes = vec![0usize; cb.groups()];
        let mut codes_nudged = vec![0usize; cb.groups()];
        for r in 0..CHECK_ROWS {
            cb.assign_row(x.row(r), &mut codes);
            cb.assign_row(nudged.row(r), &mut codes_nudged);
            if codes == codes_nudged {
                same_code_pairs += 1;
                let identical = out
                    .row(r)
                    .iter()
                    .zip(out_nudged.row(r))
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                checks.require(
                    identical,
                    "rows with identical codes give different outputs",
                );
            }
        }
    }
    eprintln!(
        "codebook layers: worst rel err vs f64 matmul {worst:.4}, {same_code_pairs} same-code row pairs"
    );
    checks.require(
        worst <= CODEBOOK_LAYER_REL_ERR_BOUND,
        "a codebook layer's error against the f64 matmul exceeds its bound",
    );
    checks.require(same_code_pairs > 0, "no same-code row pair was checked");
}
