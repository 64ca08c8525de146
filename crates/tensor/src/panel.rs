//! Panel-major storage of a matmul `B` operand, and the panel walk over it.
//!
//! A row-major `k × n` matrix `B` is a poor operand for the register-tiled
//! micro-kernels once `n` grows: one 16-column tile of [`simd::mm4`] reads
//! `k` segments of 64 bytes that sit `4n` bytes apart, so at `n = 1024`
//! every segment falls into the same L1 set, and a `B` larger than L2 is
//! fetched again from memory for every four output rows.
//!
//! [`Panels`] stores `B` in column panels of [`PANEL_COLS`] columns (the
//! register tile's width), each panel a contiguous row-major `k × w`
//! block, the last one narrower when `n` is not a multiple of the width:
//!
//! ```text
//! B (k × n)              panel-major buffer
//! ┌────┬────┬──┐
//! │ P0 │ P1 │P2│   →    [ P0: k×16 | P1: k×16 | P2: k×(n mod 16) ]
//! └────┴────┴──┘
//! ```
//!
//! Panel `j0 / PANEL_COLS` covers columns `j0..j0 + w` and sits at
//! `j0·k .. (j0 + w)·k` of the buffer. A row-major `B` is the same layout
//! with a single panel as wide as `B` ([`Panels::row_major`]), which is
//! how small products use the walk without packing. [`Panels::mul_rows`] is the one
//! panel walk both users share — the dense matmul tier
//! ([`crate::ops::matmul_into`]) and the feature-space kNN's distance
//! GEMM: for each panel in turn it runs every row quad of a row block
//! through the unchanged [`simd::mm4`] (and the row tail through
//! [`simd::mm1`]) with `n` set to the panel width, writing straight into
//! the output rows. The panel stays cache-resident across the quads, and
//! each output element still accumulates its products in ascending `p`
//! with one `mul` and one `add` per step, so results are bit-identical to
//! the unpacked walk.

use crate::simd;
use std::ops::Range;

/// Columns per panel: the width of [`simd::mm4`]'s register tile.
pub const PANEL_COLS: usize = 16;

/// A borrowed `k × n` matrix in panel-major order (see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct Panels<'a> {
    data: &'a [f32],
    k: usize,
    n: usize,
    /// Columns per panel: [`PANEL_COLS`] once packed, `n` for a row-major
    /// matrix.
    width: usize,
}

/// Column ranges of the `width`-column panels of an `n`-column matrix, in
/// order.
fn panel_cols(n: usize, width: usize) -> impl Iterator<Item = Range<usize>> {
    (0..n).step_by(width.max(1)).map(move |j0| j0..(j0 + width).min(n))
}

impl<'a> Panels<'a> {
    /// Packs the row-major `k × n` matrix `b` into `buf` (cleared first;
    /// no allocation once its capacity covers `k·n`).
    ///
    /// # Panics
    ///
    /// Panics when `b.len() != k·n`.
    pub fn pack(b: &[f32], k: usize, n: usize, buf: &'a mut Vec<f32>) -> Panels<'a> {
        assert_eq!(b.len(), k * n, "panel pack: B is not {k}×{n}");
        buf.clear();
        buf.reserve(k * n);
        for cols in panel_cols(n, PANEL_COLS) {
            for p in 0..k {
                buf.extend_from_slice(&b[p * n + cols.start..p * n + cols.end]);
            }
        }
        Panels { data: buf, k, n, width: PANEL_COLS }
    }

    /// Packs the transpose of the row-major `n × k` matrix `rows` — so
    /// `B[p][j] = rows[j][p]` — into `buf` (cleared first; no allocation
    /// once its capacity covers `k·n`).
    ///
    /// # Panics
    ///
    /// Panics when `k == 0` or `rows.len()` is not a multiple of `k`.
    pub fn pack_transposed(rows: &[f32], k: usize, buf: &'a mut Vec<f32>) -> Panels<'a> {
        assert!(
            k > 0 && rows.len().is_multiple_of(k),
            "panel pack: rows are not a multiple of {k}"
        );
        let n = rows.len() / k;
        buf.clear();
        buf.reserve(k * n);
        for cols in panel_cols(n, PANEL_COLS) {
            for p in 0..k {
                buf.extend(cols.clone().map(|j| rows[j * k + p]));
            }
        }
        Panels { data: buf, k, n, width: PANEL_COLS }
    }

    /// Reads `data` as an already packed `k × n` matrix.
    ///
    /// # Panics
    ///
    /// Panics when `data.len() != k·n`.
    pub fn from_packed(data: &'a [f32], k: usize, n: usize) -> Panels<'a> {
        assert_eq!(data.len(), k * n, "packed panels are not {k}×{n}");
        Panels { data, k, n, width: PANEL_COLS }
    }

    /// Reads the row-major `k × n` matrix `b` in place, as one panel of
    /// width `n`: the walk then runs each quad over all of `B`.
    ///
    /// # Panics
    ///
    /// Panics when `b.len() != k·n`.
    pub fn row_major(b: &'a [f32], k: usize, n: usize) -> Panels<'a> {
        assert_eq!(b.len(), k * n, "row-major B is not {k}×{n}");
        Panels { data: b, k, n, width: n }
    }

    /// `out[r] = a(r) · B` for every row `r` of the row-major
    /// `rows × n` block `out`, fully overwritten: panel by panel, each
    /// panel feeding every quad of rows through [`simd::mm4`] and the
    /// remaining rows through [`simd::mm1`].
    ///
    /// # Panics
    ///
    /// Panics when `out.len()` is not a multiple of `n`, or when a row
    /// `a(r)` is not `k` long.
    pub fn mul_rows<'r>(self, a: impl Fn(usize) -> &'r [f32], out: &mut [f32]) {
        let (k, n) = (self.k, self.n);
        if n == 0 {
            assert!(out.is_empty(), "panel walk: output rows are not {n} wide");
            return;
        }
        assert!(out.len().is_multiple_of(n), "panel walk: output rows are not {n} wide");
        let rows = out.len() / n;
        let row = |r: usize| {
            let row = a(r);
            assert_eq!(row.len(), k, "panel walk: A row {r} is not {k} long");
            row
        };
        for cols in panel_cols(n, self.width) {
            let panel = &self.data[cols.start * k..cols.end * k];
            let w = cols.len();
            let mut quads = out.chunks_exact_mut(4 * n);
            for (qi, quad) in (&mut quads).enumerate() {
                let (r0, rest) = quad.split_at_mut(n);
                let (r1, rest) = rest.split_at_mut(n);
                let (r2, r3) = rest.split_at_mut(n);
                let r = 4 * qi;
                simd::mm4(
                    [row(r), row(r + 1), row(r + 2), row(r + 3)],
                    panel,
                    w,
                    [
                        &mut r0[cols.clone()],
                        &mut r1[cols.clone()],
                        &mut r2[cols.clone()],
                        &mut r3[cols.clone()],
                    ],
                );
            }
            let first_tail = rows - rows % 4;
            for (ri, out_row) in quads.into_remainder().chunks_exact_mut(n).enumerate() {
                simd::mm1(row(first_tail + ri), panel, w, &mut out_row[cols.clone()]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(len: usize, seed: u32) -> Vec<f32> {
        (0..len)
            .map(|i| {
                (((i as u32).wrapping_mul(2654435761).wrapping_add(seed) >> 8) as f32 / 1e5).sin()
            })
            .collect()
    }

    #[test]
    fn both_packs_lay_out_the_same_panels() {
        for (k, n) in [(1, 1), (3, 15), (5, 16), (7, 17), (4, 33), (2, 48)] {
            let b = sample(k * n, 3);
            let mut bt = vec![0.0; k * n];
            for p in 0..k {
                for j in 0..n {
                    bt[j * k + p] = b[p * n + j];
                }
            }
            let (mut direct, mut transposed) = (Vec::new(), Vec::new());
            let pd = Panels::pack(&b, k, n, &mut direct);
            assert_eq!((pd.k, pd.n), (k, n));
            let pt = Panels::pack_transposed(&bt, k, &mut transposed);
            assert_eq!((pt.k, pt.n), (k, n));
            assert_eq!(direct, transposed, "k={k} n={n}");
            // Panel j0/16 is the row-major k × w block of columns j0..j0+w.
            for cols in panel_cols(n, PANEL_COLS) {
                let panel = &direct[cols.start * k..cols.end * k];
                for p in 0..k {
                    for (c, j) in cols.clone().enumerate() {
                        assert_eq!(panel[p * cols.len() + c], b[p * n + j]);
                    }
                }
            }
        }
    }

    #[test]
    fn panel_walk_matches_the_unpacked_kernels_bitwise() {
        for (rows, k, n) in [(1, 5, 3), (3, 0, 17), (4, 9, 16), (7, 33, 15), (9, 64, 40)] {
            let a = sample(rows * k, 5);
            let b = sample(k * n, 6);
            let mut buf = Vec::new();
            let panels = Panels::pack(&b, k, n, &mut buf);
            let mut got = vec![f32::NAN; rows * n];
            panels.mul_rows(|r| &a[r * k..(r + 1) * k], &mut got);
            let mut unpacked = vec![f32::NAN; rows * n];
            Panels::row_major(&b, k, n).mul_rows(|r| &a[r * k..(r + 1) * k], &mut unpacked);
            let mut want = vec![f32::NAN; rows * n];
            for (r, out) in want.chunks_exact_mut(n).enumerate() {
                simd::mm1(&a[r * k..(r + 1) * k], &b, n, out);
            }
            assert_eq!(got, want, "rows={rows} k={k} n={n}");
            assert_eq!(unpacked, want, "row-major rows={rows} k={k} n={n}");
        }
    }
}
