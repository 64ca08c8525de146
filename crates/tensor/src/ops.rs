//! Dense kernels: matrix products, broadcasts, activations, statistics.
//!
//! The matmul family is data-parallel over output rows via [`mesorasi_par`]:
//! every output row is produced entirely by one chunk with a fixed
//! accumulation order, so results are bit-identical at every thread count
//! (and the whole layer degrades to the plain sequential loop at an
//! effective thread count of 1 or for small shapes).
//!
//! # The fast tier and the [`naive`] reference
//!
//! The three matmul variants run through register-tiled micro-kernels
//! built on [`crate::simd`] (AVX2 behind runtime detection,
//! auto-vectorizable block-accumulator scalar otherwise); [`matmul_into`]
//! also packs `B` panel-major ([`crate::panel`]) so large products stay
//! cache-blocked. The pre-tier kernels are preserved verbatim in
//! [`naive`]: they are the semantics reference the property tests compare
//! against, and the `"naive"` backend the bench harness records so every
//! `BENCH_*.json` carries the measured speedup.
//!
//! Fast tier and reference are **bit-identical for finite inputs**: every
//! output element accumulates its products in ascending-`p` order in both
//! (tiling reorders only *which rows and columns* are resident in
//! registers and cache, never the per-element chain), and the vector lanes
//! perform the same one-mul-one-add per element as the scalar loop (no
//! FMA). The only textual difference is the reference's skip of zero `A`
//! elements in [`matmul_into`] and [`matmul_at_b_into`], which here adds
//! `±0.0` products instead — an IEEE-754 identity on every finite sum (a
//! running sum that starts at `+0.0` can never become `-0.0`:
//! `+0.0 + ±0.0 == +0.0` and exact cancellation rounds to `+0.0`, so
//! `x + ±0.0 == x` bitwise throughout the chain).

use crate::panel::Panels;
use crate::{simd, Matrix};
use mesorasi_par as par;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// `A · B` for `A: m×k`, `B: k×n`, parallel over output rows.
///
/// # Panics
///
/// Panics when the inner dimensions disagree.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(0, 0);
    matmul_into(a, b, &mut out);
    out
}

/// [`matmul`] writing into a caller-owned buffer (reshaped, fully
/// overwritten; no allocation once the buffer's capacity suffices).
///
/// Register-tiled: output rows go four at a time through [`simd::mm4`],
/// which holds a 4-row × 16-column output tile in registers for the whole
/// `p` walk — each `B` row segment is loaded once per four output rows,
/// and each output element is written exactly once (the naive kernel
/// re-reads and re-writes the output row on every `p` step, which is what
/// makes it memory-bound).
///
/// Cache blocking: from 16 output rows up (`PACK_MIN_ROWS`), `B` is first
/// packed panel-major ([`Panels`]: 16-column panels, each a contiguous
/// `k × 16` block) into a buffer owned by the calling thread. Each
/// parallel row chunk then walks row blocks of about 128 KiB of `A`, and
/// within a block panel by panel, every quad of the block against one
/// panel ([`Panels::mul_rows`]). A panel is read from cache by all the
/// quads of a block, and `B` is streamed once per row block instead of
/// once per quad. Smaller products walk row-major `B` in place as a single
/// panel ([`Panels::row_major`]: each quad over all `n` columns), where
/// copying `B` would cost more than it saves. Per output element the
/// products accumulate in ascending-`p` order either way, so the result
/// is bit-identical to
/// [`naive::matmul_into`] for finite inputs (see the module docs; the
/// reference's sparse zero-skip becomes `±0.0` additions here).
///
/// # Panics
///
/// Panics when the inner dimensions disagree.
pub fn matmul_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(a.cols(), b.rows(), "matmul shape mismatch: {:?} × {:?}", a.shape(), b.shape());
    let (m, k) = a.shape();
    let n = b.cols();
    out.reset_shape(m, n);
    if n == 0 {
        return;
    }
    let row_chunk = par::chunk_len(m, 2 * k * n);
    let block_rows = (BLOCK_A_FLOATS / k.max(1)).max(4) / 4 * 4;
    let mut walk = |panels: Panels<'_>| {
        par::par_chunks_mut(out.as_mut_slice(), row_chunk * n, |ci, chunk| {
            let first = ci * row_chunk;
            for (bi, block) in chunk.chunks_mut(block_rows * n).enumerate() {
                let block_first = first + bi * block_rows;
                panels.mul_rows(|r| a.row(block_first + r), block);
            }
        });
    };
    if m < PACK_MIN_ROWS {
        walk(Panels::row_major(b.as_slice(), k, n));
    } else {
        with_packed_b(b, walk);
    }
}

/// Row count from which [`matmul_into`] packs `B` panel-major. Below it
/// (batch-1 and micro-batched heads) the one-off copy of `B` costs more
/// than the cache reuse gains.
const PACK_MIN_ROWS: usize = 16;

/// `A` elements per row block of the packed walk: 128 KiB of `f32`, so a
/// block stays in L2 while every panel of `B` passes over it.
const BLOCK_A_FLOATS: usize = 32 * 1024;

/// Process-wide heap bytes retained by the per-thread pack buffers.
static PACK_BYTES: AtomicUsize = AtomicUsize::new(0);

/// One thread's pack buffer: it only grows, and its capacity is counted
/// in [`PACK_BYTES`] until the thread exits.
#[derive(Default)]
struct PackBuffer(Vec<f32>);

impl Drop for PackBuffer {
    fn drop(&mut self) {
        PACK_BYTES.fetch_sub(self.0.capacity() * std::mem::size_of::<f32>(), Ordering::Relaxed);
    }
}

thread_local! {
    static PACK_BUFFER: Cell<PackBuffer> = Cell::new(PackBuffer::default());
}

/// Runs `f` on `b` packed panel-major into the calling thread's pack
/// buffer, so concurrent callers (one per session or server dispatcher)
/// never wait on each other and a warm caller never allocates. The buffer
/// is taken out of its slot for the call, so a nested call on the same
/// thread gets a fresh one instead of a conflicting borrow.
fn with_packed_b(b: &Matrix, f: impl FnOnce(Panels<'_>)) {
    let mut buf = PACK_BUFFER.with(Cell::take);
    let before = buf.0.capacity();
    buf.0.clear();
    buf.0.reserve(b.rows() * b.cols());
    // Counted before `f` runs, so an unwind through `f` drops exactly
    // what was counted.
    PACK_BYTES
        .fetch_add((buf.0.capacity() - before) * std::mem::size_of::<f32>(), Ordering::Relaxed);
    f(Panels::pack(b.as_slice(), b.rows(), b.cols(), &mut buf.0));
    PACK_BUFFER.with(|slot| slot.set(buf));
}

/// Heap bytes retained by [`matmul_into`]'s pack buffers, summed over the
/// process's live threads (capacity, not length).
pub fn pack_scratch_bytes() -> usize {
    PACK_BYTES.load(Ordering::Relaxed)
}

/// `Aᵀ · B` for `A: k×m`, `B: k×n` — the weight-gradient product of a
/// linear layer (`dW = Xᵀ · dY`), computed without materializing `Aᵀ`.
/// Parallel over output-row chunks.
///
/// # Panics
///
/// Panics when the row counts disagree.
pub fn matmul_at_b(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(0, 0);
    matmul_at_b_into(a, b, &mut out);
    out
}

/// [`matmul_at_b`] writing into a caller-owned buffer.
///
/// Register-tiled like [`matmul_into`]: output rows go four at a time
/// through [`simd::mm4t`], which is [`simd::mm4`] with a strided
/// coefficient walk — output row `i` is column `i` of `A`, so the
/// coefficient for step `p` sits at `a[p·m + i]` and four adjacent
/// columns share every load of a `B` row while the 4 × 16 output tile
/// stays in registers. Each output element accumulates over `p` ascending,
/// so the result is bit-identical to [`naive::matmul_at_b_into`] for
/// finite inputs: the reference's sparse zero-skip (gradients behind a
/// ReLU are mostly zeros) becomes `±0.0` additions here, an IEEE-754
/// no-op on every finite running sum (see the module docs).
///
/// # Panics
///
/// Panics when the row counts disagree.
pub fn matmul_at_b_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(
        a.rows(),
        b.rows(),
        "matmul_at_b shape mismatch: {:?}ᵀ × {:?}",
        a.shape(),
        b.shape()
    );
    let (k, m) = a.shape();
    let n = b.cols();
    out.reset_shape(m, n);
    if n == 0 {
        return;
    }
    let row_chunk = par::chunk_len(m, 2 * k * n);
    par::par_chunks_mut(out.as_mut_slice(), row_chunk * n, |ci, chunk| {
        let first = ci * row_chunk;
        let rows_here = chunk.len() / n;
        let mut ri = 0;
        while ri + 4 <= rows_here {
            let quad = &mut chunk[ri * n..(ri + 4) * n];
            let (r0, rest) = quad.split_at_mut(n);
            let (r1, rest) = rest.split_at_mut(n);
            let (r2, r3) = rest.split_at_mut(n);
            simd::mm4t(a.as_slice(), m, first + ri, k, b.as_slice(), n, [r0, r1, r2, r3]);
            ri += 4;
        }
        while ri < rows_here {
            simd::mm1t(
                a.as_slice(),
                m,
                first + ri,
                k,
                b.as_slice(),
                n,
                &mut chunk[ri * n..(ri + 1) * n],
            );
            ri += 1;
        }
    });
}

/// `A · Bᵀ` for `A: m×k`, `B: n×k` — the input-gradient product of a linear
/// layer (`dX = dY · Wᵀ`), computed without materializing `Bᵀ`.
///
/// # Panics
///
/// Panics when the column counts disagree.
pub fn matmul_a_bt(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(0, 0);
    matmul_a_bt_into(a, b, &mut out);
    out
}

/// [`matmul_a_bt`] writing into a caller-owned buffer.
///
/// Register-tiled over 4 × 4 *output blocks*: sixteen scalar accumulators
/// live in registers while the block walks `p`, so each load of an
/// `A`-row element feeds four dot products and each load of a `B`-row
/// element feeds the other four — 8 loads per 16 multiply-adds, versus
/// 5 per 4 in a plain column-unrolled row loop, with enough independent
/// FP-add chains to hide the add latency. Every element still keeps a
/// single accumulator walked in ascending `p`, which is why this kernel
/// has **no AVX2 lane-split path**: a dot product's accumulation chain is
/// sequential over `p`, and splitting it across vector lanes would
/// re-associate the sum and break bit-identity with
/// [`naive::matmul_a_bt_into`] (the tiling here reorders only which rows
/// and columns are register-resident, never any per-element chain).
///
/// # Panics
///
/// Panics when the column counts disagree.
pub fn matmul_a_bt_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_a_bt shape mismatch: {:?} × {:?}ᵀ",
        a.shape(),
        b.shape()
    );
    let (m, k) = a.shape();
    let n = b.rows();
    out.reset_shape(m, n);
    if n == 0 {
        return;
    }
    let row_chunk = par::chunk_len(m, 2 * k * n);
    par::par_chunks_mut(out.as_mut_slice(), row_chunk * n, |ci, chunk| {
        let first = ci * row_chunk;
        let rows_here = chunk.len() / n;
        let mut ri = 0;
        while ri + 4 <= rows_here {
            let quad = &mut chunk[ri * n..(ri + 4) * n];
            let (r0, rest) = quad.split_at_mut(n);
            let (r1, rest) = rest.split_at_mut(n);
            let (r2, r3) = rest.split_at_mut(n);
            let a_rows = [
                a.row(first + ri),
                a.row(first + ri + 1),
                a.row(first + ri + 2),
                a.row(first + ri + 3),
            ];
            dot_rows_bt(a_rows, b, [r0, r1, r2, r3]);
            ri += 4;
        }
        while ri < rows_here {
            dot_row_bt(a.row(first + ri), b, &mut chunk[ri * n..(ri + 1) * n]);
            ri += 1;
        }
    });
}

/// The 4 × 4 output block of [`matmul_a_bt_into`]: `out[r][j+c]` holds the
/// dot product of `a_rows[r]` with `B` row `j+c`, all sixteen accumulated
/// together in ascending `p`.
fn dot_rows_bt(a_rows: [&[f32]; 4], b: &Matrix, mut out: [&mut [f32]; 4]) {
    let n = b.rows();
    let k = a_rows[0].len();
    let n4 = n - n % 4;
    let mut j = 0;
    while j < n4 {
        let bq = [b.row(j), b.row(j + 1), b.row(j + 2), b.row(j + 3)];
        let mut acc = [[0.0f32; 4]; 4];
        for p in 0..k {
            let xs = [a_rows[0][p], a_rows[1][p], a_rows[2][p], a_rows[3][p]];
            let ys = [bq[0][p], bq[1][p], bq[2][p], bq[3][p]];
            for (acc_r, &x) in acc.iter_mut().zip(&xs) {
                for (s, &y) in acc_r.iter_mut().zip(&ys) {
                    *s += x * y;
                }
            }
        }
        for (or, acc_r) in out.iter_mut().zip(&acc) {
            or[j..j + 4].copy_from_slice(acc_r);
        }
        j += 4;
    }
    for jj in n4..n {
        let b_row = b.row(jj);
        let mut acc = [0.0f32; 4];
        for (p, &y) in b_row.iter().enumerate() {
            for (s, ar) in acc.iter_mut().zip(&a_rows) {
                *s += ar[p] * y;
            }
        }
        for (or, &s) in out.iter_mut().zip(&acc) {
            or[jj] = s;
        }
    }
}

/// The row tail of [`matmul_a_bt_into`]: one output row, four independent
/// column dot products sharing each `A`-row load, each walked in
/// ascending `p`.
fn dot_row_bt(a_row: &[f32], b: &Matrix, out_row: &mut [f32]) {
    let n = b.rows();
    let k = a_row.len();
    let n4 = n - n % 4;
    let mut j = 0;
    while j < n4 {
        let (b0, b1, b2, b3) = (b.row(j), b.row(j + 1), b.row(j + 2), b.row(j + 3));
        let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        for p in 0..k {
            let x = a_row[p];
            s0 += x * b0[p];
            s1 += x * b1[p];
            s2 += x * b2[p];
            s3 += x * b3[p];
        }
        out_row[j] = s0;
        out_row[j + 1] = s1;
        out_row[j + 2] = s2;
        out_row[j + 3] = s3;
        j += 4;
    }
    for (j, o) in out_row.iter_mut().enumerate().skip(n4) {
        let b_row = b.row(j);
        let mut acc = 0.0;
        for (&x, &y) in a_row.iter().zip(b_row) {
            acc += x * y;
        }
        *o = acc;
    }
}

/// Elementwise `a + b`.
///
/// # Panics
///
/// Panics when shapes differ.
pub fn add(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(0, 0);
    add_into(a, b, &mut out);
    out
}

/// [`add`] writing into a caller-owned buffer.
///
/// # Panics
///
/// Panics when shapes differ.
pub fn add_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(a.shape(), b.shape(), "add shape mismatch");
    out.reset_shape(a.rows(), a.cols());
    for ((o, &x), &y) in out.as_mut_slice().iter_mut().zip(a.as_slice()).zip(b.as_slice()) {
        *o = x + y;
    }
}

/// Elementwise `a - b`.
///
/// # Panics
///
/// Panics when shapes differ.
pub fn sub(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(0, 0);
    sub_into(a, b, &mut out);
    out
}

/// [`sub`] writing into a caller-owned buffer.
///
/// # Panics
///
/// Panics when shapes differ.
pub fn sub_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(a.shape(), b.shape(), "sub shape mismatch");
    out.reset_shape(a.rows(), a.cols());
    for ((o, &x), &y) in out.as_mut_slice().iter_mut().zip(a.as_slice()).zip(b.as_slice()) {
        *o = x - y;
    }
}

/// Elementwise (Hadamard) product.
///
/// # Panics
///
/// Panics when shapes differ.
pub fn hadamard(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(0, 0);
    hadamard_into(a, b, &mut out);
    out
}

/// [`hadamard`] writing into a caller-owned buffer.
///
/// # Panics
///
/// Panics when shapes differ.
pub fn hadamard_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(a.shape(), b.shape(), "hadamard shape mismatch");
    out.reset_shape(a.rows(), a.cols());
    for ((o, &x), &y) in out.as_mut_slice().iter_mut().zip(a.as_slice()).zip(b.as_slice()) {
        *o = x * y;
    }
}

/// `a * s` for a scalar `s`.
pub fn scale(a: &Matrix, s: f32) -> Matrix {
    a.map(|v| v * s)
}

/// [`scale`] writing into a caller-owned buffer.
pub fn scale_into(a: &Matrix, s: f32, out: &mut Matrix) {
    out.reset_shape(a.rows(), a.cols());
    for (o, &x) in out.as_mut_slice().iter_mut().zip(a.as_slice()) {
        *o = x * s;
    }
}

/// Adds the `1 × cols` row vector `bias` to every row of `a` — the bias
/// broadcast of a linear layer.
///
/// # Panics
///
/// Panics when `bias` is not a single row of matching width.
pub fn add_bias_row(a: &Matrix, bias: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(0, 0);
    add_bias_row_into(a, bias, &mut out);
    out
}

/// [`add_bias_row`] writing into a caller-owned buffer.
///
/// # Panics
///
/// Panics when `bias` is not a single row of matching width.
pub fn add_bias_row_into(a: &Matrix, bias: &Matrix, out: &mut Matrix) {
    assert_eq!(bias.rows(), 1, "bias must be a row vector");
    assert_eq!(bias.cols(), a.cols(), "bias width must match");
    out.reset_shape(a.rows(), a.cols());
    let b = bias.row(0);
    for r in 0..a.rows() {
        for ((o, &x), &v) in out.row_mut(r).iter_mut().zip(a.row(r)).zip(b) {
            *o = x + v;
        }
    }
}

/// ReLU: `max(v, 0)` elementwise — the non-linearity φ whose presence makes
/// delayed-aggregation *approximate* (paper Equ. 3).
pub fn relu(a: &Matrix) -> Matrix {
    a.map(|v| v.max(0.0))
}

/// [`relu`] writing into a caller-owned buffer.
pub fn relu_into(a: &Matrix, out: &mut Matrix) {
    out.reset_shape(a.rows(), a.cols());
    for (o, &x) in out.as_mut_slice().iter_mut().zip(a.as_slice()) {
        *o = x.max(0.0);
    }
}

/// The ReLU gradient mask: 1 where `pre_activation > 0`, else 0.
pub fn relu_mask(pre_activation: &Matrix) -> Matrix {
    pre_activation.map(|v| if v > 0.0 { 1.0 } else { 0.0 })
}

/// Column-wise sum of `a` as a `1 × cols` row — the bias gradient.
pub fn sum_rows(a: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(1, a.cols());
    for r in 0..a.rows() {
        for (o, &v) in out.row_mut(0).iter_mut().zip(a.row(r)) {
            *o += v;
        }
    }
    out
}

/// Per-column mean and (population) variance — batch-normalization
/// statistics. Returns `(mean, var)` as `1 × cols` rows.
///
/// # Panics
///
/// Panics on an empty matrix.
pub fn column_stats(a: &Matrix) -> (Matrix, Matrix) {
    assert!(a.rows() > 0, "column stats of empty matrix");
    let n = a.rows() as f32;
    let mean = scale(&sum_rows(a), 1.0 / n);
    let mut var = Matrix::zeros(1, a.cols());
    for r in 0..a.rows() {
        for c in 0..a.cols() {
            let d = a[(r, c)] - mean[(0, c)];
            var[(0, c)] += d * d;
        }
    }
    var.map_inplace(|v| v / n);
    (mean, var)
}

/// Per-column standardization `(x − mean) · inv_std` with population
/// statistics, `inv_std = 1/√(var + 1e-5)` — the shared forward kernel
/// behind `Graph::standardize` and the planned executor (both must produce
/// bit-identical values, so the arithmetic lives in exactly one place).
///
/// `stats` is a reusable scratch buffer; on return it holds
/// `[mean₀.. mean_{c}, inv_std₀.. inv_std_{c}]` so the autograd tape can
/// keep `inv_std` for its backward pass.
///
/// # Panics
///
/// Panics on an empty matrix.
pub fn standardize_into(a: &Matrix, stats: &mut Vec<f32>, out: &mut Matrix) {
    assert!(a.rows() > 0, "column stats of empty matrix");
    let (rows, cols) = a.shape();
    let n = rows as f32;
    stats.clear();
    stats.resize(2 * cols, 0.0);
    let (mean, inv) = stats.split_at_mut(cols);
    // Same accumulation order as `sum_rows` + `scale(_, 1/n)`.
    for r in 0..rows {
        for (m, &v) in mean.iter_mut().zip(a.row(r)) {
            *m += v;
        }
    }
    let s = 1.0 / n;
    for m in mean.iter_mut() {
        *m *= s;
    }
    // Same accumulation order (and final division) as `column_stats`' var.
    for r in 0..rows {
        for (c, &v) in a.row(r).iter().enumerate() {
            let d = v - mean[c];
            inv[c] += d * d;
        }
    }
    for v in inv.iter_mut() {
        *v = 1.0 / (*v / n + 1e-5).sqrt();
    }
    out.reset_shape(rows, cols);
    for r in 0..rows {
        for (c, (o, &v)) in out.row_mut(r).iter_mut().zip(a.row(r)).enumerate() {
            *o = (v - mean[c]) * inv[c];
        }
    }
}

/// Row-wise softmax (numerically stable).
pub fn softmax_rows(a: &Matrix) -> Matrix {
    let mut out = a.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
    out
}

/// Index of the maximum element in each row (ties: first).
pub fn argmax_rows(a: &Matrix) -> Vec<usize> {
    (0..a.rows())
        .map(|r| {
            let row = a.row(r);
            let mut best = 0;
            for (i, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = i;
                }
            }
            best
        })
        .collect()
}

/// Column-wise max over all rows, as a `1 × cols` row, with the arg rows —
/// the global max-pool closing PointNet-style networks.
///
/// # Panics
///
/// Panics on an empty matrix.
pub fn max_pool_columns(a: &Matrix) -> (Matrix, Vec<usize>) {
    assert!(a.rows() > 0, "max pool of empty matrix");
    let mut out = Matrix::from_vec(1, a.cols(), a.row(0).to_vec());
    let mut arg = vec![0usize; a.cols()];
    for r in 1..a.rows() {
        for (c, &v) in a.row(r).iter().enumerate() {
            if v > out[(0, c)] {
                out[(0, c)] = v;
                arg[c] = r;
            }
        }
    }
    (out, arg)
}

/// The pre-tier matmul kernels, preserved verbatim: plain i-k-j AXPY loops
/// with a sparse zero-skip, parallel over the same fixed row chunks as the
/// fast tier. They are the semantics reference the property suite compares
/// the blocked/vectorized kernels against (bit-identical for finite
/// inputs), and the `"naive"` backend of the bench harness, so every
/// committed `BENCH_*.json` carries the kernel tier's measured speedup.
pub mod naive {
    use super::par;
    use crate::Matrix;

    /// Reference `A · B` — see [`super::matmul_into`] for the fast tier.
    ///
    /// # Panics
    ///
    /// Panics when the inner dimensions disagree.
    pub fn matmul_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
        assert_eq!(a.cols(), b.rows(), "matmul shape mismatch: {:?} × {:?}", a.shape(), b.shape());
        let (m, k) = a.shape();
        let n = b.cols();
        out.reset_shape(m, n);
        if n == 0 {
            return;
        }
        out.as_mut_slice().fill(0.0);
        let row_chunk = par::chunk_len(m, 2 * k * n);
        par::par_chunks_mut(out.as_mut_slice(), row_chunk * n, |ci, chunk| {
            for (ri, out_row) in chunk.chunks_mut(n).enumerate() {
                let a_row = a.row(ci * row_chunk + ri);
                for (p, &a_ip) in a_row.iter().enumerate().take(k) {
                    if a_ip == 0.0 {
                        continue;
                    }
                    let b_row = b.row(p);
                    for (o, &b_pj) in out_row.iter_mut().zip(b_row) {
                        *o += a_ip * b_pj;
                    }
                }
            }
        });
    }

    /// Reference `Aᵀ · B` — see [`super::matmul_at_b_into`].
    ///
    /// # Panics
    ///
    /// Panics when the row counts disagree.
    pub fn matmul_at_b_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
        assert_eq!(
            a.rows(),
            b.rows(),
            "matmul_at_b shape mismatch: {:?}ᵀ × {:?}",
            a.shape(),
            b.shape()
        );
        let (k, m) = a.shape();
        let n = b.cols();
        out.reset_shape(m, n);
        if n == 0 {
            return;
        }
        out.as_mut_slice().fill(0.0);
        let row_chunk = par::chunk_len(m, 2 * k * n);
        par::par_chunks_mut(out.as_mut_slice(), row_chunk * n, |ci, chunk| {
            let first = ci * row_chunk;
            let rows_here = chunk.len() / n;
            for p in 0..k {
                let a_cols = &a.row(p)[first..first + rows_here];
                let b_row = b.row(p);
                for (ri, &a_pi) in a_cols.iter().enumerate() {
                    if a_pi == 0.0 {
                        continue;
                    }
                    let out_row = &mut chunk[ri * n..(ri + 1) * n];
                    for (o, &b_pj) in out_row.iter_mut().zip(b_row) {
                        *o += a_pi * b_pj;
                    }
                }
            }
        });
    }

    /// Reference `A · Bᵀ` — see [`super::matmul_a_bt_into`].
    ///
    /// # Panics
    ///
    /// Panics when the column counts disagree.
    pub fn matmul_a_bt_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
        assert_eq!(
            a.cols(),
            b.cols(),
            "matmul_a_bt shape mismatch: {:?} × {:?}ᵀ",
            a.shape(),
            b.shape()
        );
        let (m, k) = a.shape();
        let n = b.rows();
        out.reset_shape(m, n);
        if n == 0 {
            return;
        }
        let row_chunk = par::chunk_len(m, 2 * k * n);
        par::par_chunks_mut(out.as_mut_slice(), row_chunk * n, |ci, chunk| {
            for (ri, out_row) in chunk.chunks_mut(n).enumerate() {
                let a_row = a.row(ci * row_chunk + ri);
                for (j, o) in out_row.iter_mut().enumerate().take(n) {
                    let b_row = b.row(j);
                    let mut acc = 0.0;
                    for (&x, &y) in a_row.iter().zip(b_row) {
                        acc += x * y;
                    }
                    *o = acc;
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx_eq(a: &Matrix, b: &Matrix, tol: f32) -> bool {
        a.shape() == b.shape()
            && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| (x - y).abs() <= tol)
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = matmul(&a, &b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_fn(3, 4, |r, c| (r + c) as f32);
        assert_eq!(matmul(&a, &Matrix::identity(4)), a);
        assert_eq!(matmul(&Matrix::identity(3), &a), a);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matmul_bad_shapes_panic() {
        let _ = matmul(&Matrix::zeros(2, 3), &Matrix::zeros(2, 3));
    }

    #[test]
    fn transpose_variants_match_explicit_transpose() {
        let a = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32 * 0.5);
        let b = Matrix::from_fn(4, 5, |r, c| (r + 2 * c) as f32 * 0.25);
        assert!(approx_eq(&matmul_at_b(&a, &b), &matmul(&a.transposed(), &b), 1e-5));
        let c = Matrix::from_fn(2, 3, |r, c| (r * 7 + c) as f32);
        let d = Matrix::from_fn(5, 3, |r, c| (r + c) as f32);
        assert!(approx_eq(&matmul_a_bt(&c, &d), &matmul(&c, &d.transposed()), 1e-5));
    }

    #[test]
    fn matmul_is_distributive_over_sub() {
        // The algebraic heart of delayed-aggregation: (A - B)·W = A·W - B·W.
        let a = Matrix::from_fn(3, 3, |r, c| (r * c) as f32 + 1.0);
        let b = Matrix::from_fn(3, 3, |r, c| (r + c) as f32);
        let w = Matrix::from_fn(3, 2, |r, c| (r as f32 - c as f32) * 0.5);
        let lhs = matmul(&sub(&a, &b), &w);
        let rhs = sub(&matmul(&a, &w), &matmul(&b, &w));
        assert!(approx_eq(&lhs, &rhs, 1e-5));
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[&[1.0, -2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(add(&a, &b), Matrix::from_rows(&[&[4.0, 2.0]]));
        assert_eq!(sub(&a, &b), Matrix::from_rows(&[&[-2.0, -6.0]]));
        assert_eq!(hadamard(&a, &b), Matrix::from_rows(&[&[3.0, -8.0]]));
        assert_eq!(scale(&a, 2.0), Matrix::from_rows(&[&[2.0, -4.0]]));
    }

    #[test]
    fn bias_broadcast() {
        let a = Matrix::zeros(3, 2);
        let b = Matrix::from_rows(&[&[1.0, 2.0]]);
        let out = add_bias_row(&a, &b);
        for r in 0..3 {
            assert_eq!(out.row(r), &[1.0, 2.0]);
        }
    }

    #[test]
    fn relu_and_mask() {
        let a = Matrix::from_rows(&[&[-1.0, 0.0, 2.0]]);
        assert_eq!(relu(&a), Matrix::from_rows(&[&[0.0, 0.0, 2.0]]));
        assert_eq!(relu_mask(&a), Matrix::from_rows(&[&[0.0, 0.0, 1.0]]));
    }

    #[test]
    fn column_stats_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 10.0], &[3.0, 10.0]]);
        let (mean, var) = column_stats(&a);
        assert_eq!(mean, Matrix::from_rows(&[&[2.0, 10.0]]));
        assert_eq!(var, Matrix::from_rows(&[&[1.0, 0.0]]));
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[1000.0, 1000.0, 1000.0]]);
        let s = softmax_rows(&a);
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        assert!(s[(0, 2)] > s[(0, 1)] && s[(0, 1)] > s[(0, 0)]);
        assert!((s[(1, 0)] - 1.0 / 3.0).abs() < 1e-5, "large inputs stay stable");
    }

    #[test]
    fn argmax_and_max_pool() {
        let a = Matrix::from_rows(&[&[1.0, 9.0], &[5.0, 2.0]]);
        assert_eq!(argmax_rows(&a), vec![1, 0]);
        let (pooled, arg) = max_pool_columns(&a);
        assert_eq!(pooled, Matrix::from_rows(&[&[5.0, 9.0]]));
        assert_eq!(arg, vec![1, 0]);
    }

    #[test]
    fn sum_rows_matches_manual() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(sum_rows(&a), Matrix::from_rows(&[&[4.0, 6.0]]));
    }

    /// Deterministic pseudo-random matrix with a configurable fraction of
    /// exact zeros (the fast tier and the reference treat zeros through
    /// different code paths — both must stay value-identical).
    fn noisy(rows: usize, cols: usize, seed: u32, zero_every: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            let h = (r as u32)
                .wrapping_mul(2654435761)
                .wrapping_add((c as u32).wrapping_mul(40503))
                .wrapping_add(seed);
            if zero_every > 0 && (h as usize).is_multiple_of(zero_every) {
                0.0
            } else {
                ((h >> 8) as f32 / 1e5).sin() * 3.0
            }
        })
    }

    /// Asserts `matmul_into` equals `naive::matmul_into` bit for bit at 1
    /// and 2 pool threads.
    fn assert_matmul_matches_naive(a: &Matrix, b: &Matrix, what: &str) {
        let mut reference = Matrix::zeros(0, 0);
        naive::matmul_into(a, b, &mut reference);
        for threads in [1, 2] {
            let mut fast = Matrix::zeros(0, 0);
            par::with_threads(threads, || matmul_into(a, b, &mut fast));
            assert!(fast == reference, "{what} at {threads} threads");
        }
    }

    #[test]
    fn blocked_matmul_is_bit_identical_to_naive() {
        // Shapes straddle every boundary of the two walks: m across the
        // pack rule (`PACK_MIN_ROWS` = 16) and the quad tails, n across the
        // 16-column panels and their tails (n mod 16 of 15, 0, 1, 8), k large
        // enough for several row blocks per chunk (k = 512: 64-row blocks),
        // and degenerate edges (K=0, 1×N, empty).
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (1, 7, 9),
            (2, 64, 8),
            (3, 65, 17),
            (5, 0, 4),
            (0, 3, 3),
            (7, 130, 33),
            (16, 128, 128),
            (9, 200, 1),
            (15, 33, 15),
            (16, 0, 17),
            (16, 64, 16),
            (17, 40, 17),
            (33, 9, 1000),
            (15, 512, 40),
            (16, 512, 15),
            (17, 512, 16),
            (33, 512, 17),
            (150, 512, 24),
        ] {
            for zero_every in [0, 2, 3] {
                let a = noisy(m, k, 11, zero_every);
                let b = noisy(k, n, 23, 0);
                assert_matmul_matches_naive(
                    &a,
                    &b,
                    &format!("matmul {m}×{k}×{n} zeros 1/{zero_every}"),
                );
            }
        }
    }

    #[test]
    #[ignore = "paper-scale shapes; run in release with --ignored"]
    fn paper_scale_matmul_is_bit_identical_to_naive() {
        // DGCNN's 512→1024 fuse layer and PointNet++ SA3's 512→1024 MLP
        // layer, the two products whose B does not fit in L2.
        for (m, k, n) in [(1024usize, 512usize, 1024usize), (128, 512, 1024)] {
            let a = noisy(m, k, 71, 5);
            let b = noisy(k, n, 73, 0);
            assert_matmul_matches_naive(&a, &b, &format!("matmul {m}×{k}×{n}"));
        }
    }

    #[test]
    fn pack_buffer_is_counted_and_reused() {
        let a = noisy(PACK_MIN_ROWS, 24, 1, 0);
        let b = noisy(24, 40, 2, 0);
        let mut out = Matrix::zeros(0, 0);
        par::with_threads(1, || matmul_into(&a, &b, &mut out));
        let this_thread = || {
            PACK_BUFFER.with(|slot| {
                let buf = slot.take();
                let bytes = buf.0.capacity() * std::mem::size_of::<f32>();
                slot.set(buf);
                bytes
            })
        };
        let after_first = this_thread();
        assert!(after_first >= 24 * 40 * std::mem::size_of::<f32>(), "B was packed");
        assert!(pack_scratch_bytes() >= after_first, "this thread's buffer is counted");
        par::with_threads(1, || matmul_into(&a, &b, &mut out));
        let again = this_thread();
        assert_eq!(again, after_first, "a warm call reuses the buffer");
    }

    #[test]
    fn at_b_and_a_bt_are_bit_identical_to_naive() {
        // Shapes straddle the register-tile boundaries: m below/at/above a
        // quad (unpaired row tails), n across the 16- and 8-lane column
        // blocks of `mm4t`, and zero fractions that exercise the
        // reference's sparse skip against the tier's ±0.0 additions.
        for &(k, m, n) in &[
            (1usize, 1usize, 1usize),
            (7, 3, 9),
            (64, 5, 12),
            (130, 33, 2),
            (64, 9, 40),
            (30, 8, 33),
            (13, 17, 19),
        ] {
            for zero_every in [0, 2, 3] {
                let a = noisy(k, m, 31, zero_every);
                let b = noisy(k, n, 41, 0);
                let mut fast = Matrix::zeros(0, 0);
                let mut reference = Matrix::zeros(0, 0);
                matmul_at_b_into(&a, &b, &mut fast);
                naive::matmul_at_b_into(&a, &b, &mut reference);
                assert_eq!(fast, reference, "at_b {k}ᵀ{m}×{n} zeros 1/{zero_every}");
            }
        }
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 9, 7),
            (5, 12, 64),
            (33, 2, 130),
            (9, 64, 40),
            (12, 7, 35),
        ] {
            let a = noisy(m, k, 51, 0);
            let b = noisy(n, k, 61, 4);
            let mut fast = Matrix::zeros(0, 0);
            let mut reference = Matrix::zeros(0, 0);
            matmul_a_bt_into(&a, &b, &mut fast);
            naive::matmul_a_bt_into(&a, &b, &mut reference);
            assert_eq!(fast, reference, "a_bt {m}×{k}×{n}ᵀ");
        }
    }
}
