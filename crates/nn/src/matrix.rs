//! Dense row-major matrices.
//!
//! Every op is in place: the `*_into` / `*_acc` kernels the training and
//! solver hot loops run on write into caller-owned matrices, and all the
//! products are built on one dispatching core (`accumulate_matmul`):
//!
//! * **Wide outputs** (≥ `SKIP_MIN_WIDTH` columns, e.g. the 120-wide
//!   readout layers): each `A` row is compacted branchlessly into its
//!   nonzero (index, value) pairs per `KB`-sized k-block — ReLU + dropout
//!   leave most activations zero — and the compressed row is multiplied
//!   against an L1-resident slab of `B` into 64-column register tiles, then
//!   one remainder tile of `⌊rest/8⌋·8` columns (one const-generic
//!   `wide_tile`), leaving a runtime-width loop only for the last `n % 8`
//!   columns. Every product is routed through `f64::mul_add` (FMA), and each
//!   output element gets the same k-ascending `mul_add` chain whichever tile
//!   covers it.
//! * **Narrow outputs** (the 20/22-wide φ/γ message nets): a const-generic
//!   two-row register-tile kernel (`narrow_tile_matmul`) that keeps both
//!   accumulator rows in vector registers across the whole k loop.
//! * Everything else falls back to blocked dense `mul_add` loops.
//!
//! Every path reads its `A` operand in place, row-major or transposed (see
//! `Lhs`), and starts its accumulators from zero, from the output, or from
//! a broadcast bias row (see `Start`), so no caller materialises a
//! transpose or pre-fills its output. On top of the core sit
//! [`Matrix::matmul_into`] (`out = A·B`, the backward's `g·Wᵀ`), the
//! weight-gradient kernel [`Matrix::matmul_transa_acc`] (`out += Aᵀ·B`),
//! and the affine layer kernels [`Matrix::affine_into`] /
//! [`Matrix::affine_relu_into`].
//! All of them reshape their output in place with
//! [`Matrix::reshape_for_overwrite`], which never refills the elements it
//! keeps.

use std::fmt;

/// A dense row-major matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)
    }
}

impl Default for Matrix {
    /// An empty `0 × 0` matrix (no allocation) — the natural seed for the
    /// reshape-in-place kernels.
    fn default() -> Self {
        Self { rows: 0, cols: 0, data: Vec::new() }
    }
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Builds a matrix from a generator over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// A `1 × n` row vector.
    pub fn row_vector(data: Vec<f64>) -> Self {
        let cols = data.len();
        Self { rows: 1, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element capacity of the backing allocation.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Raw data slice (row-major).
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Raw mutable data slice (row-major).
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reshapes in place to `rows × cols` and zeroes every entry, reusing
    /// the backing allocation whenever its capacity allows.
    pub fn reshape_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Reshapes in place to `rows × cols`, truncating or extending the
    /// buffer without refilling the elements it keeps (only an extension is
    /// written, with zeros). The values are unspecified — callers must
    /// overwrite every element before reading any.
    pub fn reshape_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Copies `src` into `self`, reshaping in place (allocation-free once
    /// capacity suffices).
    pub fn copy_from(&mut self, src: &Matrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Matrix product `out = self × rhs`, reshaping `out` in place.
    ///
    /// ikj kernel with a contiguous inner axpy over `rhs` rows; zero entries
    /// of `self` skip their `rhs` row entirely (see `accumulate_matmul`).
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, rhs.rows, "matmul shape mismatch");
        out.reshape_for_overwrite(self.rows, rhs.cols);
        accumulate_matmul(
            self.lhs(),
            self.rows,
            self.cols,
            &rhs.data,
            rhs.cols,
            &mut out.data,
            Start::Zero,
        );
        out.debug_assert_finite("matmul_into output");
    }

    /// `out += selfᵀ × rhs`, accumulating into `out` (which must already be
    /// `self.cols × rhs.cols`) — the weight-gradient kernel `inputᵀ × grad`.
    ///
    /// The product core reads `self` transposed in place, so every element
    /// gets exactly the `mul_add` chain an accumulating product would give it
    /// on a materialised `selfᵀ`, without the transpose's extra pass.
    pub fn matmul_transa_acc(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, rhs.rows, "matmul_transa shape mismatch");
        assert_eq!((out.rows, out.cols), (self.cols, rhs.cols), "matmul_transa output shape");
        let lhs = Transposed { a: &self.data, m: self.cols };
        accumulate_matmul(
            lhs,
            self.cols,
            self.rows,
            &rhs.data,
            rhs.cols,
            &mut out.data,
            Start::Out,
        );
    }

    /// Fused affine layer: `out = self × w + bias` with the `1 × n` bias
    /// broadcast over rows. Reshapes `out` in place; the product's
    /// accumulators start from the bias row, so `out` is written once.
    pub fn affine_into(&self, w: &Matrix, bias: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, w.rows, "affine shape mismatch");
        assert_eq!((bias.rows, bias.cols), (1, w.cols), "affine bias shape");
        out.reshape_for_overwrite(self.rows, w.cols);
        let start = Start::Bias(&bias.data);
        accumulate_matmul(self.lhs(), self.rows, self.cols, &w.data, w.cols, &mut out.data, start);
        out.debug_assert_finite("affine_into output");
    }

    /// Fused affine + ReLU: `out = max(self × w + bias, 0)`.
    pub fn affine_relu_into(&self, w: &Matrix, bias: &Matrix, out: &mut Matrix) {
        self.affine_into(w, bias, out);
        for v in &mut out.data {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
    }

    /// Transpose into an existing matrix (reshaped in place).
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.reshape_for_overwrite(self.cols, self.rows);
        for r in 0..self.rows {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (c, &v) in row.iter().enumerate() {
                out.data[c * self.rows + r] = v;
            }
        }
    }

    /// In-place element-wise accumulate.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "add shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// Accumulates the per-column row sums into an existing `1 × cols`
    /// vector (the allocation-free bias-gradient kernel).
    pub fn sum_rows_acc(&self, out: &mut Matrix) {
        assert_eq!((out.rows, out.cols), (1, self.cols), "sum_rows output shape");
        for r in 0..self.rows {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (v, &x) in out.data.iter_mut().zip(row) {
                *v += x;
            }
        }
    }

    /// Horizontal concatenation into an existing matrix (reshaped in place).
    pub fn hcat_into(parts: &[&Matrix], out: &mut Matrix) {
        assert!(!parts.is_empty());
        let rows = parts[0].rows;
        assert!(parts.iter().all(|p| p.rows == rows), "hcat row mismatch");
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        out.reshape_for_overwrite(rows, cols);
        for r in 0..rows {
            let orow = &mut out.data[r * cols..(r + 1) * cols];
            let mut off = 0;
            for p in parts {
                orow[off..off + p.cols].copy_from_slice(&p.data[r * p.cols..(r + 1) * p.cols]);
                off += p.cols;
            }
        }
    }

    /// Extracts rows `[from, to)` (one contiguous copy).
    pub fn slice_rows(&self, from: usize, to: usize) -> Matrix {
        assert!(from <= to && to <= self.rows, "row slice out of range");
        Matrix {
            rows: to - from,
            cols: self.cols,
            data: self.data[from * self.cols..to * self.cols].to_vec(),
        }
    }

    /// This matrix as the row-major `A` operand of a product.
    #[inline]
    fn lhs(&self) -> RowMajor<'_> {
        RowMajor { a: &self.data, kd: self.cols }
    }

    /// Debug-build poison check: panics if any entry is NaN or ±∞.
    ///
    /// Wired into the compute kernels so a poisoned operand is caught at the
    /// first kernel that touches it, not pages later at the loss. Compiles to
    /// nothing in release builds; the message is formatted only on failure,
    /// so the check never allocates on the hot path.
    #[inline]
    pub fn debug_assert_finite(&self, context: &str) {
        if cfg!(debug_assertions) {
            for (i, &v) in self.data.iter().enumerate() {
                assert!(
                    v.is_finite(),
                    "{context}: non-finite value {v} at ({}, {})",
                    i / self.cols.max(1),
                    i % self.cols.max(1)
                );
            }
        }
    }
}

/// Row width from which zero-skipping beats staying branch-free: a skipped
/// pass saves `n` FMAs but costs a data-dependent branch that mispredicts on
/// random ReLU/dropout sparsity, so narrow rows lose more to stalls than
/// they save in arithmetic.
const SKIP_MIN_WIDTH: usize = 48;

/// The `A` operand of a product (`m × kd`), read in place: [`RowMajor`]
/// or [`Transposed`]. Each kernel is monomorphised per layout, so the
/// row-major path (the solver's batch-1 products) iterates plain slices.
trait Lhs: Copy {
    /// One row's entries, in ascending `k`.
    type Row: Iterator<Item = f64>;

    /// Entries `k0..k1` of row `r`.
    fn row(self, r: usize, k0: usize, k1: usize) -> Self::Row;
}

/// An `A` operand stored row-major: entry `(r, k)` is `a[r·kd + k]`.
#[derive(Clone, Copy)]
struct RowMajor<'a> {
    a: &'a [f64],
    kd: usize,
}

impl<'a> Lhs for RowMajor<'a> {
    type Row = std::iter::Copied<std::slice::Iter<'a, f64>>;

    #[inline(always)]
    fn row(self, r: usize, k0: usize, k1: usize) -> Self::Row {
        self.a[r * self.kd + k0..r * self.kd + k1].iter().copied()
    }
}

/// An `A` operand stored transposed (`kd × m`, row-major): entry `(r, k)`
/// is `a[k·m + r]` — the weight-gradient `xᵀ` without the transpose.
#[derive(Clone, Copy)]
struct Transposed<'a> {
    a: &'a [f64],
    m: usize,
}

impl<'a> Lhs for Transposed<'a> {
    type Row = std::iter::Copied<std::iter::Take<std::iter::StepBy<std::slice::Iter<'a, f64>>>>;

    #[inline(always)]
    fn row(self, r: usize, k0: usize, k1: usize) -> Self::Row {
        // With `kd == 0`, `a` is empty and row `r > 0` starts past its end.
        let from = self.a.get(k0 * self.m + r..).unwrap_or_default();
        from.iter().step_by(self.m).take(k1 - k0).copied()
    }
}

/// Where a product's accumulators start before the `a·b` terms are added.
#[derive(Clone, Copy, Debug)]
enum Start<'a> {
    /// At zero: the output is overwritten and its prior contents ignored.
    Zero,
    /// At the output's current values: the product accumulates into it.
    Out,
    /// At a `1 × n` bias row broadcast over the rows (the output's prior
    /// contents are ignored).
    Bias(&'a [f64]),
}

/// `out = start + a (m×kd) × b (k×n)` over raw row-major slices, with `a`
/// read in place as `lhs` describes and `start` as [`Start`] describes.
///
/// ikj order: the inner loop is a contiguous axpy over a `b` row
/// (element-wise, so the compiler vectorises it without reassociating
/// anything). Wide outputs take the k-blocked, nonzero-compacting path;
/// the common narrow widths get monomorphised register-tile kernels; other
/// narrow outputs take a branch-free 4-row-blocked fallback where each
/// loaded `b` row feeds four output rows.
fn accumulate_matmul(
    lhs: impl Lhs,
    m: usize,
    kd: usize,
    b: &[f64],
    n: usize,
    out: &mut [f64],
    start: Start<'_>,
) {
    // Nothing to write (and the fallback's bias rows cannot be zero-wide).
    if n == 0 {
        return;
    }
    if n >= SKIP_MIN_WIDTH {
        // Wide path. Three tricks:
        // * k is blocked so the active `b` slab (`KB × n` ≤ ~23 KB) stays
        //   L1-resident across every `a` row — unblocked, each row re-streams
        //   the whole `b` matrix (~113 KB for the readout weights) from L2,
        //   and that bandwidth, not FMA throughput, bounds the kernel.
        // * Each `a` row's nonzeros in the block are compacted branchlessly
        //   into (index, value) arrays — post-ReLU/dropout activations are
        //   mostly zeros, and a compressed loop drops that work without the
        //   data-dependent branch a skip would mispredict on.
        // * A fixed-width accumulator tile lives in SIMD registers across
        //   the block's k loop, so each output element is touched once per
        //   block instead of once per nonzero k. 64-column tiles run first,
        //   then one tile of the remaining whole 8-column groups, so every
        //   tile carries several independent FMA chains and only the last
        //   `n % 8` columns take a runtime-width loop (none of the GNN's
        //   120- and 200-wide ones: 64 + 56 and 3 × 64 + 8).
        const TILE: usize = 64;
        const GROUP: usize = 8;
        const KB: usize = 48;
        let mut idx = [0u32; KB];
        let mut vals = [0.0f64; KB];
        let mut k0 = 0;
        // One pass even when `kd == 0`, so the start is still written.
        loop {
            let kb = KB.min(kd - k0);
            // The first block starts from `start`; later ones from `out`.
            let seed = if k0 == 0 { start } else { Start::Out };
            for r in 0..m {
                let mut cnt = 0usize;
                for (k, s) in lhs.row(r, k0, k0 + kb).enumerate() {
                    idx[cnt] = (k0 + k) as u32;
                    vals[cnt] = s;
                    cnt += (s != 0.0) as usize;
                }
                if cnt == 0 && matches!(seed, Start::Out) {
                    continue;
                }
                let (nz_idx, nz_vals) = (&idx[..cnt], &vals[..cnt]);
                let orow = &mut out[r * n..(r + 1) * n];
                let mut c0 = 0;
                while c0 + TILE <= n {
                    wide_tile::<TILE>(nz_idx, nz_vals, b, n, c0, orow, seed);
                    c0 += TILE;
                }
                let groups = (n - c0) / GROUP;
                match groups {
                    1 => wide_tile::<8>(nz_idx, nz_vals, b, n, c0, orow, seed),
                    2 => wide_tile::<16>(nz_idx, nz_vals, b, n, c0, orow, seed),
                    3 => wide_tile::<24>(nz_idx, nz_vals, b, n, c0, orow, seed),
                    4 => wide_tile::<32>(nz_idx, nz_vals, b, n, c0, orow, seed),
                    5 => wide_tile::<40>(nz_idx, nz_vals, b, n, c0, orow, seed),
                    6 => wide_tile::<48>(nz_idx, nz_vals, b, n, c0, orow, seed),
                    7 => wide_tile::<56>(nz_idx, nz_vals, b, n, c0, orow, seed),
                    _ => {}
                }
                c0 += groups * GROUP;
                if c0 < n {
                    // The last `n % GROUP` columns: a runtime-width tile.
                    let w = n - c0;
                    let mut acc = [0.0f64; GROUP];
                    match seed {
                        Start::Zero => {}
                        Start::Out => acc[..w].copy_from_slice(&orow[c0..]),
                        Start::Bias(bias) => acc[..w].copy_from_slice(&bias[c0..]),
                    }
                    for (&k, &s) in nz_idx.iter().zip(nz_vals) {
                        let brow = &b[k as usize * n + c0..(k as usize + 1) * n];
                        for (av, &bv) in acc[..w].iter_mut().zip(brow) {
                            *av = s.mul_add(bv, *av);
                        }
                    }
                    orow[c0..].copy_from_slice(&acc[..w]);
                }
            }
            k0 += kb;
            if k0 >= kd {
                return;
            }
        }
    }
    // Monomorphise the common narrow widths (hidden/message dims of the
    // paper's φ/γ nets) so the accumulator tile below has a compile-time
    // size and lives entirely in SIMD registers.
    match n {
        20 => return narrow_tile_matmul::<20>(lhs, m, kd, b, out, start),
        22 => return narrow_tile_matmul::<22>(lhs, m, kd, b, out, start),
        _ => {}
    }
    match start {
        Start::Zero => out.fill(0.0),
        Start::Out => {}
        Start::Bias(bias) => {
            for orow in out.chunks_exact_mut(n) {
                orow.copy_from_slice(bias);
            }
        }
    }
    let mut r = 0;
    while r + 4 <= m {
        let (o01, o23) = out[r * n..(r + 4) * n].split_at_mut(2 * n);
        let (o0, o1) = o01.split_at_mut(n);
        let (o2, o3) = o23.split_at_mut(n);
        let rows = lhs.row(r, 0, kd).zip(lhs.row(r + 1, 0, kd));
        let rows = rows.zip(lhs.row(r + 2, 0, kd).zip(lhs.row(r + 3, 0, kd)));
        for (k, ((s0, s1), (s2, s3))) in rows.enumerate() {
            let brow = &b[k * n..(k + 1) * n];
            let it = o0
                .iter_mut()
                .zip(o1.iter_mut())
                .zip(o2.iter_mut().zip(o3.iter_mut()))
                .zip(brow.iter());
            for (((v0, v1), (v2, v3)), &bv) in it {
                *v0 = s0.mul_add(bv, *v0);
                *v1 = s1.mul_add(bv, *v1);
                *v2 = s2.mul_add(bv, *v2);
                *v3 = s3.mul_add(bv, *v3);
            }
        }
        r += 4;
    }
    while r < m {
        let orow = &mut out[r * n..(r + 1) * n];
        for (k, s) in lhs.row(r, 0, kd).enumerate() {
            let brow = &b[k * n..(k + 1) * n];
            for (v, &bv) in orow.iter_mut().zip(brow) {
                *v = s.mul_add(bv, *v);
            }
        }
        r += 1;
    }
}

/// One `W`-column register tile of the wide path: columns `c0..c0 + W` of
/// one output row (`orow`) accumulate `s · b[k][c]` for each compacted
/// nonzero `(k, s)` in ascending `k`, starting from `seed` (zero, `orow`
/// itself, or the bias row). Every output element sees the same `mul_add`
/// sequence whatever `W` is, so the tile width never changes a bit.
#[inline(always)]
fn wide_tile<const W: usize>(
    idx: &[u32],
    vals: &[f64],
    b: &[f64],
    n: usize,
    c0: usize,
    orow: &mut [f64],
    seed: Start<'_>,
) {
    let out = &mut orow[c0..c0 + W];
    let mut acc = [0.0f64; W];
    match seed {
        Start::Zero => {}
        Start::Out => acc.copy_from_slice(out),
        Start::Bias(bias) => acc.copy_from_slice(&bias[c0..c0 + W]),
    }
    for (&k, &s) in idx.iter().zip(vals) {
        let brow = &b[k as usize * n + c0..k as usize * n + c0 + W];
        for (av, &bv) in acc.iter_mut().zip(brow) {
            *av = s.mul_add(bv, *av);
        }
    }
    out.copy_from_slice(&acc);
}

/// Narrow-output matmul with a compile-time row width: two output rows of
/// `N` accumulators each stay in registers across the whole `k` loop, so the
/// inner body is pure broadcast-FMA with no output loads or stores. The
/// accumulators start at zero; the epilogue writes `acc`, `out + acc` or
/// `bias + acc` as `start` asks.
fn narrow_tile_matmul<const N: usize>(
    lhs: impl Lhs,
    m: usize,
    kd: usize,
    b: &[f64],
    out: &mut [f64],
    start: Start<'_>,
) {
    let mut r = 0;
    while r + 2 <= m {
        let mut acc0 = [0.0f64; N];
        let mut acc1 = [0.0f64; N];
        let rows = lhs.row(r, 0, kd).zip(lhs.row(r + 1, 0, kd));
        for ((s0, s1), brow) in rows.zip(b.chunks_exact(N)) {
            for i in 0..N {
                acc0[i] = s0.mul_add(brow[i], acc0[i]);
                acc1[i] = s1.mul_add(brow[i], acc1[i]);
            }
        }
        let (o0, o1) = out[r * N..(r + 2) * N].split_at_mut(N);
        narrow_epilogue(o0, &acc0, start);
        narrow_epilogue(o1, &acc1, start);
        r += 2;
    }
    while r < m {
        let mut acc = [0.0f64; N];
        for (s, brow) in lhs.row(r, 0, kd).zip(b.chunks_exact(N)) {
            for i in 0..N {
                acc[i] = s.mul_add(brow[i], acc[i]);
            }
        }
        narrow_epilogue(&mut out[r * N..(r + 1) * N], &acc, start);
        r += 1;
    }
}

/// Writes one narrow-tile row: `acc`, `orow + acc` or `bias + acc`.
#[inline(always)]
fn narrow_epilogue<const N: usize>(orow: &mut [f64], acc: &[f64; N], start: Start<'_>) {
    let orow: &mut [f64; N] = orow.try_into().expect("narrow tile row");
    match start {
        Start::Zero => *orow = *acc,
        Start::Out => {
            for i in 0..N {
                orow[i] += acc[i];
            }
        }
        Start::Bias(bias) => {
            // Summed in registers and stored once: nothing tells the
            // compiler that `bias` and `orow` do not overlap.
            let bias: &[f64; N] = bias.try_into().expect("narrow tile bias");
            *orow = std::array::from_fn(|i| bias[i] + acc[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_fn(2, 3, |r, c| (r * 3 + c + 1) as f64);
        let b = Matrix::from_fn(3, 2, |r, c| (r * 2 + c + 7) as f64);
        let mut c = Matrix::zeros(5, 5);
        a.matmul_into(&b, &mut c);
        assert_eq!((c.rows(), c.cols()), (2, 2), "the output is reshaped in place");
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f64);
        let i = Matrix::from_fn(3, 3, |r, c| if r == c { 1.0 } else { 0.0 });
        let mut ai = Matrix::default();
        a.matmul_into(&i, &mut ai);
        assert_eq!(ai.data(), a.data());
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_checked() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        a.matmul_into(&b, &mut Matrix::default());
    }

    #[test]
    fn blocked_matmul_matches_reference_on_all_row_remainders() {
        // Exercise the 4-row block and every remainder path (m % 4 ∈ 0..4).
        for m in 1..=9 {
            let a = Matrix::from_fn(m, 5, |r, c| (r as f64 + 1.0) * 0.5 - c as f64 * 0.25);
            let b = Matrix::from_fn(5, 7, |r, c| (r * 7 + c) as f64 * 0.125 - 1.0);
            let mut fast = Matrix::default();
            a.matmul_into(&b, &mut fast);
            let slow = Matrix::from_fn(m, 7, |r, c| {
                (0..5).map(|k| a.get(r, k) * b.get(k, c)).sum::<f64>()
            });
            for i in 0..m * 7 {
                assert!((fast.data()[i] - slow.data()[i]).abs() < 1e-12, "m={m} i={i}");
            }
        }
    }

    /// Scalar model of every product path's per-element arithmetic, chosen
    /// by the output width `n` as `accumulate_matmul` chooses it:
    /// * wide (`n >= SKIP_MIN_WIDTH`): one k-ascending `mul_add` chain over
    ///   the nonzero `a` entries, starting from the seed;
    /// * narrow (`n` = 20 or 22): a k-ascending chain over every `a` entry
    ///   starting from zero, then `acc`, `out + acc` or `bias + acc`;
    /// * fallback (any other `n`): a chain over every `a` entry starting
    ///   from the seed.
    fn scalar_product(a: &Matrix, b: &Matrix, start: Start<'_>, out: &Matrix) -> Matrix {
        let n = b.cols();
        let narrow = n == 20 || n == 22;
        Matrix::from_fn(a.rows(), n, |r, c| {
            let seed = match start {
                Start::Zero => 0.0,
                Start::Out => out.get(r, c),
                Start::Bias(bias) => bias[c],
            };
            let mut v = if narrow { 0.0 } else { seed };
            for k in (0..a.cols()).filter(|&k| n < SKIP_MIN_WIDTH || a.get(r, k) != 0.0) {
                v = a.get(r, k).mul_add(b.get(k, c), v);
            }
            match start {
                Start::Out | Start::Bias(_) if narrow => seed + v,
                _ => v,
            }
        })
    }

    /// Runs one product `start + a·b` through the kernels, reading `a`
    /// row-major or, when `transposed`, in place from its transpose `at`.
    fn kernel_product(
        a: &Matrix,
        at: &Matrix,
        transposed: bool,
        b: &Matrix,
        start: Start<'_>,
        prior: &Matrix,
    ) -> Matrix {
        let mut out = prior.clone();
        match (transposed, start) {
            (false, Start::Zero) => a.matmul_into(b, &mut out),
            (false, Start::Out) => {
                let (m, kd, n) = (a.rows(), a.cols(), b.cols());
                accumulate_matmul(a.lhs(), m, kd, b.data(), n, out.data_mut(), start);
            }
            (false, Start::Bias(bias)) => {
                a.affine_into(b, &Matrix::row_vector(bias.to_vec()), &mut out)
            }
            (true, Start::Out) => at.matmul_transa_acc(b, &mut out),
            (true, _) => {
                let lhs = Transposed { a: at.data(), m: at.cols() };
                accumulate_matmul(
                    lhs,
                    at.cols(),
                    at.rows(),
                    b.data(),
                    b.cols(),
                    out.data_mut(),
                    start,
                );
            }
        }
        out
    }

    #[test]
    fn product_kernels_are_bit_exact_against_the_scalar_model() {
        // Widths 1..=136 reach the fallback, both narrow kernels and every
        // tile remainder of the wide path; row counts 1..=9 every remainder
        // of the 2- and 4-row blocks; kd sits on both sides of the 48-deep
        // k-block, and kd = 0 leaves nothing but the start.
        let (ns, ms, kds): (Vec<usize>, &[usize], &[usize]) = if cfg!(miri) {
            (vec![7, 20, 50], &[1, 3], &[0, 1, 49])
        } else {
            ((1..=136).collect(), &[1, 2, 3, 4, 5, 6, 7, 8, 9], &[0, 1, 47, 48, 49, 97])
        };
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for &n in &ns {
            let bias: Vec<f64> = (0..n).map(|c| (c % 9) as f64 * 0.43 - 1.1).collect();
            for &m in ms {
                for &kd in kds {
                    // Half of `a` is zero, in a pattern that shifts per row;
                    // `at` is the same operand stored transposed.
                    let a = Matrix::from_fn(m, kd, |r, k| {
                        if (r + k) % 2 == 0 {
                            0.0
                        } else {
                            ((r * 13 + k * 7) % 29) as f64 * 0.137 - 1.9
                        }
                    });
                    let mut at = Matrix::default();
                    a.transpose_into(&mut at);
                    let b =
                        Matrix::from_fn(kd, n, |k, c| ((k * 31 + c * 17) % 23) as f64 / 7.0 - 1.3);
                    let prior =
                        Matrix::from_fn(m, n, |r, c| ((r * 5 + c * 3) % 11) as f64 * 0.31 - 1.7);
                    for start in [Start::Zero, Start::Out, Start::Bias(&bias)] {
                        let want = bits(&scalar_product(&a, &b, start, &prior));
                        for transposed in [false, true] {
                            let got = kernel_product(&a, &at, transposed, &b, start, &prior);
                            assert_eq!(
                                bits(&got),
                                want,
                                "n={n} m={m} kd={kd} {start:?} transposed={transposed}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn matmul_transa_acc_matches_explicit_transpose_and_accumulates() {
        let a = Matrix::from_fn(4, 3, |r, c| if (r + c) % 3 == 0 { 0.0 } else { (r + c) as f64 });
        let b = Matrix::from_fn(4, 5, |r, c| (r as f64 - c as f64) * 0.5);
        let mut out = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f64); // pre-seeded
        a.matmul_transa_acc(&b, &mut out);
        for r in 0..3 {
            for c in 0..5 {
                let atb: f64 = (0..4).map(|k| a.get(k, r) * b.get(k, c)).sum();
                let expect = (r * 5 + c) as f64 + atb;
                assert!((out.get(r, c) - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn affine_kernels_match_composed_ops() {
        let x = Matrix::from_fn(6, 3, |r, c| (r as f64 - 2.0) * (c as f64 + 0.5));
        let w = Matrix::from_fn(3, 4, |r, c| 0.25 * (r as f64 + 1.0) - 0.4 * c as f64);
        let bias = Matrix::row_vector(vec![0.1, -0.2, 0.3, -5.0]);
        let mut aff = Matrix::default();
        x.affine_into(&w, &bias, &mut aff);
        for r in 0..6 {
            for c in 0..4 {
                let xw: f64 = (0..3).map(|k| x.get(r, k) * w.get(k, c)).sum();
                assert!((aff.get(r, c) - (xw + bias.get(0, c))).abs() < 1e-12);
            }
        }
        let mut relu = Matrix::default();
        x.affine_relu_into(&w, &bias, &mut relu);
        for i in 0..24 {
            assert_eq!(relu.data()[i], aff.data()[i].max(0.0), "relu clamps the affine output");
        }
    }

    #[test]
    fn reshape_zeroed_reuses_capacity() {
        let mut m = Matrix::zeros(10, 10);
        let cap = m.capacity();
        m.reshape_zeroed(5, 7);
        assert_eq!((m.rows(), m.cols()), (5, 7));
        assert!(m.data().iter().all(|&v| v == 0.0));
        assert_eq!(m.capacity(), cap, "shrinking keeps the allocation");
    }

    #[test]
    fn copy_from_matches_source() {
        let src = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f64);
        let mut dst = Matrix::zeros(50, 2);
        dst.copy_from(&src);
        assert_eq!((dst.rows(), dst.cols()), (3, 4));
        assert_eq!(dst.data(), src.data());
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::from_fn(2, 4, |r, c| (r * 10 + c) as f64);
        let (mut t, mut tt) = (Matrix::default(), Matrix::default());
        a.transpose_into(&mut t);
        t.transpose_into(&mut tt);
        assert_eq!(tt.data(), a.data());
        assert_eq!(t.get(3, 1), a.get(1, 3));
    }

    #[test]
    fn broadcast_and_sum_rows_are_adjoint() {
        // The affine kernel broadcasts its bias over rows; the bias-gradient
        // kernel sums rows back: with zero weights, `y = b` on every row and
        // `Σ_r g_r` is the gradient of `Σ g·y` with respect to `b`.
        let x = Matrix::from_fn(3, 2, |r, c| (r + c) as f64);
        let b = Matrix::row_vector(vec![10.0, 20.0]);
        let mut y = Matrix::default();
        x.affine_into(&Matrix::zeros(2, 2), &b, &mut y);
        assert_eq!(y.get(2, 1), 20.0);
        let g = Matrix::from_fn(3, 2, |r, _| r as f64 + 1.0);
        let mut db = Matrix::row_vector(vec![0.5, 0.0]);
        g.sum_rows_acc(&mut db);
        assert_eq!(db.data(), &[6.5, 6.0], "sum_rows_acc accumulates");
    }

    #[test]
    fn hcat_and_slice_cols_invert() {
        let a = Matrix::from_fn(2, 2, |r, c| (r * 2 + c) as f64);
        let b = Matrix::from_fn(2, 3, |r, c| 100.0 + (r * 3 + c) as f64);
        let mut cat = Matrix::zeros(7, 1);
        Matrix::hcat_into(&[&a, &b], &mut cat);
        assert_eq!((cat.rows(), cat.cols()), (2, 5));
        for r in 0..2 {
            assert_eq!(&cat.row(r)[..2], a.row(r));
            assert_eq!(&cat.row(r)[2..], b.row(r));
        }
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::row_vector(vec![1., -2., 3.]);
        let b = Matrix::row_vector(vec![2., 2., 2.]);
        let mut c = a.clone();
        c.add_assign(&b);
        assert_eq!(c.data(), &[3., 0., 5.]);
        let eye = Matrix::from_fn(3, 3, |r, c| if r == c { 1.0 } else { 0.0 });
        let mut relu = Matrix::default();
        a.affine_relu_into(&eye, &Matrix::row_vector(vec![-2.; 3]), &mut relu);
        assert_eq!(relu.data(), &[0., 0., 1.], "affine_relu_into clamps at zero");
    }

    #[test]
    fn matmul_associativity_numerically() {
        let a = Matrix::from_fn(2, 3, |r, c| (r as f64 + 1.0) * (c as f64 - 1.0));
        let b = Matrix::from_fn(3, 4, |r, c| (r * c) as f64 * 0.5 - 1.0);
        let c = Matrix::from_fn(4, 2, |r, c| 0.25 * (r + c) as f64);
        let [mut ab, mut bc, mut left, mut right] = std::array::from_fn(|_| Matrix::default());
        a.matmul_into(&b, &mut ab);
        ab.matmul_into(&c, &mut left);
        b.matmul_into(&c, &mut bc);
        a.matmul_into(&bc, &mut right);
        for i in 0..left.rows() * left.cols() {
            assert!((left.data()[i] - right.data()[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn transpose_matmul_identity() {
        // (AB)^T = B^T A^T
        let a = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f64);
        let b = Matrix::from_fn(3, 2, |r, c| (r + 2 * c) as f64);
        let [mut ab, mut lhs, mut at, mut bt, mut rhs] = std::array::from_fn(|_| Matrix::default());
        a.matmul_into(&b, &mut ab);
        ab.transpose_into(&mut lhs);
        a.transpose_into(&mut at);
        b.transpose_into(&mut bt);
        bt.matmul_into(&at, &mut rhs);
        assert_eq!(lhs.data(), rhs.data());
    }

    #[test]
    fn slice_rows_extracts() {
        let a = Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f64);
        let s = a.slice_rows(1, 3);
        assert_eq!(s.rows(), 2);
        assert_eq!(s.data(), &[2., 3., 4., 5.]);
    }
}
