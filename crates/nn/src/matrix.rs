//! Dense row-major matrices.
//!
//! Besides the allocating convenience ops, this module provides the
//! allocation-free `*_into` / `*_acc` kernels the training and solver hot
//! loops run on, all built on one dispatching product core
//! (`accumulate_matmul`):
//!
//! * **Wide outputs** (≥ `SKIP_MIN_WIDTH` columns, e.g. the 120-wide
//!   readout layers): each `A` row is compacted branchlessly into its
//!   nonzero (index, value) pairs per `KB`-sized k-block — ReLU + dropout
//!   leave most activations zero — and the compressed row is multiplied
//!   against an L1-resident slab of `B` into 32-column register tiles, then
//!   8-column tail tiles (one const-generic `wide_tile`), leaving a
//!   runtime-width loop only for the last `n % 8` columns. Every product is
//!   routed through `f64::mul_add` (FMA), and each output element gets the
//!   same k-ascending `mul_add` chain whichever tile covers it.
//! * **Narrow outputs** (the 20/22-wide φ/γ message nets): a const-generic
//!   two-row register-tile kernel (`narrow_tile_matmul`) that keeps both
//!   accumulator rows in vector registers across the whole k loop.
//! * Everything else falls back to blocked dense `mul_add` loops.
//!
//! On top of the core sit [`Matrix::matmul_into`] / [`Matrix::matmul_acc`],
//! the transposed variants [`Matrix::matmul_transb_into`] (`A·Bᵀ`,
//! contiguous dot products, no transpose materialised) and
//! [`Matrix::matmul_transa_acc`] (`out += Aᵀ·B`, the weight-gradient
//! shape), and the fused [`Matrix::affine_relu_into`] layer kernel. All of
//! them reshape their output in place; full-overwrite ops use
//! [`Matrix::reshape_for_overwrite`] to skip the pre-zeroing memset
//! entirely when the element count is unchanged.

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

    /// Wraps a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
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

    /// Reshapes in place to `rows × cols` without touching the contents when
    /// the element count already matches (the steady state for workspace
    /// buffers). The values are unspecified — callers must overwrite every
    /// element before reading any.
    pub fn reshape_for_overwrite(&mut self, rows: usize, cols: usize) {
        let len = rows * cols;
        self.rows = rows;
        self.cols = cols;
        if self.data.len() != len {
            self.data.clear();
            self.data.resize(len, 0.0);
        }
    }

    /// Copies `src` into `self`, reshaping in place (allocation-free once
    /// capacity suffices).
    pub fn copy_from(&mut self, src: &Matrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Matrix product `self × rhs` (allocating convenience wrapper over
    /// [`Matrix::matmul_into`]).
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_into(rhs, &mut out);
        out
    }

    /// Matrix product `out = self × rhs`, reshaping `out` in place.
    ///
    /// ikj kernel with a contiguous inner axpy over `rhs` rows; zero entries
    /// of `self` skip their `rhs` row entirely (see `accumulate_matmul`).
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, rhs.rows, "matmul shape mismatch");
        out.reshape_for_overwrite(self.rows, rhs.cols);
        accumulate_matmul(
            &self.data,
            self.rows,
            self.cols,
            &rhs.data,
            rhs.cols,
            &mut out.data,
            true,
        );
        out.debug_assert_finite("matmul_into output");
    }

    /// `out += self × rhs`, accumulating into an existing `rows × rhs.cols`
    /// matrix (same kernel as [`Matrix::matmul_into`], no reshape).
    pub fn matmul_acc(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, rhs.rows, "matmul shape mismatch");
        assert_eq!((out.rows, out.cols), (self.rows, rhs.cols), "matmul_acc output shape");
        accumulate_matmul(
            &self.data,
            self.rows,
            self.cols,
            &rhs.data,
            rhs.cols,
            &mut out.data,
            false,
        );
    }

    /// `out = self × rhsᵀ`, reshaping `out` in place.
    ///
    /// Both operands are walked row-contiguously (each output element is a
    /// dot product of two rows), so no transpose is ever materialised —
    /// this is the backward-pass `grad × Wᵀ` kernel.
    pub fn matmul_transb_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, rhs.cols, "matmul_transb shape mismatch");
        out.reshape_for_overwrite(self.rows, rhs.rows);
        for r in 0..self.rows {
            let arow = &self.data[r * self.cols..(r + 1) * self.cols];
            let orow = &mut out.data[r * rhs.rows..(r + 1) * rhs.rows];
            for (c, v) in orow.iter_mut().enumerate() {
                let brow = &rhs.data[c * rhs.cols..(c + 1) * rhs.cols];
                *v = dot(arow, brow);
            }
        }
        out.debug_assert_finite("matmul_transb_into output");
    }

    /// `out += selfᵀ × rhs`, accumulating into `out` (which must already be
    /// `self.cols × rhs.cols`).
    ///
    /// Rank-1 update per shared row — the weight-gradient kernel
    /// (`inputᵀ × grad`) without materialising the transpose. On wide
    /// updates, zero input activations (common after ReLU) skip their update
    /// row entirely; narrow updates stay branch-free (see
    /// `SKIP_MIN_WIDTH`).
    pub fn matmul_transa_acc(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, rhs.rows, "matmul_transa shape mismatch");
        assert_eq!((out.rows, out.cols), (self.cols, rhs.cols), "matmul_transa output shape");
        let n = rhs.cols;
        let skip = n >= SKIP_MIN_WIDTH;
        for k in 0..self.rows {
            let arow = &self.data[k * self.cols..(k + 1) * self.cols];
            let brow = &rhs.data[k * n..(k + 1) * n];
            for (r, &av) in arow.iter().enumerate() {
                if skip && av == 0.0 {
                    continue;
                }
                let orow = &mut out.data[r * n..(r + 1) * n];
                for (v, &bv) in orow.iter_mut().zip(brow) {
                    *v = av.mul_add(bv, *v);
                }
            }
        }
    }

    /// Fused affine layer: `out = self × w + bias` with the `1 × n` bias
    /// broadcast over rows. Reshapes `out` in place.
    pub fn affine_into(&self, w: &Matrix, bias: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, w.rows, "affine shape mismatch");
        assert_eq!((bias.rows, bias.cols), (1, w.cols), "affine bias shape");
        out.reshape_for_overwrite(self.rows, w.cols);
        for r in 0..self.rows {
            out.data[r * w.cols..(r + 1) * w.cols].copy_from_slice(&bias.data);
        }
        // Accumulate the matmul on top of the bias-initialised output.
        accumulate_matmul(&self.data, self.rows, self.cols, &w.data, w.cols, &mut out.data, false);
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

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::default();
        self.transpose_into(&mut out);
        out
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

    /// Element-wise map.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Element-wise sum with another matrix of the same shape.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "add shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(a, b)| a + b).collect(),
        }
    }

    /// In-place element-wise accumulate.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "add shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// Element-wise Hadamard product.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "hadamard shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(a, b)| a * b).collect(),
        }
    }

    /// In-place Hadamard product.
    pub fn hadamard_assign(&mut self, rhs: &Matrix) {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "hadamard shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a *= b;
        }
    }

    /// Scalar multiple.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|x| x * s)
    }

    /// Adds a `1 × cols` row vector to every row.
    pub fn add_row_broadcast(&self, row: &Matrix) -> Matrix {
        assert_eq!(row.rows, 1, "broadcast expects a row vector");
        assert_eq!(row.cols, self.cols, "broadcast width mismatch");
        let mut out = self.clone();
        for r in 0..out.rows {
            for (v, &b) in out.data[r * out.cols..(r + 1) * out.cols].iter_mut().zip(&row.data) {
                *v += b;
            }
        }
        out
    }

    /// Sums rows into a `1 × cols` vector (gradient of row broadcast).
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        self.sum_rows_acc(&mut out);
        out
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

    /// Horizontally concatenates matrices with equal row counts.
    pub fn hcat(parts: &[&Matrix]) -> Matrix {
        let mut out = Matrix::default();
        Matrix::hcat_into(parts, &mut out);
        out
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

    /// Extracts columns `[from, to)`.
    pub fn slice_cols(&self, from: usize, to: usize) -> Matrix {
        assert!(from <= to && to <= self.cols, "column slice out of range");
        let w = to - from;
        let mut out = Matrix::zeros(self.rows, w);
        for r in 0..self.rows {
            out.data[r * w..(r + 1) * w]
                .copy_from_slice(&self.data[r * self.cols + from..r * self.cols + to]);
        }
        out
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

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
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

    /// Sets all entries to zero.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }
}

/// Row dot product with four independent accumulators (lets the compiler
/// vectorise the reduction without reassociating within a lane).
#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f64; 4];
    let ca = a.chunks_exact(4);
    let cb = b.chunks_exact(4);
    let (ra, rb) = (ca.remainder(), cb.remainder());
    for (xa, xb) in ca.zip(cb) {
        acc[0] = xa[0].mul_add(xb[0], acc[0]);
        acc[1] = xa[1].mul_add(xb[1], acc[1]);
        acc[2] = xa[2].mul_add(xb[2], acc[2]);
        acc[3] = xa[3].mul_add(xb[3], acc[3]);
    }
    let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (xa, xb) in ra.iter().zip(rb) {
        s = xa.mul_add(*xb, s);
    }
    s
}

/// Row width from which zero-skipping beats staying branch-free: a skipped
/// pass saves `n` FMAs but costs a data-dependent branch that mispredicts on
/// random ReLU/dropout sparsity, so narrow rows lose more to stalls than
/// they save in arithmetic.
const SKIP_MIN_WIDTH: usize = 48;

/// `out += a (m×k) × b (k×n)` (or `out = a × b` when `init` is true, with
/// `out`'s prior contents ignored) over raw row-major slices.
///
/// ikj order: the inner loop is a contiguous axpy over a `b` row
/// (element-wise, so the compiler vectorises it without reassociating
/// anything). Wide outputs take the k-blocked, nonzero-compacting path;
/// the common narrow widths get monomorphised register-tile kernels; other
/// narrow outputs take a branch-free 4-row-blocked fallback where each
/// loaded `b` row feeds four output rows.
fn accumulate_matmul(
    a: &[f64],
    m: usize,
    kd: usize,
    b: &[f64],
    n: usize,
    out: &mut [f64],
    init: bool,
) {
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
        //   block instead of once per nonzero k. 32-column tiles run first,
        //   then 8-column ones, so only the last `n % 8` columns take a
        //   runtime-width loop (none of the GNN's 120- and 200-wide ones).
        const TILE: usize = 32;
        const TAIL: usize = 8;
        const KB: usize = 48;
        let mut idx = [0u32; KB];
        let mut vals = [0.0f64; KB];
        let mut k0 = 0;
        while k0 < kd {
            let kb = KB.min(kd - k0);
            // On the first block an `init` call starts its accumulators at
            // zero instead of loading `out`, so callers need not pre-zero.
            let fresh = init && k0 == 0;
            for r in 0..m {
                let arow = &a[r * kd + k0..r * kd + k0 + kb];
                let mut cnt = 0usize;
                for (k, &s) in arow.iter().enumerate() {
                    idx[cnt] = (k0 + k) as u32;
                    vals[cnt] = s;
                    cnt += (s != 0.0) as usize;
                }
                if cnt == 0 && !fresh {
                    continue;
                }
                let (nz_idx, nz_vals) = (&idx[..cnt], &vals[..cnt]);
                let orow = &mut out[r * n..(r + 1) * n];
                let mut c0 = 0;
                while c0 + TILE <= n {
                    wide_tile::<TILE>(nz_idx, nz_vals, b, n, c0, orow, fresh);
                    c0 += TILE;
                }
                while c0 + TAIL <= n {
                    wide_tile::<TAIL>(nz_idx, nz_vals, b, n, c0, orow, fresh);
                    c0 += TAIL;
                }
                if c0 < n {
                    // The last `n % TAIL` columns: a runtime-width tile.
                    let w = n - c0;
                    let mut acc = [0.0f64; TAIL];
                    if !fresh {
                        acc[..w].copy_from_slice(&orow[c0..]);
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
        }
        return;
    }
    // Monomorphise the common narrow widths (hidden/message dims of the
    // paper's φ/γ nets) so the accumulator tile below has a compile-time
    // size and lives entirely in SIMD registers.
    match n {
        20 => return narrow_tile_matmul::<20>(a, m, kd, b, out, init),
        22 => return narrow_tile_matmul::<22>(a, m, kd, b, out, init),
        _ => {}
    }
    if init {
        out.fill(0.0);
    }
    let mut r = 0;
    while r + 4 <= m {
        let (o01, o23) = out[r * n..(r + 4) * n].split_at_mut(2 * n);
        let (o0, o1) = o01.split_at_mut(n);
        let (o2, o3) = o23.split_at_mut(n);
        let a0 = &a[r * kd..(r + 1) * kd];
        let a1 = &a[(r + 1) * kd..(r + 2) * kd];
        let a2 = &a[(r + 2) * kd..(r + 3) * kd];
        let a3 = &a[(r + 3) * kd..(r + 4) * kd];
        for k in 0..kd {
            let (s0, s1, s2, s3) = (a0[k], a1[k], a2[k], a3[k]);
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
        let arow = &a[r * kd..(r + 1) * kd];
        for (k, &s) in arow.iter().enumerate() {
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
/// nonzero `(k, s)` in ascending `k`, starting from zero when `fresh` and
/// from `orow` otherwise. Every output element sees the same `mul_add`
/// sequence whatever `W` is, so the tile width never changes a bit.
#[inline(always)]
fn wide_tile<const W: usize>(
    idx: &[u32],
    vals: &[f64],
    b: &[f64],
    n: usize,
    c0: usize,
    orow: &mut [f64],
    fresh: bool,
) {
    let out = &mut orow[c0..c0 + W];
    let mut acc = [0.0f64; W];
    if !fresh {
        acc.copy_from_slice(out);
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
/// inner body is pure broadcast-FMA with no output loads or stores.
fn narrow_tile_matmul<const N: usize>(
    a: &[f64],
    m: usize,
    kd: usize,
    b: &[f64],
    out: &mut [f64],
    init: bool,
) {
    let mut r = 0;
    while r + 2 <= m {
        let arow0 = &a[r * kd..(r + 1) * kd];
        let arow1 = &a[(r + 1) * kd..(r + 2) * kd];
        let mut acc0 = [0.0f64; N];
        let mut acc1 = [0.0f64; N];
        for ((&s0, &s1), brow) in arow0.iter().zip(arow1).zip(b.chunks_exact(N)) {
            for i in 0..N {
                acc0[i] = s0.mul_add(brow[i], acc0[i]);
                acc1[i] = s1.mul_add(brow[i], acc1[i]);
            }
        }
        let (o0, o1) = out[r * N..(r + 2) * N].split_at_mut(N);
        if init {
            o0.copy_from_slice(&acc0);
            o1.copy_from_slice(&acc1);
        } else {
            for (o, &av) in o0.iter_mut().zip(&acc0) {
                *o += av;
            }
            for (o, &av) in o1.iter_mut().zip(&acc1) {
                *o += av;
            }
        }
        r += 2;
    }
    while r < m {
        let arow = &a[r * kd..(r + 1) * kd];
        let mut acc = [0.0f64; N];
        for (&s, brow) in arow.iter().zip(b.chunks_exact(N)) {
            for i in 0..N {
                acc[i] = s.mul_add(brow[i], acc[i]);
            }
        }
        let orow = &mut out[r * N..(r + 1) * N];
        if init {
            orow.copy_from_slice(&acc);
        } else {
            for (o, &av) in orow.iter_mut().zip(&acc) {
                *o += av;
            }
        }
        r += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f64);
        let i = Matrix::from_fn(3, 3, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&i).data(), a.data());
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_checked() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn blocked_matmul_matches_reference_on_all_row_remainders() {
        // Exercise the 4-row block and every remainder path (m % 4 ∈ 0..4).
        for m in 1..=9 {
            let a = Matrix::from_fn(m, 5, |r, c| (r as f64 + 1.0) * 0.5 - c as f64 * 0.25);
            let b = Matrix::from_fn(5, 7, |r, c| (r * 7 + c) as f64 * 0.125 - 1.0);
            let fast = a.matmul(&b);
            let slow = Matrix::from_fn(m, 7, |r, c| {
                (0..5).map(|k| a.get(r, k) * b.get(k, c)).sum::<f64>()
            });
            for i in 0..m * 7 {
                assert!((fast.data()[i] - slow.data()[i]).abs() < 1e-12, "m={m} i={i}");
            }
        }
    }

    /// Scalar model of the wide kernel's per-element arithmetic: a
    /// k-ascending `mul_add` chain over the nonzero `a` entries, starting
    /// from `start` (accumulate) or `0.0` (overwrite).
    fn scalar_matmul(a: &Matrix, b: &Matrix, start: Option<&Matrix>) -> Matrix {
        Matrix::from_fn(a.rows(), b.cols(), |r, c| {
            let mut v = start.map_or(0.0, |o| o.get(r, c));
            for k in 0..a.cols() {
                let s = a.get(r, k);
                if s != 0.0 {
                    v = s.mul_add(b.get(k, c), v);
                }
            }
            v
        })
    }

    #[test]
    fn wide_matmul_is_bit_exact_for_every_tail_width() {
        // Widths 48..=136 cover every `n % 32` and `n % 8` remainder of the
        // 32- and 8-column tiles; kd crosses the 48-deep k-block boundary.
        let (ms, kds): (&[usize], &[usize]) =
            if cfg!(miri) { (&[1, 3], &[1, 49]) } else { (&[1, 3, 64], &[1, 47, 48, 49, 200]) };
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for n in 48..=136 {
            for &m in ms {
                for &kd in kds {
                    // Half of `a` is zero, in a pattern that shifts per row.
                    let a = Matrix::from_fn(m, kd, |r, k| {
                        if (r + k) % 2 == 0 {
                            0.0
                        } else {
                            ((r * 13 + k * 7) % 29) as f64 * 0.137 - 1.9
                        }
                    });
                    let b =
                        Matrix::from_fn(kd, n, |k, c| ((k * 31 + c * 17) % 23) as f64 / 7.0 - 1.3);
                    let seed =
                        Matrix::from_fn(m, n, |r, c| ((r * 5 + c * 3) % 11) as f64 * 0.31 - 1.7);
                    let mut fresh = seed.clone();
                    a.matmul_into(&b, &mut fresh);
                    let want = scalar_matmul(&a, &b, None);
                    assert_eq!(bits(&fresh), bits(&want), "matmul_into n={n} m={m} kd={kd}");
                    let mut acc = seed.clone();
                    a.matmul_acc(&b, &mut acc);
                    let want = scalar_matmul(&a, &b, Some(&seed));
                    assert_eq!(bits(&acc), bits(&want), "matmul_acc n={n} m={m} kd={kd}");
                }
            }
        }
    }

    #[test]
    fn matmul_transb_matches_explicit_transpose() {
        let a = Matrix::from_fn(3, 6, |r, c| (r * 6 + c) as f64 * 0.3 - 2.0);
        let b = Matrix::from_fn(5, 6, |r, c| 1.0 / (1.0 + (r + c) as f64));
        let mut fast = Matrix::default();
        a.matmul_transb_into(&b, &mut fast);
        let slow = a.matmul(&b.transpose());
        assert_eq!((fast.rows(), fast.cols()), (3, 5));
        for i in 0..15 {
            assert!((fast.data()[i] - slow.data()[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn matmul_transa_acc_matches_explicit_transpose_and_accumulates() {
        let a = Matrix::from_fn(4, 3, |r, c| if (r + c) % 3 == 0 { 0.0 } else { (r + c) as f64 });
        let b = Matrix::from_fn(4, 5, |r, c| (r as f64 - c as f64) * 0.5);
        let mut out = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f64); // pre-seeded
        a.matmul_transa_acc(&b, &mut out);
        let expect =
            Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f64).add(&a.transpose().matmul(&b));
        for i in 0..15 {
            assert!((out.data()[i] - expect.data()[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn affine_kernels_match_composed_ops() {
        let x = Matrix::from_fn(6, 3, |r, c| (r as f64 - 2.0) * (c as f64 + 0.5));
        let w = Matrix::from_fn(3, 4, |r, c| 0.25 * (r as f64 + 1.0) - 0.4 * c as f64);
        let bias = Matrix::row_vector(vec![0.1, -0.2, 0.3, -5.0]);
        let mut aff = Matrix::default();
        x.affine_into(&w, &bias, &mut aff);
        let ref_aff = x.matmul(&w).add_row_broadcast(&bias);
        for i in 0..24 {
            assert!((aff.data()[i] - ref_aff.data()[i]).abs() < 1e-12);
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
        assert_eq!(a.transpose().transpose().data(), a.data());
        assert_eq!(a.transpose().get(3, 1), a.get(1, 3));
    }

    #[test]
    fn broadcast_and_sum_rows_are_adjoint() {
        let x = Matrix::from_fn(3, 2, |r, c| (r + c) as f64);
        let b = Matrix::row_vector(vec![10.0, 20.0]);
        let y = x.add_row_broadcast(&b);
        assert_eq!(y.get(2, 1), 3.0 + 20.0);
        let g = Matrix::from_fn(3, 2, |_, _| 1.0);
        assert_eq!(g.sum_rows().data(), &[3.0, 3.0]);
    }

    #[test]
    fn hcat_and_slice_cols_invert() {
        let a = Matrix::from_fn(2, 2, |r, c| (r * 2 + c) as f64);
        let b = Matrix::from_fn(2, 3, |r, c| 100.0 + (r * 3 + c) as f64);
        let cat = Matrix::hcat(&[&a, &b]);
        assert_eq!(cat.cols(), 5);
        assert_eq!(cat.slice_cols(0, 2).data(), a.data());
        assert_eq!(cat.slice_cols(2, 5).data(), b.data());
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_vec(1, 3, vec![1., -2., 3.]);
        let b = Matrix::from_vec(1, 3, vec![2., 2., 2.]);
        assert_eq!(a.add(&b).data(), &[3., 0., 5.]);
        assert_eq!(a.hadamard(&b).data(), &[2., -4., 6.]);
        assert_eq!(a.scale(-1.0).data(), &[-1., 2., -3.]);
        assert_eq!(a.map(f64::abs).data(), &[1., 2., 3.]);
        let mut c = a.clone();
        c.add_assign(&b);
        assert_eq!(c.data(), &[3., 0., 5.]);
        let mut h = a.clone();
        h.hadamard_assign(&b);
        assert_eq!(h.data(), &[2., -4., 6.]);
    }

    #[test]
    fn norm_is_frobenius() {
        let a = Matrix::from_vec(1, 2, vec![3., 4.]);
        assert!((a.norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn matmul_associativity_numerically() {
        let a = Matrix::from_fn(2, 3, |r, c| (r as f64 + 1.0) * (c as f64 - 1.0));
        let b = Matrix::from_fn(3, 4, |r, c| (r * c) as f64 * 0.5 - 1.0);
        let c = Matrix::from_fn(4, 2, |r, c| 0.25 * (r + c) as f64);
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        for i in 0..left.rows() * left.cols() {
            assert!((left.data()[i] - right.data()[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn transpose_matmul_identity() {
        // (AB)^T = B^T A^T
        let a = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f64);
        let b = Matrix::from_fn(3, 2, |r, c| (r + 2 * c) as f64);
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
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
