//! Matrix storage: column-major views and BLASFEO's panel-major format.

use std::marker::PhantomData;

use smm_kernels::Scalar;

/// An owned column-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Mat<S: Scalar> {
    rows: usize,
    cols: usize,
    ld: usize,
    data: Vec<S>,
}

impl<S: Scalar> Mat<S> {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            ld: rows.max(1),
            data: vec![S::ZERO; rows.max(1) * cols],
        }
    }

    /// Build from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> S) -> Self {
        let mut m = Mat::zeros(rows, cols);
        for j in 0..cols {
            for i in 0..rows {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Deterministic pseudo-random test matrix with small values.
    pub fn random(rows: usize, cols: usize, seed: u64) -> Self {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        Mat::from_fn(rows, cols, |_, _| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            S::from_f64(((state >> 33) as i64 % 19 - 9) as f64 * 0.125)
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Leading dimension (stride between columns).
    pub fn ld(&self) -> usize {
        self.ld
    }

    /// Immutable view.
    pub fn as_ref(&self) -> MatRef<'_, S> {
        MatRef {
            rows: self.rows,
            cols: self.cols,
            ld: self.ld,
            data: &self.data,
        }
    }

    /// Mutable view.
    pub fn as_mut(&mut self) -> MatMut<'_, S> {
        MatMut::from_slice(&mut self.data, self.rows, self.cols, self.ld)
    }

    /// Raw storage (column-major, `ld * cols`).
    pub fn data(&self) -> &[S] {
        &self.data
    }

    /// Mutable raw storage.
    pub fn data_mut(&mut self) -> &mut [S] {
        &mut self.data
    }

    /// Largest absolute elementwise difference against another matrix.
    pub fn max_abs_diff(&self, other: &Mat<S>) -> f64 {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        let mut worst = 0.0f64;
        for j in 0..self.cols {
            for i in 0..self.rows {
                let d = (self[(i, j)].to_f64() - other[(i, j)].to_f64()).abs();
                worst = worst.max(d);
            }
        }
        worst
    }
}

impl<S: Scalar> std::ops::Index<(usize, usize)> for Mat<S> {
    type Output = S;

    fn index(&self, (i, j): (usize, usize)) -> &S {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[j * self.ld + i]
    }
}

impl<S: Scalar> std::ops::IndexMut<(usize, usize)> for Mat<S> {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut S {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[j * self.ld + i]
    }
}

/// Borrowed column-major view.
#[derive(Debug, Clone, Copy)]
pub struct MatRef<'a, S: Scalar> {
    rows: usize,
    cols: usize,
    ld: usize,
    data: &'a [S],
}

impl<'a, S: Scalar> MatRef<'a, S> {
    /// View over a raw column-major slice.
    pub fn from_slice(data: &'a [S], rows: usize, cols: usize, ld: usize) -> Self {
        assert!(ld >= rows.max(1), "leading dimension too small");
        assert!(
            data.len() >= ld * cols.saturating_sub(1) + rows,
            "slice too short"
        );
        MatRef {
            rows,
            cols,
            ld,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Leading dimension.
    pub fn ld(&self) -> usize {
        self.ld
    }

    /// Element access.
    pub fn at(&self, i: usize, j: usize) -> S {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[j * self.ld + i]
    }

    /// Sub-view of `nrows × ncols` starting at `(i0, j0)`.
    pub fn block(&self, i0: usize, j0: usize, nrows: usize, ncols: usize) -> MatRef<'a, S> {
        assert!(
            i0 + nrows <= self.rows && j0 + ncols <= self.cols,
            "block out of bounds"
        );
        MatRef {
            rows: nrows,
            cols: ncols,
            ld: self.ld,
            data: &self.data[j0 * self.ld + i0..],
        }
    }

    /// Underlying slice starting at the view origin.
    pub fn data(&self) -> &'a [S] {
        self.data
    }
}

/// Borrowed mutable column-major view.
///
/// Internally raw-pointer based so that [`MatMut::split_grid`] can hand
/// out *disjoint* tiles of one parent view to different pool workers.
/// Row-split tiles of a column-major matrix interleave in memory, so
/// sibling tiles cannot be represented as non-overlapping `&mut [S]`
/// slices: each tile's minimal covering slice would claim exclusive
/// access to bytes that belong to its siblings, which is undefined
/// behaviour under the aliasing model even if the overlapping elements
/// are never touched through both.
///
/// # Access invariant
///
/// A `MatMut` holds *exclusive* access, for the lifetime `'a`, to
/// exactly the elements at `ptr + j*ld + i` for `i < rows`,
/// `j < cols`, plus the right to expose the first `span` contiguous
/// elements from `ptr` as one `&mut [S]` (the whole backing tail for
/// views built from a slice; clipped to what is provably unshared for
/// split tiles). Every safe accessor checks its indices against
/// `rows`/`cols` (or `span`), so safe code cannot reach memory outside
/// the view's claim.
#[derive(Debug)]
pub struct MatMut<'a, S: Scalar> {
    rows: usize,
    cols: usize,
    ld: usize,
    /// Contiguous elements from `ptr` this view may expose as a slice.
    span: usize,
    ptr: *mut S,
    _marker: PhantomData<&'a mut [S]>,
}

// SAFETY: a MatMut is an exclusive borrow of its element set (see the
// access invariant above) — semantically a `&'a mut [S]` restricted to
// a rectangle, and `&mut [S]` is Send/Sync whenever `S` is. `Scalar`
// already requires `Send + Sync`, and every accessor takes `&self`/
// `&mut self`, so the usual borrow rules serialize all access through
// one view.
unsafe impl<S: Scalar> Send for MatMut<'_, S> {}
// SAFETY: as above — `&MatMut` only permits reads of exclusively owned
// elements, matching `&&mut [S]`.
unsafe impl<S: Scalar> Sync for MatMut<'_, S> {}

impl<'a, S: Scalar> MatMut<'a, S> {
    /// View over a raw column-major slice.
    pub fn from_slice(data: &'a mut [S], rows: usize, cols: usize, ld: usize) -> Self {
        assert!(ld >= rows.max(1), "leading dimension too small");
        assert!(
            data.len() >= ld * cols.saturating_sub(1) + rows,
            "slice too short"
        );
        MatMut {
            rows,
            cols,
            ld,
            span: data.len(),
            ptr: data.as_mut_ptr(),
            _marker: PhantomData,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Leading dimension.
    pub fn ld(&self) -> usize {
        self.ld
    }

    /// Smallest contiguous element count covering the rectangle.
    fn min_span(&self) -> usize {
        if self.rows == 0 || self.cols == 0 {
            0
        } else {
            self.ld * (self.cols - 1) + self.rows
        }
    }

    /// Whether the view can expose its rectangle as one `&[S]`/
    /// `&mut [S]` ([`MatMut::rb`] / [`MatMut::data_mut`]). True for
    /// every view except row-split [`MatMut::split_grid`] tiles, whose
    /// covering slice would overlap sibling tiles.
    pub fn is_contiguous_view(&self) -> bool {
        self.span >= self.min_span()
    }

    /// Element access.
    pub fn at(&self, i: usize, j: usize) -> S {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        // SAFETY: the assert keeps (i, j) inside the view's rectangle,
        // which the access invariant makes dereferenceable and ours.
        unsafe { *self.ptr.add(j * self.ld + i) }
    }

    /// Set one element.
    pub fn set(&mut self, i: usize, j: usize, v: S) {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        // SAFETY: the assert keeps (i, j) inside the view's rectangle;
        // `&mut self` plus the access invariant give exclusive access.
        unsafe { *self.ptr.add(j * self.ld + i) = v }
    }

    /// Reborrow as immutable. Panics for row-split tiles (see
    /// [`MatMut::is_contiguous_view`]); use [`MatMut::at`] there.
    pub fn rb(&self) -> MatRef<'_, S> {
        assert!(
            self.is_contiguous_view(),
            "split tile cannot expose a contiguous view"
        );
        // SAFETY: `span` contiguous elements from `ptr` are exclusively
        // this view's (access invariant), the assert proved they cover
        // the rectangle, and the returned borrow is tied to `&self`, so
        // no write can occur through this view while the MatRef lives.
        let data = unsafe { std::slice::from_raw_parts(self.ptr, self.span) };
        MatRef {
            rows: self.rows,
            cols: self.cols,
            ld: self.ld,
            data,
        }
    }

    /// Mutable sub-view.
    pub fn block_mut(&mut self, i0: usize, j0: usize, nrows: usize, ncols: usize) -> MatMut<'_, S> {
        assert!(
            i0 + nrows <= self.rows && j0 + ncols <= self.cols,
            "block out of bounds"
        );
        let off = j0 * self.ld + i0;
        MatMut {
            rows: nrows,
            cols: ncols,
            ld: self.ld,
            span: self.span.saturating_sub(off),
            // SAFETY: `off` is the flat index of element (i0, j0) when
            // the block is non-empty, hence inside the parent's
            // allocation; for an empty block the assert still bounds
            // `off` by `ld * cols`, which from_slice/split construction
            // keeps within one-past-the-end of the backing buffer.
            ptr: unsafe { self.ptr.add(off.min(self.span)) },
            _marker: PhantomData,
        }
    }

    /// Scale every element by `beta` (the `beta * C` part of GEMM).
    pub fn scale(&mut self, beta: S) {
        if beta == S::ONE {
            return;
        }
        for j in 0..self.cols {
            for i in 0..self.rows {
                // SAFETY: (i, j) iterates exactly the view's rectangle,
                // which the access invariant makes exclusively ours.
                unsafe {
                    let p = self.ptr.add(j * self.ld + i);
                    *p = *p * beta;
                }
            }
        }
    }

    /// Underlying mutable slice starting at the view origin. Panics
    /// for row-split tiles (see [`MatMut::is_contiguous_view`]).
    pub fn data_mut(&mut self) -> &mut [S] {
        assert!(
            self.is_contiguous_view(),
            "split tile cannot expose a contiguous view"
        );
        // SAFETY: `span` contiguous elements from `ptr` are exclusively
        // this view's (access invariant) and the borrow is tied to
        // `&mut self`, so the slice cannot coexist with any other
        // access path through this view.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.span) }
    }

    /// Raw pointer to element `(i0, j0)`, checked to head an
    /// `mt × nt` window inside this view.
    ///
    /// Obtaining the pointer is safe; *dereferencing* it is the
    /// caller's obligation — micro-kernels write through it with this
    /// view's leading dimension ([`MatMut::ld`]), staying inside the
    /// asserted window, which the access invariant makes exclusively
    /// this view's.
    pub fn tile_ptr(&mut self, i0: usize, j0: usize, mt: usize, nt: usize) -> *mut S {
        assert!(
            i0 + mt <= self.rows && j0 + nt <= self.cols,
            "tile window out of bounds"
        );
        if mt == 0 || nt == 0 {
            return self.ptr;
        }
        // SAFETY: the window is non-empty, so (i0, j0) is a valid
        // element of the rectangle and the offset stays inside the
        // backing allocation.
        unsafe { self.ptr.add(j0 * self.ld + i0) }
    }

    /// Consume this view and split it into a grid of *disjoint*
    /// sub-views — the `split_at_mut` of matrices, and the safe
    /// foundation of in-place parallel GEMM: each tile can move to a
    /// different pool worker, which writes its block of `C` directly
    /// (no private block, no merge pass).
    ///
    /// `row_splits` / `col_splits` are `(start, len)` ranges that must
    /// be ascending, pairwise disjoint and in bounds; gaps are allowed
    /// (the skipped elements simply become unreachable for `'a`).
    /// Empty ranges produce no tile. Returns `(row_start, col_start,
    /// tile)` triples ordered row band outer, column band inner.
    pub fn split_grid(
        self,
        row_splits: &[(usize, usize)],
        col_splits: &[(usize, usize)],
    ) -> Vec<(usize, usize, MatMut<'a, S>)> {
        let check = |splits: &[(usize, usize)], limit: usize, what: &str| {
            let mut prev_end = 0usize;
            for &(start, len) in splits {
                assert!(
                    start >= prev_end,
                    "{what} ranges must be ascending and disjoint"
                );
                let end = start.checked_add(len).expect("range end overflows");
                assert!(end <= limit, "{what} range ({start}, {len}) out of bounds");
                prev_end = end;
            }
        };
        check(row_splits, self.rows, "row");
        check(col_splits, self.cols, "column");
        let row_bands = row_splits.iter().filter(|r| r.1 > 0).count();
        let last_col_start = col_splits.iter().rev().find(|c| c.1 > 0).map_or(0, |c| c.0);
        let mut out = Vec::with_capacity(row_bands * col_splits.len().max(1));
        for &(i0, mt) in row_splits {
            if mt == 0 {
                continue;
            }
            for &(j0, nt) in col_splits {
                if nt == 0 {
                    continue;
                }
                let off = j0 * self.ld + i0;
                // The contiguous claim a tile may expose as a slice:
                // with a single row band the tiles are column bands —
                // each may claim up to the start of the next band
                // (`ld * nt` elements; the last band takes the parent's
                // whole tail). With several row bands, tiles interleave
                // column-wise, so only the first column's `mt`-element
                // run is provably free of sibling elements.
                let span = if row_bands <= 1 {
                    if j0 == last_col_start {
                        self.span.saturating_sub(off)
                    } else {
                        (self.ld * nt).min(self.span.saturating_sub(off))
                    }
                } else {
                    mt
                };
                // SAFETY: the audited unsafe of the disjoint split:
                // (1) In-bounds: the range validation above proved
                //     `i0 + mt <= rows` and `j0 + nt <= cols` with
                //     `mt, nt >= 1`, so `off` is the flat index of the
                //     live element (i0, j0) of `self` and `ptr.add(off)`
                //     stays inside the allocation backing the parent.
                // (2) Disjointness: two distinct tiles differ in their
                //     row range or their column range; validated ranges
                //     are pairwise disjoint, so the tiles' element sets
                //     `{(i, j) : i in rows(t), j in cols(t)}` never
                //     intersect. The tiles therefore partition a subset
                //     of the parent's exclusive element claim.
                // (3) No other path: `self` is consumed by value, so no
                //     handle to the parent rectangle survives; each
                //     element of the parent is claimed by at most one
                //     tile for the rest of `'a`.
                // (4) Slice claims: the `span` chosen above never
                //     reaches another tile's first element (column
                //     bands end exactly where the next band begins;
                //     interleaved tiles only claim their first-column
                //     run) and never exceeds the parent's own `span`.
                // (5) Provenance: every tile pointer derives from the
                //     parent's `ptr`, so concurrent same-provenance
                //     raw-pointer writes to disjoint elements from
                //     different threads are sound.
                let ptr = unsafe { self.ptr.add(off) };
                let tile = MatMut {
                    rows: mt,
                    cols: nt,
                    ld: self.ld,
                    span,
                    ptr,
                    _marker: PhantomData,
                };
                out.push((i0, j0, tile));
            }
        }
        out
    }
}

/// BLASFEO's panel-major storage (Fig. 3 of the paper): rows are grouped
/// into panels of `ps`; within a panel, elements are stored column by
/// column, each column contributing `ps` contiguous elements. The row
/// count is rounded up to a multiple of `ps` with explicit zeros, which
/// is exactly how BLASFEO amortizes edge handling.
#[derive(Debug, Clone, PartialEq)]
pub struct PanelMatrix<S: Scalar> {
    rows: usize,
    cols: usize,
    ps: usize,
    panels: usize,
    data: Vec<S>,
}

impl<S: Scalar> PanelMatrix<S> {
    /// Default panel size on a 128-bit SIMD machine.
    pub const DEFAULT_PS: usize = 4;

    /// Zero panel-major matrix.
    pub fn zeros(rows: usize, cols: usize, ps: usize) -> Self {
        assert!(ps >= 1);
        let panels = rows.div_ceil(ps).max(1);
        PanelMatrix {
            rows,
            cols,
            ps,
            panels,
            data: vec![S::ZERO; panels * ps * cols],
        }
    }

    /// Convert from a column-major view (the "format conversion at the
    /// very beginning" of §II-C; in BLASFEO applications the data lives
    /// in this format permanently, so it is *not* counted as packing).
    pub fn from_col_major(a: MatRef<'_, S>, ps: usize) -> Self {
        let mut p = PanelMatrix::zeros(a.rows(), a.cols(), ps);
        for j in 0..a.cols() {
            for i in 0..a.rows() {
                p.set(i, j, a.at(i, j));
            }
        }
        p
    }

    /// Number of (logical) rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Panel size.
    pub fn ps(&self) -> usize {
        self.ps
    }

    /// Flat index of element `(i, j)`.
    fn idx(&self, i: usize, j: usize) -> usize {
        let panel = i / self.ps;
        panel * (self.ps * self.cols) + j * self.ps + (i % self.ps)
    }

    /// Element access (zero in the padding region).
    pub fn at(&self, i: usize, j: usize) -> S {
        assert!(
            i < self.panels * self.ps && j < self.cols,
            "index out of bounds"
        );
        self.data[self.idx(i, j)]
    }

    /// Set an element.
    pub fn set(&mut self, i: usize, j: usize, v: S) {
        assert!(
            i < self.panels * self.ps && j < self.cols,
            "index out of bounds"
        );
        let idx = self.idx(i, j);
        self.data[idx] = v;
    }

    /// The contiguous sliver for panel `p` (all columns): `ps` rows.
    pub fn panel(&self, p: usize) -> &[S] {
        assert!(p < self.panels, "panel out of range");
        &self.data[p * self.ps * self.cols..(p + 1) * self.ps * self.cols]
    }

    /// Number of row panels.
    pub fn num_panels(&self) -> usize {
        self.panels
    }

    /// Copy back to column-major.
    pub fn to_mat(&self) -> Mat<S> {
        Mat::from_fn(self.rows, self.cols, |i, j| self.at(i, j))
    }

    /// Raw panel-major storage (`num_panels * ps * cols` elements).
    pub fn data(&self) -> &[S] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mat_indexing_is_column_major() {
        let m = Mat::<f32>::from_fn(3, 2, |i, j| (10 * i + j) as f32);
        assert_eq!(m[(2, 1)], 21.0);
        assert_eq!(m.data()[m.ld() + 2], 21.0);
    }

    #[test]
    fn random_is_deterministic() {
        let a = Mat::<f32>::random(5, 7, 42);
        let b = Mat::<f32>::random(5, 7, 42);
        assert_eq!(a, b);
        let c = Mat::<f32>::random(5, 7, 43);
        assert!(a.max_abs_diff(&c) > 0.0);
    }

    #[test]
    fn block_views_window_correctly() {
        let m = Mat::<f32>::from_fn(6, 6, |i, j| (i * 10 + j) as f32);
        let r = m.as_ref();
        let b = r.block(2, 3, 3, 2);
        assert_eq!(b.at(0, 0), 23.0);
        assert_eq!(b.at(2, 1), 44.0);
        assert_eq!(b.rows(), 3);
    }

    #[test]
    fn mut_block_writes_through() {
        let mut m = Mat::<f32>::zeros(4, 4);
        {
            let mut v = m.as_mut();
            let mut b = v.block_mut(1, 1, 2, 2);
            b.set(0, 0, 5.0);
            b.set(1, 1, 7.0);
        }
        assert_eq!(m[(1, 1)], 5.0);
        assert_eq!(m[(2, 2)], 7.0);
        assert_eq!(m[(0, 0)], 0.0);
    }

    #[test]
    fn scale_applies_beta() {
        let mut m = Mat::<f32>::from_fn(3, 3, |i, j| (i + j) as f32);
        m.as_mut().scale(2.0);
        assert_eq!(m[(1, 2)], 6.0);
        // beta = 1 is a no-op fast path.
        m.as_mut().scale(1.0);
        assert_eq!(m[(1, 2)], 6.0);
    }

    #[test]
    fn panel_matrix_round_trips() {
        let m = Mat::<f32>::random(11, 7, 9);
        let p = PanelMatrix::from_col_major(m.as_ref(), 4);
        assert_eq!(p.num_panels(), 3);
        assert_eq!(p.to_mat(), m);
    }

    #[test]
    fn panel_padding_rows_are_zero() {
        let m = Mat::<f32>::from_fn(5, 3, |_, _| 1.0);
        let p = PanelMatrix::from_col_major(m.as_ref(), 4);
        // Rows 5..8 are padding.
        for j in 0..3 {
            for i in 5..8 {
                assert_eq!(p.at(i, j), 0.0);
            }
        }
    }

    #[test]
    fn panel_layout_is_ps_contiguous_per_column() {
        let m = Mat::<f32>::from_fn(8, 2, |i, j| (i * 100 + j) as f32);
        let p = PanelMatrix::from_col_major(m.as_ref(), 4);
        let first = p.panel(0);
        // Panel 0, column 0 holds rows 0..4 contiguously.
        assert_eq!(&first[0..4], &[0.0, 100.0, 200.0, 300.0]);
        // Panel 0, column 1 follows.
        assert_eq!(&first[4..8], &[1.0, 101.0, 201.0, 301.0]);
    }

    #[test]
    fn matref_from_slice_validates() {
        let data = vec![0.0f32; 12];
        let r = MatRef::from_slice(&data, 3, 4, 3);
        assert_eq!(r.rows(), 3);
    }

    #[test]
    #[should_panic(expected = "slice too short")]
    fn matref_rejects_short_slices() {
        let data = vec![0.0f32; 5];
        MatRef::from_slice(&data, 3, 4, 3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn block_bounds_checked() {
        let m = Mat::<f32>::zeros(4, 4);
        m.as_ref().block(2, 2, 3, 1);
    }

    #[test]
    fn max_abs_diff_reports_worst_entry() {
        let a = Mat::<f32>::zeros(2, 2);
        let mut b = Mat::<f32>::zeros(2, 2);
        b[(1, 0)] = -0.5;
        assert_eq!(a.max_abs_diff(&b), 0.5);
    }

    #[test]
    fn split_grid_tiles_cover_and_write_through() {
        let mut m = Mat::<f32>::zeros(7, 5);
        let tiles = m.as_mut().split_grid(&[(0, 3), (3, 4)], &[(0, 2), (2, 3)]);
        assert_eq!(tiles.len(), 4);
        for (i0, j0, mut t) in tiles {
            for j in 0..t.cols() {
                for i in 0..t.rows() {
                    t.set(i, j, ((i0 + i) * 10 + j0 + j) as f32);
                }
            }
        }
        for j in 0..5 {
            for i in 0..7 {
                assert_eq!(m[(i, j)], (i * 10 + j) as f32);
            }
        }
    }

    #[test]
    fn split_grid_concurrent_disjoint_writes() {
        // Each tile goes to its own thread; all writes land and no
        // element is touched twice. Run under Miri to check the raw
        // same-provenance pointer scheme.
        let mut m = Mat::<f32>::zeros(8, 6);
        let tiles = m.as_mut().split_grid(&[(0, 5), (5, 3)], &[(0, 4), (4, 2)]);
        std::thread::scope(|s| {
            for (i0, j0, mut t) in tiles {
                s.spawn(move || {
                    for j in 0..t.cols() {
                        for i in 0..t.rows() {
                            t.set(i, j, ((i0 + i) + 100 * (j0 + j)) as f32);
                        }
                    }
                });
            }
        });
        for j in 0..6 {
            for i in 0..8 {
                assert_eq!(m[(i, j)], (i + 100 * j) as f32);
            }
        }
    }

    #[test]
    fn split_grid_skips_empty_ranges_and_allows_gaps() {
        let mut m = Mat::<f32>::from_fn(6, 4, |_, _| 1.0);
        // Empty row band and a column gap (column 1 unassigned).
        let tiles = m
            .as_mut()
            .split_grid(&[(0, 2), (2, 0), (2, 4)], &[(0, 1), (2, 2)]);
        assert_eq!(tiles.len(), 4);
        for (_, _, mut t) in tiles {
            assert!(t.rows() > 0 && t.cols() > 0);
            t.scale(0.0);
        }
        for i in 0..6 {
            assert_eq!(m[(i, 1)], 1.0, "gap column must be untouched");
            assert_eq!(m[(i, 0)], 0.0);
            assert_eq!(m[(i, 3)], 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "ascending and disjoint")]
    fn split_grid_rejects_overlapping_ranges() {
        let mut m = Mat::<f32>::zeros(6, 6);
        m.as_mut().split_grid(&[(0, 4), (3, 2)], &[(0, 6)]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn split_grid_rejects_out_of_bounds_ranges() {
        let mut m = Mat::<f32>::zeros(6, 6);
        m.as_mut().split_grid(&[(0, 6)], &[(4, 3)]);
    }

    #[test]
    fn split_grid_column_bands_keep_contiguous_views() {
        // A single row band splits into column bands, which stay
        // contiguous: rb()/data_mut() must still work on them.
        let mut m = Mat::<f32>::from_fn(4, 6, |i, j| (i + j) as f32);
        let tiles = m.as_mut().split_grid(&[(0, 4)], &[(0, 3), (3, 3)]);
        for (_, j0, mut t) in tiles {
            assert!(t.is_contiguous_view());
            assert_eq!(t.rb().at(1, 1), (1 + j0 + 1) as f32);
            t.data_mut()[0] = -1.0;
        }
        assert_eq!(m[(0, 0)], -1.0);
        assert_eq!(m[(0, 3)], -1.0);
    }

    #[test]
    #[should_panic(expected = "contiguous view")]
    fn split_grid_row_tiles_refuse_slice_exposure() {
        let mut m = Mat::<f32>::zeros(6, 4);
        let mut tiles = m.as_mut().split_grid(&[(0, 3), (3, 3)], &[(0, 4)]);
        let (_, _, t) = &mut tiles[0];
        assert!(!t.is_contiguous_view());
        t.data_mut();
    }

    #[test]
    fn tile_ptr_window_is_bounds_checked() {
        let mut m = Mat::<f32>::zeros(4, 4);
        let mut v = m.as_mut();
        let p = v.tile_ptr(1, 2, 3, 2);
        // SAFETY: (1, 2) heads a 3x2 window inside the 4x4 view, and
        // `v` holds exclusive access to it; ld = 4.
        unsafe { *p = 9.0 };
        let _ = v;
        assert_eq!(m[(1, 2)], 9.0);
    }

    #[test]
    #[should_panic(expected = "tile window out of bounds")]
    fn tile_ptr_rejects_oversized_windows() {
        let mut m = Mat::<f32>::zeros(4, 4);
        m.as_mut().tile_ptr(2, 0, 3, 1);
    }
}
