//! Sparse LU factorization of a simplex basis, with a product-form eta
//! file for the column replacements between refactorizations.
//!
//! A basis of a time-indexed relaxation is almost triangular: most of its
//! columns are slacks (one entry) or start variables whose capacity rows
//! all keep their slack basic. [`LuFactor::factor`] therefore peels
//! **singletons** first — a column with one active entry is pivoted with
//! an empty `L` column, a row with one active entry with an empty `U` row
//! — which touches every entry once and creates no fill. What is left
//! (the *nucleus*) is eliminated right-looking — every pivot updates the
//! rows of its column at once — with **Markowitz** pivot selection under
//! **threshold partial pivoting**: among the entries within
//! `PIVOT_THRESHOLD` of their column's largest, take the one minimizing
//! `(row count − 1)·(column count − 1)`.
//!
//! Every choice breaks ties on the lowest index (position first, then
//! row), so the factor — and through the simplex the whole branch & bound
//! tree — is a pure function of the ordered basis, never of allocation or
//! iteration order.
//!
//! # The shape this is built for
//!
//! Measured on the Table 1 snapshots (DESIGN.md §14, "Root LP"): a basis
//! has ≈ 340 rows and ≈ 11 000 entries, the peel takes three quarters of
//! the rows, and the nucleus is **84 rows of 342, more
//! than half of its cells non-zero** (11 of 342 on the large snapshots of
//! `exact_root_lp`). Five of six nucleus pivots have merit 0 — a row or
//! column singleton uncovered by an earlier pivot — typically a singleton
//! row whose column still reaches some 40 others. The other regime is
//! the 1 318-row bases of the 316 326-variable model (`milp_par`): a
//! sparse nucleus of ≈ 250 rows with under four entries a row, where
//! hardly any pivot is a singleton and nearly every one is searched for.
//! So the nucleus keeps its matrix doubly indexed, with O(1) steps
//! everywhere a pivot goes, and finds a pivot from the counts:
//!
//! * rows hold `(position, value)` entries, positions hold the list of
//!   rows they reach; the two sides of an entry point at each other, so
//!   reading the value behind a column entry, deleting a cancelled entry
//!   from its column and deleting the pivot column's entry from a row
//!   are all one step, not a scan (`Active`);
//! * both live in one buffer each (`Lists`), sized from the counts the
//!   peel leaves, a list that outgrows its room moving to the tail;
//! * open rows and columns are threaded by their count (`CountLists`),
//!   and the search goes up the counts, columns and rows of 1 first — a
//!   merit-0 pivot is decided without looking at anything else — and
//!   stops at the count whose square exceeds the best merit, where no
//!   unseen entry can undercut it (`Active::find_pivot`); a column's
//!   largest magnitude is computed when a candidate first asks and kept
//!   until a pivot touches the column;
//! * a pivot row that is all pivot only records the multipliers.
//!
//! # Which orders are observable
//!
//! The factor must not depend on how the pivots were *found*, but one
//! order inside the elimination reaches the results: an `L` eta lists its
//! multipliers in the order of the pivot column's row list, and
//! [`LuFactor::btran`] sums the eta's dot product in that order — another
//! order is another rounding. A column's list is therefore an append-only
//! history edited exactly as a `Vec` would be: fill `push`es, a
//! cancellation `swap_remove`s (the last row takes the hole), and a row
//! that has been pivoted *stays listed* (skipped when read) because its
//! presence decides which row a later `swap_remove` moves. Everything
//! else is free: the order of entries inside an active row and inside a
//! `U` row (each is only ever scattered to distinct targets), the order
//! in which rows and columns are searched (the pivot is a minimum, ties
//! broken by index), and the column-wise `U`, ordered by step.
//! `tests/lu_props.rs::factors_are_pinned_to_the_bit` holds all of this to
//! recorded bits.
//!
//! Index spaces: a basis matrix `B` has one *row* per constraint and one
//! *position* per basic variable (`B`'s column `k` is the column of
//! `basis[k]`). [`LuFactor::ftran`] maps a row-indexed right-hand side to
//! a position-indexed solution of `B w = a`; [`LuFactor::btran`] maps a
//! position-indexed right-hand side to a row-indexed solution of
//! `Bᵀ y = c`. Both skip the zeros of their argument.

/// Smallest pivot magnitude accepted; a basis that needs a smaller one is
/// reported singular.
pub const PIVOT_TOL: f64 = 1e-9;
/// Threshold partial pivoting: a nucleus pivot must be at least this
/// fraction of the largest active entry of its column, which bounds the
/// `L` multipliers by its inverse.
const PIVOT_THRESHOLD: f64 = 0.1;
/// Entries cancelled below this magnitude are dropped from the active
/// matrix and from eta columns (integral bases cancel to exact zeros or
/// to rounding noise, never to anything in between).
const DROP_TOL: f64 = 1e-14;
/// "No item" in the `u32` links and marks of the elimination.
const NONE: u32 = u32::MAX;

/// Transposes a compressed sparse matrix: `ptr`/`idx`/`val` list each
/// major slice's `(minor index, value)` entries; the result lists each of
/// the `minors` minor slices' `(major index, value)` entries, majors
/// ascending. A counting sort, O(nnz + minors).
fn transpose(
    minors: usize,
    ptr: &[usize],
    idx: &[u32],
    val: &[f64],
) -> (Vec<usize>, Vec<u32>, Vec<f64>) {
    let mut t_ptr = vec![0usize; minors + 1];
    for &i in idx {
        t_ptr[i as usize + 1] += 1;
    }
    for i in 0..minors {
        t_ptr[i + 1] += t_ptr[i];
    }
    let mut next = t_ptr.clone();
    let mut t_idx = vec![0u32; idx.len()];
    let mut t_val = vec![0.0; idx.len()];
    for major in 0..ptr.len() - 1 {
        for e in ptr[major]..ptr[major + 1] {
            let slot = &mut next[idx[e] as usize];
            t_idx[*slot] = major as u32;
            t_val[*slot] = val[e];
            *slot += 1;
        }
    }
    (t_ptr, t_idx, t_val)
}

/// The singleton queues of the peel: a set of row or position indices
/// that hands its members out lowest first.
struct IndexSet(Vec<u64>);

impl IndexSet {
    /// The empty set over `0..size`.
    fn new(size: usize) -> IndexSet {
        IndexSet(vec![0; size.div_ceil(64)])
    }

    fn insert(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    fn pop_lowest(&mut self) -> Option<usize> {
        let (w, word) = self.0.iter_mut().enumerate().find(|(_, w)| **w != 0)?;
        let bit = word.trailing_zeros() as usize;
        *word &= *word - 1;
        Some(64 * w + bit)
    }
}

/// One list of a [`Lists`]: `buf[start..start + len]`, with room up to
/// `start + cap`.
#[derive(Clone, Copy, Default)]
struct Span {
    start: u32,
    len: u32,
    cap: u32,
}

/// Growable lists packed into one buffer. A push into a full list moves
/// the list to the tail of the buffer with twice the room; the slots it
/// leaves are not reused, so the buffer stays within a constant factor of
/// what was ever pushed and a factorization allocates it once or twice.
struct Lists<T> {
    buf: Vec<T>,
    span: Vec<Span>,
}

impl<T: Copy + Default> Lists<T> {
    /// One empty list per item of `room`, with slots for that many items
    /// plus some slack for fill; a list that expects nothing gets none.
    fn with_room(room: impl Iterator<Item = u32>) -> Lists<T> {
        let mut start = 0;
        let span: Vec<Span> = room
            .map(|room| {
                let cap = if room == 0 { 0 } else { room + room / 2 + 2 };
                start += cap;
                Span {
                    start: start - cap,
                    len: 0,
                    cap,
                }
            })
            .collect();
        Lists {
            buf: vec![T::default(); start as usize],
            span,
        }
    }

    fn len(&self, s: usize) -> u32 {
        self.span[s].len
    }

    fn list(&self, s: usize) -> &[T] {
        let Span { start, len, .. } = self.span[s];
        &self.buf[start as usize..(start + len) as usize]
    }

    fn item(&mut self, s: usize, at: u32) -> &mut T {
        &mut self.buf[(self.span[s].start + at) as usize]
    }

    /// Appends to list `s`; returns the item's index in the list.
    fn push(&mut self, s: usize, item: T) -> u32 {
        let Span { start, len, cap } = self.span[s];
        if len == cap {
            let tail = self.buf.len();
            self.buf
                .extend_from_within(start as usize..(start + len) as usize);
            let cap = 2 * cap + 2;
            self.buf.resize(tail + cap as usize, T::default());
            self.span[s] = Span {
                start: tail as u32,
                len,
                cap,
            };
        }
        let span = &mut self.span[s];
        self.buf[(span.start + span.len) as usize] = item;
        span.len += 1;
        span.len - 1
    }

    /// `Vec::swap_remove` on list `s`: the last item takes the place of
    /// item `at`. Returns the item that moved, if one did.
    fn swap_remove(&mut self, s: usize, at: u32) -> Option<T> {
        let span = &mut self.span[s];
        span.len -= 1;
        let (slot, last) = ((span.start + at) as usize, (span.start + span.len) as usize);
        (slot != last).then(|| {
            self.buf[slot] = self.buf[last];
            self.buf[slot]
        })
    }
}

/// The open rows (or positions) threaded by their live entry count:
/// doubly linked, so one whose count changed changes list in O(1), and the
/// search reads "every row of length `n`" off `head[n]`.
struct CountLists {
    /// First item of each count's list.
    head: Vec<u32>,
    next: Vec<u32>,
    prev: Vec<u32>,
}

impl CountLists {
    fn new(items: usize, max_count: usize) -> CountLists {
        CountLists {
            head: vec![NONE; max_count + 1],
            next: vec![NONE; items],
            prev: vec![NONE; items],
        }
    }

    fn link(&mut self, item: usize, count: u32) {
        let first = std::mem::replace(&mut self.head[count as usize], item as u32);
        (self.prev[item], self.next[item]) = (NONE, first);
        if first != NONE {
            self.prev[first as usize] = item as u32;
        }
    }

    /// Takes `item` off the list of `count`, where [`Self::link`] put it.
    fn unlink(&mut self, item: usize, count: u32) {
        let (prev, next) = (self.prev[item], self.next[item]);
        match prev {
            NONE => self.head[count as usize] = next,
            _ => self.next[prev as usize] = next,
        }
        if next != NONE {
            self.prev[next as usize] = prev;
        }
    }
}

/// An entry of an active row: its position, where the position's list
/// holds this row, and the value.
#[derive(Clone, Copy, Default)]
struct RowEntry {
    pos: u32,
    at: u32,
    val: f64,
}

/// An entry of an active position's list: a row it reaches and where that
/// row holds the entry — the O(1) value lookup. Rows pivoted since stay
/// listed (see the module header) with a dangling `at`.
#[derive(Clone, Copy, Default)]
struct ColEntry {
    row: u32,
    at: u32,
}

/// A pivot candidate; the search keeps the lowest `(merit, pos, row)`.
#[derive(Clone, Copy)]
struct Candidate {
    merit: usize,
    pos: usize,
    row: usize,
    value: f64,
}

/// The nucleus while it is eliminated: what the singleton peel left of
/// `B`, updated in place by every Markowitz pivot.
struct Active {
    /// Live entries of each active row, in no meaningful order.
    rows: Lists<RowEntry>,
    /// The rows each active position reaches, in the order that becomes
    /// its `L` eta; `col_cnt` counts the live ones.
    cols: Lists<ColEntry>,
    col_cnt: Vec<u32>,
    row_done: Vec<bool>,
    col_done: Vec<bool>,
    /// The open rows by length and the open positions by live count.
    rows_by_len: CountLists,
    cols_by_cnt: CountLists,
    /// Largest live magnitude of each position, as far as a search has
    /// asked for it; negative once a pivot has touched the position.
    col_max: Vec<f64>,
}

impl Active {
    /// Loads the rows and positions the peel left open from the row-wise
    /// `B`, reserving from their live counts.
    fn load(
        (br_ptr, br_col, br_val): (&[usize], &[u32], &[f64]),
        (row_done, row_cnt): (Vec<bool>, &[u32]),
        (col_done, col_cnt): (Vec<bool>, Vec<u32>),
        nucleus: usize,
    ) -> Active {
        let m = row_done.len();
        let mut active = Active {
            rows: Lists::with_room((0..m).map(|i| if row_done[i] { 0 } else { row_cnt[i] })),
            cols: Lists::with_room((0..m).map(|k| if col_done[k] { 0 } else { col_cnt[k] })),
            col_cnt,
            row_done,
            col_done,
            rows_by_len: CountLists::new(m, nucleus),
            cols_by_cnt: CountLists::new(m, nucleus),
            col_max: vec![-1.0; m],
        };
        for i in 0..m {
            if active.row_done[i] {
                continue;
            }
            for e in br_ptr[i]..br_ptr[i + 1] {
                let c = br_col[e] as usize;
                if !active.col_done[c] {
                    active.insert(i, c, br_val[e]);
                }
            }
            active.rows_by_len.link(i, active.rows.len(i));
        }
        for k in 0..m {
            if !active.col_done[k] {
                active.cols_by_cnt.link(k, active.col_cnt[k]);
            }
        }
        active
    }

    /// Appends entry `(i, c)` to its row and to its position's list.
    fn insert(&mut self, i: usize, c: usize, val: f64) {
        let entry = RowEntry {
            pos: c as u32,
            at: self.cols.len(c),
            val,
        };
        let at = self.rows.push(i, entry);
        self.cols.push(c, ColEntry { row: i as u32, at });
    }

    /// Takes entry `at` out of row `r` and returns it; its position's
    /// list is the caller's to update.
    fn remove_from_row(&mut self, r: usize, at: u32) -> RowEntry {
        let removed = *self.rows.item(r, at);
        if let Some(moved) = self.rows.swap_remove(r, at) {
            self.cols.item(moved.pos as usize, moved.at).at = at;
        }
        removed
    }

    /// `swap_remove`s item `at` of position `c`'s list.
    fn remove_from_col(&mut self, c: usize, at: u32) {
        if let Some(moved) = self.cols.swap_remove(c, at) {
            if !self.row_done[moved.row as usize] {
                self.rows.item(moved.row as usize, moved.at).at = at;
            }
        }
    }

    /// The live entries `(row, value)` of position `k`, in list order.
    fn live(&self, k: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.cols
            .list(k)
            .iter()
            .filter(|entry| !self.row_done[entry.row as usize])
            .map(|entry| {
                let row = entry.row as usize;
                (row, self.rows.list(row)[entry.at as usize].val)
            })
    }

    /// Makes `(merit, k, i)` the best candidate if it undercuts the best
    /// so far and passes the threshold test.
    fn consider(&mut self, best: &mut Option<Candidate>, merit: usize, k: usize, i: usize, v: f64) {
        if best.is_some_and(|b| (merit, k, i) >= (b.merit, b.pos, b.row)) || v.abs() <= PIVOT_TOL {
            return;
        }
        if self.col_max[k] < 0.0 {
            self.col_max[k] = self.live(k).map(|(_, v)| v.abs()).fold(0.0, f64::max);
        }
        if v.abs() >= PIVOT_THRESHOLD * self.col_max[k] {
            *best = Some(Candidate {
                merit,
                pos: k,
                row: i,
                value: v,
            });
        }
    }

    /// [`Self::consider`]s every entry of row `i`.
    fn search_row(&mut self, best: &mut Option<Candidate>, i: usize) {
        let len = self.rows.len(i) as usize;
        for e in 0..len {
            let entry = self.rows.list(i)[e];
            let k = entry.pos as usize;
            let merit = (len - 1) * (self.col_cnt[k] as usize - 1);
            self.consider(best, merit, k, i, entry.val);
        }
    }

    /// [`Self::consider`]s every live entry of position `k`.
    fn search_col(&mut self, best: &mut Option<Candidate>, k: usize) {
        let cnt = self.col_cnt[k] as usize;
        for e in 0..self.cols.len(k) as usize {
            let ColEntry { row, at } = self.cols.list(k)[e];
            let i = row as usize;
            if !self.row_done[i] {
                let merit = (self.rows.len(i) as usize - 1) * (cnt - 1);
                let v = self.rows.list(i)[at as usize].val;
                self.consider(best, merit, k, i, v);
            }
        }
    }

    /// The Markowitz pivot: the lowest `(merit, position, row)` among the
    /// entries within [`PIVOT_THRESHOLD`] of their position's largest.
    ///
    /// Positions and rows are searched by ascending count. Before level
    /// `n` every row shorter than `n` and every position counting less
    /// has been searched, so an entry not seen yet has a merit of at
    /// least `(n − 1)²`, and the search stops at the first level where
    /// that exceeds the best merit found — a bound that only ties is not
    /// skipped, the tie may hold a lower position. Level 1 is the
    /// singletons: a merit of 0 ends the search at level 2.
    fn find_pivot(&mut self) -> Option<Candidate> {
        let mut best = None;
        for n in 1..self.rows_by_len.head.len() {
            if best.is_some_and(|b: Candidate| (n - 1) * (n - 1) > b.merit) {
                break;
            }
            let mut k = self.cols_by_cnt.head[n];
            while k != NONE {
                self.search_col(&mut best, k as usize);
                k = self.cols_by_cnt.next[k as usize];
            }
            let mut i = self.rows_by_len.head[n];
            while i != NONE {
                self.search_row(&mut best, i as usize);
                i = self.rows_by_len.next[i as usize];
            }
        }
        best
    }

    /// The search [`Self::find_pivot`] replaces — every entry of every
    /// open position, each position's maximum computed afresh — kept as
    /// the reference the debug builds hold it to.
    #[cfg(debug_assertions)]
    fn exhaustive_pivot(&self) -> Option<(usize, usize, u64)> {
        let mut best: Option<(usize, usize, usize, f64)> = None;
        for k in (0..self.col_done.len()).filter(|&k| !self.col_done[k]) {
            let max = self.live(k).map(|(_, v)| v.abs()).fold(0.0, f64::max);
            for (i, v) in self.live(k) {
                let merit = (self.rows.len(i) as usize - 1) * (self.col_cnt[k] as usize - 1);
                if best.is_none_or(|(b, bk, bi, _)| (merit, k, i) < (b, bk, bi))
                    && v.abs() > PIVOT_TOL
                    && v.abs() >= PIVOT_THRESHOLD * max
                {
                    best = Some((merit, k, i, v));
                }
            }
        }
        best.map(|(_, k, i, v)| (k, i, v.to_bits()))
    }
}

/// `B = L·U` in pivot order plus the eta file of the pivots applied since.
#[derive(Clone, Debug, Default)]
pub struct LuFactor {
    m: usize,
    /// Rows (= positions) the singleton peel left to the Markowitz
    /// elimination; the steps before `m − nucleus` are singleton pivots.
    nucleus: usize,
    /// Row, position and value of the pivot of each elimination step.
    piv_row: Vec<u32>,
    piv_pos: Vec<u32>,
    piv_val: Vec<f64>,
    /// `L`, one eta per elimination step that had multipliers: pivot row,
    /// then `(row, multiplier)` entries — in the order of the pivot
    /// column's row list, which BTRAN's dot product makes observable (see
    /// the module header).
    l_row: Vec<u32>,
    l_ptr: Vec<usize>,
    l_idx: Vec<u32>,
    l_val: Vec<f64>,
    /// Off-diagonal `U` entries of each step's pivot row, by position, in
    /// whatever order the active row held them (BTRAN scatters them to
    /// distinct targets).
    ur_ptr: Vec<usize>,
    ur_idx: Vec<u32>,
    ur_val: Vec<f64>,
    /// The same entries grouped by position, each keyed by its step's
    /// pivot row and in step order — the column-wise copy FTRAN walks.
    uc_ptr: Vec<usize>,
    uc_idx: Vec<u32>,
    uc_val: Vec<f64>,
    /// Product-form eta file: replaced position, pivot `w_r`, then the
    /// other non-zeros `(position, w_i)` of the entering column.
    e_pos: Vec<u32>,
    e_piv: Vec<f64>,
    e_ptr: Vec<usize>,
    e_idx: Vec<u32>,
    e_val: Vec<f64>,
}

impl LuFactor {
    /// Factors the `m × m` matrix whose column `k` is produced by
    /// `column(k, sink)` as `(row, value)` calls. Returns `None` when the
    /// matrix is singular to [`PIVOT_TOL`].
    pub fn factor(
        m: usize,
        mut column: impl FnMut(usize, &mut dyn FnMut(usize, f64)),
    ) -> Option<LuFactor> {
        // B column-wise, with room for a few entries a column: what the
        // large snapshots hold (≈ 5); the Table 1 bases hold ≈ 32 and
        // double three times.
        let mut bc_ptr = Vec::with_capacity(m + 1);
        let (mut bc_row, mut bc_val) = (Vec::with_capacity(4 * m), Vec::with_capacity(4 * m));
        bc_ptr.push(0);
        for k in 0..m {
            column(k, &mut |r, v| {
                if v != 0.0 {
                    bc_row.push(r as u32);
                    bc_val.push(v);
                }
            });
            bc_ptr.push(bc_row.len());
        }
        // Every entry of B ends in L or U, fill aside.
        let nnz = bc_row.len();
        let mut lu = LuFactor {
            m,
            piv_row: Vec::with_capacity(m),
            piv_pos: Vec::with_capacity(m),
            piv_val: Vec::with_capacity(m),
            l_ptr: vec![0],
            l_idx: Vec::with_capacity(nnz),
            l_val: Vec::with_capacity(nnz),
            ur_ptr: Vec::with_capacity(m + 1),
            ur_idx: Vec::with_capacity(nnz),
            ur_val: Vec::with_capacity(nnz),
            e_ptr: vec![0],
            ..LuFactor::default()
        };
        lu.ur_ptr.push(0);
        if !lu.eliminate(&bc_ptr, &bc_row, &bc_val) {
            return None;
        }
        // A factor outlives its factorization (in the simplex, and in the
        // cell a sibling copies it from): give the unused room back.
        lu.l_idx.shrink_to_fit();
        lu.l_val.shrink_to_fit();
        lu.ur_idx.shrink_to_fit();
        lu.ur_val.shrink_to_fit();
        Some(lu)
    }

    /// The elimination behind [`Self::factor`], on `B` in compressed
    /// column form; `false` on a singular matrix.
    fn eliminate(&mut self, bc_ptr: &[usize], bc_row: &[u32], bc_val: &[f64]) -> bool {
        let m = self.m;
        let (br_ptr, br_col, br_val) = transpose(m, bc_ptr, bc_row, bc_val);

        // ---- Singletons: original values, no fill. ----
        // Lowest singleton column first, a singleton row only when no
        // column is one. A queued index is never stale: counts only fall,
        // falling to 0 ends the factorization, and a column is only
        // pivoted from its own queue entry — but a row can be pivoted as
        // the one entry of a singleton column while it waits.
        let mut row_cnt: Vec<u32> = (0..m).map(|i| (br_ptr[i + 1] - br_ptr[i]) as u32).collect();
        let mut col_cnt: Vec<u32> = (0..m).map(|k| (bc_ptr[k + 1] - bc_ptr[k]) as u32).collect();
        let mut row_done = vec![false; m];
        let mut col_done = vec![false; m];
        let (mut col_queue, mut row_queue) = (IndexSet::new(m), IndexSet::new(m));
        for s in 0..m {
            if col_cnt[s] == 1 {
                col_queue.insert(s);
            }
            if row_cnt[s] == 1 {
                row_queue.insert(s);
            }
        }
        loop {
            if let Some(k) = col_queue.pop_lowest() {
                let e = (bc_ptr[k]..bc_ptr[k + 1])
                    .find(|&e| !row_done[bc_row[e] as usize])
                    .expect("count says one active entry");
                let (i, v) = (bc_row[e] as usize, bc_val[e]);
                if v.abs() <= PIVOT_TOL {
                    return false;
                }
                // The pivot row's other active entries become its U row;
                // their columns each lose this row.
                for e in br_ptr[i]..br_ptr[i + 1] {
                    let c = br_col[e] as usize;
                    if c == k || col_done[c] {
                        continue;
                    }
                    self.ur_idx.push(c as u32);
                    self.ur_val.push(br_val[e]);
                    col_cnt[c] -= 1;
                    match col_cnt[c] {
                        0 => return false,
                        1 => col_queue.insert(c),
                        _ => {}
                    }
                }
                self.push_pivot(i, k, v);
                (row_done[i], col_done[k]) = (true, true);
            } else if let Some(i) = row_queue.pop_lowest() {
                if row_done[i] {
                    continue;
                }
                let e = (br_ptr[i]..br_ptr[i + 1])
                    .find(|&e| !col_done[br_col[e] as usize])
                    .expect("count says one active entry");
                let (k, v) = (br_col[e] as usize, br_val[e]);
                if v.abs() <= PIVOT_TOL {
                    return false;
                }
                // The pivot column's other active entries are eliminated
                // (an L eta); the pivot row has nothing to add to theirs.
                for e in bc_ptr[k]..bc_ptr[k + 1] {
                    let r = bc_row[e] as usize;
                    if r == i || row_done[r] {
                        continue;
                    }
                    self.l_idx.push(r as u32);
                    self.l_val.push(bc_val[e] / v);
                    row_cnt[r] -= 1;
                    match row_cnt[r] {
                        0 => return false,
                        1 => row_queue.insert(r),
                        _ => {}
                    }
                }
                self.close_l_eta(i);
                self.push_pivot(i, k, v);
                (row_done[i], col_done[k]) = (true, true);
            } else {
                break;
            }
        }

        // ---- Nucleus: Markowitz with threshold partial pivoting. ----
        self.nucleus = m - self.piv_row.len();
        if self.nucleus > 0 {
            let active = Active::load(
                (&br_ptr, &br_col, &br_val),
                (row_done, &row_cnt),
                (col_done, col_cnt),
                self.nucleus,
            );
            if !self.eliminate_nucleus(active) {
                return false;
            }
        }

        // U column-wise: each position's entries, keyed by the pivot row
        // of the step whose U row holds them.
        (self.uc_ptr, self.uc_idx, self.uc_val) =
            transpose(m, &self.ur_ptr, &self.ur_idx, &self.ur_val);
        for step in &mut self.uc_idx {
            *step = self.piv_row[*step as usize];
        }
        true
    }

    /// Eliminates what the peel left, one Markowitz pivot per open row;
    /// `false` when no entry passes the threshold test any more.
    fn eliminate_nucleus(&mut self, mut a: Active) -> bool {
        let m = self.m;
        // The pivot row scattered by position; `hit[c]` is `NONE` for
        // positions it does not reach, else the last row updated that
        // already held position `c` (`m` = none yet).
        let mut spread = vec![0.0f64; m];
        let mut hit = vec![NONE; m];
        for _ in 0..self.nucleus {
            let pivot = a.find_pivot();
            #[cfg(debug_assertions)]
            debug_assert_eq!(
                pivot.map(|p| (p.pos, p.row, p.value.to_bits())),
                a.exhaustive_pivot(),
                "count-driven search vs. the scan of every open position"
            );
            let Some(Candidate {
                pos: k,
                row: i,
                value: v,
                ..
            }) = pivot
            else {
                return false;
            };
            (a.row_done[i], a.col_done[k]) = (true, true);
            let pivot_row = a.rows.span[i];
            let pivot_col = a.cols.span[k];
            a.rows_by_len.unlink(i, pivot_row.len);
            a.cols_by_cnt.unlink(k, a.col_cnt[k]);
            // The pivot row's slots are dead from here on but keep their
            // contents: nothing is written below the tail of the buffer.
            let pivot_entry = |a: &Active, e: u32| a.rows.buf[(pivot_row.start + e) as usize];
            for e in 0..pivot_row.len {
                let RowEntry { pos, val: u, .. } = pivot_entry(&a, e);
                let c = pos as usize;
                if c != k {
                    spread[c] = u;
                    hit[c] = m as u32;
                    self.ur_idx.push(pos);
                    self.ur_val.push(u);
                    a.cols_by_cnt.unlink(c, a.col_cnt[c]);
                    a.col_cnt[c] -= 1;
                    a.col_max[c] = -1.0;
                }
            }
            for e in 0..pivot_col.len {
                let ColEntry { row, at } = a.cols.buf[(pivot_col.start + e) as usize];
                let r = row as usize;
                if a.row_done[r] {
                    continue;
                }
                a.rows_by_len.unlink(r, a.rows.len(r));
                let l = a.remove_from_row(r, at).val / v;
                self.l_idx.push(row);
                self.l_val.push(l);
                // A pivot row that is all pivot leaves the other rows of
                // its position as they are, minus that position.
                if pivot_row.len > 1 {
                    // row_r -= l * pivot_row, dropping what cancels.
                    let mut e = 0;
                    while e < a.rows.len(r) {
                        let entry = a.rows.item(r, e);
                        let c = entry.pos as usize;
                        if hit[c] != NONE {
                            hit[c] = row;
                            entry.val -= l * spread[c];
                            if entry.val.abs() <= DROP_TOL {
                                let at = entry.at;
                                a.remove_from_row(r, e);
                                a.remove_from_col(c, at);
                                a.col_cnt[c] -= 1;
                                continue;
                            }
                        }
                        e += 1;
                    }
                    for e in 0..pivot_row.len {
                        let RowEntry { pos, val: u, .. } = pivot_entry(&a, e);
                        let c = pos as usize;
                        if c != k && hit[c] != row {
                            a.insert(r, c, -l * u);
                            a.col_cnt[c] += 1;
                        }
                    }
                }
                a.rows_by_len.link(r, a.rows.len(r));
            }
            for e in 0..pivot_row.len {
                let c = pivot_entry(&a, e).pos as usize;
                if c != k {
                    hit[c] = NONE;
                    a.cols_by_cnt.link(c, a.col_cnt[c]);
                }
            }
            self.close_l_eta(i);
            self.push_pivot(i, k, v);
        }
        true
    }

    /// Records the pivot of one elimination step and closes its U row.
    fn push_pivot(&mut self, row: usize, pos: usize, value: f64) {
        self.piv_row.push(row as u32);
        self.piv_pos.push(pos as u32);
        self.piv_val.push(value);
        self.ur_ptr.push(self.ur_idx.len());
    }

    /// Closes the L eta of the step pivoting `row`, if it has entries.
    fn close_l_eta(&mut self, row: usize) {
        if self.l_idx.len() > *self.l_ptr.last().expect("starts with 0") {
            self.l_row.push(row as u32);
            self.l_ptr.push(self.l_idx.len());
        }
    }

    /// Rows (and positions) that no singleton reached, i.e. the order of
    /// the nucleus the Markowitz elimination worked on.
    pub fn nucleus_rows(&self) -> usize {
        self.nucleus
    }

    /// Stored non-zeros of `L` and `U` (pivots included).
    pub fn factor_nnz(&self) -> usize {
        self.m + self.l_idx.len() + self.ur_idx.len()
    }

    /// Stored non-zeros of the eta file (pivots included).
    pub fn eta_nnz(&self) -> usize {
        self.e_pos.len() + self.e_idx.len()
    }

    /// Whether the eta file has outgrown the factor it updates: from here
    /// on every solve spends more in the updates than in `L` and `U`, and
    /// a fresh factor is the cheaper way to carry on.
    pub fn needs_refactor(&self) -> bool {
        self.eta_nnz() > self.factor_nnz()
    }

    /// Solves `B w = a`: `a` is indexed by row and destroyed, `w` is
    /// written by position.
    pub fn ftran(&self, a: &mut [f64], w: &mut [f64]) {
        for (s, &i) in self.l_row.iter().enumerate() {
            let t = a[i as usize];
            if t != 0.0 {
                for e in self.l_ptr[s]..self.l_ptr[s + 1] {
                    a[self.l_idx[e] as usize] -= self.l_val[e] * t;
                }
            }
        }
        for s in (0..self.m).rev() {
            let t = a[self.piv_row[s] as usize];
            let k = self.piv_pos[s] as usize;
            if t == 0.0 {
                w[k] = 0.0;
                continue;
            }
            let t = t / self.piv_val[s];
            w[k] = t;
            for e in self.uc_ptr[k]..self.uc_ptr[k + 1] {
                a[self.uc_idx[e] as usize] -= self.uc_val[e] * t;
            }
        }
        for s in 0..self.e_pos.len() {
            let r = self.e_pos[s] as usize;
            if w[r] != 0.0 {
                let t = w[r] / self.e_piv[s];
                w[r] = t;
                for e in self.e_ptr[s]..self.e_ptr[s + 1] {
                    w[self.e_idx[e] as usize] -= self.e_val[e] * t;
                }
            }
        }
    }

    /// Solves `Bᵀ y = c`: `c` is indexed by position and destroyed, `y`
    /// is written by row.
    pub fn btran(&self, c: &mut [f64], y: &mut [f64]) {
        for s in (0..self.e_pos.len()).rev() {
            let r = self.e_pos[s] as usize;
            let dot: f64 = (self.e_ptr[s]..self.e_ptr[s + 1])
                .map(|e| self.e_val[e] * c[self.e_idx[e] as usize])
                .sum();
            c[r] = (c[r] - dot) / self.e_piv[s];
        }
        for s in 0..self.m {
            let t = c[self.piv_pos[s] as usize];
            let i = self.piv_row[s] as usize;
            if t == 0.0 {
                y[i] = 0.0;
                continue;
            }
            let t = t / self.piv_val[s];
            y[i] = t;
            for e in self.ur_ptr[s]..self.ur_ptr[s + 1] {
                c[self.ur_idx[e] as usize] -= self.ur_val[e] * t;
            }
        }
        for s in (0..self.l_row.len()).rev() {
            let dot: f64 = (self.l_ptr[s]..self.l_ptr[s + 1])
                .map(|e| self.l_val[e] * y[self.l_idx[e] as usize])
                .sum();
            y[self.l_row[s] as usize] -= dot;
        }
    }

    /// Replaces the basic column at position `r` by the column whose
    /// FTRAN image is `w` (so `w[r]` is the pivot), appending one eta.
    pub fn update(&mut self, r: usize, w: &[f64]) {
        debug_assert!(w[r].abs() > PIVOT_TOL, "tiny pivot {}", w[r]);
        self.e_pos.push(r as u32);
        self.e_piv.push(w[r]);
        for (i, &v) in w.iter().enumerate() {
            if i != r && v.abs() > DROP_TOL {
                self.e_idx.push(i as u32);
                self.e_val.push(v);
            }
        }
        self.e_ptr.push(self.e_idx.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn factor_dense(rows: &[Vec<f64>]) -> Option<LuFactor> {
        LuFactor::factor(rows.len(), |k, sink| {
            for (i, row) in rows.iter().enumerate() {
                if row[k] != 0.0 {
                    sink(i, row[k]);
                }
            }
        })
    }

    fn ftran(lu: &LuFactor, a: &[f64]) -> Vec<f64> {
        let mut w = vec![0.0; a.len()];
        lu.ftran(&mut a.to_vec(), &mut w);
        w
    }

    fn btran(lu: &LuFactor, c: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; c.len()];
        lu.btran(&mut c.to_vec(), &mut y);
        y
    }

    fn close(got: &[f64], want: &[f64]) {
        for (g, w) in got.iter().zip(want) {
            assert!((g - w).abs() < 1e-12, "{got:?} vs {want:?}");
        }
    }

    /// A nucleus that no singleton reaches: every row and column has at
    /// least two entries.
    fn nucleus() -> Vec<Vec<f64>> {
        vec![
            vec![2.0, 1.0, 0.0, 0.0],
            vec![1.0, 3.0, 1.0, 0.0],
            vec![0.0, 1.0, 4.0, 2.0],
            vec![1.0, 0.0, 1.0, 3.0],
        ]
    }

    #[test]
    fn solves_both_ways_through_a_markowitz_nucleus() {
        let b = nucleus();
        let lu = factor_dense(&b).expect("nonsingular");
        let w = [1.0, -2.0, 0.5, 3.0];
        // a = B w, c = Bᵀ w.
        let a: Vec<f64> = b
            .iter()
            .map(|row| row.iter().zip(&w).map(|(x, y)| x * y).sum())
            .collect();
        let c: Vec<f64> = (0..4)
            .map(|k| (0..4).map(|i| b[i][k] * w[i]).sum())
            .collect();
        close(&ftran(&lu, &a), &w);
        close(&btran(&lu, &c), &w);
    }

    #[test]
    fn triangular_bases_factor_without_fill_or_multipliers() {
        // Unit lower triangular with a dense first column: all column
        // singletons once the last column goes first.
        let b = vec![
            vec![1.0, 0.0, 0.0],
            vec![2.0, 1.0, 0.0],
            vec![3.0, 0.0, 1.0],
        ];
        let lu = factor_dense(&b).unwrap();
        assert_eq!(lu.factor_nnz(), 5, "exactly the entries of B");
        assert!(lu.l_idx.is_empty(), "column singletons need no L");
        close(&ftran(&lu, &[1.0, 2.0, 3.0]), &[1.0, 0.0, 0.0]);
    }

    #[test]
    fn singular_matrices_are_rejected() {
        // Structurally: an empty row. Numerically: two equal columns.
        assert!(factor_dense(&[vec![1.0, 1.0], vec![0.0, 0.0]]).is_none());
        assert!(factor_dense(&[
            vec![1.0, 1.0, 2.0],
            vec![2.0, 2.0, 1.0],
            vec![3.0, 3.0, 5.0],
        ])
        .is_none());
    }

    #[test]
    fn eta_updates_track_column_replacements() {
        let mut b = nucleus();
        let mut lu = factor_dense(&b).unwrap();
        for (r, new_col) in [(1usize, [1.0, 0.0, 2.0, 1.0]), (3, [0.0, 1.0, 1.0, 5.0])] {
            let w = ftran(&lu, &new_col);
            lu.update(r, &w);
            for (i, row) in b.iter_mut().enumerate() {
                row[r] = new_col[i];
            }
            let fresh = factor_dense(&b).unwrap();
            let rhs = [1.0, 2.0, 3.0, 4.0];
            close(&ftran(&lu, &rhs), &ftran(&fresh, &rhs));
            close(&btran(&lu, &rhs), &btran(&fresh, &rhs));
        }
        assert_eq!(lu.eta_nnz(), 8, "two full eta columns");
    }
}
