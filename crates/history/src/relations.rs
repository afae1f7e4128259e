//! Small directed-graph utilities used by the consistency checkers.

use std::collections::VecDeque;

/// A dense boolean matrix with word-packed rows, used for adjacency and
/// reachability over transaction graphs.
///
/// Rows are stored as consecutive `u64` words, so a whole-row union (the
/// inner step of transitive closure) touches `⌈n/64⌉` words instead of `n`
/// booleans, and a membership test is a single shift-and-mask.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct BitMatrix {
    n: usize,
    words_per_row: usize,
    bits: Vec<u64>,
}

impl Clone for BitMatrix {
    fn clone(&self) -> Self {
        BitMatrix {
            n: self.n,
            words_per_row: self.words_per_row,
            bits: self.bits.clone(),
        }
    }

    // `clone_from` reuses the destination's backing allocation: engines
    // clone one scratch matrix into another on every check, so the default
    // `*self = source.clone()` would allocate on the hottest path.
    fn clone_from(&mut self, source: &Self) {
        self.n = source.n;
        self.words_per_row = source.words_per_row;
        self.bits.clone_from(&source.bits);
    }
}

impl BitMatrix {
    /// Creates an `n × n` zero matrix.
    pub fn new(n: usize) -> Self {
        let words_per_row = n.div_ceil(64);
        BitMatrix {
            n,
            words_per_row,
            bits: vec![0; n * words_per_row],
        }
    }

    /// Number of rows (and columns).
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Resizes to `n × n` and clears every bit. Keeps the backing allocation
    /// when it is already large enough, so engines can reuse one matrix as a
    /// scratch buffer across histories.
    pub fn reset(&mut self, n: usize) {
        self.n = n;
        self.words_per_row = n.div_ceil(64);
        let words = n * self.words_per_row;
        self.bits.clear();
        self.bits.resize(words, 0);
    }

    /// Grows the matrix to `n × n`, preserving every existing bit (new rows
    /// and columns start clear). Keeps the row stride when possible so the
    /// incremental engines can add one vertex in O(row) instead of
    /// rebuilding the matrix.
    pub fn grow(&mut self, n: usize) {
        assert!(n >= self.n, "grow cannot shrink the matrix");
        let new_words_per_row = n.div_ceil(64).max(self.words_per_row);
        if new_words_per_row == self.words_per_row {
            self.bits.resize(n * self.words_per_row, 0);
        } else {
            // Stride change: re-home the rows back to front so the copy
            // never overlaps unprocessed data.
            let old_wpr = self.words_per_row;
            self.bits.resize(n * new_words_per_row, 0);
            for i in (0..self.n).rev() {
                for w in (0..old_wpr).rev() {
                    self.bits[i * new_words_per_row + w] = self.bits[i * old_wpr + w];
                }
                for w in old_wpr..new_words_per_row {
                    self.bits[i * new_words_per_row + w] = 0;
                }
            }
            self.words_per_row = new_words_per_row;
        }
        self.n = n;
    }

    /// Shrinks the matrix to `n × n`, clearing the dropped rows and columns
    /// so a later [`grow`](BitMatrix::grow) sees zeros. The row stride is
    /// kept, making a shrink-by-one O(n) for the incremental engines.
    pub fn shrink(&mut self, n: usize) {
        assert!(n <= self.n, "shrink cannot grow the matrix");
        let wpr = self.words_per_row;
        // Zero the dropped rows.
        for w in &mut self.bits[n * wpr..self.n * wpr] {
            *w = 0;
        }
        // Clear the dropped columns in the surviving rows.
        let full_words = n / 64;
        let mask = if n % 64 == 0 {
            0
        } else {
            (1u64 << (n % 64)) - 1
        };
        for i in 0..n {
            let row = i * wpr;
            if n % 64 != 0 {
                self.bits[row + full_words] &= mask;
            }
            for w in &mut self.bits[row + full_words + (n % 64 != 0) as usize..row + wpr] {
                *w = 0;
            }
        }
        self.n = n;
    }

    /// Whether bit `(i, j)` is set.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    pub fn get(&self, i: usize, j: usize) -> bool {
        assert!(i < self.n && j < self.n, "bit index out of range");
        self.bits[i * self.words_per_row + j / 64] >> (j % 64) & 1 == 1
    }

    /// Clears bit `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    pub fn clear_bit(&mut self, i: usize, j: usize) {
        assert!(i < self.n && j < self.n, "bit index out of range");
        self.bits[i * self.words_per_row + j / 64] &= !(1 << (j % 64));
    }

    /// Number of words per row (the stride of [`BitMatrix::row`]).
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// Copies `words` into row `i` (extra row words beyond the slice are
    /// cleared) — the restore half of the incremental engines'
    /// save-dirty-rows protocol.
    ///
    /// # Panics
    ///
    /// Panics if the slice is longer than a row.
    pub fn restore_row(&mut self, i: usize, words: &[u64]) {
        let wpr = self.words_per_row;
        assert!(words.len() <= wpr, "saved row wider than the matrix");
        let row = &mut self.bits[i * wpr..(i + 1) * wpr];
        row[..words.len()].copy_from_slice(words);
        for w in &mut row[words.len()..] {
            *w = 0;
        }
    }

    /// Unions `words` (and bit `j`) into row `i`: the closure step for an
    /// inserted edge, where `words` is a copy of the new successor's row.
    pub fn or_into_row_with_bit(&mut self, i: usize, words: &[u64], j: usize) {
        let wpr = self.words_per_row;
        let row = &mut self.bits[i * wpr..(i + 1) * wpr];
        or_words(&mut row[..words.len().min(wpr)], words);
        row[j / 64] |= 1 << (j % 64);
    }

    /// Unions `a & b` into row `i`, leaving out column `i` and column `j`:
    /// the masked OR by which one axiom instance adds its forced edges,
    /// with `i` the writer read from, `j` the reader, `a` the reader's
    /// premise row and `b` the variable's writer row. The rows may be wider
    /// than this matrix's; the extra words are ignored.
    pub fn or_and_into_row(&mut self, i: usize, a: &[u64], b: &[u64], j: usize) {
        let wpr = self.words_per_row;
        let row = &mut self.bits[i * wpr..(i + 1) * wpr];
        for (w, (d, (x, y))) in row.iter_mut().zip(a.iter().zip(b)).enumerate() {
            let mut add = x & y;
            if w == i / 64 {
                add &= !(1 << (i % 64));
            }
            if w == j / 64 {
                add &= !(1 << (j % 64));
            }
            *d |= add;
        }
    }

    /// Sets bit `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    pub fn set(&mut self, i: usize, j: usize) {
        assert!(i < self.n && j < self.n, "bit index out of range");
        self.bits[i * self.words_per_row + j / 64] |= 1 << (j % 64);
    }

    /// The packed words of row `i`.
    pub fn row(&self, i: usize) -> &[u64] {
        let start = i * self.words_per_row;
        &self.bits[start..start + self.words_per_row]
    }

    /// Unions row `src` into row `dst` (`dst |= src`), returning whether any
    /// bit of `dst` changed. A no-op when `src == dst`.
    pub fn or_row_into(&mut self, src: usize, dst: usize) -> bool {
        if src == dst {
            return false;
        }
        let w = self.words_per_row;
        let (s, d) = (src * w, dst * w);
        let (lo, hi) = if s < d { (s, d) } else { (d, s) };
        let (head, tail) = self.bits.split_at_mut(hi);
        let (src_row, dst_row) = if s < d {
            (&head[lo..lo + w], &mut tail[..w])
        } else {
            let (dst_row, _) = head[lo..].split_at_mut(w);
            (&tail[..w], dst_row)
        };
        or_words(dst_row, src_row) != 0
    }

    /// Closes the matrix under composition: afterwards `(i, j)` is set iff
    /// there is a non-empty path `i → … → j` through set entries. Works by
    /// repeatedly OR-ing successor rows into predecessor rows until a
    /// fixpoint is reached.
    ///
    /// Successors are enumerated word-by-word via `trailing_zeros` instead
    /// of probing [`get`](BitMatrix::get) per bit, so a sparse row costs
    /// one load per word plus one union per *set* bit. After a union
    /// changes row `i`, the current word is re-read masked down to the
    /// bits above `j`, so successors the union just added are followed in
    /// the same sweep — exactly what the per-bit loop did by re-reading
    /// `get(i, j')` for `j' > j`.
    pub fn transitive_close(&mut self) {
        let wpr = self.words_per_row;
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..self.n {
                for w in 0..wpr {
                    let mut bits = self.bits[i * wpr + w];
                    // Skip the diagonal: a self-loop unions a row into
                    // itself, which cannot add anything.
                    if i / 64 == w {
                        bits &= !(1 << (i % 64));
                    }
                    while bits != 0 {
                        let j = w * 64 + bits.trailing_zeros() as usize;
                        if self.or_row_into(j, i) {
                            changed = true;
                            // Row i changed: pick up any new successors in
                            // this word beyond j before moving on.
                            bits = self.bits[i * wpr + w] & !(u64::MAX >> (63 - j % 64));
                            if i / 64 == w {
                                bits &= !(1 << (i % 64));
                            }
                        } else {
                            bits &= bits - 1;
                        }
                    }
                }
            }
        }
    }
}

/// The positions of the set bits of a packed row (a [`BitMatrix::row`] or
/// any vertex set in the same layout), in ascending order.
pub fn ones(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    row.iter().enumerate().flat_map(|(w, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let j = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                w * 64 + j
            })
        })
    })
}

/// Unions `src` into `dst` word-wise, returning the OR of all changed
/// bits (non-zero iff any destination word changed). The loop body is
/// branch-free over fixed-width blocks of four words, so the compiler can
/// autovectorize it; the change mask falls out of the same pass instead
/// of a per-word comparison branch.
fn or_words(dst: &mut [u64], src: &[u64]) -> u64 {
    debug_assert!(dst.len() <= src.len());
    let mut diff = 0u64;
    let n = dst.len();
    let blocks = n / 4 * 4;
    let (dst_blocks, dst_tail) = dst.split_at_mut(blocks);
    for (d, s) in dst_blocks
        .chunks_exact_mut(4)
        .zip(src[..blocks].chunks_exact(4))
    {
        let d: &mut [u64; 4] = d.try_into().expect("chunk width is 4");
        let s: &[u64; 4] = s.try_into().expect("chunk width is 4");
        let next = [d[0] | s[0], d[1] | s[1], d[2] | s[2], d[3] | s[3]];
        diff |= (next[0] ^ d[0]) | (next[1] ^ d[1]) | (next[2] ^ d[2]) | (next[3] ^ d[3]);
        *d = next;
    }
    for (dw, sw) in dst_tail.iter_mut().zip(&src[blocks..n]) {
        let next = *dw | *sw;
        diff |= next ^ *dw;
        *dw = next;
    }
    diff
}

/// A small directed graph over vertices `0..n`.
///
/// Histories contain at most a few dozen transactions, so adjacency lists
/// with linear scans are more than fast enough and keep the code simple.
#[derive(Clone, Debug, Default)]
pub struct Digraph {
    adj: Vec<Vec<usize>>,
}

impl Digraph {
    /// Creates a graph with `n` vertices and no edges.
    pub fn new(n: usize) -> Self {
        Digraph {
            adj: vec![Vec::new(); n],
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Whether the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Adds the edge `a → b` (duplicates are ignored).
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    pub fn add_edge(&mut self, a: usize, b: usize) {
        assert!(a < self.len() && b < self.len(), "vertex out of range");
        if !self.adj[a].contains(&b) {
            self.adj[a].push(b);
        }
    }

    /// Successors of a vertex.
    pub fn successors(&self, a: usize) -> &[usize] {
        &self.adj[a]
    }

    /// Whether the graph is acyclic (Kahn's algorithm).
    pub fn is_acyclic(&self) -> bool {
        let n = self.len();
        let mut indeg = vec![0usize; n];
        for v in 0..n {
            for &w in &self.adj[v] {
                indeg[w] += 1;
            }
        }
        let mut queue: VecDeque<usize> = (0..n).filter(|v| indeg[*v] == 0).collect();
        let mut seen = 0;
        while let Some(v) = queue.pop_front() {
            seen += 1;
            for &w in &self.adj[v] {
                indeg[w] -= 1;
                if indeg[w] == 0 {
                    queue.push_back(w);
                }
            }
        }
        seen == n
    }

    /// Reachability matrix: `(a, b)` is set iff there is a (possibly empty)
    /// path from `a` to `b`. Every vertex reaches itself.
    pub fn reachability(&self) -> BitMatrix {
        let mut m = self.adjacency();
        m.transitive_close();
        for v in 0..self.len() {
            m.set(v, v);
        }
        m
    }

    /// The adjacency matrix of the graph as a [`BitMatrix`] (no diagonal
    /// unless the graph has self-loops).
    pub fn adjacency(&self) -> BitMatrix {
        let mut m = BitMatrix::new(self.len());
        for (v, succ) in self.adj.iter().enumerate() {
            for &w in succ {
                m.set(v, w);
            }
        }
        m
    }

    /// Enumerates all topological orders of the graph, calling `f` on each.
    /// Enumeration stops early when `f` returns `true`, and the function
    /// returns whether any call returned `true`.
    ///
    /// Intended only for the small histories used in tests and the slow
    /// reference oracle.
    pub fn any_topological_order<F: FnMut(&[usize]) -> bool>(&self, mut f: F) -> bool {
        let n = self.len();
        let mut indeg = vec![0usize; n];
        for v in 0..n {
            for &w in &self.adj[v] {
                indeg[w] += 1;
            }
        }
        let mut order = Vec::with_capacity(n);
        let mut used = vec![false; n];
        self.topo_rec(&mut indeg, &mut used, &mut order, &mut f)
    }

    fn topo_rec<F: FnMut(&[usize]) -> bool>(
        &self,
        indeg: &mut Vec<usize>,
        used: &mut Vec<bool>,
        order: &mut Vec<usize>,
        f: &mut F,
    ) -> bool {
        let n = self.len();
        if order.len() == n {
            return f(order);
        }
        for v in 0..n {
            if !used[v] && indeg[v] == 0 {
                used[v] = true;
                order.push(v);
                for &w in &self.adj[v] {
                    indeg[w] -= 1;
                }
                if self.topo_rec(indeg, used, order, f) {
                    return true;
                }
                for &w in &self.adj[v] {
                    indeg[w] += 1;
                }
                order.pop();
                used[v] = false;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acyclicity() {
        let mut g = Digraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        assert!(g.is_acyclic());
        g.add_edge(2, 0);
        assert!(!g.is_acyclic());
    }

    #[test]
    fn empty_graph_is_acyclic() {
        let g = Digraph::new(0);
        assert!(g.is_acyclic());
        assert!(g.is_empty());
        assert!(Digraph::new(4).is_acyclic());
    }

    #[test]
    fn duplicate_edges_ignored() {
        let mut g = Digraph::new(2);
        g.add_edge(0, 1);
        g.add_edge(0, 1);
        assert_eq!(g.successors(0), &[1]);
    }

    #[test]
    fn reachability_matrix() {
        let mut g = Digraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        let r = g.reachability();
        assert!(r.get(0, 2));
        assert!(r.get(0, 0));
        assert!(!r.get(2, 0));
        assert!(!r.get(0, 3));
    }

    #[test]
    fn adjacency_has_no_implicit_diagonal() {
        let mut g = Digraph::new(3);
        g.add_edge(0, 1);
        let a = g.adjacency();
        assert!(a.get(0, 1));
        assert!(!a.get(0, 0));
        assert!(!a.get(1, 0));
    }

    #[test]
    fn bitmatrix_wide_rows_cross_word_boundaries() {
        // 100 vertices forces two words per row.
        let n = 100;
        let mut g = Digraph::new(n);
        for v in 0..n - 1 {
            g.add_edge(v, v + 1);
        }
        let r = g.reachability();
        assert!(r.get(0, n - 1));
        assert!(r.get(63, 64));
        assert!(!r.get(n - 1, 0));
    }

    #[test]
    fn bitmatrix_transitive_close_on_cycle() {
        let mut m = BitMatrix::new(3);
        m.set(0, 1);
        m.set(1, 2);
        m.set(2, 0);
        m.transitive_close();
        // Every vertex reaches every vertex (including itself via the cycle).
        for i in 0..3 {
            for j in 0..3 {
                assert!(m.get(i, j), "({i},{j}) should be reachable");
            }
        }
    }

    #[test]
    fn bitmatrix_or_row_into_reports_changes() {
        let mut m = BitMatrix::new(3);
        m.set(0, 2);
        assert!(m.or_row_into(0, 1), "first union changes row 1");
        assert!(!m.or_row_into(0, 1), "second union is a no-op");
        assert!(!m.or_row_into(1, 1), "self union is a no-op");
        assert!(m.get(1, 2));
    }

    #[test]
    fn bitmatrix_reset_reuses_and_clears() {
        let mut m = BitMatrix::new(2);
        m.set(1, 1);
        m.reset(3);
        assert_eq!(m.len(), 3);
        for i in 0..3 {
            for j in 0..3 {
                assert!(!m.get(i, j));
            }
        }
        m.reset(0);
        assert!(m.is_empty());
    }

    /// The pre-optimisation closure: per-bit probing, kept as the test
    /// oracle for the word-level kernel.
    fn naive_transitive_close(m: &mut BitMatrix) {
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..m.len() {
                for j in 0..m.len() {
                    if i != j && m.get(i, j) {
                        changed |= m.or_row_into(j, i);
                    }
                }
            }
        }
    }

    #[test]
    fn word_level_closure_matches_naive_closure() {
        // Pseudorandom matrices at sizes crossing the one- and two-word
        // row boundaries (and tiny ones), dense and sparse.
        let mut lcg = 0x243f_6a88_85a3_08d3u64;
        let mut next = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lcg >> 33
        };
        for n in [1usize, 2, 7, 63, 64, 65, 70, 127, 128, 130] {
            for density in [3u64, 17] {
                let mut fast = BitMatrix::new(n);
                for i in 0..n {
                    for j in 0..n {
                        if next() % density == 0 {
                            fast.set(i, j);
                        }
                    }
                }
                let mut naive = fast.clone();
                fast.transitive_close();
                naive_transitive_close(&mut naive);
                assert_eq!(fast, naive, "closures diverge at n={n} density=1/{density}");
            }
        }
    }

    #[test]
    fn or_row_into_detects_changes_beyond_the_chunk_remainder() {
        // 130 columns = 3 words per row: two words of full 4-wide blocks
        // would need ≥4, so the whole row is remainder — then 260 columns
        // = 5 words exercises one block plus remainder. The changed flag
        // must see a difference wherever it lands.
        for (n, probe) in [(130usize, [0usize, 64, 129]), (260, [3, 200, 259])] {
            for j in probe {
                let mut m = BitMatrix::new(n);
                m.set(0, j);
                assert!(m.or_row_into(0, 1), "change at column {j} missed (n={n})");
                assert!(!m.or_row_into(0, 1), "idempotent union reported a change");
                assert!(m.get(1, j));
            }
        }
    }

    #[test]
    fn or_into_row_with_bit_accepts_narrow_saved_rows() {
        // The incremental engines replay saved rows that can be narrower
        // than the current stride; the union must stop at the slice.
        let mut m = BitMatrix::new(130);
        let saved = [1u64 << 5]; // one word, bit 5
        m.or_into_row_with_bit(2, &saved, 129);
        assert!(m.get(2, 5));
        assert!(m.get(2, 129));
    }

    #[test]
    fn masked_or_leaves_out_the_row_and_the_excluded_column_across_words() {
        // 130 columns = 3 words per row; the premise and writer rows may
        // be wider than the matrix (a fourth word here is ignored).
        let mut m = BitMatrix::new(130);
        let premise = [u64::MAX; 4];
        let mut writers = [0u64; 4];
        for j in [0usize, 63, 64, 65, 129] {
            writers[j / 64] |= 1 << (j % 64);
        }
        writers[3] = u64::MAX;
        m.or_and_into_row(65, &premise, &writers, 129);
        assert_eq!(ones(m.row(65)).collect::<Vec<_>>(), vec![0, 63, 64]);
        assert_eq!(ones(&[0, 1 << 3, 0, 1]).collect::<Vec<_>>(), vec![67, 192]);
    }

    #[test]
    fn closure_follows_successors_added_within_the_same_word() {
        // 0 → 1 and 1 → 2: unioning row 1 into row 0 adds bit 2 inside the
        // word being scanned; the kernel must follow it in the same sweep
        // (and in any case reach the fixpoint 0 → 2).
        let mut m = BitMatrix::new(66);
        m.set(0, 1);
        m.set(1, 2);
        m.set(2, 65); // crosses into the second word
        m.transitive_close();
        assert!(m.get(0, 2));
        assert!(m.get(0, 65));
        assert!(m.get(1, 65));
        assert!(!m.get(65, 0));
    }

    #[test]
    fn topological_order_enumeration() {
        let mut g = Digraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        let mut orders = Vec::new();
        g.any_topological_order(|o| {
            orders.push(o.to_vec());
            false
        });
        assert_eq!(orders.len(), 2);
        assert!(orders.contains(&vec![0, 1, 2]));
        assert!(orders.contains(&vec![0, 2, 1]));
        // Early exit works.
        let mut count = 0;
        let found = g.any_topological_order(|_| {
            count += 1;
            true
        });
        assert!(found);
        assert_eq!(count, 1);
    }

    #[test]
    fn cyclic_graph_has_no_topological_order() {
        let mut g = Digraph::new(2);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        assert!(!g.any_topological_order(|_| true));
    }
}
