//! Thread-local scratch pool: recycled buffers for the dynamic-graph
//! hot path.
//!
//! Dynamic-network experiments run thousands of short trials, and each
//! trial used to re-allocate the same working set — adjacency overlays,
//! compaction staging, [`GridIndex`](crate::geometry::GridIndex) cells,
//! radius-query scratch. This module keeps one free list per buffer
//! shape in a thread-local pool; `take_*` hands out a cleared buffer
//! (reusing capacity when one is available) and `give_*` returns it.
//! After the first trial warms the pool, repeated trials allocate
//! ~nothing.
//!
//! The pool is purely an allocation cache: buffers carry no state
//! between uses (every `take_*` returns an empty buffer), so pooling is
//! invisible to simulation semantics and replay. Buffers may be taken
//! on one thread and given back on another (each thread simply grows
//! its own pool); the free lists are capped so a burst of large buffers
//! cannot pin unbounded memory.

use std::cell::RefCell;

use crate::csr::Node;

/// Free-list cap per buffer shape: enough for every live simulation
/// object a thread realistically holds, small enough that the pool
/// never pins more than a bounded multiple of one trial's working set.
const MAX_POOLED: usize = 64;

#[derive(Default)]
struct Pool {
    nodes: Vec<Vec<Node>>,
    stamps: Vec<Vec<u32>>,
    offsets: Vec<Vec<usize>>,
    flags: Vec<Vec<bool>>,
    pairs: Vec<Vec<(Node, Node)>>,
    positions: Vec<Vec<(f64, f64)>>,
    cells: Vec<Vec<Vec<Node>>>,
}

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool::default());
}

macro_rules! pool_pair {
    ($take:ident, $give:ident, $field:ident, $ty:ty, $takedoc:expr, $givedoc:expr) => {
        #[doc = $takedoc]
        pub fn $take() -> $ty {
            POOL.with(|p| p.borrow_mut().$field.pop()).unwrap_or_default()
        }

        #[doc = $givedoc]
        pub fn $give(mut buf: $ty) {
            buf.clear();
            POOL.with(|p| {
                let mut p = p.borrow_mut();
                if p.$field.len() < MAX_POOLED {
                    p.$field.push(buf);
                }
            });
        }
    };
}

pool_pair!(
    take_nodes,
    give_nodes,
    nodes,
    Vec<Node>,
    "An empty node buffer from the pool (or a fresh one).",
    "Returns a node buffer to the pool."
);
pool_pair!(
    take_stamps,
    give_stamps,
    stamps,
    Vec<u32>,
    "An empty node-indexed stamp table from the pool (or a fresh one). \
     Kept apart from the node buffers: those grow to adjacency size, and \
     mixing the two shapes would hand slabs a table and tables a slab.",
    "Returns a stamp table to the pool."
);
pool_pair!(
    take_offsets,
    give_offsets,
    offsets,
    Vec<usize>,
    "An empty offset buffer from the pool (or a fresh one).",
    "Returns an offset buffer to the pool."
);
pool_pair!(
    take_flags,
    give_flags,
    flags,
    Vec<bool>,
    "An empty flag buffer from the pool (or a fresh one).",
    "Returns a flag buffer to the pool."
);
pool_pair!(
    take_pairs,
    give_pairs,
    pairs,
    Vec<(Node, Node)>,
    "An empty node-pair buffer from the pool (or a fresh one).",
    "Returns a node-pair buffer to the pool."
);
pool_pair!(
    take_positions,
    give_positions,
    positions,
    Vec<(f64, f64)>,
    "An empty position buffer from the pool (or a fresh one).",
    "Returns a position buffer to the pool."
);

/// A cell array from the pool. Unlike the scalar buffers, the inner
/// vectors are retained (cleared, with capacity): the taker resizes the
/// table to the shape it needs and reuses the per-cell allocations.
pub fn take_cells() -> Vec<Vec<Node>> {
    POOL.with(|p| p.borrow_mut().cells.pop()).unwrap_or_default()
}

/// Returns a cell array to the pool. Inner vectors are cleared but
/// **kept** (with their capacity), so the next taker reuses both the
/// outer table and the per-cell allocations.
pub fn give_cells(mut cells: Vec<Vec<Node>>) {
    for cell in &mut cells {
        cell.clear();
    }
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        if p.cells.len() < MAX_POOLED {
            p.cells.push(cells);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_recycle_capacity() {
        let mut a = take_nodes();
        a.extend(0..1000);
        let cap = a.capacity();
        let ptr = a.as_ptr();
        give_nodes(a);
        let b = take_nodes();
        assert!(b.is_empty(), "pooled buffers come back empty");
        assert_eq!(b.capacity(), cap);
        assert_eq!(b.as_ptr(), ptr, "same allocation cycles through the pool");
    }

    #[test]
    fn cells_keep_inner_capacity() {
        let mut cells = take_cells();
        cells.resize_with(4, Vec::new);
        cells[2].extend([1, 2, 3]);
        let inner_cap = cells[2].capacity();
        give_cells(cells);
        let back = take_cells();
        assert_eq!(back.len(), 4, "outer table survives");
        assert!(back[2].is_empty());
        assert_eq!(back[2].capacity(), inner_cap, "inner capacity survives");
    }

    #[test]
    fn pool_is_bounded() {
        for _ in 0..(MAX_POOLED + 16) {
            give_flags(vec![true; 8]);
        }
        let pooled = POOL.with(|p| p.borrow().flags.len());
        assert!(pooled <= MAX_POOLED);
        // Drain so other tests on this thread start from a known state.
        while POOL.with(|p| p.borrow_mut().flags.pop()).is_some() {}
    }
}
