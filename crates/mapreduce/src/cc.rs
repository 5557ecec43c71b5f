//! Connected components.
//!
//! Appendix F: the paper divides the compatibility graph into
//! components connected by non-trivial positive edges with Hash-to-Min
//! rounds on Map-Reduce (reference \[13\]), then partitions each
//! component independently. In process, union-find computes the same
//! components directly.

use crate::unionfind::UnionFind;

/// Connected components via union-find. `n` vertices, undirected
/// `edges`. Returns components as sorted vertex lists, sorted by first
/// vertex. Singleton vertices appear as singleton components.
pub fn connected_components_union_find(n: usize, edges: &[(u32, u32)]) -> Vec<Vec<usize>> {
    let mut uf = UnionFind::new(n);
    for &(a, b) in edges {
        uf.union(a as usize, b as usize);
    }
    uf.groups()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_components() {
        // 0-1-2, 3-4, 5 alone
        let edges = vec![(0, 1), (1, 2), (3, 4)];
        let want = vec![vec![0, 1, 2], vec![3, 4], vec![5]];
        assert_eq!(connected_components_union_find(6, &edges), want);
    }

    #[test]
    fn empty_graph() {
        assert!(connected_components_union_find(0, &[]).is_empty());
        let got = connected_components_union_find(3, &[]);
        assert_eq!(got, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn self_loops_and_duplicates_are_harmless() {
        let edges = vec![(0, 0), (0, 1), (1, 0), (0, 1)];
        let want = vec![vec![0, 1], vec![2]];
        assert_eq!(connected_components_union_find(3, &edges), want);
    }
}
