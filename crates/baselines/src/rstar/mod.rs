//! A from-scratch R*-tree (Beckmann, Kriegel, Schneider, Seeger — SIGMOD
//! 1990), the strongest R-tree variant still supporting multidimensional
//! extended objects and the paper's main competitor (§7.1).
//!
//! Faithful to the original algorithm: ChooseSubtree minimizes overlap
//! enlargement at the leaf level and area enlargement above it, overflowing
//! nodes first force-reinsert 30 % of their entries (once per level per
//! insertion), and splits pick the minimum-margin axis then the
//! minimum-overlap distribution. Node fan-out derives from a page size
//! (16 KiB in the paper's evaluation) and the dimensionality.

mod bulk;
mod node;
mod split;

use std::time::Instant;

use acx_geom::scan::{scan_columns_loaded, PairedColumns, QueryBounds, ScanScratch};
use acx_geom::{object_size_bytes, HyperRect, ObjectId, Scalar, SpatialQuery};
use acx_storage::{
    AccessStats, CostModel, DeviceProfile, QueryMetrics, QueryResult, StorageScenario,
};

use node::{enlargement, overlap, union_into, Node};
use split::{reinsert_selection, rstar_split};

/// Configuration of an [`RStarTree`].
#[derive(Debug, Clone, PartialEq)]
pub struct RStarConfig {
    /// Dimensionality of indexed objects.
    pub dims: usize,
    /// Node page size in bytes (paper §7.1 uses 16 KiB).
    pub page_size: usize,
    /// Minimum node fill as a fraction of the maximum (R* uses 40 %).
    pub min_fill: f64,
    /// Fraction of entries force-reinserted on first overflow (R* uses 30 %).
    pub reinsert_fraction: f64,
    /// Storage scenario priced by the cost model.
    pub scenario: StorageScenario,
    /// Device cost constants.
    pub profile: DeviceProfile,
}

impl RStarConfig {
    /// Memory-scenario configuration with the paper's page size.
    pub fn memory(dims: usize) -> Self {
        Self {
            dims,
            page_size: 16 * 1024,
            min_fill: 0.4,
            reinsert_fraction: 0.3,
            scenario: StorageScenario::Memory,
            profile: DeviceProfile::edbt2004(),
        }
    }

    /// Disk-scenario configuration with the paper's page size.
    pub fn disk(dims: usize) -> Self {
        Self {
            scenario: StorageScenario::Disk,
            ..Self::memory(dims)
        }
    }

    /// Bytes per entry: `2·Nd` 4-byte bounds plus a 4-byte pointer.
    pub fn entry_bytes(&self) -> usize {
        self.dims * 2 * 4 + 4
    }

    /// Maximum entries per node implied by the page size.
    pub fn max_entries(&self) -> usize {
        (self.page_size / self.entry_bytes()).max(4)
    }

    /// Minimum entries per node.
    pub fn min_entries(&self) -> usize {
        (((self.max_entries() as f64) * self.min_fill) as usize).max(2)
    }

    /// Entries force-reinserted on overflow.
    pub fn reinsert_count(&self) -> usize {
        (((self.max_entries() as f64) * self.reinsert_fraction) as usize).max(1)
    }

    /// The cost model implied by this configuration.
    pub fn cost_model(&self) -> CostModel {
        CostModel::new(self.profile, self.scenario, object_size_bytes(self.dims))
    }
}

/// The R*-tree baseline.
///
/// ```
/// use acx_baselines::{RStarConfig, RStarTree};
/// use acx_geom::{HyperRect, ObjectId, SpatialQuery};
///
/// let mut tree = RStarTree::new(RStarConfig::memory(2));
/// tree.insert(ObjectId(1), &HyperRect::from_bounds(&[0.1, 0.1], &[0.2, 0.2]).unwrap());
/// let hit = tree.execute(&SpatialQuery::point_enclosing(vec![0.15, 0.15]));
/// assert_eq!(hit.matches, vec![ObjectId(1)]);
/// ```
pub struct RStarTree {
    config: RStarConfig,
    model: CostModel,
    nodes: Vec<Option<Node>>,
    free: Vec<u32>,
    root: u32,
    len: usize,
    max_entries: usize,
    min_entries: usize,
}

impl RStarTree {
    /// Creates an empty tree.
    pub fn new(config: RStarConfig) -> Self {
        assert!(config.dims > 0, "dims must be positive");
        let max_entries = config.max_entries();
        let min_entries = config.min_entries();
        assert!(min_entries * 2 <= max_entries + 1, "min fill too high");
        let model = config.cost_model();
        let root = Node::new(0, config.dims, max_entries + 1);
        Self {
            config,
            model,
            nodes: vec![Some(root)],
            free: Vec::new(),
            root: 0,
            len: 0,
            max_entries,
            min_entries,
        }
    }

    /// The tree configuration.
    pub fn config(&self) -> &RStarConfig {
        &self.config
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of allocated tree nodes (the paper's "number of nodes").
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Height of the tree (a single leaf root has height 1).
    pub fn height(&self) -> usize {
        self.node(self.root).level as usize + 1
    }

    /// The cost model pricing this tree.
    pub fn cost_model(&self) -> &CostModel {
        &self.model
    }

    #[inline]
    fn width(&self) -> usize {
        2 * self.config.dims
    }

    fn node(&self, idx: u32) -> &Node {
        self.nodes[idx as usize].as_ref().expect("node is live")
    }

    fn node_mut(&mut self, idx: u32) -> &mut Node {
        self.nodes[idx as usize].as_mut().expect("node is live")
    }

    fn alloc(&mut self, node: Node) -> u32 {
        if let Some(idx) = self.free.pop() {
            self.nodes[idx as usize] = Some(node);
            idx
        } else {
            self.nodes.push(Some(node));
            u32::try_from(self.nodes.len() - 1).expect("node indices fit in u32")
        }
    }

    fn dealloc(&mut self, idx: u32) {
        self.nodes[idx as usize] = None;
        self.free.push(idx);
    }

    /// Builds a tree by Sort-Tile-Recursive bulk loading.
    ///
    /// Produces the same query semantics as repeated [`RStarTree::insert`]
    /// in `O(n log n)` — useful for the paper's full-scale (2,000,000
    /// object) experiments. The paper itself builds by insertion; the
    /// experiment binaries do too, so bulk loading is an opt-in extension.
    ///
    /// # Panics
    ///
    /// Panics if any rectangle's dimensionality differs from the config's.
    pub fn bulk_load(config: RStarConfig, items: &[(ObjectId, HyperRect)]) -> Self {
        let mut tree = Self::new(config);
        if items.is_empty() {
            return tree;
        }
        let dims = tree.config.dims;
        let width = 2 * dims;
        // Pack to ~70 % page fill (the utilization the paper assumes),
        // raised to 2·m so that even the smallest balanced group
        // (≥ cap/2) satisfies the minimum-fill invariant.
        let cap = ((tree.max_entries as f64 * 0.7) as usize)
            .max(2 * tree.min_entries)
            .min(tree.max_entries);
        let original_root = tree.root;

        // Level 0: flat object MBBs.
        let mut mbbs: Vec<Scalar> = Vec::with_capacity(items.len() * width);
        let mut ptrs: Vec<u32> = Vec::with_capacity(items.len());
        for (id, rect) in items {
            assert_eq!(rect.dims(), dims, "dimensionality mismatch");
            rect.write_flat(&mut mbbs);
            ptrs.push(id.raw());
        }
        tree.len = items.len();

        let mut level = 0u16;
        loop {
            let count = ptrs.len();
            if count <= tree.max_entries {
                let root = if level == 0 {
                    tree.root // reuse the pre-allocated empty leaf root
                } else {
                    tree.alloc(Node::new(level, dims, tree.max_entries + 1))
                };
                for (mbb, &ptr) in mbbs.chunks_exact(width).zip(&ptrs) {
                    tree.node_mut(root).push(mbb, ptr);
                }
                tree.node_mut(root).level = level;
                tree.root = root;
                break;
            }
            let groups = bulk::str_group(&mbbs, (0..count).collect(), width, cap);
            let mut next_mbbs = Vec::with_capacity(groups.len() * width);
            let mut next_ptrs = Vec::with_capacity(groups.len());
            for group in groups {
                let mut node = Node::new(level, dims, tree.max_entries + 1);
                for &k in &group {
                    node.push(&mbbs[k * width..(k + 1) * width], ptrs[k]);
                }
                next_mbbs.extend_from_slice(&node.mbb());
                next_ptrs.push(tree.alloc(node));
            }
            mbbs = next_mbbs;
            ptrs = next_ptrs;
            level += 1;
        }
        if tree.root != original_root {
            tree.dealloc(original_root);
        }
        tree
    }

    /// Inserts an object. Object ids are caller-managed; inserting the
    /// same id twice stores two entries.
    ///
    /// # Panics
    ///
    /// Panics if the rectangle dimensionality differs from the tree's.
    pub fn insert(&mut self, id: ObjectId, rect: &HyperRect) {
        assert_eq!(rect.dims(), self.config.dims, "dimensionality mismatch");
        let mbb = rect.to_flat();
        let mut reinserted = vec![false; self.node(self.root).level as usize + 1];
        self.insert_entry(&mbb, id.raw(), 0, &mut reinserted);
        self.len += 1;
    }

    /// Inserts an entry (object or orphaned subtree) at `level`.
    fn insert_entry(&mut self, mbb: &[Scalar], ptr: u32, level: u16, reinserted: &mut Vec<bool>) {
        let path = self.choose_path(mbb, level);
        let target = *path.last().expect("path reaches target level");
        self.node_mut(target).push(mbb, ptr);
        self.update_path_mbbs(&path);

        // Resolve overflow bottom-up.
        let mut depth = path.len() - 1;
        loop {
            let n = path[depth];
            if self.node(n).len() <= self.max_entries {
                break;
            }
            let lvl = self.node(n).level as usize;
            if n != self.root && !reinserted[lvl] {
                reinserted[lvl] = true;
                self.forced_reinsert(n, &path[..=depth], reinserted);
                break;
            }
            let (old_mbb, new_mbb, new_node) = self.split_node(n);
            if n == self.root {
                let new_level = self.node(n).level + 1;
                let mut new_root = Node::new(new_level, self.config.dims, self.max_entries + 1);
                new_root.push(&old_mbb, n);
                new_root.push(&new_mbb, new_node);
                self.root = self.alloc(new_root);
                break;
            }
            let parent = path[depth - 1];
            let pos = self
                .node(parent)
                .position_of(n)
                .expect("parent links child");
            self.node_mut(parent).set_entry_mbb(pos, &old_mbb);
            self.node_mut(parent).push(&new_mbb, new_node);
            depth -= 1;
        }
    }

    /// Path from the root down to the chosen node at `level`, applying
    /// the R* ChooseSubtree criteria.
    fn choose_path(&self, mbb: &[Scalar], level: u16) -> Vec<u32> {
        let width = self.width();
        let mut path = vec![self.root];
        let mut current = self.root;
        while self.node(current).level > level {
            let node = self.node(current);
            let choosing_leaves = node.level == 1;
            let rows = node.rows();
            let chosen = if choosing_leaves && level == 0 {
                Self::choose_by_overlap(&rows, mbb, width)
            } else {
                Self::choose_by_area(&rows, mbb, width)
            };
            current = node.ptrs[chosen];
            path.push(current);
        }
        path
    }

    /// Leaf-level rule of ChooseSubtree over a node's flat entry `rows`:
    /// minimum overlap enlargement, ties broken by area enlargement then
    /// area. As in the original paper, only the 32 entries with least area
    /// enlargement are examined when the node is large.
    fn choose_by_overlap(rows: &[Scalar], mbb: &[Scalar], width: usize) -> usize {
        let count = rows.len() / width;
        let entry = |k: usize| &rows[k * width..(k + 1) * width];
        let enlargements: Vec<f64> = (0..count).map(|k| enlargement(entry(k), mbb)).collect();
        let mut order: Vec<usize> = (0..count).collect();
        if count > 32 {
            order.sort_by(|&a, &b| {
                enlargements[a]
                    .partial_cmp(&enlargements[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            order.truncate(32);
        }
        let mut best = order[0];
        let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for &k in &order {
            let entry_k = entry(k);
            let mut enlarged = entry_k.to_vec();
            union_into(&mut enlarged, mbb);
            let mut overlap_before = 0.0;
            let mut overlap_after = 0.0;
            for other in 0..count {
                if other == k {
                    continue;
                }
                let o = entry(other);
                let after = overlap(&enlarged, o);
                // `entry_k` lies inside `enlarged`, so its overlap with
                // `o` is no larger: where this one is 0, both sums would
                // add exactly 0.
                if after > 0.0 {
                    overlap_before += overlap(entry_k, o);
                    overlap_after += after;
                }
            }
            let key = (
                overlap_after - overlap_before,
                enlargements[k],
                node::area(entry_k),
            );
            if key < best_key {
                best_key = key;
                best = k;
            }
        }
        best
    }

    /// Internal-level rule of ChooseSubtree over a node's flat entry `rows`:
    /// minimum area enlargement, ties broken by area.
    fn choose_by_area(rows: &[Scalar], mbb: &[Scalar], width: usize) -> usize {
        let mut best = 0;
        let mut best_key = (f64::INFINITY, f64::INFINITY);
        for (k, entry) in rows.chunks_exact(width).enumerate() {
            let key = (enlargement(entry, mbb), node::area(entry));
            if key < best_key {
                best_key = key;
                best = k;
            }
        }
        best
    }

    /// Recomputes ancestor entry MBBs along `path` (deepest last).
    fn update_path_mbbs(&mut self, path: &[u32]) {
        for w in (1..path.len()).rev() {
            let child = path[w];
            let parent = path[w - 1];
            let child_mbb = self.node(child).mbb();
            let pos = self
                .node(parent)
                .position_of(child)
                .expect("parent links child");
            self.node_mut(parent).set_entry_mbb(pos, &child_mbb);
        }
    }

    /// Forced reinsertion (R* OverflowTreatment): removes the 30 % of
    /// entries furthest from the node center and reinserts them.
    fn forced_reinsert(&mut self, n: u32, path: &[u32], reinserted: &mut Vec<bool>) {
        let width = self.width();
        let p = self.config.reinsert_count();
        let (level, removed) = {
            let node = self.node_mut(n);
            let count = node.len();
            let rows = node.rows();
            let chosen = reinsert_selection(&rows, count, width / 2, p);
            // Capture the entries in re-insertion ("closest first") order
            // before removal invalidates the indices.
            let removed: Vec<(Vec<Scalar>, u32)> = chosen
                .iter()
                .map(|&k| (rows[k * width..(k + 1) * width].to_vec(), node.ptrs[k]))
                .collect();
            let mut by_desc = chosen;
            by_desc.sort_unstable_by(|a, b| b.cmp(a));
            for k in by_desc {
                node.swap_remove(k);
            }
            (node.level, removed)
        };
        self.update_path_mbbs(path);
        for (mbb, ptr) in removed {
            self.insert_entry(&mbb, ptr, level, reinserted);
        }
    }

    /// Splits node `n`; returns (old node MBB, new node MBB, new node id).
    fn split_node(&mut self, n: u32) -> (Vec<Scalar>, Vec<Scalar>, u32) {
        let width = self.width();
        let dims = self.config.dims;
        let capacity = self.max_entries + 1;
        let (level, mbbs, ptrs) = {
            let node = self.node_mut(n);
            let emptied = Node::new(node.level, dims, capacity);
            let full = std::mem::replace(node, emptied);
            (full.level, full.rows(), full.ptrs)
        };
        let plan = rstar_split(&mbbs, ptrs.len(), dims, self.min_entries);
        let mut new_node = Node::new(level, dims, capacity);
        {
            let node = self.node_mut(n);
            for &k in &plan.group1 {
                node.push(&mbbs[k * width..(k + 1) * width], ptrs[k]);
            }
        }
        for &k in &plan.group2 {
            new_node.push(&mbbs[k * width..(k + 1) * width], ptrs[k]);
        }
        let old_mbb = self.node(n).mbb();
        let new_mbb = new_node.mbb();
        let new_idx = self.alloc(new_node);
        (old_mbb, new_mbb, new_idx)
    }

    /// Removes one entry with the given id and rectangle. Returns whether
    /// an entry was found and removed.
    pub fn remove(&mut self, id: ObjectId, rect: &HyperRect) -> bool {
        assert_eq!(rect.dims(), self.config.dims, "dimensionality mismatch");
        let target = rect.to_flat();
        // Find the leaf containing the entry (DFS over containing MBBs).
        let Some(path) = self.find_leaf(&target, id.raw()) else {
            return false;
        };
        let leaf = *path.last().expect("path ends at leaf");
        let pos = {
            let node = self.node(leaf);
            (0..node.len())
                .find(|&k| node.ptrs[k] == id.raw() && node.row(k).eq(target.iter().copied()))
                .expect("find_leaf located the entry")
        };
        self.node_mut(leaf).swap_remove(pos);
        self.len -= 1;
        self.condense(path);
        true
    }

    fn find_leaf(&self, target: &[Scalar], id: u32) -> Option<Vec<u32>> {
        let width = self.width();
        let mut stack: Vec<Vec<u32>> = vec![vec![self.root]];
        while let Some(path) = stack.pop() {
            let n = *path.last().expect("non-empty path");
            let node = self.node(n);
            if node.is_leaf() {
                for k in 0..node.len() {
                    if node.ptrs[k] == id && node.row(k).eq(target.iter().copied()) {
                        return Some(path);
                    }
                }
                continue;
            }
            let rows = node.rows();
            for (k, e) in rows.chunks_exact(width).enumerate() {
                let contains = (0..width)
                    .step_by(2)
                    .all(|d| e[d] <= target[d] && e[d + 1] >= target[d + 1]);
                if contains {
                    let mut next = path.clone();
                    next.push(node.ptrs[k]);
                    stack.push(next);
                }
            }
        }
        None
    }

    /// CondenseTree: dissolve underfull nodes along the path and reinsert
    /// their orphaned entries at the correct level.
    fn condense(&mut self, path: Vec<u32>) {
        let mut orphans: Vec<(u16, Vec<Scalar>, u32)> = Vec::new();
        for depth in (1..path.len()).rev() {
            let n = path[depth];
            let parent = path[depth - 1];
            if self.node(n).len() < self.min_entries {
                // Dissolve: remove from parent, stash entries.
                let pos = self
                    .node(parent)
                    .position_of(n)
                    .expect("parent links child");
                self.node_mut(parent).swap_remove(pos);
                let node = self.nodes[n as usize].take().expect("node is live");
                self.free.push(n);
                for (k, &ptr) in node.ptrs.iter().enumerate() {
                    orphans.push((node.level, node.row(k).collect(), ptr));
                }
            } else {
                let child_mbb = self.node(n).mbb();
                let pos = self
                    .node(parent)
                    .position_of(n)
                    .expect("parent links child");
                self.node_mut(parent).set_entry_mbb(pos, &child_mbb);
            }
        }
        // Reinsert orphans, deepest levels first so subtrees rejoin at
        // their original height.
        orphans.sort_by_key(|(level, _, _)| *level);
        for (level, mbb, ptr) in orphans {
            let mut reinserted = vec![false; self.node(self.root).level as usize + 1];
            self.insert_entry(&mbb, ptr, level, &mut reinserted);
        }
        // Shrink the root while it is an internal node with one child.
        while !self.node(self.root).is_leaf() && self.node(self.root).len() == 1 {
            let old_root = self.root;
            self.root = self.node(old_root).ptrs[0];
            self.dealloc(old_root);
        }
    }

    /// Executes a spatial selection, pruning subtrees by MBB.
    ///
    /// # Panics
    ///
    /// Panics if the query dimensionality differs from the tree's.
    pub fn execute(&self, query: &SpatialQuery) -> QueryResult {
        let mut scratch = ScanScratch::new();
        self.execute_with(query, &mut scratch)
    }

    /// [`RStarTree::execute`] through a reusable kernel scratch.
    ///
    /// Every visited page is scanned in place, one dimension at a time
    /// over a survivors mask, by the member kernel the adaptive index and
    /// the sequential scan verify with
    /// ([`acx_geom::scan::scan_columns_loaded`]): a leaf's entries
    /// against the query, an internal node's child boxes against the
    /// pruning predicate (a child may hold a match iff its box
    /// intersects the window, or encloses it for enclosure and
    /// point-enclosing queries). Accepted children are pushed in
    /// ascending entry order; each child box counts as one signature
    /// check, and verified bytes count the object identifier and the
    /// inspected dimensions, up to the first failing one, of every leaf
    /// entry and child box (paper footnote 4).
    ///
    /// # Panics
    ///
    /// Panics if the query dimensionality differs from the tree's.
    pub fn execute_with(&self, query: &SpatialQuery, scratch: &mut ScanScratch) -> QueryResult {
        assert_eq!(query.dims(), self.config.dims, "dimensionality mismatch");
        let started = Instant::now();
        // Node-pruning predicate: a subtree may contain a match iff its
        // MBB …intersects the window (intersection/containment queries)
        // or contains the window (enclosure/point queries).
        let prune_query = match query {
            SpatialQuery::Intersection(w) | SpatialQuery::Containment(w) => {
                SpatialQuery::Intersection(w.clone())
            }
            SpatialQuery::Enclosure(w) => SpatialQuery::Enclosure(w.clone()),
            SpatialQuery::PointEnclosing(p) => SpatialQuery::PointEnclosing(p.clone()),
        };
        let (mut leaf_bounds, mut prune_bounds) = (QueryBounds::new(), QueryBounds::new());
        leaf_bounds.load(query);
        prune_bounds.load(&prune_query);
        let mut stats = AccessStats::new();
        let mut matches = Vec::new();
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            let node = self.node(n);
            stats.clusters_explored += 1;
            stats.seeks += 1;
            stats.transfer_bytes += self.config.page_size as u64;
            let entries = PairedColumns::of_equal_columns(&node.cols);
            let entry_count = node.len() as u64;
            if node.is_leaf() {
                let outcome = scan_columns_loaded(&leaf_bounds, &entries, scratch);
                stats.objects_verified += entry_count;
                stats.verified_bytes += outcome.verified_bytes();
                let matched = scratch.matches().iter();
                matches.extend(matched.map(|&k| ObjectId(node.ptrs[k as usize])));
            } else {
                let outcome = scan_columns_loaded(&prune_bounds, &entries, scratch);
                stats.signature_checks += entry_count;
                stats.verified_bytes += outcome.verified_bytes();
                stack.extend(scratch.matches().iter().map(|&k| node.ptrs[k as usize]));
            }
        }
        let priced_ms = self.model.price(&stats);
        QueryResult {
            matches,
            metrics: QueryMetrics {
                stats,
                priced_ms,
                wall: started.elapsed(),
            },
        }
    }

    /// Verifies R*-tree structural invariants; used by tests.
    ///
    /// Checks that every node holds `2·dims` bound columns as long as its
    /// pointer array, fill bounds, uniform leaf level, MBB coverage (every
    /// entry MBB equals the union of its child's entries), and that the
    /// stored object count matches the leaf entry count.
    pub fn check_invariants(&self) -> Result<(), String> {
        let width = self.width();
        let mut leaf_entries = 0usize;
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            let node = self.node(n);
            let lengths: Vec<usize> = node.cols.iter().map(Vec::len).collect();
            if lengths.len() != width || lengths.iter().any(|&l| l != node.len()) {
                return Err(format!(
                    "node {n} has {} entries but bound columns of lengths {lengths:?} \
                     (want {width} columns)",
                    node.len()
                ));
            }
            if n != self.root && node.len() < self.min_entries {
                return Err(format!(
                    "node {n} underfull: {} < {}",
                    node.len(),
                    self.min_entries
                ));
            }
            if node.len() > self.max_entries {
                return Err(format!(
                    "node {n} overfull: {} > {}",
                    node.len(),
                    self.max_entries
                ));
            }
            if node.is_leaf() {
                leaf_entries += node.len();
                continue;
            }
            for k in 0..node.len() {
                let child = node.ptrs[k];
                let child_node = self
                    .nodes
                    .get(child as usize)
                    .and_then(|c| c.as_ref())
                    .ok_or_else(|| format!("node {n} has dangling child {child}"))?;
                if child_node.level + 1 != node.level {
                    return Err(format!(
                        "child {child} level {} under parent level {}",
                        child_node.level, node.level
                    ));
                }
                let expected = child_node.mbb();
                if !node.row(k).eq(expected) {
                    return Err(format!("node {n} entry {k} MBB does not match child union"));
                }
                stack.push(child);
            }
        }
        if leaf_entries != self.len {
            return Err(format!(
                "{} leaf entries but len() = {}",
                leaf_entries, self.len
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_invariants_catches_a_short_bound_column() {
        let mut tree = RStarTree::new(RStarConfig::memory(2));
        for i in 0..3 {
            let lo = 0.1 * i as Scalar;
            let rect = HyperRect::from_bounds(&[lo, lo], &[lo + 0.1, lo + 0.1]).unwrap();
            tree.insert(ObjectId(i), &rect);
        }
        tree.check_invariants().unwrap();
        let root = tree.root;
        tree.node_mut(root).cols[3].pop();
        let err = tree.check_invariants().unwrap_err();
        let expected = "bound columns of lengths [3, 3, 3, 2]";
        assert!(err.contains(expected), "{err}");
    }
}
