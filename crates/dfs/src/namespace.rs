//! The namenode's namespace: an inode tree with content summaries.
//!
//! `du`/content-summary (HD4995's operation) walks a directory subtree
//! under the namesystem lock, accumulating file counts and lengths. This
//! module provides the tree the traversal walks: directories and files,
//! deterministic synthetic population, and a resumable cursor that
//! visits `limit` inodes per lock quantum — exactly the unit
//! `content-summary.limit` meters.
//!
//! Inodes are numbered in depth-first preorder, so every subtree is the
//! contiguous id range `[v, end(v))`. The synthesized tree has one shape
//! — a root over ⌈files / per_dir⌉ directories of `per_dir` files, the
//! last holding the remainder — so `end(v)` and the number of files
//! before any id are closed forms of `(files, per_dir)`. File lengths
//! are a seeded draw sequence, kept as checkpoints: every
//! `CHECKPOINT` files, the total length so far and the generator state
//! that draws the next length. The total length of the first `n` files
//! regenerates at most `CHECKPOINT − 1` draws from the checkpoint below
//! `n`, which makes the summary of any id range — a whole subtree, or
//! the next `limit` inodes of a `du` — exact at a bounded cost.

use smartconf_simkernel::SimRng;

/// How many files apart the byte checkpoints are: a range sum
/// regenerates fewer than this many lengths at each end, and a tree of
/// `f` files keeps `f / CHECKPOINT + 1` checkpoints of 40 bytes.
const CHECKPOINT: usize = 256;

/// Preorder index of an inode: the root is 0, and a directory's subtree
/// is the contiguous run of ids that starts at it.
pub type InodeId = usize;

/// Aggregates computed by a content-summary traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ContentSummary {
    /// Number of files under the subtree.
    pub file_count: u64,
    /// Number of directories under the subtree (including the root).
    pub directory_count: u64,
    /// Total file bytes under the subtree.
    pub length: u64,
}

impl std::ops::AddAssign for ContentSummary {
    fn add_assign(&mut self, part: ContentSummary) {
        self.file_count += part.file_count;
        self.directory_count += part.directory_count;
        self.length += part.length;
    }
}

/// A namespace tree rooted at inode 0: a root over directories of
/// `per_dir` files, addressed in depth-first preorder.
///
/// The shape is two numbers; the file lengths are a checkpoint every
/// 256 files, so a 10⁶-file tree takes ~156 KB.
///
/// # Example
///
/// ```
/// use smartconf_dfs::Namespace;
/// use smartconf_simkernel::SimRng;
///
/// let mut rng = SimRng::seed_from_u64(1);
/// let ns = Namespace::synthesize(1_000, 8, &mut rng);
/// assert_eq!(ns.summary(ns.root()).file_count, 1_000);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Namespace {
    /// Number of files.
    files: usize,
    /// Files per directory (the last directory holds the remainder).
    per_dir: usize,
    /// `checkpoints[c]`: the total length of files `[0, c·CHECKPOINT)`
    /// and the generator state that draws file `c·CHECKPOINT`'s length.
    checkpoints: Vec<(u64, SimRng)>,
}

/// One file's length: the draw [`Namespace::synthesize`] makes per file
/// (TestDFSIO sizes, a heavy-ish spread around 64 MB).
fn file_length(rng: &mut SimRng) -> u64 {
    rng.uniform(16e6, 128e6) as u64
}

impl Namespace {
    /// Creates a namespace holding only an empty root directory.
    pub fn new() -> Self {
        Namespace::synthesize(0, 1, &mut SimRng::seed_from_u64(0))
    }

    /// The root directory's id.
    pub fn root(&self) -> InodeId {
        0
    }

    /// Total number of inodes.
    pub fn len(&self) -> usize {
        1 + self.files.div_ceil(self.per_dir) + self.files
    }

    /// Whether the namespace holds only the root.
    pub fn is_empty(&self) -> bool {
        self.files == 0
    }

    /// One past the last id of `v`'s subtree. After the root, each
    /// directory and its files are a block of `per_dir + 1` ids.
    fn end(&self, v: InodeId) -> usize {
        if v == 0 {
            return self.len();
        }
        let block = self.per_dir + 1;
        let (dir, at) = ((v - 1) / block, (v - 1) % block);
        if at > 0 {
            return v + 1;
        }
        v + 1 + (self.files - dir * self.per_dir).min(self.per_dir)
    }

    /// How many of the inodes `[0, i)` are files.
    fn files_before(&self, i: usize) -> usize {
        let Some(after_root) = i.checked_sub(1) else {
            return 0;
        };
        let block = self.per_dir + 1;
        after_root / block * self.per_dir + (after_root % block).saturating_sub(1)
    }

    /// The total length of files `[0, n)`, regenerated from the
    /// checkpoint below `n`.
    fn bytes_before(&self, n: usize) -> u64 {
        let (total, rng) = &self.checkpoints[n / CHECKPOINT];
        let mut rng = rng.clone();
        (0..n % CHECKPOINT).fold(*total, |sum, _| sum + file_length(&mut rng))
    }

    /// Synthesizes a namespace with `files` files spread over directories
    /// of `files_per_dir` entries (TestDFSIO populates flat, wide
    /// directories; file sizes follow a heavy-ish spread around 64 MB).
    /// Draws one length per file from `rng`, in file order.
    ///
    /// # Panics
    ///
    /// Panics if `files_per_dir` is zero.
    pub fn synthesize(files: u64, files_per_dir: u64, rng: &mut SimRng) -> Self {
        assert!(files_per_dir > 0, "need at least one file per directory");
        let inodes = 1 + files.div_ceil(files_per_dir) + files;
        assert!(usize::try_from(inodes).is_ok(), "namespace fits in memory");
        let files = files as usize;
        // A directory wider than the whole tree is the same single
        // directory, and keeps `per_dir + 1` in range.
        let per_dir = files_per_dir.min(files.max(1) as u64) as usize;
        let mut checkpoints = Vec::with_capacity(files / CHECKPOINT + 1);
        let mut total = 0;
        for file in 0..files {
            if file.is_multiple_of(CHECKPOINT) {
                checkpoints.push((total, rng.clone()));
            }
            total += file_length(rng);
        }
        if files.is_multiple_of(CHECKPOINT) {
            checkpoints.push((total, rng.clone()));
        }
        Namespace {
            files,
            per_dir,
            checkpoints,
        }
    }

    /// Memoized [`Namespace::synthesize`] for the deterministic seeded
    /// namespaces the HD4995 harness builds. The 10⁶-file tree costs one
    /// RNG draw per file to build (a few ms) and ~156 KB to keep, and
    /// every profiled setting and every evaluation run of every fleet
    /// shard wants the *same* tree (same `(files, files_per_dir, seed)`),
    /// so it is built once per process and shared behind an
    /// [`Arc`](std::sync::Arc). Traversals only read the tree, so sharing
    /// cannot change simulation results.
    pub fn synthesize_shared(files: u64, files_per_dir: u64, seed: u64) -> std::sync::Arc<Self> {
        use std::sync::{Arc, Mutex};
        type Key = (u64, u64, u64);
        static CACHE: Mutex<Vec<(Key, Arc<Namespace>)>> = Mutex::new(Vec::new());
        let key = (files, files_per_dir, seed);
        if let Some((_, ns)) = CACHE.lock().unwrap().iter().find(|(k, _)| *k == key) {
            return Arc::clone(ns);
        }
        // Synthesized outside the lock so concurrent shards wanting a
        // *different* tree are not serialized behind this one.
        let ns = Arc::new(Namespace::synthesize(
            files,
            files_per_dir,
            &mut SimRng::seed_from_u64(seed),
        ));
        let mut cache = CACHE.lock().unwrap();
        if let Some((_, existing)) = cache.iter().find(|(k, _)| *k == key) {
            return Arc::clone(existing);
        }
        cache.push((key, Arc::clone(&ns)));
        ns
    }

    /// The content summary of the id range `[from, to)`.
    fn range(&self, from: usize, to: usize) -> ContentSummary {
        let (first, last) = (self.files_before(from), self.files_before(to));
        let file_count = (last - first) as u64;
        ContentSummary {
            file_count,
            directory_count: (to - from) as u64 - file_count,
            length: self.bytes_before(last) - self.bytes_before(first),
        }
    }

    /// Computes the content summary of a subtree at once (the unmetered
    /// traversal the pre-HD4995 namenode did while holding the lock for
    /// the whole walk).
    pub fn summary(&self, root: InodeId) -> ContentSummary {
        self.range(root, self.end(root))
    }
}

impl Default for Namespace {
    fn default() -> Self {
        Self::new()
    }
}

/// A resumable depth-first traversal that visits at most `limit` inodes
/// per call — the unit `content-summary.limit` meters. Between calls the
/// namenode releases the lock and lets writers in (HD4995's fix).
///
/// The traversal is a position in the subtree's preorder id range, so a
/// quantum costs the same two range-sum regenerations whatever its
/// `limit`.
#[derive(Debug, Clone)]
pub struct TraversalCursor {
    pos: usize,
    end: usize,
    visited: u64,
}

impl TraversalCursor {
    /// Starts a traversal of `ns` at `root`.
    pub fn new(ns: &Namespace, root: InodeId) -> Self {
        TraversalCursor {
            pos: root,
            end: ns.end(root),
            visited: 0,
        }
    }

    /// Whether the traversal has visited everything.
    pub fn is_done(&self) -> bool {
        self.pos == self.end
    }

    /// Total inodes visited so far.
    pub fn visited(&self) -> u64 {
        self.visited
    }

    /// Inodes left to visit.
    pub fn remaining(&self) -> u64 {
        (self.end - self.pos) as u64
    }

    /// Visits up to `limit` inodes of `ns` (the namespace the cursor was
    /// started on), returning the partial summary of this quantum.
    pub fn advance(&mut self, ns: &Namespace, limit: u64) -> ContentSummary {
        let span = usize::try_from(limit.min(self.remaining())).expect("span fits a usize");
        let stop = self.pos + span;
        let part = ns.range(self.pos, stop);
        self.pos = stop;
        self.visited += span as u64;
        part
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The children of `v`: the first is `v + 1`, and each next sibling
    /// starts where the previous one's subtree ends.
    fn children(ns: &Namespace, v: InodeId) -> Vec<InodeId> {
        let stop = ns.end(v);
        let mut kids = Vec::new();
        let mut c = v + 1;
        while c < stop {
            kids.push(c);
            c = ns.end(c);
        }
        kids
    }

    /// root / d0 / {f0, f1}, root / d1 / {f2}, and the three lengths
    /// in draw order.
    fn tiny() -> (Namespace, [u64; 3]) {
        let mut rng = SimRng::seed_from_u64(5);
        let lengths = [(); 3].map(|_| file_length(&mut rng));
        let ns = Namespace::synthesize(3, 2, &mut SimRng::seed_from_u64(5));
        (ns, lengths)
    }

    #[test]
    fn summary_aggregates_subtree() {
        let (ns, lengths) = tiny();
        let s = ns.summary(ns.root());
        assert_eq!(s.file_count, 3);
        assert_eq!(s.directory_count, 3); // root + d0 + d1
        assert_eq!(s.length, lengths.iter().sum::<u64>());
    }

    #[test]
    fn subtree_summary_excludes_siblings() {
        let (ns, lengths) = tiny();
        let [d0, d1] = children(&ns, ns.root())[..] else {
            panic!("root should have two directories");
        };
        let s = ns.summary(d0);
        assert_eq!((s.file_count, s.length), (2, lengths[0] + lengths[1]));
        let s = ns.summary(d1);
        assert_eq!((s.file_count, s.length), (1, lengths[2]));
    }

    #[test]
    fn metered_traversal_matches_unmetered() {
        let mut rng = SimRng::seed_from_u64(2);
        let ns = Namespace::synthesize(500, 7, &mut rng);
        let full = ns.summary(ns.root());

        for limit in [1, 3, 64, 10_000] {
            let mut cursor = TraversalCursor::new(&ns, ns.root());
            let mut total = ContentSummary::default();
            let mut quanta = 0;
            while !cursor.is_done() {
                total += cursor.advance(&ns, limit);
                quanta += 1;
            }
            assert_eq!(total, full, "limit {limit} changed the answer");
            let expected_quanta = (ns.len() as u64).div_ceil(limit);
            assert_eq!(quanta, expected_quanta, "limit {limit}");
            assert_eq!(cursor.visited(), ns.len() as u64);
        }
    }

    #[test]
    fn synthesize_counts() {
        let mut rng = SimRng::seed_from_u64(3);
        let ns = Namespace::synthesize(100, 8, &mut rng);
        let s = ns.summary(ns.root());
        assert_eq!(s.file_count, 100);
        assert_eq!(s.directory_count as usize + s.file_count as usize, ns.len());
        // 100 files over dirs of 8: 13 dirs + root.
        assert_eq!(s.directory_count, 14);
        assert!(!ns.is_empty());
    }

    #[test]
    fn empty_namespace() {
        let ns = Namespace::new();
        assert!(ns.is_empty());
        assert_eq!(ns.len(), 1);
        let s = ns.summary(ns.root());
        assert_eq!(s.file_count, 0);
        assert_eq!(s.directory_count, 1);
        assert!(children(&ns, ns.root()).is_empty());
    }

    #[test]
    fn deterministic_synthesis() {
        let a = Namespace::synthesize(64, 5, &mut SimRng::seed_from_u64(9));
        let b = Namespace::synthesize(64, 5, &mut SimRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    /// HD4995's tree, `(1_000_000, 100, 0xd1f5)`: the root summary and
    /// the quanta of two limits, as the materialised prefix-sum layout
    /// computed them, so the closed form cannot drift from its sums.
    #[test]
    fn standard_tree_sums_are_pinned() {
        let ns = Namespace::synthesize_shared(1_000_000, 100, 0xd1f5);
        let summary = |file_count, directory_count, length| ContentSummary {
            file_count,
            directory_count,
            length,
        };
        let root = summary(1_000_000, 10_001, 72_005_577_201_087);
        assert_eq!(ns.len(), 1_010_001);
        assert_eq!(ns.summary(ns.root()), root);
        let pinned = [
            (
                499_000,
                vec![
                    summary(494_058, 4_942, 35_570_760_153_524),
                    summary(494_059, 4_941, 35_575_307_989_345),
                    summary(11_883, 118, 859_509_058_218),
                ],
            ),
            (1_480_000, vec![root]),
        ];
        for (limit, quanta) in pinned {
            assert_eq!(flat_quanta(&ns, ns.root(), limit), (quanta, 1_010_001));
        }
    }

    /// The layout before the closed form, kept as the reference it must
    /// match: an arena of inodes with per-directory child lists, walked
    /// by a stack.
    enum RefInode {
        File(u64),
        Directory(Vec<usize>),
    }

    /// The stack traversal of that arena, quantum by quantum: every
    /// partial summary, and the inodes visited at the end.
    fn reference_quanta(arena: &[RefInode], root: usize, limit: u64) -> (Vec<ContentSummary>, u64) {
        let (mut stack, mut visited, mut quanta) = (vec![root], 0, Vec::new());
        while !stack.is_empty() {
            let mut partial = ContentSummary::default();
            let mut steps = 0;
            while steps < limit {
                let Some(id) = stack.pop() else {
                    break;
                };
                steps += 1;
                visited += 1;
                match &arena[id] {
                    RefInode::File(length) => {
                        partial.file_count += 1;
                        partial.length += length;
                    }
                    RefInode::Directory(children) => {
                        partial.directory_count += 1;
                        stack.extend(children.iter().rev());
                    }
                }
            }
            quanta.push(partial);
        }
        (quanta, visited)
    }

    /// The arena of the tree `synthesize(files, per_dir, seed)` builds,
    /// from the same draws, in preorder: each id is its inode's.
    fn reference_arena(files: u64, per_dir: u64, seed: u64) -> Vec<RefInode> {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut arena = vec![RefInode::Directory(Vec::new())];
        let mut remaining = files;
        while remaining > 0 {
            let in_this_dir = remaining.min(per_dir);
            let dir = arena.len();
            let kids = (dir + 1..=dir + in_this_dir as usize).collect();
            arena.push(RefInode::Directory(kids));
            for _ in 0..in_this_dir {
                arena.push(RefInode::File(file_length(&mut rng)));
            }
            if let RefInode::Directory(children) = &mut arena[0] {
                children.push(dir);
            }
            remaining -= in_this_dir;
        }
        arena
    }

    fn flat_quanta(ns: &Namespace, root: InodeId, limit: u64) -> (Vec<ContentSummary>, u64) {
        let mut cursor = TraversalCursor::new(ns, root);
        let mut quanta = Vec::new();
        while !cursor.is_done() {
            quanta.push(cursor.advance(ns, limit));
        }
        (quanta, cursor.visited())
    }

    proptest::proptest! {
        /// Synthesized trees — up to a few thousand files, so ranges
        /// start and end on both sides of checkpoint boundaries —
        /// traverse quantum for quantum as the stack walk of the same
        /// tree does, from every subtree root and at every limit.
        #[test]
        fn flat_preorder_matches_the_stack_reference(
            files in 0u64..2_000,
            per_dir in 1u64..300,
            seed in 0u64..u64::MAX,
        ) {
            let arena = reference_arena(files, per_dir, seed);
            let ns = Namespace::synthesize(files, per_dir, &mut SimRng::seed_from_u64(seed));
            proptest::prop_assert_eq!(ns.len(), arena.len());
            let len = ns.len() as u64;
            for (id, inode) in arena.iter().enumerate() {
                let kids = match inode {
                    RefInode::File(_) => Vec::new(),
                    RefInode::Directory(children) => children.clone(),
                };
                proptest::prop_assert_eq!(children(&ns, id), kids);
                let summary = ns.summary(id);
                for limit in [1, 2, 3, 64, len, u64::MAX] {
                    let (quanta, visited) = reference_quanta(&arena, id, limit);
                    let mut total = ContentSummary::default();
                    quanta.iter().for_each(|&q| total += q);
                    proptest::prop_assert_eq!(summary, total);
                    proptest::prop_assert_eq!(flat_quanta(&ns, id, limit), (quanta, visited));
                }
            }
        }
    }
}
