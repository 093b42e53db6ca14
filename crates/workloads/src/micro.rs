//! The six NVHeaps-style micro-benchmarks (Table IV of the paper).
//!
//! Each benchmark maintains a real shared data structure whose *layout* lives
//! in simulated persistent memory (every node/bucket/slot/entry has a
//! concrete address from [`SimHeap`]) and whose *contents* are modelled
//! host-side so operations behave semantically (hash collisions, B-tree
//! splits, red-black rotations).
//!
//! A transaction is a single atomic insert/delete (or swap pair for SPS)
//! whose element payload spans tens of cache lines — the ≈3 KB elements that
//! give the write-set footprints of Table IV (52–63 lines per transaction).
//! Structure metadata (queue head/tail counters, hash bucket headers, tree
//! nodes) is shared by all cores, so the conflict behaviour of Figure 5 /
//! Table V emerges: the queue's counters are a severe hot spot (highest abort
//! rate), hash buckets rarely collide (lowest), and the trees sit in between
//! because updates near the root are shared.
//!
//! While copying a payload the benchmarks repeatedly update a checksum word
//! in the element header, giving the write stream the temporal reuse that the
//! DHTM log buffer exploits (Figure 6): a small buffer evicts the header line
//! over and over, a 64-entry buffer coalesces all of its updates into one log
//! record.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dhtm_sim::locks::LockId;
use dhtm_sim::workload::{Transaction, Workload};
use dhtm_types::addr::{Address, LINE_SIZE};
use dhtm_types::ids::CoreId;

use crate::heap::SimHeap;
use crate::trace::TraceBuilder;

/// Number of coarse-grained lock partitions used by the lock-based designs.
const LOCK_PARTITIONS: u64 = 32;

fn partition_lock(index: u64) -> LockId {
    LockId(index % LOCK_PARTITIONS)
}

/// Cycles of work per payload cache line (marshalling, checksumming,
/// predicate evaluation). Calibrated so that a ≈3 KB-element transaction
/// takes tens of thousands of cycles on the in-order cores, as in the
/// paper's setup.
const PAYLOAD_LINE_WORK: u64 = 350;
/// Cycles of work per structural operation (pointer chasing, comparisons).
const OP_COMPUTE: u64 = 25;

/// Writes an element payload of `lines` cache lines starting at `base`,
/// interleaving updates of the element-header checksum word (creating the
/// write reuse that the log buffer coalesces).
fn write_payload(t: &mut TraceBuilder, base: Address, lines: u64, seed: u64) {
    let header = base;
    for i in 0..lines {
        let line_addr = base.offset(i * LINE_SIZE as u64);
        t.write_line(line_addr, seed.wrapping_add(i));
        t.compute(PAYLOAD_LINE_WORK);
        // Running checksum in the element header, updated per payload line.
        t.write(header.offset(16), seed ^ i);
    }
}

/// Reads an element payload of `lines` cache lines starting at `base`.
fn read_payload(t: &mut TraceBuilder, base: Address, lines: u64) {
    for i in 0..lines {
        t.read_line(base.offset(i * LINE_SIZE as u64));
        t.compute(PAYLOAD_LINE_WORK / 4);
    }
}

// ---------------------------------------------------------------------------
// Queue
// ---------------------------------------------------------------------------

/// A shared circular queue of ≈3 KB entries with global head/tail counters
/// ("Insert/delete entries in a queue").
#[derive(Debug)]
pub struct QueueWorkload {
    rng: StdRng,
    slots: Address,
    meta: Address,
    capacity: u64,
    entry_lines: u64,
    head: u64,
    tail: u64,
}

impl QueueWorkload {
    /// Creates the queue workload (1024 entries of 50 lines each).
    pub fn new(seed: u64) -> Self {
        let mut heap = SimHeap::default_heap();
        let capacity = 1024;
        let entry_lines = 50;
        let slots = heap.alloc_lines(capacity * entry_lines);
        let meta = heap.alloc_lines(2);
        QueueWorkload {
            rng: StdRng::seed_from_u64(seed ^ 0x51),
            slots,
            meta,
            capacity,
            entry_lines,
            head: 0,
            tail: 512, // pre-filled halfway so dequeues always succeed
        }
    }

    fn slot_addr(&self, index: u64) -> Address {
        self.slots
            .offset((index % self.capacity) * self.entry_lines * LINE_SIZE as u64)
    }
}

impl Workload for QueueWorkload {
    fn name(&self) -> &'static str {
        "queue"
    }

    fn next_transaction(&mut self, _core: CoreId) -> Transaction {
        // Each transaction enqueues one entry and dequeues one entry; both
        // ends update the shared counter lines, the structural hot spot.
        let mut t = TraceBuilder::new();
        t.lock(LockId(0));
        // Enqueue.
        let tail = self.tail;
        self.tail = self.tail.wrapping_add(1);
        t.read(self.meta.offset(64)); // tail counter line
        write_payload(
            &mut t,
            self.slot_addr(tail),
            self.entry_lines,
            self.rng.gen(),
        );
        t.write(self.meta.offset(64), self.tail);
        // Dequeue.
        let head = self.head;
        self.head = self.head.wrapping_add(1);
        t.read(self.meta); // head counter line
        t.read_line(self.slot_addr(head));
        t.write_line(self.slot_addr(head), 0); // mark the slot free
        t.write(self.meta, self.head);
        t.compute(OP_COMPUTE);
        t.build("queue-op")
    }
}

// ---------------------------------------------------------------------------
// Hash table
// ---------------------------------------------------------------------------

/// A shared chained hash table with one header line per bucket and ≈3.5 KB
/// entry payloads ("Insert/delete entries in a hash table").
#[derive(Debug)]
pub struct HashWorkload {
    rng: StdRng,
    heap: SimHeap,
    buckets_addr: Address,
    buckets: Vec<Vec<(u64, Address)>>,
    key_space: u64,
    entry_lines: u64,
}

impl HashWorkload {
    /// Creates the hash workload (4096 buckets, 56-line entries).
    pub fn new(seed: u64) -> Self {
        let mut heap = SimHeap::default_heap();
        let num_buckets = 4096u64;
        let buckets_addr = heap.alloc_lines(num_buckets);
        let mut wl = HashWorkload {
            rng: StdRng::seed_from_u64(seed ^ 0xA5),
            heap,
            buckets_addr,
            buckets: vec![Vec::new(); num_buckets as usize],
            key_space: 1 << 20,
            entry_lines: 56,
        };
        // Pre-populate so that deletes find keys from the first transaction.
        for _ in 0..2048 {
            let key = wl.rng.gen_range(0..wl.key_space);
            let addr = wl.heap.alloc_lines(wl.entry_lines);
            let b = wl.bucket_of(key);
            wl.buckets[b].push((key, addr));
        }
        wl
    }

    fn bucket_of(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E3779B97F4A7C15) % self.buckets.len() as u64) as usize
    }

    fn bucket_addr(&self, bucket: usize) -> Address {
        self.buckets_addr.offset(bucket as u64 * LINE_SIZE as u64)
    }
}

impl Workload for HashWorkload {
    fn name(&self) -> &'static str {
        "hash"
    }

    fn next_transaction(&mut self, _core: CoreId) -> Transaction {
        let mut t = TraceBuilder::new();
        // Insert a fresh entry...
        let key = self.rng.gen_range(0..self.key_space);
        let bucket = self.bucket_of(key);
        t.lock(partition_lock(bucket as u64));
        let entry = self.heap.alloc_lines(self.entry_lines);
        t.read_line(self.bucket_addr(bucket));
        write_payload(&mut t, entry, self.entry_lines, key);
        t.write_line(self.bucket_addr(bucket), key);
        self.buckets[bucket].push((key, entry));
        // ...and delete one from another (usually different) bucket.
        let victim_key = self.rng.gen_range(0..self.key_space);
        let vbucket = self.bucket_of(victim_key);
        t.lock(partition_lock(vbucket as u64));
        t.read_line(self.bucket_addr(vbucket));
        if let Some((_, old_entry)) = self.buckets[vbucket].pop() {
            t.read_line(old_entry);
            t.write_line(old_entry, 0); // poison the freed entry header
            t.write_line(self.bucket_addr(vbucket), 0);
        }
        t.compute(OP_COMPUTE);
        t.build("hash-op")
    }
}

// ---------------------------------------------------------------------------
// Scalable data graph (SDG)
// ---------------------------------------------------------------------------

/// An adjacency-list graph with a header line per vertex and ≈3.4 KB edge
/// records ("Insert/delete edges in a scalable graph").
#[derive(Debug)]
pub struct SdgWorkload {
    rng: StdRng,
    heap: SimHeap,
    vertices: u64,
    headers: Address,
    edge_lines: u64,
    edges: Vec<Vec<Address>>,
}

impl SdgWorkload {
    /// Creates the graph workload (2048 vertices, 53-line edge records).
    pub fn new(seed: u64) -> Self {
        let mut heap = SimHeap::default_heap();
        let vertices = 2048u64;
        let headers = heap.alloc_lines(vertices);
        let mut wl = SdgWorkload {
            rng: StdRng::seed_from_u64(seed ^ 0x5D6),
            heap,
            vertices,
            headers,
            edge_lines: 53,
            edges: vec![Vec::new(); vertices as usize],
        };
        for _ in 0..1024 {
            let u = wl.rng.gen_range(0..wl.vertices);
            let rec = wl.heap.alloc_lines(wl.edge_lines);
            wl.edges[u as usize].push(rec);
        }
        wl
    }

    fn header_addr(&self, v: u64) -> Address {
        self.headers.offset(v * LINE_SIZE as u64)
    }
}

impl Workload for SdgWorkload {
    fn name(&self) -> &'static str {
        "sdg"
    }

    fn next_transaction(&mut self, _core: CoreId) -> Transaction {
        let mut t = TraceBuilder::new();
        let u = self.rng.gen_range(0..self.vertices);
        let v = self.rng.gen_range(0..self.vertices);
        t.lock(partition_lock(u));
        // lint: allow(float-in-det, reason = "seeded-PRNG coin flip at a constant probability; replacing the draw would shift the random stream and re-pin every golden")
        if self.rng.gen_bool(0.5) || self.edges[u as usize].is_empty() {
            // Insert edge u -> v with a full edge record.
            let rec = self.heap.alloc_lines(self.edge_lines);
            t.read_line(self.header_addr(u));
            t.read_line(self.header_addr(v));
            write_payload(&mut t, rec, self.edge_lines, v);
            t.write_line(self.header_addr(u), v);
            self.edges[u as usize].push(rec);
        } else {
            // Delete the most recently added edge of u.
            let rec = self.edges[u as usize].pop().expect("non-empty");
            t.read_line(self.header_addr(u));
            read_payload(&mut t, rec, self.edge_lines / 8);
            t.write_line(rec, 0);
            t.write_line(self.header_addr(u), 0);
            // Deletes are cheap; pair them with an insert so every
            // transaction carries a Table IV-sized write set.
            let rec2 = self.heap.alloc_lines(self.edge_lines);
            write_payload(&mut t, rec2, self.edge_lines, u);
            t.write_line(self.header_addr(u), u);
            self.edges[u as usize].push(rec2);
        }
        t.compute(OP_COMPUTE);
        t.build("sdg-op")
    }
}

// ---------------------------------------------------------------------------
// SPS (random swaps)
// ---------------------------------------------------------------------------

/// Random swaps between ≈2 KB entries of a shared array ("Random swaps
/// between entries in an array").
#[derive(Debug)]
pub struct SpsWorkload {
    rng: StdRng,
    array: Address,
    entries: u64,
    entry_lines: u64,
}

impl SpsWorkload {
    /// Creates the swap workload (512 entries of 31 lines each).
    pub fn new(seed: u64) -> Self {
        let mut heap = SimHeap::default_heap();
        let entries = 512;
        let entry_lines = 31;
        let array = heap.alloc_lines(entries * entry_lines);
        SpsWorkload {
            rng: StdRng::seed_from_u64(seed ^ 0x595),
            array,
            entries,
            entry_lines,
        }
    }

    fn entry_addr(&self, i: u64) -> Address {
        self.array.offset(i * self.entry_lines * LINE_SIZE as u64)
    }
}

impl Workload for SpsWorkload {
    fn name(&self) -> &'static str {
        "sps"
    }

    fn next_transaction(&mut self, _core: CoreId) -> Transaction {
        let mut t = TraceBuilder::new();
        let a = self.rng.gen_range(0..self.entries);
        let b = self.rng.gen_range(0..self.entries);
        t.lock(partition_lock(a));
        t.lock(partition_lock(b));
        read_payload(&mut t, self.entry_addr(a), self.entry_lines);
        read_payload(&mut t, self.entry_addr(b), self.entry_lines);
        write_payload(&mut t, self.entry_addr(a), self.entry_lines, b);
        write_payload(&mut t, self.entry_addr(b), self.entry_lines, a);
        t.compute(OP_COMPUTE);
        t.build("sps-swap")
    }
}

// ---------------------------------------------------------------------------
// B-tree
// ---------------------------------------------------------------------------

const BTREE_MAX_KEYS: usize = 15; // one two-line node: 15 keys + header
/// Cache lines per B-tree node.
const BTREE_NODE_LINES: u64 = 2;
/// Cache lines per value record attached to a key.
const BTREE_VALUE_LINES: u64 = 54;

#[derive(Debug, Clone)]
struct BTreeNode {
    keys: Vec<u64>,
    children: Vec<usize>,
    addr: Address,
}

/// A B-tree with two-line nodes and ≈3.4 KB value records, supporting insert
/// with node splits and delete from the leaves ("Insert/delete nodes in a
/// b-tree").
#[derive(Debug)]
pub struct BTreeWorkload {
    rng: StdRng,
    heap: SimHeap,
    nodes: Vec<BTreeNode>,
    root: usize,
    key_space: u64,
    present_keys: Vec<u64>,
}

impl BTreeWorkload {
    /// Creates the B-tree workload pre-populated with 4096 keys.
    pub fn new(seed: u64) -> Self {
        let mut heap = SimHeap::default_heap();
        let root_addr = heap.alloc_lines(BTREE_NODE_LINES);
        let mut wl = BTreeWorkload {
            rng: StdRng::seed_from_u64(seed ^ 0xB7EE),
            heap,
            nodes: vec![BTreeNode {
                keys: Vec::new(),
                children: Vec::new(),
                addr: root_addr,
            }],
            root: 0,
            key_space: 1 << 20,
            present_keys: Vec::new(),
        };
        let mut scratch = TraceBuilder::new();
        for _ in 0..4096 {
            let key = wl.rng.gen_range(0..wl.key_space);
            wl.insert(key, &mut scratch);
            wl.present_keys.push(key);
        }
        wl
    }

    fn new_node(&mut self) -> usize {
        let addr = self.heap.alloc_lines(BTREE_NODE_LINES);
        self.nodes.push(BTreeNode {
            keys: Vec::new(),
            children: Vec::new(),
            addr,
        });
        self.nodes.len() - 1
    }

    fn is_leaf(&self, n: usize) -> bool {
        self.nodes[n].children.is_empty()
    }

    /// Inserts a key, recording traversal reads and modification writes.
    fn insert(&mut self, key: u64, t: &mut TraceBuilder) {
        if self.nodes[self.root].keys.len() >= BTREE_MAX_KEYS {
            let old_root = self.root;
            let new_root = self.new_node();
            self.nodes[new_root].children.push(old_root);
            self.root = new_root;
            self.split_child(new_root, 0, t);
        }
        let mut n = self.root;
        loop {
            t.read_span(self.nodes[n].addr, BTREE_NODE_LINES);
            t.compute(OP_COMPUTE);
            if self.is_leaf(n) {
                let pos = self.nodes[n].keys.partition_point(|&k| k < key);
                self.nodes[n].keys.insert(pos, key);
                t.write_span(self.nodes[n].addr, BTREE_NODE_LINES, key);
                return;
            }
            let pos = self.nodes[n].keys.partition_point(|&k| k < key);
            let child = self.nodes[n].children[pos];
            if self.nodes[child].keys.len() >= BTREE_MAX_KEYS {
                self.split_child(n, pos, t);
                let pos = self.nodes[n].keys.partition_point(|&k| k < key);
                n = self.nodes[n].children[pos];
            } else {
                n = child;
            }
        }
    }

    fn split_child(&mut self, parent: usize, idx: usize, t: &mut TraceBuilder) {
        let child = self.nodes[parent].children[idx];
        let mid = BTREE_MAX_KEYS / 2;
        let promoted = self.nodes[child].keys[mid];
        let right = self.new_node();
        let right_keys = self.nodes[child].keys.split_off(mid + 1);
        self.nodes[child].keys.pop();
        self.nodes[right].keys = right_keys;
        if !self.is_leaf(child) {
            let right_children = self.nodes[child].children.split_off(mid + 1);
            self.nodes[right].children = right_children;
        }
        self.nodes[parent].keys.insert(idx, promoted);
        self.nodes[parent].children.insert(idx + 1, right);
        t.write_span(self.nodes[child].addr, BTREE_NODE_LINES, promoted);
        t.write_span(self.nodes[right].addr, BTREE_NODE_LINES, promoted ^ 1);
        t.write_span(self.nodes[parent].addr, BTREE_NODE_LINES, promoted ^ 2);
    }

    /// Deletes a key if present (leaf removal; interior keys remain as
    /// separators, which keeps look-ups correct).
    fn delete(&mut self, key: u64, t: &mut TraceBuilder) {
        let mut n = self.root;
        loop {
            t.read_span(self.nodes[n].addr, BTREE_NODE_LINES);
            t.compute(OP_COMPUTE);
            if let Ok(pos) = self.nodes[n].keys.binary_search(&key) {
                if self.is_leaf(n) {
                    self.nodes[n].keys.remove(pos);
                    t.write_span(self.nodes[n].addr, BTREE_NODE_LINES, key);
                }
                return;
            }
            if self.is_leaf(n) {
                return;
            }
            let pos = self.nodes[n].keys.partition_point(|&k| k < key);
            n = self.nodes[n].children[pos];
        }
    }
}

impl Workload for BTreeWorkload {
    fn name(&self) -> &'static str {
        "btree"
    }

    fn next_transaction(&mut self, _core: CoreId) -> Transaction {
        // Insert a key together with its value record, and delete one
        // existing key.
        let mut t = TraceBuilder::new();
        let key = self.rng.gen_range(0..self.key_space);
        t.lock(partition_lock(key));
        self.insert(key, &mut t);
        self.present_keys.push(key);
        let value = self.heap.alloc_lines(BTREE_VALUE_LINES);
        write_payload(&mut t, value, BTREE_VALUE_LINES, key);
        if !self.present_keys.is_empty() {
            let idx = self.rng.gen_range(0..self.present_keys.len());
            let victim = self.present_keys.swap_remove(idx);
            t.lock(partition_lock(victim));
            self.delete(victim, &mut t);
        }
        t.build("btree-op")
    }
}

// ---------------------------------------------------------------------------
// Red-black tree
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Colour {
    Red,
    Black,
}

#[derive(Debug, Clone)]
struct RbNode {
    key: u64,
    colour: Colour,
    left: Option<usize>,
    right: Option<usize>,
    parent: Option<usize>,
    addr: Address,
}

/// Cache lines per value record attached to a red-black tree node.
const RB_VALUE_LINES: u64 = 46;

/// A red-black tree with one node per cache line and ≈2.9 KB value records,
/// supporting insert with the standard recolouring/rotation fix-up and delete
/// by splicing ("Insert/delete nodes in a red-black tree").
#[derive(Debug)]
pub struct RbTreeWorkload {
    rng: StdRng,
    heap: SimHeap,
    nodes: Vec<RbNode>,
    root: Option<usize>,
    key_space: u64,
    present_keys: Vec<u64>,
}

impl RbTreeWorkload {
    /// Creates the red-black-tree workload pre-populated with 4096 keys.
    pub fn new(seed: u64) -> Self {
        let heap = SimHeap::default_heap();
        let mut wl = RbTreeWorkload {
            rng: StdRng::seed_from_u64(seed ^ 0xBB7),
            heap,
            nodes: Vec::new(),
            root: None,
            key_space: 1 << 20,
            present_keys: Vec::new(),
        };
        let mut scratch = TraceBuilder::new();
        for _ in 0..4096 {
            let key = wl.rng.gen_range(0..wl.key_space);
            wl.insert(key, &mut scratch);
            wl.present_keys.push(key);
        }
        wl
    }

    fn node_addr(&self, n: usize) -> Address {
        self.nodes[n].addr
    }

    fn new_node(&mut self, key: u64, parent: Option<usize>) -> usize {
        let addr = self.heap.alloc_lines(1);
        self.nodes.push(RbNode {
            key,
            colour: Colour::Red,
            left: None,
            right: None,
            parent,
            addr,
        });
        self.nodes.len() - 1
    }

    fn rotate_left(&mut self, x: usize, t: &mut TraceBuilder) {
        let y = self.nodes[x].right.expect("rotate_left needs right child");
        self.nodes[x].right = self.nodes[y].left;
        if let Some(yl) = self.nodes[y].left {
            self.nodes[yl].parent = Some(x);
            t.write_line(self.node_addr(yl), 0);
        }
        self.nodes[y].parent = self.nodes[x].parent;
        match self.nodes[x].parent {
            None => self.root = Some(y),
            Some(p) => {
                if self.nodes[p].left == Some(x) {
                    self.nodes[p].left = Some(y);
                } else {
                    self.nodes[p].right = Some(y);
                }
                t.write_line(self.node_addr(p), 1);
            }
        }
        self.nodes[y].left = Some(x);
        self.nodes[x].parent = Some(y);
        t.write_line(self.node_addr(x), 2);
        t.write_line(self.node_addr(y), 3);
    }

    fn rotate_right(&mut self, x: usize, t: &mut TraceBuilder) {
        let y = self.nodes[x].left.expect("rotate_right needs left child");
        self.nodes[x].left = self.nodes[y].right;
        if let Some(yr) = self.nodes[y].right {
            self.nodes[yr].parent = Some(x);
            t.write_line(self.node_addr(yr), 0);
        }
        self.nodes[y].parent = self.nodes[x].parent;
        match self.nodes[x].parent {
            None => self.root = Some(y),
            Some(p) => {
                if self.nodes[p].left == Some(x) {
                    self.nodes[p].left = Some(y);
                } else {
                    self.nodes[p].right = Some(y);
                }
                t.write_line(self.node_addr(p), 1);
            }
        }
        self.nodes[y].right = Some(x);
        self.nodes[x].parent = Some(y);
        t.write_line(self.node_addr(x), 2);
        t.write_line(self.node_addr(y), 3);
    }

    fn insert(&mut self, key: u64, t: &mut TraceBuilder) {
        let mut parent = None;
        let mut cursor = self.root;
        while let Some(c) = cursor {
            t.read_line(self.node_addr(c));
            t.compute(OP_COMPUTE / 5);
            parent = Some(c);
            cursor = if key < self.nodes[c].key {
                self.nodes[c].left
            } else if key > self.nodes[c].key {
                self.nodes[c].right
            } else {
                t.write_line(self.node_addr(c), key);
                return;
            };
        }
        let n = self.new_node(key, parent);
        t.write_line(self.node_addr(n), key);
        match parent {
            None => {
                self.root = Some(n);
                self.nodes[n].colour = Colour::Black;
                return;
            }
            Some(p) => {
                if key < self.nodes[p].key {
                    self.nodes[p].left = Some(n);
                } else {
                    self.nodes[p].right = Some(n);
                }
                t.write_line(self.node_addr(p), key);
            }
        }
        self.insert_fixup(n, t);
    }

    fn insert_fixup(&mut self, mut z: usize, t: &mut TraceBuilder) {
        while let Some(p) = self.nodes[z].parent {
            if self.nodes[p].colour != Colour::Red {
                break;
            }
            let g = match self.nodes[p].parent {
                Some(g) => g,
                None => break,
            };
            let parent_is_left = self.nodes[g].left == Some(p);
            let uncle = if parent_is_left {
                self.nodes[g].right
            } else {
                self.nodes[g].left
            };
            if let Some(u) = uncle.filter(|&u| self.nodes[u].colour == Colour::Red) {
                self.nodes[p].colour = Colour::Black;
                self.nodes[u].colour = Colour::Black;
                self.nodes[g].colour = Colour::Red;
                t.write_line(self.node_addr(p), 0);
                t.write_line(self.node_addr(u), 1);
                t.write_line(self.node_addr(g), 2);
                z = g;
            } else {
                if parent_is_left {
                    if self.nodes[p].right == Some(z) {
                        z = p;
                        self.rotate_left(z, t);
                    }
                    let p = self.nodes[z].parent.expect("fixup parent");
                    let g = self.nodes[p].parent.expect("fixup grandparent");
                    self.nodes[p].colour = Colour::Black;
                    self.nodes[g].colour = Colour::Red;
                    self.rotate_right(g, t);
                } else {
                    if self.nodes[p].left == Some(z) {
                        z = p;
                        self.rotate_right(z, t);
                    }
                    let p = self.nodes[z].parent.expect("fixup parent");
                    let g = self.nodes[p].parent.expect("fixup grandparent");
                    self.nodes[p].colour = Colour::Black;
                    self.nodes[g].colour = Colour::Red;
                    self.rotate_left(g, t);
                }
                break;
            }
        }
        if let Some(r) = self.root {
            self.nodes[r].colour = Colour::Black;
        }
    }

    /// Deletes `key` if present by splicing the node out (successor swap for
    /// two-child nodes). The double-black fix-up is omitted: the tree stays a
    /// valid BST and the trace still exercises a realistic
    /// search-then-modify path.
    fn delete(&mut self, key: u64, t: &mut TraceBuilder) {
        let mut cursor = self.root;
        while let Some(c) = cursor {
            t.read_line(self.node_addr(c));
            t.compute(OP_COMPUTE / 5);
            if key == self.nodes[c].key {
                if self.nodes[c].left.is_some() && self.nodes[c].right.is_some() {
                    let mut s = self.nodes[c].right.expect("right child");
                    while let Some(l) = self.nodes[s].left {
                        t.read_line(self.node_addr(l));
                        s = l;
                    }
                    self.nodes[c].key = self.nodes[s].key;
                    t.write_line(self.node_addr(c), self.nodes[s].key);
                    self.splice(s, t);
                } else {
                    self.splice(c, t);
                }
                return;
            }
            cursor = if key < self.nodes[c].key {
                self.nodes[c].left
            } else {
                self.nodes[c].right
            };
        }
    }

    fn splice(&mut self, n: usize, t: &mut TraceBuilder) {
        let child = self.nodes[n].left.or(self.nodes[n].right);
        let parent = self.nodes[n].parent;
        if let Some(c) = child {
            self.nodes[c].parent = parent;
            t.write_line(self.node_addr(c), 0);
        }
        match parent {
            None => self.root = child,
            Some(p) => {
                if self.nodes[p].left == Some(n) {
                    self.nodes[p].left = child;
                } else {
                    self.nodes[p].right = child;
                }
                t.write_line(self.node_addr(p), 1);
            }
        }
        t.write_line(self.node_addr(n), 2);
    }

    #[cfg(test)]
    fn validate_bst(&self, n: Option<usize>, lo: Option<u64>, hi: Option<u64>) -> bool {
        match n {
            None => true,
            Some(i) => {
                let k = self.nodes[i].key;
                if lo.is_some_and(|l| k <= l) || hi.is_some_and(|h| k >= h) {
                    return false;
                }
                self.validate_bst(self.nodes[i].left, lo, Some(k))
                    && self.validate_bst(self.nodes[i].right, Some(k), hi)
            }
        }
    }
}

impl Workload for RbTreeWorkload {
    fn name(&self) -> &'static str {
        "rbtree"
    }

    fn next_transaction(&mut self, _core: CoreId) -> Transaction {
        let mut t = TraceBuilder::new();
        let key = self.rng.gen_range(0..self.key_space);
        t.lock(partition_lock(key));
        self.insert(key, &mut t);
        self.present_keys.push(key);
        let value = self.heap.alloc_lines(RB_VALUE_LINES);
        write_payload(&mut t, value, RB_VALUE_LINES, key);
        if !self.present_keys.is_empty() {
            let idx = self.rng.gen_range(0..self.present_keys.len());
            let victim = self.present_keys.swap_remove(idx);
            t.lock(partition_lock(victim));
            self.delete(victim, &mut t);
        }
        t.build("rbtree-op")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_write_set(w: &mut dyn Workload, samples: usize) -> f64 {
        (0..samples)
            .map(|_| w.next_transaction(CoreId::new(0)).write_set_lines().len() as f64)
            .sum::<f64>()
            / samples as f64
    }

    #[test]
    fn write_set_sizes_are_in_the_table_iv_range() {
        // Table IV: queue 52, hash 58, sdg 56, sps 63, btree 61, rbtree 53
        // cache lines; accept ±40% on a small sample.
        let checks: Vec<(Box<dyn Workload>, usize)> = vec![
            (Box::new(QueueWorkload::new(7)), 52),
            (Box::new(HashWorkload::new(7)), 58),
            (Box::new(SdgWorkload::new(7)), 56),
            (Box::new(SpsWorkload::new(7)), 63),
            (Box::new(BTreeWorkload::new(7)), 61),
            (Box::new(RbTreeWorkload::new(7)), 53),
        ];
        for (mut w, target) in checks {
            let avg = mean_write_set(w.as_mut(), 5);
            let lo = target as f64 * 0.6;
            let hi = target as f64 * 1.4;
            assert!(
                avg >= lo && avg <= hi,
                "{}: mean write set {avg:.1} lines outside [{lo:.0}, {hi:.0}] (paper: {target})",
                w.name()
            );
        }
    }

    #[test]
    fn transactions_carry_lock_sets_and_ops() {
        for name in &crate::NAMES[..6] {
            let mut w = crate::try_by_name(name, 1).expect("micro-benchmark name");
            let tx = w.next_transaction(CoreId::new(0));
            assert!(!tx.locks.is_empty(), "{} must declare locks", w.name());
            assert!(!tx.ops.is_empty());
            assert!(
                tx.locks.len() <= 4,
                "{} uses coarse partition locks",
                w.name()
            );
        }
    }

    #[test]
    fn queue_advances_both_counters_each_transaction() {
        let mut q = QueueWorkload::new(3);
        let (h0, t0) = (q.head, q.tail);
        let _ = q.next_transaction(CoreId::new(0));
        assert_eq!(q.head, h0 + 1);
        assert_eq!(q.tail, t0 + 1);
    }

    #[test]
    fn hash_insert_and_delete_update_host_model() {
        let mut h = HashWorkload::new(3);
        let before: usize = h.buckets.iter().map(Vec::len).sum();
        for _ in 0..10 {
            let _ = h.next_transaction(CoreId::new(0));
        }
        let after: usize = h.buckets.iter().map(Vec::len).sum();
        // One insert and (usually) one delete per transaction: population
        // stays near the initial level.
        assert!((after as i64 - before as i64).unsigned_abs() <= 10);
    }

    #[test]
    fn btree_insert_keeps_keys_sorted_and_splits_nodes() {
        let mut w = BTreeWorkload::new(3);
        for _ in 0..20 {
            let _ = w.next_transaction(CoreId::new(0));
        }
        assert!(w.nodes.len() > 1, "splits must have created nodes");
        for node in &w.nodes {
            assert!(node.keys.windows(2).all(|p| p[0] <= p[1]));
            assert!(node.keys.len() <= BTREE_MAX_KEYS);
        }
    }

    #[test]
    fn rbtree_stays_a_valid_bst_with_black_root() {
        let mut w = RbTreeWorkload::new(3);
        for _ in 0..20 {
            let _ = w.next_transaction(CoreId::new(0));
        }
        assert!(w.validate_bst(w.root, None, None));
        if let Some(r) = w.root {
            assert_eq!(w.nodes[r].colour, Colour::Black);
        }
    }

    #[test]
    fn sps_swaps_two_distinct_payloads() {
        let mut w = SpsWorkload::new(3);
        let tx = w.next_transaction(CoreId::new(0));
        let lines = tx.write_set_lines().len();
        assert!((31..=2 * 31).contains(&lines));
    }

    #[test]
    fn payload_writes_revisit_the_header_line() {
        // The checksum updates give the log buffer something to coalesce: the
        // header line is stored once per payload line.
        let mut t = TraceBuilder::new();
        write_payload(&mut t, Address::new(0x10000), 8, 1);
        let tx = t.build("p");
        let header_line = Address::new(0x10000).line();
        let stores_to_header = tx
            .ops
            .iter()
            .filter(|op| op.is_write() && op.address().map(|a| a.line()) == Some(header_line))
            .count();
        assert!(stores_to_header >= 8);
    }

    #[test]
    fn workloads_are_deterministic_per_seed() {
        let mut a = HashWorkload::new(42);
        let mut b = HashWorkload::new(42);
        let ta = a.next_transaction(CoreId::new(0));
        let tb = b.next_transaction(CoreId::new(0));
        assert_eq!(ta.ops, tb.ops);
    }
}
