//! Bounded RPC queues whose contents count against the heap.

use std::collections::VecDeque;

use smartconf_simkernel::SimTime;

/// One queued RPC request or response payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedRequest {
    /// When the item entered the queue.
    pub enqueued_at: SimTime,
    /// Payload bytes resident on the heap while queued.
    pub bytes: u64,
    /// Whether the originating operation was a write.
    pub is_write: bool,
}

/// A FIFO queue bounded by *item count* — HB3813's
/// `ipc.server.max.queue.size` ("Count of RPC calls queued").
///
/// The bound is dynamic: SmartConf lowers it at run time, and per §4.2 a
/// temporarily over-bound queue is tolerated — existing items stay, new
/// arrivals are refused until the length drops back under the bound.
///
/// # Example
///
/// ```
/// use smartconf_kvstore::{CountBoundedQueue, QueuedRequest};
/// use smartconf_simkernel::SimTime;
///
/// let mut q = CountBoundedQueue::new(2);
/// let item = QueuedRequest { enqueued_at: SimTime::ZERO, bytes: 100, is_write: true };
/// assert!(q.try_push(item));
/// assert!(q.try_push(item));
/// assert!(!q.try_push(item)); // full: rejected
/// assert_eq!(q.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CountBoundedQueue {
    items: VecDeque<QueuedRequest>,
    max_items: usize,
    bytes: u64,
    rejected: u64,
}

impl CountBoundedQueue {
    /// Creates a queue bounded at `max_items`.
    pub fn new(max_items: usize) -> Self {
        CountBoundedQueue {
            items: VecDeque::new(),
            max_items,
            bytes: 0,
            rejected: 0,
        }
    }

    /// Current bound.
    pub fn max_items(&self) -> usize {
        self.max_items
    }

    /// Adjusts the bound (what the SmartConf controller does). Items
    /// already queued beyond a lowered bound are not evicted.
    pub fn set_max_items(&mut self, max_items: usize) {
        self.max_items = max_items;
    }

    /// Attempts to enqueue; returns `false` (and counts a rejection) when
    /// at or over the bound.
    pub fn try_push(&mut self, item: QueuedRequest) -> bool {
        if self.items.len() >= self.max_items {
            self.rejected += 1;
            return false;
        }
        self.bytes += item.bytes;
        self.items.push_back(item);
        true
    }

    /// Dequeues the oldest item.
    pub fn pop(&mut self) -> Option<QueuedRequest> {
        let item = self.items.pop_front()?;
        self.bytes -= item.bytes;
        Some(item)
    }

    /// Number of queued items (the deputy variable of HB3813).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Total payload bytes resident in the queue.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Arrivals refused because the queue was full.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Drops all queued items (an injected plant restart: in-flight RPCs
    /// are lost). The bound and the rejection counter survive.
    pub fn clear(&mut self) {
        self.items.clear();
        self.bytes = 0;
    }

    /// Drops the *newest* items until the length is back at the bound —
    /// guard-directed shedding of already-admitted work
    /// ([`ControlPlane::take_plant_shed`](smartconf_runtime::ControlPlane::take_plant_shed)).
    /// Newest-first keeps the items that have waited longest, matching
    /// the FIFO service order. Returns how many items were dropped.
    pub fn shed_to_bound(&mut self) -> usize {
        let mut dropped = 0;
        while self.items.len() > self.max_items {
            if let Some(item) = self.items.pop_back() {
                self.bytes -= item.bytes;
                dropped += 1;
            }
        }
        dropped
    }
}

/// A FIFO queue bounded by *total bytes* — HB6728's
/// `ipc.server.response.queue.maxsize`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ByteBoundedQueue {
    items: VecDeque<QueuedRequest>,
    max_bytes: u64,
    bytes: u64,
    rejected: u64,
}

impl ByteBoundedQueue {
    /// Creates a queue bounded at `max_bytes` total payload.
    pub fn new(max_bytes: u64) -> Self {
        ByteBoundedQueue {
            items: VecDeque::new(),
            max_bytes,
            bytes: 0,
            rejected: 0,
        }
    }

    /// Current byte bound.
    pub fn max_bytes(&self) -> u64 {
        self.max_bytes
    }

    /// Adjusts the byte bound at run time.
    pub fn set_max_bytes(&mut self, max_bytes: u64) {
        self.max_bytes = max_bytes;
    }

    /// Attempts to enqueue; refuses when the item would push resident
    /// bytes over the bound (unless the queue is empty, so that a single
    /// oversized item can still make progress).
    pub fn try_push(&mut self, item: QueuedRequest) -> bool {
        if !self.items.is_empty() && self.bytes + item.bytes > self.max_bytes {
            self.rejected += 1;
            return false;
        }
        if self.items.is_empty() && item.bytes > self.max_bytes {
            self.rejected += 1;
            return false;
        }
        self.bytes += item.bytes;
        self.items.push_back(item);
        true
    }

    /// Dequeues the oldest item.
    pub fn pop(&mut self) -> Option<QueuedRequest> {
        let item = self.items.pop_front()?;
        self.bytes -= item.bytes;
        Some(item)
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Total payload bytes resident (the deputy variable of HB6728).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Arrivals refused because the queue was full.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Drops all queued items (an injected plant restart: queued
    /// responses are lost). The bound and the rejection counter survive.
    pub fn clear(&mut self) {
        self.items.clear();
        self.bytes = 0;
    }

    /// Drops the *newest* items until resident bytes are back at the
    /// bound — guard-directed shedding of already-admitted work
    /// ([`ControlPlane::take_plant_shed`](smartconf_runtime::ControlPlane::take_plant_shed)).
    /// Returns how many items were dropped.
    pub fn shed_to_bound(&mut self) -> usize {
        let mut dropped = 0;
        while self.bytes > self.max_bytes {
            match self.items.pop_back() {
                Some(item) => {
                    self.bytes -= item.bytes;
                    dropped += 1;
                }
                None => break,
            }
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(bytes: u64) -> QueuedRequest {
        QueuedRequest {
            enqueued_at: SimTime::ZERO,
            bytes,
            is_write: false,
        }
    }

    #[test]
    fn count_queue_fifo_and_bytes() {
        let mut q = CountBoundedQueue::new(10);
        assert!(q.is_empty());
        q.try_push(item(10));
        q.try_push(item(20));
        assert_eq!(q.bytes(), 30);
        assert_eq!(q.pop().unwrap().bytes, 10);
        assert_eq!(q.bytes(), 20);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn count_queue_rejects_at_bound() {
        let mut q = CountBoundedQueue::new(1);
        assert!(q.try_push(item(1)));
        assert!(!q.try_push(item(1)));
        assert_eq!(q.rejected(), 1);
    }

    #[test]
    fn count_queue_zero_bound_rejects_everything() {
        let mut q = CountBoundedQueue::new(0);
        assert!(!q.try_push(item(1)));
    }

    #[test]
    fn lowering_bound_keeps_existing_items() {
        let mut q = CountBoundedQueue::new(5);
        for _ in 0..5 {
            q.try_push(item(1));
        }
        q.set_max_items(2);
        // Over bound: new pushes refused, existing drain normally.
        assert!(!q.try_push(item(1)));
        assert_eq!(q.len(), 5);
        q.pop();
        q.pop();
        q.pop();
        q.pop();
        assert_eq!(q.len(), 1);
        assert!(q.try_push(item(1))); // back under bound
        assert_eq!(q.max_items(), 2);
    }

    #[test]
    fn byte_queue_bounds_on_bytes() {
        let mut q = ByteBoundedQueue::new(100);
        assert!(q.try_push(item(60)));
        assert!(!q.try_push(item(50))); // 110 > 100
        assert!(q.try_push(item(40))); // exactly 100
        assert_eq!(q.bytes(), 100);
        assert_eq!(q.rejected(), 1);
    }

    #[test]
    fn byte_queue_oversized_single_item() {
        let mut q = ByteBoundedQueue::new(100);
        // An item larger than the whole bound is refused even when empty.
        assert!(!q.try_push(item(150)));
        assert_eq!(q.len(), 0);
        assert!(q.try_push(item(100)));
    }

    #[test]
    fn count_queue_sheds_newest_past_bound() {
        let mut q = CountBoundedQueue::new(5);
        for b in 1..=5 {
            q.try_push(item(b));
        }
        q.set_max_items(2);
        assert_eq!(q.shed_to_bound(), 3);
        assert_eq!(q.len(), 2);
        // FIFO survivors are the two oldest items.
        assert_eq!(q.pop().unwrap().bytes, 1);
        assert_eq!(q.pop().unwrap().bytes, 2);
        assert_eq!(q.bytes(), 0);
    }

    #[test]
    fn byte_queue_sheds_newest_past_bound() {
        let mut q = ByteBoundedQueue::new(200);
        q.try_push(item(80));
        q.try_push(item(80));
        q.try_push(item(40));
        q.set_max_bytes(100);
        assert_eq!(q.shed_to_bound(), 2);
        assert_eq!(q.bytes(), 80);
        assert_eq!(q.pop().unwrap().bytes, 80);
        assert!(q.is_empty());
        assert_eq!(q.shed_to_bound(), 0);
    }

    #[test]
    fn byte_queue_dynamic_bound() {
        let mut q = ByteBoundedQueue::new(100);
        q.try_push(item(80));
        q.set_max_bytes(50);
        assert_eq!(q.max_bytes(), 50);
        assert!(!q.try_push(item(10)));
        assert_eq!(q.pop().unwrap().bytes, 80);
        assert!(q.try_push(item(10)));
        assert!(!q.is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Under any interleaving of pushes, pops, and bound changes, the
        /// count queue's byte accounting matches its contents and the
        /// bound is respected at every accepted push.
        #[test]
        fn count_queue_invariants(
            ops in prop::collection::vec((0u8..3, 1u64..1000, 0usize..20), 1..200)
        ) {
            let mut q = CountBoundedQueue::new(5);
            for (op, bytes, bound) in ops {
                match op {
                    0 => {
                        let before = q.len();
                        let accepted = q.try_push(QueuedRequest {
                            enqueued_at: SimTime::ZERO,
                            bytes,
                            is_write: false,
                        });
                        prop_assert_eq!(accepted, before < q.max_items());
                    }
                    1 => {
                        let _ = q.pop();
                    }
                    _ => q.set_max_items(bound),
                }
                let mut expected_bytes = 0u64;
                let mut n = q.clone();
                while let Some(item) = n.pop() {
                    expected_bytes += item.bytes;
                }
                prop_assert_eq!(q.bytes(), expected_bytes);
            }
        }

        /// The byte-bounded queue never holds more than its bound plus at
        /// most one oversized head item, and accounting always matches.
        #[test]
        fn byte_queue_invariants(
            ops in prop::collection::vec((0u8..3, 1u64..500, 1u64..2000), 1..200)
        ) {
            let mut q = ByteBoundedQueue::new(800);
            for (op, bytes, bound) in ops {
                match op {
                    0 => {
                        let _ = q.try_push(QueuedRequest {
                            enqueued_at: SimTime::ZERO,
                            bytes,
                            is_write: false,
                        });
                    }
                    1 => {
                        let _ = q.pop();
                    }
                    _ => q.set_max_bytes(bound),
                }
                let mut expected = 0u64;
                let mut n = q.clone();
                while let Some(item) = n.pop() {
                    expected += item.bytes;
                }
                prop_assert_eq!(q.bytes(), expected);
            }
        }
    }
}
