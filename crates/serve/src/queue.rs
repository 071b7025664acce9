//! The admission queue: bounded capacity with tail drop, and
//! FIFO-preserving batch extraction for the coalescer.

use std::collections::{BTreeMap, VecDeque};

use crate::request::ServeRequest;

/// A FIFO admission queue with an optional capacity; a request arriving
/// at a full queue is rejected (tail drop).
///
/// Arrival order is preserved: admission appends, extraction
/// ([`AdmissionQueue::take_batch`]) removes in queue order, so two requests
/// for the same model always dispatch in arrival order (the FIFO-within-
/// class guarantee — the coalescer may *steal* later same-model requests
/// past earlier other-model ones, but never reorders within a model).
///
/// The queue keeps one FIFO per model, each request tagged with its
/// arrival sequence number across all models, so finding the per-model
/// heads ([`AdmissionQueue::heads`]) costs one look per model and taking
/// a batch touches only the requests it takes, however long the queue.
#[derive(Debug, Clone, Default)]
pub struct AdmissionQueue {
    /// Per model index: its queued `(arrival sequence, request)`s in
    /// arrival order (empty once drained; a model keeps its entry).
    fifos: BTreeMap<usize, VecDeque<(u64, ServeRequest)>>,
    /// Requests queued over all models.
    len: usize,
    /// The sequence number the next admitted request takes.
    next_seq: u64,
    capacity: Option<usize>,
}

impl AdmissionQueue {
    /// An empty queue holding at most `capacity` requests (`None`:
    /// unbounded).
    pub fn new(capacity: Option<usize>) -> Self {
        Self {
            capacity,
            ..Self::default()
        }
    }

    /// Queued requests.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queued requests in FIFO order.
    pub fn iter(&self) -> impl Iterator<Item = &ServeRequest> {
        let mut queued: Vec<&(u64, ServeRequest)> = self.fifos.values().flatten().collect();
        queued.sort_unstable_by_key(|&&(seq, _)| seq);
        queued.into_iter().map(|(_, r)| r)
    }

    /// The models with queued requests, ordered by their oldest request's
    /// arrival: the order in which each model's head reached the queue.
    pub fn heads(&self) -> Vec<usize> {
        let mut heads: Vec<(u64, usize)> = (self.fifos.iter())
            .filter_map(|(&model, fifo)| fifo.front().map(|&(seq, _)| (seq, model)))
            .collect();
        heads.sort_unstable();
        heads.into_iter().map(|(_, model)| model).collect()
    }

    /// Offers a request.
    ///
    /// # Errors
    ///
    /// Hands the request back when the queue is full.
    pub fn offer(&mut self, request: ServeRequest) -> Result<(), ServeRequest> {
        if self.capacity.is_some_and(|c| self.len >= c) {
            return Err(request);
        }
        (self.fifos.entry(request.model).or_default()).push_back((self.next_seq, request));
        self.next_seq += 1;
        self.len += 1;
        Ok(())
    }

    /// Removes and returns the queued requests for `model` in FIFO order,
    /// capped at `max_requests` and (past the first request, which always
    /// fits) `max_records`. Extraction stops at the first request that
    /// does not fit, and FIFO order holds among the taken requests and
    /// among the ones left behind.
    pub fn take_batch(
        &mut self,
        model: usize,
        max_requests: usize,
        max_records: u64,
    ) -> Vec<ServeRequest> {
        let mut taken: Vec<ServeRequest> = Vec::new();
        let Some(fifo) = self.fifos.get_mut(&model) else {
            return taken;
        };
        let mut records = 0u64;
        while let Some(&(_, r)) = fifo.front() {
            if taken.len() >= max_requests
                || (!taken.is_empty() && records + r.n_records > max_records)
            {
                break;
            }
            records += r.n_records;
            taken.push(r);
            fifo.pop_front();
        }
        self.len -= taken.len();
        taken
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::QueryClass;
    use mlscore_sim::{SimDuration, SimInstant};
    use proptest::prelude::*;

    /// The single-deque queue the per-model FIFOs replaced, kept as the
    /// reference their heads and batches must match.
    struct ReferenceQueue {
        entries: VecDeque<ServeRequest>,
        capacity: Option<usize>,
    }

    impl ReferenceQueue {
        fn offer(&mut self, request: ServeRequest) -> Result<(), ServeRequest> {
            if self.capacity.is_some_and(|c| self.entries.len() >= c) {
                return Err(request);
            }
            self.entries.push_back(request);
            Ok(())
        }

        /// Each model once, in the order its first queued request appears.
        fn heads(&self) -> Vec<usize> {
            let mut heads: Vec<usize> = Vec::new();
            for r in &self.entries {
                if !heads.contains(&r.model) {
                    heads.push(r.model);
                }
            }
            heads
        }

        fn take_batch(
            &mut self,
            model: usize,
            max_requests: usize,
            max_records: u64,
        ) -> Vec<ServeRequest> {
            let mut taken: Vec<ServeRequest> = Vec::new();
            let mut records = 0u64;
            let mut full = false;
            let mut kept = VecDeque::with_capacity(self.entries.len());
            for r in std::mem::take(&mut self.entries) {
                if r.model == model && !full {
                    full = taken.len() >= max_requests
                        || (!taken.is_empty() && records + r.n_records > max_records);
                    if !full {
                        records += r.n_records;
                        taken.push(r);
                        continue;
                    }
                }
                kept.push_back(r);
            }
            self.entries = kept;
            taken
        }
    }

    /// One queue operation: an offer `(model, records)` or a batch take
    /// `(model, max_requests, max_records)`.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Offer(usize, u64),
        Take(usize, usize, u64),
    }

    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        let op = (0..3u32, 0..5usize, 1..2_000u64, 0..6usize).prop_map(
            |(kind, model, records, max_requests)| match kind {
                // Offers outnumber takes, so the queue builds up.
                0 | 1 => Op::Offer(model, records),
                _ => Op::Take(model, max_requests, records * 2),
            },
        );
        proptest::collection::vec(op, 0..120)
    }

    proptest! {
        #[test]
        fn per_model_fifos_match_the_single_deque_queue(
            ops in arb_ops(),
            capacity in 0..40usize,
            bounded in any::<bool>(),
        ) {
            let capacity = bounded.then_some(capacity);
            let mut q = AdmissionQueue::new(capacity);
            let mut reference = ReferenceQueue { entries: VecDeque::new(), capacity };
            for (id, op) in (0u64..).zip(ops) {
                match op {
                    Op::Offer(model, records) => {
                        let r = req(id, model, records, 0.0);
                        prop_assert_eq!(q.offer(r), reference.offer(r));
                    }
                    Op::Take(model, max_requests, max_records) => prop_assert_eq!(
                        q.take_batch(model, max_requests, max_records),
                        reference.take_batch(model, max_requests, max_records)
                    ),
                }
                prop_assert_eq!(q.heads(), reference.heads());
                prop_assert_eq!(q.len(), reference.entries.len());
                prop_assert!(q.iter().eq(reference.entries.iter()));
            }
        }
    }

    fn req(id: u64, model: usize, n_records: u64, arrival_ms: f64) -> ServeRequest {
        ServeRequest {
            id,
            class: QueryClass::of(n_records),
            model,
            n_records,
            arrival: SimInstant::ZERO + SimDuration::from_millis(arrival_ms),
        }
    }

    #[test]
    fn unbounded_queue_admits_everything() {
        let mut q = AdmissionQueue::new(None);
        for i in 0..100 {
            assert_eq!(q.offer(req(i, 0, 10, 0.0)), Ok(()));
        }
        assert_eq!(q.len(), 100);
        assert!(!q.is_empty());
    }

    #[test]
    fn reject_new_bounces_the_arrival() {
        let mut q = AdmissionQueue::new(Some(2));
        assert_eq!(q.offer(req(0, 0, 10, 0.0)), Ok(()));
        assert_eq!(q.offer(req(1, 0, 10, 0.0)), Ok(()));
        let bounced = req(2, 0, 10, 1.0);
        assert_eq!(q.offer(bounced), Err(bounced));
        assert_eq!(q.len(), 2);
        assert_eq!(q.iter().map(|r| r.id).collect::<Vec<_>>(), [0, 1]);
        // Zero capacity admits nothing.
        assert!(AdmissionQueue::new(Some(0))
            .offer(req(9, 0, 10, 0.0))
            .is_err());
    }

    #[test]
    fn batches_steal_same_model_requests_in_fifo_order() {
        let mut q = AdmissionQueue::new(None);
        for r in [
            req(0, 7, 10, 0.0),
            req(1, 3, 10, 0.0),
            req(2, 7, 20, 0.0),
            req(3, 7, 30, 0.0),
        ] {
            assert_eq!(q.offer(r), Ok(()));
        }
        let batch = q.take_batch(7, 8, u64::MAX);
        assert_eq!(batch.iter().map(|r| r.id).collect::<Vec<_>>(), [0, 2, 3]);
        // The other model's request keeps its place.
        assert_eq!(q.iter().map(|r| r.id).collect::<Vec<_>>(), [1]);
    }

    #[test]
    fn batch_caps_bind_but_the_first_request_always_fits() {
        let queued = || {
            let mut q = AdmissionQueue::new(None);
            for (id, records) in [(0, 500), (1, 500), (2, 500), (3, 10)] {
                assert_eq!(q.offer(req(id, 1, records, 0.0)), Ok(()));
            }
            q
        };
        let ids = |batch: Vec<ServeRequest>| batch.iter().map(|r| r.id).collect::<Vec<_>>();
        // Request cap.
        assert_eq!(ids(queued().take_batch(1, 2, u64::MAX)), [0, 1]);
        // The record cap stops at the third request, and a later request
        // that would fit does not jump the one that did not.
        let mut q = queued();
        assert_eq!(ids(q.take_batch(1, 8, 1_000)), [0, 1]);
        assert_eq!(q.iter().map(|r| r.id).collect::<Vec<_>>(), [2, 3]);
        // A single oversized request still forms a batch of one.
        let mut big = AdmissionQueue::new(None);
        assert_eq!(big.offer(req(0, 1, 1_000_000, 0.0)), Ok(()));
        assert_eq!(big.take_batch(1, 8, 100).len(), 1);
    }
}
