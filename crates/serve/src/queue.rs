//! The admission queue: bounded capacity with tail drop, and
//! FIFO-preserving batch extraction for the coalescer.

use std::collections::VecDeque;

use crate::request::ServeRequest;

/// A FIFO admission queue with an optional capacity; a request arriving
/// at a full queue is rejected (tail drop).
///
/// Arrival order is preserved: admission appends, extraction
/// ([`AdmissionQueue::take_batch`]) removes in queue order, so two requests
/// for the same model always dispatch in arrival order (the FIFO-within-
/// class guarantee — the coalescer may *steal* later same-model requests
/// past earlier other-model ones, but never reorders within a model).
#[derive(Debug, Clone, Default)]
pub struct AdmissionQueue {
    entries: VecDeque<ServeRequest>,
    capacity: Option<usize>,
}

impl AdmissionQueue {
    /// An empty queue holding at most `capacity` requests (`None`:
    /// unbounded).
    pub fn new(capacity: Option<usize>) -> Self {
        Self {
            entries: VecDeque::new(),
            capacity,
        }
    }

    /// Queued requests.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Queued requests in FIFO order.
    pub fn iter(&self) -> impl Iterator<Item = &ServeRequest> {
        self.entries.iter()
    }

    /// Offers a request.
    ///
    /// # Errors
    ///
    /// Hands the request back when the queue is full.
    pub fn offer(&mut self, request: ServeRequest) -> Result<(), ServeRequest> {
        if self.capacity.is_some_and(|c| self.entries.len() >= c) {
            return Err(request);
        }
        self.entries.push_back(request);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::QueryClass;
    use mlscore_sim::{SimDuration, SimInstant};

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
