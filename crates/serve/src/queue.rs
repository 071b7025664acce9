//! The admission queue: bounded capacity, shed policies, per-class
//! deadlines, and FIFO-preserving batch extraction for the coalescer.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use mlscore_sim::SimInstant;

use crate::request::{ClassSlo, QueryClass, ServeRequest};

/// What to do when a request arrives at a full queue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShedPolicy {
    /// Reject the arriving request (tail drop).
    #[default]
    RejectNew,
    /// Admit the arriving request and drop the oldest queued one (head
    /// drop — favors fresh requests whose deadlines are still far).
    DropOldest,
}

/// Admission-queue configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct QueueConfig {
    /// Maximum queued requests (`None`: unbounded).
    pub capacity: Option<usize>,
    /// Overflow behavior when `capacity` is reached.
    pub shed: ShedPolicy,
    /// SLOs for [`QueryClass::Interactive`].
    pub interactive: ClassSlo,
    /// SLOs for [`QueryClass::Analytical`].
    pub analytical: ClassSlo,
}

impl QueueConfig {
    /// The SLO record for a class.
    pub fn slo(&self, class: QueryClass) -> &ClassSlo {
        match class {
            QueryClass::Interactive => &self.interactive,
            QueryClass::Analytical => &self.analytical,
        }
    }
}

/// The outcome of offering a request to the queue.
#[derive(Debug, Clone, PartialEq)]
pub enum Admission {
    /// The request was queued.
    Admitted,
    /// The queue was full and [`ShedPolicy::RejectNew`] bounced the
    /// arriving request (returned for accounting).
    Rejected(ServeRequest),
    /// The queue was full and [`ShedPolicy::DropOldest`] evicted the
    /// oldest queued request (returned) to admit the arriving one.
    DroppedOldest(ServeRequest),
}

/// A FIFO admission queue with bounded capacity and lazy deadline expiry.
///
/// Arrival order is preserved: admission appends, extraction
/// ([`AdmissionQueue::take_batch`]) removes in queue order, so two requests
/// for the same model always dispatch in arrival order (the FIFO-within-
/// class guarantee — the coalescer may *steal* later same-model requests
/// past earlier other-model ones, but never reorders within a model).
#[derive(Debug, Clone, Default)]
pub struct AdmissionQueue {
    entries: VecDeque<ServeRequest>,
    config: QueueConfig,
}

impl AdmissionQueue {
    /// An empty queue under `config`.
    pub fn new(config: QueueConfig) -> Self {
        Self {
            entries: VecDeque::new(),
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &QueueConfig {
        &self.config
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

    /// Offers a request; on overflow the shed policy decides who pays.
    pub fn offer(&mut self, request: ServeRequest) -> Admission {
        if let Some(capacity) = self.config.capacity {
            if self.entries.len() >= capacity {
                match self.config.shed {
                    ShedPolicy::RejectNew => return Admission::Rejected(request),
                    ShedPolicy::DropOldest => {
                        return match self.entries.pop_front() {
                            Some(oldest) => {
                                self.entries.push_back(request);
                                Admission::DroppedOldest(oldest)
                            }
                            // Zero capacity: nothing to evict, nothing fits.
                            None => Admission::Rejected(request),
                        };
                    }
                }
            }
        }
        self.entries.push_back(request);
        Admission::Admitted
    }

    /// Removes and returns every queued request whose class deadline has
    /// lapsed by `now` (waited strictly longer than
    /// [`ClassSlo::queue_deadline`]). Expiry is lazy: the engine calls this
    /// at each dispatch opportunity, which is the only time expiry can
    /// change an outcome.
    pub fn expire(&mut self, now: SimInstant) -> Vec<ServeRequest> {
        let mut expired = Vec::new();
        let mut kept = VecDeque::with_capacity(self.entries.len());
        for request in std::mem::take(&mut self.entries) {
            let lapsed = self
                .config
                .slo(request.class)
                .queue_deadline
                .is_some_and(|deadline| now - request.arrival > deadline);
            if lapsed {
                expired.push(request);
            } else {
                kept.push_back(request);
            }
        }
        self.entries = kept;
        expired
    }

    /// How many requests and records a batch for `model` would contain
    /// right now, without removing anything: queued requests for `model`
    /// in FIFO order, capped at `max_requests` and (past the first
    /// request, which always fits) `max_records`.
    pub fn preview_batch(
        &self,
        model: usize,
        max_requests: usize,
        max_records: u64,
    ) -> (usize, u64) {
        let mut requests = 0usize;
        let mut records = 0u64;
        for r in &self.entries {
            if r.model != model {
                continue;
            }
            if requests >= max_requests || (requests > 0 && records + r.n_records > max_records) {
                break;
            }
            requests += 1;
            records += r.n_records;
        }
        (requests, records)
    }

    /// Removes and returns the batch [`AdmissionQueue::preview_batch`]
    /// described, preserving FIFO order among the taken requests and among
    /// the ones left behind.
    pub fn take_batch(
        &mut self,
        model: usize,
        max_requests: usize,
        max_records: u64,
    ) -> Vec<ServeRequest> {
        let (count, _) = self.preview_batch(model, max_requests, max_records);
        let mut taken = Vec::with_capacity(count);
        let mut kept = VecDeque::with_capacity(self.entries.len());
        for r in std::mem::take(&mut self.entries) {
            if taken.len() < count && r.model == model {
                taken.push(r);
            } else {
                kept.push_back(r);
            }
        }
        self.entries = kept;
        taken
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlscore_sim::SimDuration;

    fn req(id: u64, model: usize, n_records: u64, arrival_ms: f64) -> ServeRequest {
        ServeRequest {
            id,
            class: QueryClass::of(n_records),
            model,
            n_records,
            arrival: SimInstant::ZERO + SimDuration::from_millis(arrival_ms),
            client: None,
        }
    }

    #[test]
    fn unbounded_queue_admits_everything() {
        let mut q = AdmissionQueue::new(QueueConfig::default());
        for i in 0..100 {
            assert_eq!(q.offer(req(i, 0, 10, 0.0)), Admission::Admitted);
        }
        assert_eq!(q.len(), 100);
        assert!(!q.is_empty());
    }

    #[test]
    fn reject_new_bounces_the_arrival() {
        let mut q = AdmissionQueue::new(QueueConfig {
            capacity: Some(2),
            ..QueueConfig::default()
        });
        q.offer(req(0, 0, 10, 0.0));
        q.offer(req(1, 0, 10, 0.0));
        let bounced = req(2, 0, 10, 1.0);
        assert_eq!(q.offer(bounced), Admission::Rejected(bounced));
        assert_eq!(q.len(), 2);
        assert_eq!(q.iter().map(|r| r.id).collect::<Vec<_>>(), [0, 1]);
    }

    #[test]
    fn drop_oldest_evicts_the_head() {
        let mut q = AdmissionQueue::new(QueueConfig {
            capacity: Some(2),
            shed: ShedPolicy::DropOldest,
            ..QueueConfig::default()
        });
        q.offer(req(0, 0, 10, 0.0));
        q.offer(req(1, 0, 10, 0.0));
        let evicted = q.offer(req(2, 0, 10, 1.0));
        assert_eq!(evicted, Admission::DroppedOldest(req(0, 0, 10, 0.0)));
        assert_eq!(q.iter().map(|r| r.id).collect::<Vec<_>>(), [1, 2]);
        // Zero capacity degenerates to rejection (nothing to evict).
        let mut zero = AdmissionQueue::new(QueueConfig {
            capacity: Some(0),
            shed: ShedPolicy::DropOldest,
            ..QueueConfig::default()
        });
        assert!(matches!(
            zero.offer(req(9, 0, 10, 0.0)),
            Admission::Rejected(_)
        ));
    }

    #[test]
    fn expiry_is_per_class_and_strict() {
        let mut q = AdmissionQueue::new(QueueConfig {
            interactive: ClassSlo {
                queue_deadline: Some(SimDuration::from_millis(5.0)),
                latency_slo: None,
            },
            ..QueueConfig::default()
        });
        q.offer(req(0, 0, 10, 0.0)); // interactive, arrives at 0 ms
        q.offer(req(1, 0, 1_000_000, 0.0)); // analytical: no deadline
        q.offer(req(2, 0, 10, 4.0)); // interactive, arrives at 4 ms
                                     // At exactly the deadline nothing lapses (strict >)...
        assert!(q
            .expire(SimInstant::ZERO + SimDuration::from_millis(5.0))
            .is_empty());
        // ...just past it, only the 0 ms interactive arrival lapses.
        let expired = q.expire(SimInstant::ZERO + SimDuration::from_millis(5.1));
        assert_eq!(expired.iter().map(|r| r.id).collect::<Vec<_>>(), [0]);
        assert_eq!(q.iter().map(|r| r.id).collect::<Vec<_>>(), [1, 2]);
    }

    #[test]
    fn batches_steal_same_model_requests_in_fifo_order() {
        let mut q = AdmissionQueue::new(QueueConfig::default());
        q.offer(req(0, 7, 10, 0.0));
        q.offer(req(1, 3, 10, 0.0));
        q.offer(req(2, 7, 20, 0.0));
        q.offer(req(3, 7, 30, 0.0));
        assert_eq!(q.preview_batch(7, 8, u64::MAX), (3, 60));
        let batch = q.take_batch(7, 8, u64::MAX);
        assert_eq!(batch.iter().map(|r| r.id).collect::<Vec<_>>(), [0, 2, 3]);
        // The other model's request keeps its place.
        assert_eq!(q.iter().map(|r| r.id).collect::<Vec<_>>(), [1]);
    }

    #[test]
    fn batch_caps_bind_but_the_first_request_always_fits() {
        let mut q = AdmissionQueue::new(QueueConfig::default());
        q.offer(req(0, 1, 500, 0.0));
        q.offer(req(1, 1, 500, 0.0));
        q.offer(req(2, 1, 500, 0.0));
        // Request cap.
        assert_eq!(q.preview_batch(1, 2, u64::MAX), (2, 1_000));
        // Record cap stops before the third request.
        assert_eq!(q.preview_batch(1, 8, 1_000), (2, 1_000));
        // A single oversized request still forms a batch of one.
        let mut big = AdmissionQueue::new(QueueConfig::default());
        big.offer(req(0, 1, 1_000_000, 0.0));
        assert_eq!(big.preview_batch(1, 8, 100), (1, 1_000_000));
        assert_eq!(big.take_batch(1, 8, 100).len(), 1);
    }
}
