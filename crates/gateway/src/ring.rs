//! The gateway's per-tenant rings.
//!
//! These are deliberately *models* of io_uring-style rings, not
//! lock-free memory: the reactor is a deterministic virtual-time event
//! loop, so a bounded FIFO with explicit capacity accounting carries
//! exactly the semantics the evaluation needs (what is waiting, what
//! overflows, what the high-water mark was) without pretending
//! concurrency the simulation doesn't have. The submission side is
//! bounded — overflow is the gateway's first shedding stage — while the
//! completion side records delivered batches and is drained by the
//! tenant at its leisure.

use std::collections::VecDeque;

use crate::{Completion, Submission};

/// A tenant's bounded submission ring. Arrivals wait here until the WRR
/// reactor admits them; an arrival that finds the ring full is shed at
/// the door (reason `ring-full`).
#[derive(Debug)]
pub struct SubmissionRing {
    entries: VecDeque<Submission>,
    capacity: usize,
    high_water: usize,
}

impl SubmissionRing {
    /// An empty ring holding at most `capacity` waiting submissions.
    pub fn new(capacity: usize) -> SubmissionRing {
        SubmissionRing {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            high_water: 0,
        }
    }

    /// Pushes a submission, or hands it back if the ring is full.
    ///
    /// # Errors
    ///
    /// The rejected submission itself, so the caller can account the
    /// shed without cloning — the Err carries ownership back by
    /// design.
    #[allow(clippy::result_large_err)]
    pub fn push(&mut self, sub: Submission) -> Result<(), Submission> {
        if self.entries.len() >= self.capacity {
            return Err(sub);
        }
        self.entries.push_back(sub);
        self.high_water = self.high_water.max(self.entries.len());
        Ok(())
    }

    /// The oldest waiting submission, if any.
    pub fn peek(&self) -> Option<&Submission> {
        self.entries.front()
    }

    /// Removes and returns the oldest waiting submission.
    pub fn pop(&mut self) -> Option<Submission> {
        self.entries.pop_front()
    }

    /// Waiting submissions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Deepest the ring ever got.
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

/// A tenant's completion ring: verdicts delivered in batches by the
/// reactor, in completion order. Delivery never drops — the ring grows
/// with its tenant's admitted traffic, and the batch counter is what
/// the trace's `completion_batch` events are reconciled against.
#[derive(Debug, Default)]
pub struct CompletionRing {
    entries: VecDeque<Completion>,
    batches: u64,
}

impl CompletionRing {
    /// An empty completion ring.
    pub fn new() -> CompletionRing {
        CompletionRing::default()
    }

    /// An empty completion ring with room for `capacity` completions.
    pub(crate) fn with_capacity(capacity: usize) -> CompletionRing {
        CompletionRing {
            entries: VecDeque::with_capacity(capacity),
            batches: 0,
        }
    }

    /// Delivers one batch of completions, draining `batch` so the caller
    /// can refill the same buffer (the reactor calls this; batch size
    /// policy lives there).
    pub fn deliver(&mut self, batch: &mut Vec<Completion>) {
        debug_assert!(!batch.is_empty(), "empty delivery batches are a bug");
        self.batches += 1;
        self.entries.extend(batch.drain(..));
    }

    /// Pops the oldest undrained completion.
    pub fn pop(&mut self) -> Option<Completion> {
        self.entries.pop_front()
    }

    /// Undrained completions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ring has been fully drained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Batches delivered so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Iterates the undrained completions oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &Completion> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use runtime::{CallRequest, CallVerdict};

    fn sub(token: u64) -> Submission {
        Submission {
            token,
            tenant: 0,
            arrival_cycles: token * 10,
            request: CallRequest::new(
                crossover::world::Wid::from_raw(1),
                crossover::world::Wid::from_raw(2),
                100,
                10,
            ),
        }
    }

    #[test]
    fn submission_ring_bounds_and_orders() {
        let mut ring = SubmissionRing::new(2);
        assert!(ring.push(sub(1)).is_ok());
        assert!(ring.push(sub(2)).is_ok());
        let rejected = ring.push(sub(3)).unwrap_err();
        assert_eq!(rejected.token, 3);
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.high_water(), 2);
        assert_eq!(ring.pop().unwrap().token, 1);
        assert_eq!(ring.peek().unwrap().token, 2);
        assert!(ring.push(sub(4)).is_ok());
        assert_eq!(ring.pop().unwrap().token, 2);
        assert_eq!(ring.pop().unwrap().token, 4);
        assert!(ring.is_empty());
        assert_eq!(ring.high_water(), 2);
    }

    #[test]
    fn completion_ring_counts_batches() {
        let completion = |token| Completion {
            token,
            user_tag: 0,
            tenant: 0,
            verdict: CallVerdict::Completed,
            arrival_cycles: 0,
            admitted_cycles: 1,
            done_cycles: 2,
        };
        let mut ring = CompletionRing::new();
        let mut batch = vec![completion(1), completion(2)];
        ring.deliver(&mut batch);
        assert!(batch.is_empty(), "delivery drains the batch buffer");
        batch.push(completion(3));
        ring.deliver(&mut batch);
        assert_eq!(ring.batches(), 2);
        assert_eq!(ring.len(), 3);
        let tokens: Vec<u64> = ring.iter().map(|c| c.token).collect();
        assert_eq!(tokens, vec![1, 2, 3]);
        assert_eq!(ring.pop().unwrap().token, 1);
    }
}
