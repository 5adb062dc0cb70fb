//! Experience replay: one fixed-size FIFO memory with two ways to draw
//! from it.
//!
//! [`PrioritizedReplay`] implements the paper's "Replay Critical
//! Transformation Memory" (Eq. 10): each memory carries a priority
//! (the TD error) and [`PrioritizedReplay::sample`] draws it with
//! probability proportional to that priority. Following standard
//! prioritized-experience-replay practice we use `|δ| + ε` so
//! probabilities stay positive and well-defined (noted in DESIGN.md §4).
//! The FASTFT⁻ᴿᶜᵀ ablation keeps the same buffer and draws with
//! [`PrioritizedReplay::sample_uniform`] instead.

use fastft_tabular::persist::{Persist, PersistResult, Reader, Writer};
use fastft_tabular::rngx::StdRng;

/// Priority floor ε added to every `|δ|`.
const EPS: f64 = 1e-3;

/// Ring-buffer prioritized replay (proportional variant).
#[derive(Debug, Clone, PartialEq)]
pub struct PrioritizedReplay<M> {
    capacity: usize,
    items: Vec<M>,
    priorities: Vec<f64>,
    write: usize,
}

impl<M> PrioritizedReplay<M> {
    /// Create with a fixed capacity (paper: S = 16).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1);
        PrioritizedReplay {
            capacity,
            items: Vec::with_capacity(capacity),
            priorities: Vec::with_capacity(capacity),
            write: 0,
        }
    }

    /// Number of stored memories.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Insert a memory with priority `|delta|` (TD error). Overwrites the
    /// oldest entry once full (FIFO ring), matching the paper's fixed-size
    /// memory that keeps "key memories updated" (§VI-F).
    pub fn push(&mut self, item: M, delta: f64) {
        let p = delta.abs() + EPS;
        if self.items.len() < self.capacity {
            self.items.push(item);
            self.priorities.push(p);
        } else {
            self.items[self.write] = item;
            self.priorities[self.write] = p;
        }
        self.write = (self.write + 1) % self.capacity;
    }

    /// Sample a memory with probability `P_i / Σ_k P_k` (Eq. 10).
    pub fn sample(&self, rng: &mut StdRng) -> Option<&M> {
        if self.items.is_empty() {
            return None;
        }
        let total: f64 = self.priorities.iter().sum();
        let mut target = rng.gen::<f64>() * total;
        for (item, &p) in self.items.iter().zip(&self.priorities) {
            target -= p;
            if target <= 0.0 {
                return Some(item);
            }
        }
        self.items.last()
    }

    /// Sample a memory uniformly: the FASTFT⁻ᴿᶜᵀ replay draw, and the
    /// evaluation-component fine-tuning draw (Alg. 1 line 16 / Alg. 2
    /// line 21).
    pub fn sample_uniform(&self, rng: &mut StdRng) -> Option<&M> {
        if self.items.is_empty() {
            None
        } else {
            Some(&self.items[rng.gen_range(0..self.items.len())])
        }
    }
}

/// Slot order, priorities and the write cursor all round-trip, so a
/// restored buffer draws the same samples and overwrites the same slot.
/// Restore rejects any state `push` can never leave behind.
impl<M: Persist> Persist for PrioritizedReplay<M> {
    fn persist(&self, w: &mut Writer) {
        self.capacity.persist(w);
        self.write.persist(w);
        self.items.persist(w);
        self.priorities.persist(w);
    }

    fn restore(r: &mut Reader) -> PersistResult<Self> {
        let capacity = r.usize()?;
        let write = r.usize()?;
        let items: Vec<M> = Persist::restore(r)?;
        let priorities: Vec<f64> = Persist::restore(r)?;
        let len = items.len();
        let cursor_ok = if len < capacity { write == len } else { write < capacity };
        if capacity == 0 || len > capacity || !cursor_ok || priorities.len() != len {
            return Err(format!(
                "inconsistent replay buffer (capacity {capacity}, write {write}, len {len}, \
                 {} priorities)",
                priorities.len()
            ));
        }
        if let Some(p) = priorities.iter().find(|&&p| p < EPS) {
            return Err(format!("replay priority {p} below the floor {EPS}"));
        }
        Ok(PrioritizedReplay { capacity, items, priorities, write })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastft_tabular::rngx::StdRng;

    fn round_trip(buf: &PrioritizedReplay<u32>) -> PersistResult<PrioritizedReplay<u32>> {
        let mut w = Writer::new();
        buf.persist(&mut w);
        let bytes = w.into_bytes();
        PrioritizedReplay::restore(&mut Reader::new(&bytes))
    }

    #[test]
    fn push_until_full_then_overwrite_oldest() {
        let mut buf = PrioritizedReplay::new(3);
        for i in 0..5 {
            buf.push(i, 1.0);
        }
        assert_eq!(buf.len(), 3);
        // Ring: slots hold [3, 4, 2].
        assert_eq!(buf.items, vec![3, 4, 2]);
    }

    #[test]
    fn sampling_prefers_high_priority() {
        let mut buf = PrioritizedReplay::new(2);
        buf.push("low", 0.001);
        buf.push("high", 100.0);
        let mut rng = StdRng::seed_from_u64(1);
        let highs = (0..1000).filter(|_| *buf.sample(&mut rng).unwrap() == "high").count();
        assert!(highs > 950, "high sampled {highs}/1000");
    }

    #[test]
    fn zero_delta_still_sampleable() {
        let mut buf = PrioritizedReplay::new(2);
        buf.push(1, 0.0);
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(buf.sample(&mut rng), Some(&1));
    }

    #[test]
    fn negative_delta_treated_by_magnitude() {
        let mut buf = PrioritizedReplay::new(2);
        buf.push("neg", -50.0);
        buf.push("tiny", 0.01);
        let mut rng = StdRng::seed_from_u64(3);
        let negs = (0..500).filter(|_| *buf.sample(&mut rng).unwrap() == "neg").count();
        assert!(negs > 450, "neg sampled {negs}/500");
    }

    #[test]
    fn empty_buffer_returns_none() {
        let buf: PrioritizedReplay<u8> = PrioritizedReplay::new(4);
        let mut rng = StdRng::seed_from_u64(4);
        assert!(buf.sample(&mut rng).is_none());
        assert!(buf.sample_uniform(&mut rng).is_none());
    }

    #[test]
    fn uniform_sampling_is_roughly_uniform() {
        let mut buf = PrioritizedReplay::new(4);
        for i in 0..4 {
            // Skewed priorities must not bias the uniform draw.
            buf.push(i, 10f64.powi(i as i32));
        }
        let mut rng = StdRng::seed_from_u64(6);
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            counts[*buf.sample_uniform(&mut rng).unwrap()] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn persist_round_trips_prioritized() {
        for pushes in [0u32, 2, 5] {
            let mut buf = PrioritizedReplay::new(3);
            for i in 0..pushes {
                buf.push(i, f64::from(i) - 2.0);
            }
            let mut rebuilt = round_trip(&buf).expect("decode");
            assert_eq!(rebuilt, buf);
            let mut a = StdRng::seed_from_u64(9);
            let mut b = StdRng::seed_from_u64(9);
            for _ in 0..50 {
                assert_eq!(buf.sample(&mut a), rebuilt.sample(&mut b));
            }
            // Pushing after the rebuild overwrites the same slot.
            buf.push(99, 1.0);
            rebuilt.push(99, 1.0);
            assert_eq!(rebuilt, buf);
        }
    }

    #[test]
    fn uniform_replay_round_trips() {
        let mut buf = PrioritizedReplay::new(2);
        buf.push(10, 0.0);
        buf.push(20, 0.0);
        buf.push(30, 0.0); // overwrites 10
        assert_eq!(buf.items, vec![30, 20]);
    }

    /// A buffer rebuilt from its persisted parts replays the same uniform draws.
    #[test]
    fn from_parts_round_trips_uniform() {
        let mut buf = PrioritizedReplay::new(2);
        for i in 0..3 {
            buf.push(i, 0.0);
        }
        let rebuilt = round_trip(&buf).expect("decode");
        let mut a = StdRng::seed_from_u64(11);
        let mut b = StdRng::seed_from_u64(11);
        for _ in 0..20 {
            assert_eq!(buf.sample_uniform(&mut a), rebuilt.sample_uniform(&mut b));
        }
    }

    #[test]
    fn restore_rejects_states_push_never_leaves() {
        let mut live = PrioritizedReplay::new(4);
        live.push(7, 0.5);
        live.push(8, -0.5);
        let bad = |edit: fn(&mut PrioritizedReplay<u32>)| {
            let mut buf = live.clone();
            edit(&mut buf);
            round_trip(&buf).unwrap_err()
        };
        assert!(bad(|b| b.capacity = 0).contains("inconsistent"));
        assert!(bad(|b| b.capacity = 1).contains("inconsistent"));
        assert!(bad(|b| b.write = 9).contains("inconsistent"));
        // Partly filled: the cursor always equals the length.
        assert!(bad(|b| b.write = 0).contains("inconsistent"));
        assert!(bad(|b| b.write = 3).contains("inconsistent"));
        assert!(bad(|b| {
            b.priorities.pop();
        })
        .contains("inconsistent"));
        assert!(bad(|b| b.priorities[1] = -0.5).contains("below the floor"));
        assert!(bad(|b| b.priorities[0] = 0.0).contains("below the floor"));
    }
}
