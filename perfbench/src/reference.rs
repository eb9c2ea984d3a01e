//! The reference every answer is checked against: `SeqScan` replaying
//! the identical events and mutations over the same live object set.

use std::time::Instant;

use acx_baselines::SeqScan;
use acx_geom::scan::ScanScratch;
use acx_geom::{HyperRect, ObjectId, SpatialQuery};
use acx_storage::StorageScenario;

use crate::estimators::{percentile, MatchSum};
use crate::workloads::Op;
use crate::yardstick::{scaled, Yardstick};

/// Replayed events between two readings of the yardstick.
const STRETCH_EVENTS: usize = 64;

pub struct Mirror {
    scan: SeqScan,
    scratch: ScanScratch,
    /// `SeqScan::execute_with` time of every replayed event in reference
    /// nanoseconds (`yardstick`), one vector per `check` call (per
    /// epoch).
    pub event_ns: Vec<Vec<u64>>,
    /// Fold of every replayed event's checksum.
    pub total: MatchSum,
    pub events: u64,
}

impl Mirror {
    pub fn new(dims: usize, objects: &[HyperRect]) -> Self {
        let mut scan = SeqScan::new(dims, StorageScenario::Memory);
        for (i, rect) in objects.iter().enumerate() {
            scan.insert(ObjectId(i as u32), rect);
        }
        Mirror {
            scan,
            scratch: ScanScratch::new(),
            event_ns: Vec::new(),
            total: MatchSum::default(),
            events: 0,
        }
    }

    /// One event through `SeqScan::execute_with`, timed and folded.
    pub fn event(&mut self, q: &SpatialQuery) -> MatchSum {
        let started = Instant::now();
        let result = self.scan.execute_with(q, &mut self.scratch);
        let ns = started.elapsed().as_nanos() as u64;
        match self.event_ns.last_mut() {
            Some(epoch) => epoch.push(ns),
            None => self.event_ns.push(vec![ns]),
        }
        let sum = MatchSum::of(&result.matches);
        self.total.fold(sum);
        self.events += 1;
        sum
    }

    /// Replays `ops` in order and compares each event's match set with
    /// what the system under test returned for it (`got` holds one
    /// entry per event of `ops`; `None` marks an event that was refused
    /// or lost, which its phase already counted as failed). Returns the
    /// number of events whose checksums differ.
    pub fn check(&mut self, ops: &[Op], got: &[Option<MatchSum>], yard: &mut Yardstick) -> u64 {
        let mut got = got.iter();
        let mut mismatched = 0;
        self.event_ns.push(Vec::new());
        let mut before = yard.read();
        let mut from = 0;
        // Scales the replays since the last reading by the host's speed.
        let mut lap = |epoch: &mut Vec<u64>, anyway: bool| {
            if epoch.len() > from && (anyway || epoch.len() - from >= STRETCH_EVENTS) {
                let after = yard.read();
                let speed = before.speed_until(after);
                for ns in &mut epoch[from..] {
                    *ns = scaled(*ns, speed);
                }
                (before, from) = (after, epoch.len());
            }
        };
        for op in ops {
            match op {
                Op::Event(q) => {
                    let want = self.event(q);
                    lap(self.event_ns.last_mut().expect("pushed above"), false);
                    match got.next() {
                        Some(Some(sum)) if *sum != want => mismatched += 1,
                        Some(_) => {}
                        None => panic!("fewer results than events"),
                    }
                }
                Op::Insert(id, rect) => self.scan.insert(*id, rect),
                Op::Remove(id) => {
                    self.scan.remove(*id);
                }
                Op::Update(id, rect) => {
                    self.scan.remove(*id);
                    self.scan.insert(*id, rect);
                }
            }
        }
        lap(self.event_ns.last_mut().expect("pushed above"), true);
        assert!(got.next().is_none(), "more results than events");
        mismatched
    }

    /// Median event time of each replayed epoch, in stream order, in
    /// microseconds.
    pub fn epoch_p50_us(&self) -> Vec<f64> {
        self.event_ns
            .iter()
            .map(|epoch| percentile(epoch, 50.0) as f64 / 1e3)
            .collect()
    }

    pub fn matches_per_event(&self) -> f64 {
        self.total.count as f64 / self.events.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(lo: f32, hi: f32) -> HyperRect {
        HyperRect::from_bounds(&[lo, lo], &[hi, hi]).unwrap()
    }

    #[test]
    fn check_follows_mutations_and_counts_differences() {
        let mut mirror = Mirror::new(2, &[rect(0.0, 0.5), rect(0.4, 0.9)]);
        let q = || Op::Event(SpatialQuery::point_enclosing(vec![0.45, 0.45]));
        let ops = vec![
            q(),
            Op::Remove(ObjectId(0)),
            q(),
            Op::Insert(ObjectId(2), rect(0.1, 0.6)),
            Op::Update(ObjectId(1), rect(0.8, 0.9)),
            q(),
        ];
        let right = [
            Some(MatchSum::of(&[ObjectId(1), ObjectId(0)])),
            Some(MatchSum::of(&[ObjectId(1)])),
            Some(MatchSum::of(&[ObjectId(2)])),
        ];
        let mut yard = Yardstick::new();
        assert_eq!(mirror.check(&ops, &right, &mut yard), 0);
        assert_eq!(mirror.events, 3);
        assert_eq!(mirror.total.count, 4);

        let mut mirror = Mirror::new(2, &[rect(0.0, 0.5), rect(0.4, 0.9)]);
        let wrong = [right[0], Some(MatchSum::of(&[ObjectId(0)])), None];
        assert_eq!(
            mirror.check(&ops, &wrong, &mut yard),
            1,
            "a lost event is not counted twice"
        );
    }
}
