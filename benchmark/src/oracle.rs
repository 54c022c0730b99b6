//! Output checks: a `BTreeMap` model that judges every return value of a
//! single-mutator stream, and the shape checks applied to scans taken while
//! other mutators run.

use std::collections::BTreeMap;

use crate::gen::{value_for, Op};

/// What the program answered to one operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    Flag(bool),
    Entries(Vec<(u64, u64)>),
}

/// Sequential model of the map.
#[derive(Debug, Default)]
pub struct Model {
    map: BTreeMap<u64, u64>,
}

impl Model {
    pub fn with_keys(keys: &[u64]) -> Model {
        Model {
            map: keys.iter().map(|&k| (k, value_for(k))).collect(),
        }
    }

    /// Apply `op` to the model and return what a correct map answers.
    pub fn expect(&mut self, op: Op, scan_width: u64) -> Answer {
        match op {
            Op::Contains(k) => Answer::Flag(self.map.contains_key(&k)),
            Op::Insert(k) => {
                let absent = !self.map.contains_key(&k);
                if absent {
                    self.map.insert(k, value_for(k));
                }
                Answer::Flag(absent)
            }
            Op::Delete(k) => Answer::Flag(self.map.remove(&k).is_some()),
            Op::Move(from, to) => {
                let movable = self.map.contains_key(&from) && !self.map.contains_key(&to);
                if movable {
                    let value = self.map.remove(&from).expect("checked present");
                    self.map.insert(to, value);
                }
                Answer::Flag(movable)
            }
            Op::Scan(lo) => Answer::Entries(
                self.map
                    .range(lo..=lo + scan_width - 1)
                    .map(|(&k, &v)| (k, v))
                    .collect(),
            ),
        }
    }

    /// True when `observed` is what the model expects for `op`.
    pub fn judge(&mut self, op: Op, scan_width: u64, observed: &Answer) -> bool {
        self.expect(op, scan_width) == *observed
    }

    pub fn entries(&self) -> Vec<(u64, u64)> {
        self.map.iter().map(|(&k, &v)| (k, v)).collect()
    }
}

/// A scan result is well-formed when its keys strictly ascend (sorted and
/// duplicate-free) and all lie inside `[lo, hi]`.
pub fn scan_is_well_formed(entries: &[(u64, u64)], lo: u64, hi: u64) -> bool {
    entries.windows(2).all(|pair| pair[0].0 < pair[1].0)
        && entries.first().is_none_or(|&(k, _)| k >= lo)
        && entries.last().is_none_or(|&(k, _)| k <= hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_catches_a_planted_wrong_return_value() {
        let mut model = Model::with_keys(&[1, 5, 9]);
        assert!(model.judge(Op::Contains(5), 100, &Answer::Flag(true)));
        assert!(
            !model.judge(Op::Contains(5), 100, &Answer::Flag(false)),
            "planted miss"
        );
        assert!(model.judge(Op::Insert(5), 100, &Answer::Flag(false)));
        assert!(
            !model.judge(Op::Delete(7), 100, &Answer::Flag(true)),
            "planted delete"
        );
        assert!(model.judge(Op::Move(1, 2), 100, &Answer::Flag(true)));
        assert!(
            !model.judge(Op::Move(1, 3), 100, &Answer::Flag(true)),
            "source already moved"
        );
        let right = vec![(2, value_for(1)), (5, value_for(5)), (9, value_for(9))];
        assert!(model.judge(Op::Scan(0), 100, &Answer::Entries(right.clone())));
        let mut wrong = right;
        wrong[0].1 += 1;
        assert!(
            !model.judge(Op::Scan(0), 100, &Answer::Entries(wrong)),
            "planted value"
        );
    }

    #[test]
    fn scan_shape_check_rejects_disorder_duplicates_and_strays() {
        assert!(scan_is_well_formed(&[], 10, 20));
        assert!(scan_is_well_formed(&[(10, 0), (15, 0), (20, 0)], 10, 20));
        assert!(!scan_is_well_formed(&[(15, 0), (12, 0)], 10, 20));
        assert!(!scan_is_well_formed(&[(12, 0), (12, 0)], 10, 20));
        assert!(!scan_is_well_formed(&[(9, 0), (12, 0)], 10, 20));
        assert!(!scan_is_well_formed(&[(12, 0), (21, 0)], 10, 20));
    }
}
