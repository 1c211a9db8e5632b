//! Output checks: every `Allocated` reply against the naive
//! `FixedEngine` oracle, bit for bit.

use std::collections::HashMap;

use rqfa_core::{CaseBase, CoreError, FixedEngine, QosClass, Request, Retrieval};
use rqfa_fixed::Q15;
use rqfa_service::Outcome;

/// Memoising oracle over one fixed case base.
pub struct Oracle<'a> {
    case_base: &'a CaseBase,
    engine: FixedEngine,
    memo: HashMap<u64, (Request, Result<Retrieval<Q15>, CoreError>)>,
}

impl<'a> Oracle<'a> {
    pub fn new(case_base: &'a CaseBase) -> Oracle<'a> {
        Oracle {
            case_base,
            engine: FixedEngine::new(),
            memo: HashMap::new(),
        }
    }

    fn expected(&mut self, request: &Request) -> Result<Retrieval<Q15>, CoreError> {
        let fingerprint = request.fingerprint();
        if let Some((seen, answer)) = self.memo.get(&fingerprint) {
            if seen == request {
                return answer.clone();
            }
        }
        let answer = self.engine.retrieve(self.case_base, request);
        self.memo
            .insert(fingerprint, (request.clone(), answer.clone()));
        answer
    }
}

/// How a batch of replies fared.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub replies: u64,
    pub allocated: u64,
    pub shed: u64,
    /// `Failed` and `Unavailable` outcomes.
    pub failed: u64,
    pub critical_shed: u64,
    pub mismatches: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.replies += other.replies;
        self.allocated += other.allocated;
        self.shed += other.shed;
        self.failed += other.failed;
        self.critical_shed += other.critical_shed;
        self.mismatches += other.mismatches;
    }
}

/// Compares one reply with the oracle and counts it.
pub fn check_one(
    oracle: &mut Oracle<'_>,
    tally: &mut Tally,
    request: &Request,
    class: QosClass,
    outcome: &Outcome,
) {
    tally.replies += 1;
    match outcome {
        Outcome::Allocated {
            best, evaluated, ..
        } => {
            tally.allocated += 1;
            match oracle.expected(request) {
                Ok(expected)
                    if expected.best == Some(*best) && expected.evaluated == *evaluated => {}
                other => {
                    if tally.mismatches < 3 {
                        eprintln!(
                            "mismatch: request {request:?} answered {best:?} (evaluated \
                             {evaluated}), oracle {other:?}"
                        );
                    }
                    tally.mismatches += 1;
                }
            }
        }
        Outcome::Failed(_) | Outcome::Unavailable { .. } => tally.failed += 1,
        shed => {
            debug_assert!(shed.is_shed());
            tally.shed += 1;
            if class == QosClass::Critical {
                tally.critical_shed += 1;
            }
        }
    }
}

/// Checks `(request, class, outcome)` triples against one case base on
/// two threads.
pub fn check_all<'r>(
    case_base: &CaseBase,
    replies: &[(&'r Request, QosClass, &'r Outcome)],
) -> Tally {
    let half = replies.len().div_ceil(2);
    std::thread::scope(|scope| {
        let handles: Vec<_> = replies
            .chunks(half.max(1))
            .map(|chunk| {
                scope.spawn(move || {
                    let mut oracle = Oracle::new(case_base);
                    let mut tally = Tally::default();
                    for (request, class, outcome) in chunk {
                        check_one(&mut oracle, &mut tally, request, *class, outcome);
                    }
                    tally
                })
            })
            .collect();
        let mut total = Tally::default();
        for handle in handles {
            total.add(handle.join().expect("checker thread panicked"));
        }
        total
    })
}
