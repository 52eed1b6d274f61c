//! The answer oracle shared by every workload.
//!
//! Before the timed phase [`Oracle::screen`] runs `SimulationEngine::run`
//! on every entry of the run's seed pool and keeps the entries whose
//! engine answer is the benchmark's own multiset top-k. The paper's
//! protocol is correct with probability 1 − ε, and on a few seeds the
//! engine itself misses the true top-k; such an entry would fail on
//! every run that draws it and on no other, so it is left out of the
//! pool. More than [`MAX_LEFT_OUT`] such entries is no longer the
//! protocol's rare miss but a broken kernel, and makes the run incorrect.
//!
//! During the timed phase a workload keeps only a compact record of each
//! outcome ([`Observed`]): 64-bit fingerprints of the answer, of every
//! node's result and of the transcript. After the timed phase
//! [`Oracle::judge`] checks each record against
//!
//! 1. the transcript of `SimulationEngine::run` on the same seed, the
//!    behavioural oracle, fingerprinted the same way,
//! 2. agreement of every node with the answer, and
//! 3. the benchmark's own multiset top-k of the generated rows.
//!
//! An outcome that fails any of them is a failed query.

use std::collections::HashMap;

use privtopk_core::local::LocalAction;
use privtopk_core::{ProtocolConfig, SimulationEngine, Transcript};
use privtopk_domain::{TopKVector, Value};

use crate::gen::query_seed;

/// Order-sensitive 64-bit fingerprint over words.
#[derive(Clone, Copy)]
struct Fp(u64);

impl Fp {
    fn new() -> Self {
        Fp(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(23) ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn values(&mut self, values: &[Value]) {
        self.word(values.len() as u64);
        for value in values {
            self.word(value.get() as u64);
        }
    }

    fn vector(&mut self, v: &TopKVector) {
        self.values(v.as_slice());
    }
}

/// Fingerprint of an answer, as values in rank order.
pub fn values_fp(values: &[Value]) -> u64 {
    let mut fp = Fp::new();
    fp.values(values);
    fp.0
}

/// Fingerprint of every field of a transcript.
pub fn transcript_fp(t: &Transcript) -> u64 {
    let mut fp = Fp::new();
    fp.word(t.n() as u64);
    fp.word(t.k() as u64);
    fp.word(u64::from(t.rounds()));
    fp.vector(t.result());
    for node in t.ring_order(1).unwrap_or_default() {
        fp.word(node.get() as u64);
    }
    for step in t.steps() {
        fp.word(u64::from(step.round));
        fp.word(step.position.get() as u64);
        fp.word(step.node.get() as u64);
        fp.vector(&step.incoming);
        fp.vector(&step.outgoing);
        fp.word(match step.action {
            LocalAction::PassedOn => 1,
            LocalAction::InsertedReal => 2,
            LocalAction::Randomized => 3,
        });
    }
    fp.0
}

/// What a workload keeps of one outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observed {
    /// Index into the run's seed pool.
    pub seed_index: u64,
    /// Fingerprint of the answer the caller received.
    pub answer: u64,
    /// Fingerprint of each node's result; empty where the entry point
    /// does not expose them.
    pub nodes: Vec<u64>,
    /// Fingerprint of the transcript.
    pub transcript: u64,
}

impl Observed {
    pub fn new(seed_index: u64, answer: &[Value], nodes: &[TopKVector], t: &Transcript) -> Self {
        Observed {
            seed_index,
            answer: values_fp(answer),
            nodes: nodes.iter().map(|v| values_fp(v.as_slice())).collect(),
            transcript: transcript_fp(t),
        }
    }
}

/// Why an outcome was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    TranscriptDiverged,
    NodesDisagree,
    /// The answer is not the benchmark's own multiset top-k.
    NotTopK,
}

/// Pool entries whose engine run may miss the true top-k before a run
/// counts as incorrect. On the benchmark's inputs the engine misses about
/// 1 in 25 000 k=32 queries, so a 4096-entry pool holds 0.17 such entries
/// on average and more than 4 with a chance of about 1e-6; a kernel that
/// returns wrong answers misses on far more.
pub const MAX_LEFT_OUT: usize = 4;

/// Whether a screened pool is fit to run on: the engine missed the true
/// top-k on at most [`MAX_LEFT_OUT`] entries.
pub fn sound(screened: &Screened) -> bool {
    screened.left_out.len() <= MAX_LEFT_OUT && !screened.kept.is_empty()
}

/// The seed pool after screening.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Screened {
    /// Entries whose engine run ends with the true top-k, in pool order.
    pub kept: Vec<u64>,
    /// Entries whose engine run misses it.
    pub left_out: Vec<u64>,
}

/// Expected answer and per-seed expected transcripts of one workload.
pub struct Oracle {
    config: ProtocolConfig,
    locals: Vec<TopKVector>,
    seed: u64,
    truth: u64,
    /// Fingerprint of the engine's transcript per screened pool entry.
    expected: HashMap<u64, u64>,
}

impl Oracle {
    /// `locals` and `truth` are the benchmark's own sorted top-k of each
    /// member's rows and of all rows together.
    pub fn new(
        config: ProtocolConfig,
        locals: Vec<TopKVector>,
        truth: &TopKVector,
        seed: u64,
    ) -> Self {
        Oracle {
            config,
            locals,
            seed,
            truth: values_fp(truth.as_slice()),
            expected: HashMap::new(),
        }
    }

    /// The simulation engine's transcript for pool entry `seed_index`.
    pub fn transcript(&self, seed_index: u64) -> Transcript {
        SimulationEngine::new(self.config.clone())
            .run(&self.locals, query_seed(self.seed, seed_index))
            .expect("the workload's configuration is valid")
    }

    /// Runs the engine on pool entries `0..pool`, remembers each one's
    /// transcript and keeps those whose answer is the true top-k.
    pub fn screen(&mut self, pool: u64) -> Screened {
        let (mut kept, mut left_out) = (Vec::new(), Vec::new());
        for index in 0..pool {
            let t = self.transcript(index);
            self.expected.insert(index, transcript_fp(&t));
            if values_fp(t.result().as_slice()) == self.truth {
                kept.push(index);
            } else {
                left_out.push(index);
            }
        }
        Screened { kept, left_out }
    }

    /// Judges one outcome; an entry that was not screened has no
    /// transcript to match and is rejected.
    pub fn judge(&self, observed: &Observed) -> Verdict {
        let expected = self.expected.get(&observed.seed_index);
        if expected != Some(&observed.transcript) {
            Verdict::TranscriptDiverged
        } else if observed.nodes.iter().any(|&node| node != observed.answer) {
            Verdict::NodesDisagree
        } else if observed.answer != self.truth {
            Verdict::NotTopK
        } else {
            Verdict::Ok
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{member_rows, sorted_topk};
    use privtopk_core::{RoundPolicy, Schedule};
    use privtopk_domain::{Value, ValueDomain};

    fn oracle() -> (Oracle, TopKVector) {
        oracle_with_truth(None)
    }

    fn oracle_with_truth(claimed: Option<&TopKVector>) -> (Oracle, TopKVector) {
        let k = 4;
        let rows: Vec<Vec<Value>> = (0..4).map(|m| member_rows(11, m, 200)).collect();
        let locals = rows
            .iter()
            .map(|r| sorted_topk([r.as_slice()], k))
            .collect();
        let truth = sorted_topk(rows.iter().map(Vec::as_slice), k);
        let config = ProtocolConfig::topk(k)
            .with_domain(ValueDomain::paper_default())
            .with_schedule(Schedule::paper_default())
            .with_rounds(RoundPolicy::Precision { epsilon: 1e-6 });
        let oracle = Oracle::new(config, locals, claimed.unwrap_or(&truth), 11);
        (oracle, truth)
    }

    #[test]
    fn accepts_the_engine_run_and_rejects_corruptions() {
        let (mut oracle, truth) = oracle();
        let screened = oracle.screen(8);
        assert_eq!(screened.kept, (0..8).collect::<Vec<_>>());
        assert!(sound(&screened));
        let t = oracle.transcript(3);
        assert_eq!(t.result(), &truth);
        let good = Observed::new(3, t.result().as_slice(), &vec![truth.clone(); 4], &t);
        assert_eq!(oracle.judge(&good), Verdict::Ok);

        let mut wrong = truth.clone().into_values();
        wrong[3] = Value::new(wrong[3].get() - 1);
        let wrong = TopKVector::from_sorted(wrong).unwrap();
        let bad_answer = Observed::new(3, wrong.as_slice(), &[], &t);
        assert_eq!(oracle.judge(&bad_answer), Verdict::NotTopK);

        let mut split = good.clone();
        split.nodes[2] = values_fp(wrong.as_slice());
        assert_eq!(oracle.judge(&split), Verdict::NodesDisagree);

        // Same answer, but one step's outgoing vector differs.
        let mut steps = t.steps().to_vec();
        let floor = ValueDomain::paper_default().min();
        let step = steps.iter_mut().find(|s| s.outgoing.kth() > floor).unwrap();
        let mut bent = step.outgoing.clone().into_values();
        let last = bent.len() - 1;
        bent[last] = floor;
        step.outgoing = TopKVector::from_sorted(bent).unwrap();
        let ring = t.ring_order(1).unwrap().to_vec();
        let bent = Transcript::new(
            t.n(),
            t.k(),
            t.rounds(),
            vec![ring],
            steps,
            t.result().clone(),
        );
        let forged = Observed::new(3, t.result().as_slice(), &[], &bent);
        assert_eq!(oracle.judge(&forged), Verdict::TranscriptDiverged);

        // Another seed's transcript is rejected for this seed.
        let other = oracle.transcript(4);
        let swapped = Observed::new(3, t.result().as_slice(), &[], &other);
        assert_eq!(oracle.judge(&swapped), Verdict::TranscriptDiverged);

        // An entry that was not screened has nothing to match.
        let t9 = oracle.transcript(9);
        let unscreened = Observed::new(9, t9.result().as_slice(), &[], &t9);
        assert_eq!(oracle.judge(&unscreened), Verdict::TranscriptDiverged);
    }

    #[test]
    fn an_engine_that_misses_the_true_top_k_on_many_entries_fails_the_run() {
        // The engine and the truth disagree on every entry, as they would
        // if a kernel change shared by engine and services broke answers.
        let (_, truth) = oracle();
        let mut other = truth.clone().into_values();
        other[0] = Value::new(other[0].get() + 1);
        let (mut oracle, _) = oracle_with_truth(Some(&TopKVector::from_sorted(other).unwrap()));
        let screened = oracle.screen(64);
        assert!(screened.kept.is_empty());
        assert_eq!(screened.left_out.len(), 64);
        assert!(!sound(&screened));
        // An outcome faithful to the engine on such an entry still fails.
        let t = oracle.transcript(3);
        let faithful = Observed::new(3, t.result().as_slice(), std::slice::from_ref(&truth), &t);
        assert_eq!(oracle.judge(&faithful), Verdict::NotTopK);
    }

    #[test]
    fn a_few_left_out_entries_keep_the_run_sound() {
        let few = Screened {
            kept: (5..4096).collect(),
            left_out: (0..MAX_LEFT_OUT as u64).collect(),
        };
        assert!(sound(&few));
        let many = Screened {
            kept: (6..4096).collect(),
            left_out: (0..=MAX_LEFT_OUT as u64).collect(),
        };
        assert!(!sound(&many));
    }
}
