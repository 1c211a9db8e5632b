//! Learning mutations that leave the case base at its starting size.

use rqfa_core::{CaseBase, CaseMutation};
use rqfa_workloads::MutationGen;

/// A `MutationGen` whose every draw is followed by the draw's inverse,
/// so the mutated types hover at their starting size. A free walk of
/// retains and evicts grows the types by tens of variants over a minute
/// of learning, and every read's scoring and every recompile with them,
/// so later rounds, longer runs and unlucky seeds would measure a
/// larger case base.
pub struct PairedGen {
    state: CaseBase,
    gen: MutationGen,
    undo: Option<CaseMutation>,
    seed: u64,
    draws: u64,
}

impl PairedGen {
    pub fn new(case_base: &CaseBase, seed: u64) -> PairedGen {
        PairedGen {
            state: case_base.clone(),
            gen: MutationGen::new(case_base, seed),
            undo: None,
            seed,
            draws: 0,
        }
    }

    pub fn next_mutation(&mut self) -> CaseMutation {
        if let Some(inverse) = self.undo.take() {
            self.state
                .apply_mutation(&inverse)
                .expect("an inverse applies to the state it was taken from");
            // The generator's own copy still holds the undone draw, so
            // the next draw comes from a fresh one over the restored
            // state.
            self.draws += 1;
            self.gen = MutationGen::new(&self.state, self.seed ^ (self.draws << 24));
            return inverse;
        }
        let mutation = self.gen.next_mutation();
        self.undo = Some(
            self.state
                .apply_mutation(&mutation)
                .expect("generated mutations are valid"),
        );
        mutation
    }

    /// The case base once every mutation drawn so far is applied.
    pub fn case_base(&self) -> &CaseBase {
        &self.state
    }
}
