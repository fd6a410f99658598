//! Cost accounting primitives: the operation taxonomy behind the
//! paper's relaxed-vs-classical efficiency argument (§3, §6).
//!
//! Instrumented call sites report individual operations through
//! [`record`](crate::record), which aggregates them into a
//! [`CostVector`] attributed to the innermost active cost scope
//! (normally one protocol session), so every session ends up with an
//! exact op/byte/round budget.

use std::fmt;

/// One countable operation class.
///
/// Crypto kinds are charged by `dla-bigint`/`dla-crypto`, network kinds
/// by `dla-net`, and `Round` by the protocol meters in `dla-mpc`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CostKind {
    /// Modular exponentiation (Montgomery or schoolbook).
    ModExp,
    /// One Montgomery multiplication/squaring step inside an
    /// exponentiation — the real unit of work a [`CostKind::ModExp`]
    /// hides (a 3-bit and a 512-bit exponent differ by two orders of
    /// magnitude in steps).
    MontMulStep,
    /// One fixed-base comb constructed (the precompute a
    /// [`CostKind::MontMulStep`]-counted build pays once and every
    /// subsequent fixed-base power amortises).
    FixedBaseTableBuild,
    /// One `(base, exponent)` term evaluated inside a Straus/Pippenger
    /// multi-exponentiation (the batch analogue of [`CostKind::ModExp`]).
    MultiExpTerm,
    /// Modular inverse (extended Euclid).
    ModInverse,
    /// One-way accumulator fold (§4.1).
    AccumulatorFold,
    /// Shamir polynomial evaluation (share issue).
    ShamirEval,
    /// Message handed to the transport.
    MsgSent,
    /// Payload bytes handed to the transport.
    BytesSent,
    /// Message delivered to a receiver (duplicates included).
    MsgDelivered,
    /// Frame resent by the reliable (ARQ) layer.
    Retransmit,
    /// Receive deadline expired in the reliable layer.
    Timeout,
    /// Protocol-defined communication round.
    Round,
    /// An epoch of the log trail was sealed (its accumulator digest
    /// checkpointed).
    EpochSeal,
    /// One batch processed by the batched deposit pipeline (amortized
    /// journal fsync + accumulator fold).
    DepositBatch,
    /// One epoch's aggregate partials materialized at seal time
    /// (count/sum buckets cached into the manifest).
    PartialMaterialize,
    /// One cached per-epoch partial combined into a windowed aggregate
    /// answer instead of rescanning the epoch's fragments.
    PartialCombine,
    /// One standing-query delta emitted at epoch seal.
    StandingDelta,
    /// One sealed epoch of a whole query answered from what the auditor
    /// engine kept of an earlier revealed answer, so that no subquery
    /// and no conjunction ran over it (counted where the engine serves;
    /// a miss is a sealed epoch the window covers that this counter did
    /// not see).
    AnswerHit,
}

/// Aggregated operation counts for one attribution bucket.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CostVector {
    /// Modular exponentiations.
    pub modexp: u64,
    /// Montgomery multiplication/squaring steps performed inside
    /// exponentiations.
    pub mont_mul_steps: u64,
    /// Fixed-base tables built.
    pub fixed_base_builds: u64,
    /// Terms evaluated by multi-exponentiation kernels.
    pub multi_exp_terms: u64,
    /// Modular inverses.
    pub modinv: u64,
    /// Accumulator folds.
    pub acc_fold: u64,
    /// Shamir polynomial evaluations.
    pub shamir_eval: u64,
    /// Messages handed to the transport.
    pub msgs_sent: u64,
    /// Payload bytes handed to the transport.
    pub bytes_sent: u64,
    /// Messages delivered (duplicates included).
    pub msgs_delivered: u64,
    /// Frames resent by the reliable layer.
    pub retransmits: u64,
    /// Receive timeouts in the reliable layer.
    pub timeouts: u64,
    /// Protocol rounds.
    pub rounds: u64,
    /// Epoch seals (checkpointed accumulator digests).
    pub epoch_seals: u64,
    /// Batches processed by the batched deposit pipeline.
    pub deposit_batches: u64,
    /// Epoch aggregate partials materialized at seal time.
    pub partials_materialized: u64,
    /// Cached per-epoch partials combined into windowed answers.
    pub partials_combined: u64,
    /// Standing-query deltas emitted at epoch seals.
    pub standing_deltas: u64,
    /// Sealed epochs of whole queries served from the auditor engine's
    /// kept answers.
    pub answer_hits: u64,
}

impl CostVector {
    /// Adds `amount` to the counter selected by `kind`.
    pub fn add(&mut self, kind: CostKind, amount: u64) {
        let slot = match kind {
            CostKind::ModExp => &mut self.modexp,
            CostKind::MontMulStep => &mut self.mont_mul_steps,
            CostKind::FixedBaseTableBuild => &mut self.fixed_base_builds,
            CostKind::MultiExpTerm => &mut self.multi_exp_terms,
            CostKind::ModInverse => &mut self.modinv,
            CostKind::AccumulatorFold => &mut self.acc_fold,
            CostKind::ShamirEval => &mut self.shamir_eval,
            CostKind::MsgSent => &mut self.msgs_sent,
            CostKind::BytesSent => &mut self.bytes_sent,
            CostKind::MsgDelivered => &mut self.msgs_delivered,
            CostKind::Retransmit => &mut self.retransmits,
            CostKind::Timeout => &mut self.timeouts,
            CostKind::Round => &mut self.rounds,
            CostKind::EpochSeal => &mut self.epoch_seals,
            CostKind::DepositBatch => &mut self.deposit_batches,
            CostKind::PartialMaterialize => &mut self.partials_materialized,
            CostKind::PartialCombine => &mut self.partials_combined,
            CostKind::StandingDelta => &mut self.standing_deltas,
            CostKind::AnswerHit => &mut self.answer_hits,
        };
        *slot += amount;
    }

    /// Accumulates every counter of `other` into `self`.
    pub fn merge(&mut self, other: &CostVector) {
        self.modexp += other.modexp;
        self.mont_mul_steps += other.mont_mul_steps;
        self.fixed_base_builds += other.fixed_base_builds;
        self.multi_exp_terms += other.multi_exp_terms;
        self.modinv += other.modinv;
        self.acc_fold += other.acc_fold;
        self.shamir_eval += other.shamir_eval;
        self.msgs_sent += other.msgs_sent;
        self.bytes_sent += other.bytes_sent;
        self.msgs_delivered += other.msgs_delivered;
        self.retransmits += other.retransmits;
        self.timeouts += other.timeouts;
        self.rounds += other.rounds;
        self.epoch_seals += other.epoch_seals;
        self.deposit_batches += other.deposit_batches;
        self.partials_materialized += other.partials_materialized;
        self.partials_combined += other.partials_combined;
        self.standing_deltas += other.standing_deltas;
        self.answer_hits += other.answer_hits;
    }

    /// True when every counter is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        *self == CostVector::default()
    }

    /// `(label, value)` pairs in a stable order (what `Display` prints).
    #[must_use]
    pub fn entries(&self) -> [(&'static str, u64); 19] {
        [
            ("modexp", self.modexp),
            ("mont_mul_steps", self.mont_mul_steps),
            ("fixed_base_builds", self.fixed_base_builds),
            ("multi_exp_terms", self.multi_exp_terms),
            ("modinv", self.modinv),
            ("acc_fold", self.acc_fold),
            ("shamir_eval", self.shamir_eval),
            ("messages_sent", self.msgs_sent),
            ("bytes_sent", self.bytes_sent),
            ("messages_delivered", self.msgs_delivered),
            ("retransmits", self.retransmits),
            ("timeouts", self.timeouts),
            ("rounds", self.rounds),
            ("epoch_seals", self.epoch_seals),
            ("deposit_batches", self.deposit_batches),
            ("partials_materialized", self.partials_materialized),
            ("partials_combined", self.partials_combined),
            ("standing_deltas", self.standing_deltas),
            ("answer_hits", self.answer_hits),
        ]
    }
}

impl fmt::Display for CostVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (label, value) in self.entries() {
            if value != 0 {
                if !first {
                    write!(f, " ")?;
                }
                write!(f, "{label}={value}")?;
                first = false;
            }
        }
        if first {
            write!(f, "(zero)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_routes_every_kind_to_its_counter() {
        let kinds = [
            CostKind::ModExp,
            CostKind::MontMulStep,
            CostKind::FixedBaseTableBuild,
            CostKind::MultiExpTerm,
            CostKind::ModInverse,
            CostKind::AccumulatorFold,
            CostKind::ShamirEval,
            CostKind::MsgSent,
            CostKind::BytesSent,
            CostKind::MsgDelivered,
            CostKind::Retransmit,
            CostKind::Timeout,
            CostKind::Round,
            CostKind::EpochSeal,
            CostKind::DepositBatch,
            CostKind::PartialMaterialize,
            CostKind::PartialCombine,
            CostKind::StandingDelta,
            CostKind::AnswerHit,
        ];
        let mut v = CostVector::default();
        for (i, kind) in kinds.iter().enumerate() {
            v.add(*kind, (i + 1) as u64);
        }
        let values: Vec<u64> = v.entries().iter().map(|(_, n)| *n).collect();
        assert_eq!(values, (1..=19).collect::<Vec<u64>>());
        assert!(!v.is_zero());
    }

    #[test]
    fn merge_is_componentwise_addition() {
        let mut a = CostVector::default();
        a.add(CostKind::ModExp, 3);
        a.add(CostKind::BytesSent, 100);
        let mut b = CostVector::default();
        b.add(CostKind::ModExp, 2);
        b.add(CostKind::Round, 1);
        a.merge(&b);
        assert_eq!(a.modexp, 5);
        assert_eq!(a.bytes_sent, 100);
        assert_eq!(a.rounds, 1);
    }

    #[test]
    fn display_skips_zero_counters() {
        let mut v = CostVector::default();
        v.add(CostKind::ModExp, 7);
        assert_eq!(v.to_string(), "modexp=7");
        assert_eq!(CostVector::default().to_string(), "(zero)");
    }
}
