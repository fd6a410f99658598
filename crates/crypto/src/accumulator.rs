//! Benaloh–de Mare one-way accumulator (paper §4.1, Eq. 8–9).
//!
//! `A(x, y) = x^y mod n` with `n` an RSA modulus is a *quasi-commutative*
//! one-way function: accumulating a multiset of items yields the same
//! value in any order,
//! `A(A(A(x₀,y₁),y₂),y₃) = A(A(A(x₀,y₂),y₃),y₁)` (Eq. 9).
//!
//! The DLA cluster uses this for **distributed integrity checking**: a
//! user accumulates all fragments of a log record and deposits the value
//! at every DLA node; later, the nodes circulate a partial accumulation
//! (each folding in its own stored fragment, keyed by `glsn`) and the
//! initiator compares the final value with the deposited one. Order
//! independence is what lets the check start at any node and traverse
//! the ring in any order — and a single tampered fragment changes the
//! result.

use crate::sha256;
use dla_bigint::montgomery::MontgomeryContext;
use dla_bigint::{multi_exp, prime, FixedBase, Ubig};
use rand::Rng;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Public parameters of a one-way accumulator: an RSA modulus `n`
/// (factorization discarded after setup — a "rigid" modulus in the
/// Benaloh–de Mare sense) and an agreed starting value `x₀`.
#[derive(Clone)]
pub struct AccumulatorParams {
    n: Arc<Ubig>,
    x0: Ubig,
    ctx: Arc<MontgomeryContext>,
    /// Fixed-base evaluator over `x₀`, built on first use and shared by
    /// every clone of these parameters. Every verification path raises
    /// `x₀` to some combined exponent, so its tables amortise across
    /// the whole cluster lifetime.
    fixed: Arc<OnceLock<FixedBase>>,
}

impl PartialEq for AccumulatorParams {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.x0 == other.x0
    }
}

impl Eq for AccumulatorParams {}

impl fmt::Debug for AccumulatorParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "AccumulatorParams(n: {} bits, x0: {} bits)",
            self.n.bit_len(),
            self.x0.bit_len()
        )
    }
}

/// A precomputed 512-bit RSA modulus for deterministic tests/benches
/// (factors were generated and discarded; verified composite & odd by
/// the test suite).
pub const RSA_MODULUS_512_HEX: &str = "b73acbd60cd937ea48dadd7c9e723d7c80b202525158ef7fc41c1fd14387edbc9c064bc43958643f0de39942f514ca540335f74de50589eff414431f12ff6129";

impl AccumulatorParams {
    /// Generates fresh parameters with a `bits`-bit RSA modulus; the
    /// prime factors are dropped on the floor, never returned.
    pub fn generate<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> Self {
        let (n, _p, _q) = prime::gen_rsa_modulus(bits, rng);
        Self::from_modulus(n)
    }

    /// Builds parameters from an externally agreed modulus.
    ///
    /// # Panics
    ///
    /// Panics if `n < 4` (no room for nontrivial residues).
    #[must_use]
    pub fn from_modulus(n: Ubig) -> Self {
        assert!(n > Ubig::from_u64(3), "accumulator modulus too small");
        let x0 = Self::derive_x0(&n);
        let ctx = MontgomeryContext::new(&n).expect("RSA moduli are odd products of odd primes");
        AccumulatorParams {
            n: Arc::new(n),
            x0,
            ctx: Arc::new(ctx),
            fixed: Arc::new(OnceLock::new()),
        }
    }

    /// The standard 512-bit test parameters.
    #[must_use]
    pub fn fixed_512() -> Self {
        Self::from_modulus(Ubig::from_hex(RSA_MODULUS_512_HEX).expect("valid constant"))
    }

    /// `x₀` is derived deterministically from `n` so all parties agree
    /// on it without extra negotiation ("x₀ must be agreed upon in
    /// advance", §4.1).
    fn derive_x0(n: &Ubig) -> Ubig {
        let h = sha256::digest_parts(&[b"dla-accumulator-x0", &n.to_bytes_be()]);
        let x = &Ubig::from_bytes_be(&h) % n;
        // Square so x0 is a quadratic residue and never 0/1.
        let sq = dla_bigint::modular::modmul(&x, &x, n);
        if sq.is_zero() || sq.is_one() {
            Ubig::from_u64(4) % n
        } else {
            sq
        }
    }

    /// The modulus `n`.
    #[must_use]
    pub fn modulus(&self) -> &Ubig {
        &self.n
    }

    /// The agreed start value `x₀`.
    #[must_use]
    pub fn start(&self) -> &Ubig {
        &self.x0
    }

    /// Maps an arbitrary item to an odd exponent `y ≥ 3`, so every item
    /// contributes a nontrivial power.
    #[must_use]
    pub fn item_exponent(&self, item: &[u8]) -> Ubig {
        let h = sha256::digest_parts(&[b"dla-accumulator-item", item]);
        let mut y = Ubig::from_bytes_be(&h);
        if y.is_even() {
            y = y + Ubig::one();
        }
        if y.is_one() {
            y = Ubig::from_u64(3);
        }
        y
    }

    /// One accumulation step: `A(acc, item) = acc^{y(item)} mod n`.
    #[must_use]
    pub fn fold(&self, acc: &Ubig, item: &[u8]) -> Ubig {
        dla_telemetry::record(dla_telemetry::CostKind::AccumulatorFold, 1);
        self.ctx.modexp(acc, &self.item_exponent(item))
    }

    /// Accumulates a full collection starting from `x₀` — Eq. 9
    /// collapses the per-item ladder into the one fixed-base power of
    /// [`AccumulatorParams::accumulate_batch`], bit-identical to
    /// folding item by item.
    ///
    /// # Examples
    ///
    /// ```
    /// use dla_crypto::accumulator::AccumulatorParams;
    ///
    /// let mut rng = rand::thread_rng();
    /// let params = AccumulatorParams::generate(256, &mut rng);
    /// let a = params.accumulate([b"y1".as_slice(), b"y2", b"y3"]);
    /// let b = params.accumulate([b"y2".as_slice(), b"y3", b"y1"]);
    /// assert_eq!(a, b); // Eq. 9: order independence
    /// ```
    #[must_use]
    pub fn accumulate<'a, I>(&self, items: I) -> Ubig
    where
        I: IntoIterator<Item = &'a [u8]>,
    {
        self.accumulate_batch(&items.into_iter().collect::<Vec<_>>())
    }

    /// Folds a whole batch of items into each of several running
    /// accumulators at once. Quasi-commutativity (Eq. 9) collapses the
    /// per-item ladder into a single exponentiation per accumulator:
    /// `acc^{y₁·y₂·…·y_k} mod n`, and the shared exponent lets all
    /// accumulators reuse one window plan via
    /// [`MontgomeryContext::modexp_batch`]. This is the accumulator leg
    /// of the batched deposit pipeline — one fold per batch instead of
    /// one per deposit.
    ///
    /// An accumulator that has absorbed nothing yet still *is* `x₀` —
    /// a fresh epoch's, when a restart replays it or a batch load fills
    /// it — and takes [`AccumulatorParams::power_of_start`]'s table
    /// walk instead of a ladder; the value is the same.
    ///
    /// Telemetry counts `items.len() × accs.len()` logical accumulator
    /// folds, keeping windowed-vs-full verification comparisons in
    /// units of *items folded* regardless of batching.
    #[must_use]
    pub fn fold_batch(&self, accs: &[Ubig], items: &[&[u8]]) -> Vec<Ubig> {
        if items.is_empty() {
            return accs.to_vec();
        }
        dla_telemetry::record(
            dla_telemetry::CostKind::AccumulatorFold,
            (items.len() * accs.len()) as u64,
        );
        let exponent = items
            .iter()
            .map(|item| self.item_exponent(item))
            .reduce(|a, b| a * b)
            .expect("items is non-empty");
        let running: Vec<Ubig> = accs.iter().filter(|a| **a != self.x0).cloned().collect();
        let mut running = self.ctx.modexp_batch(&running, &exponent).into_iter();
        accs.iter()
            .map(|acc| {
                if *acc == self.x0 {
                    self.power_of_start(&exponent)
                } else {
                    running.next().expect("one power a running accumulator")
                }
            })
            .collect()
    }

    /// The fixed-base evaluator over `x₀`, built once per parameter
    /// set. Its first comb, built up front, serves a record's handful
    /// of items; an epoch-long exponent walks a comb the evaluator
    /// builds for that length on first use.
    fn fixed_base(&self) -> &FixedBase {
        self.fixed
            .get_or_init(|| FixedBase::new(&self.ctx, &self.x0, 2 * self.n.bit_len() + 128))
    }

    /// The combined exponent one batched fold of `items` applies:
    /// `∏ y(itemᵢ)` (Eq. 9 collapses the fold ladder into one power).
    ///
    /// Telemetry counts one logical accumulator fold per item — the
    /// work is measured in *items absorbed* no matter how the power is
    /// later evaluated.
    #[must_use]
    pub fn batch_exponent(&self, items: &[&[u8]]) -> Ubig {
        dla_telemetry::record(dla_telemetry::CostKind::AccumulatorFold, items.len() as u64);
        items
            .iter()
            .map(|item| self.item_exponent(item))
            .fold(Ubig::one(), |a, b| a * b)
    }

    /// `x₀^exp mod n` through the cached fixed-base evaluator —
    /// bit-identical to folding from [`AccumulatorParams::start`] with
    /// a ladder, at about a seventh of its steps for a record's
    /// exponent and an eighth for an epoch's.
    #[must_use]
    pub fn power_of_start(&self, exp: &Ubig) -> Ubig {
        self.fixed_base().pow(exp)
    }

    /// Accumulates a whole collection from `x₀` in **one** fixed-base
    /// power, `x₀^{∏ yᵢ}` — the same value a chain of
    /// [`AccumulatorParams::fold`]s reaches with one ladder per item.
    #[must_use]
    pub fn accumulate_batch(&self, items: &[&[u8]]) -> Ubig {
        if items.is_empty() {
            return self.x0.clone();
        }
        let exponent = self.batch_exponent(items);
        self.power_of_start(&exponent)
    }

    /// Batch-verifies claims of the form `digestⱼ = x₀^{Eⱼ}` with one
    /// random-linear-combination check instead of one power per claim:
    /// draw Fiat–Shamir randomizers `rⱼ` from the claims themselves and
    /// test `x₀^{Σ rⱼ·Eⱼ} = ∏ digestⱼ^{rⱼ}` — the left side one
    /// fixed-base power, the right side one [`multi_exp()`] product.
    /// Coefficient arithmetic is over ℤ (the group order is unknown),
    /// so a forged digest slips through only by guessing a 128-bit
    /// `rⱼ` relation. Callers wanting to *localise* a failure fall back
    /// to per-claim [`AccumulatorParams::power_of_start`] comparisons.
    #[must_use]
    pub fn batch_verify(&self, claims: &[(Ubig, Ubig)]) -> bool {
        if claims.is_empty() {
            return true;
        }
        // Bind every randomizer to the full claim transcript.
        let mut transcript = Vec::new();
        for (digest, exponent) in claims {
            let d = digest.to_bytes_be();
            let e = exponent.to_bytes_be();
            transcript.extend_from_slice(&(d.len() as u64).to_be_bytes());
            transcript.extend_from_slice(&d);
            transcript.extend_from_slice(&(e.len() as u64).to_be_bytes());
            transcript.extend_from_slice(&e);
        }
        let seed = sha256::digest_parts(&[b"dla-batch-verify", &self.n.to_bytes_be(), &transcript]);
        let randomizers: Vec<Ubig> = (0..claims.len())
            .map(|j| {
                let h = sha256::digest_parts(&[
                    b"dla-batch-verify-r",
                    &seed,
                    &(j as u64).to_be_bytes(),
                ]);
                let r = Ubig::from_bytes_be(&h[..16]);
                if r.is_zero() {
                    Ubig::one()
                } else {
                    r
                }
            })
            .collect();

        let combined = claims
            .iter()
            .zip(&randomizers)
            .map(|((_, exponent), r)| exponent.clone() * r.clone())
            .fold(Ubig::zero(), |a, b| a + b);
        let lhs = self.power_of_start(&combined);
        let terms: Vec<(Ubig, Ubig)> = claims
            .iter()
            .zip(&randomizers)
            .map(|((digest, _), r)| (digest.clone(), r.clone()))
            .collect();
        let rhs = multi_exp(&self.ctx, &terms);
        lhs == rhs
    }
}

/// One sealed epoch's summary: its accumulator digest, how many items
/// it folded, and a hash link binding it to every earlier seal.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EpochCheckpoint {
    /// The sealed epoch.
    pub epoch: u64,
    /// Number of items folded into `digest`.
    pub items: u64,
    /// The epoch's accumulator value (fold of its items from `x₀`).
    pub digest: Ubig,
    /// Commitment to the epoch's materialized aggregate partials
    /// (count/sum buckets cached at seal time). All zeros when the
    /// sealer materialized nothing. Folding it into the link means a
    /// cached aggregate is integrity-checked against the published
    /// chain, never trusted.
    pub aggregates: [u8; 32],
    /// `H(prev_link ‖ epoch ‖ items ‖ digest ‖ aggregates)` — position-
    /// and history-binding, like the meta-audit trail's hash chain.
    pub link: [u8; 32],
}

impl EpochCheckpoint {
    /// Canonical byte encoding for gossiping a head between peers:
    /// `epoch ‖ items ‖ digest_len ‖ digest ‖ aggregates ‖ link`, all
    /// big-endian. (The crypto crate carries no wire dependency, so the
    /// format is spelled out here and transported opaquely.)
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let digest = self.digest.to_bytes_be();
        let mut out = Vec::with_capacity(8 + 8 + 4 + digest.len() + 64);
        out.extend_from_slice(&self.epoch.to_be_bytes());
        out.extend_from_slice(&self.items.to_be_bytes());
        out.extend_from_slice(&(digest.len() as u32).to_be_bytes());
        out.extend_from_slice(&digest);
        out.extend_from_slice(&self.aggregates);
        out.extend_from_slice(&self.link);
        out
    }

    /// Decodes an [`EpochCheckpoint::encode`] blob; `None` on any
    /// structural mismatch (truncation, bad length, trailing bytes).
    #[must_use]
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let fixed = 8 + 8 + 4;
        let digest_len = u32::from_be_bytes(bytes.get(16..20)?.try_into().ok()?) as usize;
        if bytes.len() != fixed + digest_len + 64 {
            return None;
        }
        let digest = Ubig::from_bytes_be(&bytes[fixed..fixed + digest_len]);
        let aggregates: [u8; 32] = bytes[fixed + digest_len..fixed + digest_len + 32]
            .try_into()
            .ok()?;
        let link: [u8; 32] = bytes[fixed + digest_len + 32..].try_into().ok()?;
        Some(EpochCheckpoint {
            epoch: u64::from_be_bytes(bytes[..8].try_into().ok()?),
            items: u64::from_be_bytes(bytes[8..16].try_into().ok()?),
            digest,
            aggregates,
            link,
        })
    }

    /// Whether `other` is an equivocation of this checkpoint: the same
    /// epoch presented with different contents. Two honest copies of a
    /// sealed epoch are bytewise equal, so any divergence between what
    /// a node showed two different peers is proof of misbehavior.
    #[must_use]
    pub fn equivocates(&self, other: &EpochCheckpoint) -> bool {
        self.epoch == other.epoch && self != other
    }
}

/// The incremental checkpoint chain over sealed epochs.
///
/// Each seal stores the epoch's accumulator digest and chains it to the
/// previous seal with a hash link, so a windowed audit can verify
/// *only* the epochs it overlaps plus this O(#epochs) chain of links —
/// never the whole trail. Dropping, reordering, or rewriting any sealed
/// epoch breaks every later link.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct CheckpointChain {
    checkpoints: Vec<EpochCheckpoint>,
}

impl CheckpointChain {
    /// An empty chain (no epoch sealed yet).
    #[must_use]
    pub fn new() -> Self {
        CheckpointChain::default()
    }

    /// The link a seal of (`epoch`, `items`, `digest`, `aggregates`) on
    /// top of `prev_link` would carry.
    #[must_use]
    pub fn link_over(
        prev_link: &[u8; 32],
        epoch: u64,
        items: u64,
        digest: &Ubig,
        aggregates: &[u8; 32],
    ) -> [u8; 32] {
        sha256::digest_parts(&[
            b"dla-epoch-checkpoint",
            prev_link,
            &epoch.to_be_bytes(),
            &items.to_be_bytes(),
            &digest.to_bytes_be(),
            aggregates,
        ])
    }

    /// Seals `epoch` with its accumulator `digest` over `items` items
    /// and no aggregate commitment (all-zeros `aggregates`).
    ///
    /// # Panics
    ///
    /// Panics if `epoch` does not strictly follow the last sealed epoch
    /// — seals are totally ordered by construction (the open epoch only
    /// rolls forward).
    pub fn seal(&mut self, epoch: u64, items: u64, digest: Ubig) -> &EpochCheckpoint {
        self.seal_with_aggregates(epoch, items, digest, [0u8; 32])
    }

    /// [`CheckpointChain::seal`] carrying a commitment to the epoch's
    /// materialized aggregate partials, so cached aggregates are
    /// endorsed by the published chain.
    ///
    /// # Panics
    ///
    /// Panics if `epoch` does not strictly follow the last sealed
    /// epoch.
    pub fn seal_with_aggregates(
        &mut self,
        epoch: u64,
        items: u64,
        digest: Ubig,
        aggregates: [u8; 32],
    ) -> &EpochCheckpoint {
        if let Some(last) = self.checkpoints.last() {
            assert!(
                epoch > last.epoch,
                "epoch {epoch} sealed out of order (last sealed: {})",
                last.epoch
            );
        }
        let link = Self::link_over(&self.head_link(), epoch, items, &digest, &aggregates);
        self.checkpoints.push(EpochCheckpoint {
            epoch,
            items,
            digest,
            aggregates,
            link,
        });
        self.checkpoints.last().expect("just pushed")
    }

    /// The link of the most recent seal (all zeros when empty).
    #[must_use]
    pub fn head_link(&self) -> [u8; 32] {
        self.checkpoints.last().map_or([0u8; 32], |c| c.link)
    }

    /// Recomputes every link from the genesis and compares: `true` iff
    /// the chain is internally consistent.
    #[must_use]
    pub fn verify_links(&self) -> bool {
        let mut prev = [0u8; 32];
        for c in &self.checkpoints {
            if Self::link_over(&prev, c.epoch, c.items, &c.digest, &c.aggregates) != c.link {
                return false;
            }
            prev = c.link;
        }
        true
    }

    /// The checkpoint for `epoch`, if sealed.
    #[must_use]
    pub fn get(&self, epoch: u64) -> Option<&EpochCheckpoint> {
        self.checkpoints.iter().find(|c| c.epoch == epoch)
    }

    /// Whether a checkpoint `presented` by a peer matches this chain's
    /// own seal of the same epoch. A forged head — even one whose link
    /// is internally consistent because it was re-linked over the true
    /// prefix — fails here, since the local chain already holds the
    /// genuine seal.
    #[must_use]
    pub fn endorses(&self, presented: &EpochCheckpoint) -> bool {
        self.get(presented.epoch) == Some(presented)
    }

    /// Iterates seals in seal order.
    pub fn iter(&self) -> impl Iterator<Item = &EpochCheckpoint> {
        self.checkpoints.iter()
    }

    /// Number of sealed epochs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.checkpoints.len()
    }

    /// Whether no epoch has been sealed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.checkpoints.is_empty()
    }
}

/// A sealed sub-ring checkpoint as published to the federation's root
/// ring: the checkpoint plus the ring that sealed it.
///
/// The root ring folds [`RingCheckpoint::root_item`] into its global
/// accumulator — the same §4.1 primitive applied recursively, one level
/// up: sub-rings accumulate deposits into epoch digests, the root ring
/// accumulates epoch digests into one federation-wide value.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RingCheckpoint {
    /// The sub-ring that sealed this epoch.
    pub ring: u64,
    /// The sealed epoch checkpoint, exactly as the sub-ring's own
    /// [`CheckpointChain`] holds it.
    pub checkpoint: EpochCheckpoint,
}

impl RingCheckpoint {
    /// Canonical byte encoding: `ring ‖ checkpoint`, big-endian.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let inner = self.checkpoint.encode();
        let mut out = Vec::with_capacity(8 + inner.len());
        out.extend_from_slice(&self.ring.to_be_bytes());
        out.extend_from_slice(&inner);
        out
    }

    /// Decodes a [`RingCheckpoint::encode`] blob; `None` on any
    /// structural mismatch.
    #[must_use]
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let ring = u64::from_be_bytes(bytes.get(..8)?.try_into().ok()?);
        let checkpoint = EpochCheckpoint::decode(&bytes[8..])?;
        Some(RingCheckpoint { ring, checkpoint })
    }

    /// The item the root ring folds into its global accumulator for
    /// this publication. Domain-separated and ring-qualified, so the
    /// same epoch digest published by two different rings contributes
    /// two distinct items.
    #[must_use]
    pub fn root_item(&self) -> Vec<u8> {
        let inner = self.checkpoint.encode();
        let mut out = Vec::with_capacity(18 + 8 + inner.len());
        out.extend_from_slice(b"dla-root-ring-item");
        out.extend_from_slice(&self.ring.to_be_bytes());
        out.extend_from_slice(&inner);
        out
    }
}

/// A cross-ring endorsement record: ring `endorser` vouches that it saw
/// `subject` (another ring's sealed checkpoint) while its own chain
/// head was `endorser_head`. Published alongside the root fold, these
/// records mean no single ring can rewrite its history — a rewrite
/// would have to recall endorsements held by every *other* ring.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RingEndorsement {
    /// The endorsing ring.
    pub endorser: u64,
    /// The foreign checkpoint being endorsed.
    pub subject: RingCheckpoint,
    /// The endorser's own chain head link at endorsement time — pins
    /// the endorsement to a state the endorser's chain actually passed
    /// through.
    pub endorser_head: [u8; 32],
    /// `H(tag ‖ endorser ‖ subject ‖ endorser_head)` — the record's
    /// integrity seal.
    pub seal: [u8; 32],
}

impl RingEndorsement {
    /// The seal an endorsement of `subject` by `endorser` at
    /// `endorser_head` must carry.
    #[must_use]
    pub fn seal_over(
        endorser: u64,
        subject: &RingCheckpoint,
        endorser_head: &[u8; 32],
    ) -> [u8; 32] {
        sha256::digest_parts(&[
            b"dla-ring-endorsement",
            &endorser.to_be_bytes(),
            &subject.encode(),
            endorser_head,
        ])
    }

    /// Whether the record's seal matches its contents.
    #[must_use]
    pub fn verify(&self) -> bool {
        Self::seal_over(self.endorser, &self.subject, &self.endorser_head) == self.seal
    }

    /// Canonical byte encoding:
    /// `endorser ‖ subject_len ‖ subject ‖ endorser_head ‖ seal`.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let subject = self.subject.encode();
        let mut out = Vec::with_capacity(8 + 4 + subject.len() + 64);
        out.extend_from_slice(&self.endorser.to_be_bytes());
        out.extend_from_slice(&(subject.len() as u32).to_be_bytes());
        out.extend_from_slice(&subject);
        out.extend_from_slice(&self.endorser_head);
        out.extend_from_slice(&self.seal);
        out
    }

    /// Decodes a [`RingEndorsement::encode`] blob; `None` on any
    /// structural mismatch.
    #[must_use]
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let subject_len = u32::from_be_bytes(bytes.get(8..12)?.try_into().ok()?) as usize;
        if bytes.len() != 12 + subject_len + 64 {
            return None;
        }
        let subject = RingCheckpoint::decode(&bytes[12..12 + subject_len])?;
        Some(RingEndorsement {
            endorser: u64::from_be_bytes(bytes[..8].try_into().ok()?),
            subject,
            endorser_head: bytes[12 + subject_len..12 + subject_len + 32]
                .try_into()
                .ok()?,
            seal: bytes[12 + subject_len + 32..].try_into().ok()?,
        })
    }
}

impl CheckpointChain {
    /// Issues this chain's endorsement of a *foreign* ring's sealed
    /// checkpoint, pinned to the current head link. The companion check
    /// is [`CheckpointChain::upholds`] — the foreign-ring extension of
    /// the local [`CheckpointChain::endorses`].
    #[must_use]
    pub fn endorse_foreign(&self, endorser: u64, subject: RingCheckpoint) -> RingEndorsement {
        let endorser_head = self.head_link();
        let seal = RingEndorsement::seal_over(endorser, &subject, &endorser_head);
        RingEndorsement {
            endorser,
            subject,
            endorser_head,
            seal,
        }
    }

    /// Whether this chain (the *endorser's* chain) stands behind an
    /// endorsement: the seal must verify and `endorser_head` must be a
    /// state this chain actually passed through — the zero genesis head
    /// or one of its sealed links. An endorsement forged against a head
    /// the endorser never held fails here even with a valid seal.
    #[must_use]
    pub fn upholds(&self, endorsement: &RingEndorsement) -> bool {
        endorsement.verify()
            && (endorsement.endorser_head == [0u8; 32]
                || self
                    .checkpoints
                    .iter()
                    .any(|c| c.link == endorsement.endorser_head))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn params() -> AccumulatorParams {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        AccumulatorParams::generate(256, &mut rng)
    }

    #[test]
    fn order_independence_eq9() {
        let p = params();
        let items: Vec<&[u8]> = vec![b"y1", b"y2", b"y3"];
        let a = p.accumulate(items.iter().copied());
        for perm in [
            vec![0usize, 2, 1],
            vec![1, 0, 2],
            vec![1, 2, 0],
            vec![2, 0, 1],
            vec![2, 1, 0],
        ] {
            let b = p.accumulate(perm.iter().map(|&i| items[i]));
            assert_eq!(a, b, "permutation {perm:?}");
        }
    }

    #[test]
    fn incremental_fold_matches_batch() {
        let p = params();
        let batch = p.accumulate([b"a".as_slice(), b"b", b"c"]);
        let mut acc = p.start().clone();
        for item in [b"a".as_slice(), b"b", b"c"] {
            acc = p.fold(&acc, item);
        }
        assert_eq!(acc, batch);
    }

    #[test]
    fn tampering_changes_value() {
        let p = params();
        let honest = p.accumulate([b"frag0".as_slice(), b"frag1", b"frag2"]);
        let tampered = p.accumulate([b"frag0".as_slice(), b"frag1-evil", b"frag2"]);
        assert_ne!(honest, tampered);
    }

    #[test]
    fn missing_item_changes_value() {
        let p = params();
        let all = p.accumulate([b"frag0".as_slice(), b"frag1"]);
        let partial = p.accumulate([b"frag0".as_slice()]);
        assert_ne!(all, partial);
    }

    #[test]
    fn empty_accumulation_is_start_value() {
        let p = params();
        assert_eq!(p.accumulate(std::iter::empty()), *p.start());
    }

    #[test]
    fn item_exponents_are_odd_and_distinct() {
        let p = params();
        let y1 = p.item_exponent(b"a");
        let y2 = p.item_exponent(b"b");
        assert!(!y1.is_even());
        assert!(!y2.is_even());
        assert_ne!(y1, y2);
        assert!(y1 > Ubig::two());
    }

    #[test]
    fn x0_is_deterministic_per_modulus() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let (n, _, _) = prime::gen_rsa_modulus(128, &mut rng);
        let a = AccumulatorParams::from_modulus(n.clone());
        let b = AccumulatorParams::from_modulus(n);
        assert_eq!(a.start(), b.start());
    }

    #[test]
    fn fixed_params_are_usable() {
        let p = AccumulatorParams::fixed_512();
        assert_eq!(p.modulus().bit_len(), 512);
        assert!(!p.modulus().is_even(), "RSA modulus must be odd");
        let a = p.accumulate([b"x".as_slice(), b"y"]);
        let b = p.accumulate([b"y".as_slice(), b"x"]);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_modulus_rejected() {
        let _ = AccumulatorParams::from_modulus(Ubig::two());
    }

    #[test]
    fn fold_batch_matches_sequential_folds() {
        let p = params();
        let items: Vec<&[u8]> = vec![b"d0", b"d1", b"d2", b"d3", b"d4"];
        // Two independent accumulators absorb the same batch.
        let a0 = p.accumulate([b"seed-a".as_slice()]);
        let b0 = p.accumulate([b"seed-b".as_slice()]);
        let batched = p.fold_batch(&[a0.clone(), b0.clone()], &items);
        let seq_a = items.iter().fold(a0.clone(), |acc, i| p.fold(&acc, i));
        let seq_b = items.iter().fold(b0.clone(), |acc, i| p.fold(&acc, i));
        assert_eq!(batched, vec![seq_a, seq_b]);
        // Empty batch is the identity.
        assert_eq!(p.fold_batch(std::slice::from_ref(&a0), &[]), vec![a0]);
    }

    #[test]
    fn checkpoint_chain_links_and_detects_tampering() {
        let p = params();
        let mut chain = CheckpointChain::new();
        assert!(chain.is_empty());
        assert!(chain.verify_links());
        for (e, label) in [(0u64, "epoch0"), (1, "epoch1"), (3, "epoch3")] {
            let digest = p.accumulate([label.as_bytes()]);
            chain.seal(e, 1, digest);
        }
        assert_eq!(chain.len(), 3);
        assert!(chain.verify_links());
        assert!(chain.get(1).is_some());
        assert!(chain.get(2).is_none());

        // Rewriting a sealed digest breaks its own link check.
        let mut tampered = chain.clone();
        tampered.checkpoints[1].digest = p.accumulate([b"evil".as_slice()]);
        assert!(!tampered.verify_links());

        // Dropping a middle seal breaks the next link.
        let mut dropped = chain.clone();
        dropped.checkpoints.remove(1);
        assert!(!dropped.verify_links());
    }

    #[test]
    fn checkpoint_encoding_round_trips_and_rejects_malformed() {
        let p = params();
        let mut chain = CheckpointChain::new();
        chain.seal(4, 9, p.accumulate([b"e4".as_slice()]));
        let checkpoint = chain.get(4).expect("sealed").clone();
        let encoded = checkpoint.encode();
        assert_eq!(EpochCheckpoint::decode(&encoded), Some(checkpoint));
        assert_eq!(EpochCheckpoint::decode(&encoded[..encoded.len() - 1]), None);
        assert_eq!(EpochCheckpoint::decode(&[encoded, vec![0]].concat()), None);
        assert_eq!(EpochCheckpoint::decode(b"short"), None);
    }

    #[test]
    fn aggregate_commitment_binds_the_link() {
        let p = params();
        let digest = p.accumulate([b"e0".as_slice()]);

        // The same seal with and without an aggregate commitment must
        // link differently — a sealer cannot later graft cached
        // partials under a chain that never endorsed them.
        let mut plain = CheckpointChain::new();
        plain.seal(0, 1, digest.clone());
        let mut committed = CheckpointChain::new();
        committed.seal_with_aggregates(0, 1, digest.clone(), [7u8; 32]);
        assert_ne!(plain.head_link(), committed.head_link());
        assert!(plain.verify_links() && committed.verify_links());

        // Non-zero commitments survive the wire round trip.
        let checkpoint = committed.get(0).expect("sealed").clone();
        assert_eq!(
            EpochCheckpoint::decode(&checkpoint.encode()),
            Some(checkpoint.clone())
        );

        // Flipping the stored commitment breaks the link check.
        let mut tampered = committed.clone();
        tampered.checkpoints[0].aggregates = [8u8; 32];
        assert!(!tampered.verify_links());
        assert!(checkpoint.equivocates(tampered.get(0).expect("sealed")));
    }

    #[test]
    fn equivocation_is_divergence_on_the_same_epoch() {
        let p = params();
        let mut chain = CheckpointChain::new();
        chain.seal(0, 2, p.accumulate([b"a".as_slice()]));
        chain.seal(1, 2, p.accumulate([b"b".as_slice()]));
        let genuine = chain.get(1).expect("sealed").clone();
        assert!(chain.endorses(&genuine));
        assert!(!genuine.equivocates(&genuine));

        // A forged head re-linked over the true prefix is internally
        // consistent, yet both peer cross-checks catch it.
        let prev = chain.get(0).expect("sealed").link;
        let digest = p.accumulate([b"forged".as_slice()]);
        let link = CheckpointChain::link_over(&prev, 1, 2, &digest, &[0u8; 32]);
        let forged = EpochCheckpoint {
            epoch: 1,
            items: 2,
            digest,
            aggregates: [0u8; 32],
            link,
        };
        assert!(genuine.equivocates(&forged));
        assert!(!chain.endorses(&forged));
        // Different epochs never equivocate, however different.
        assert!(!chain.get(0).expect("sealed").equivocates(&genuine));
    }

    #[test]
    fn ring_checkpoint_encoding_round_trips_and_domain_separates() {
        let p = params();
        let mut chain = CheckpointChain::new();
        chain.seal(0, 3, p.accumulate([b"ring-epoch".as_slice()]));
        let checkpoint = chain.get(0).expect("sealed").clone();
        let a = RingCheckpoint {
            ring: 1,
            checkpoint: checkpoint.clone(),
        };
        let b = RingCheckpoint {
            ring: 2,
            checkpoint,
        };
        assert_eq!(RingCheckpoint::decode(&a.encode()), Some(a.clone()));
        assert_eq!(RingCheckpoint::decode(b"short"), None);
        // Same epoch digest, different ring → different root items, so
        // the global fold distinguishes publications per ring.
        assert_ne!(a.root_item(), b.root_item());
        let fold_a = p.fold(p.start(), &a.root_item());
        let fold_b = p.fold(p.start(), &b.root_item());
        assert_ne!(fold_a, fold_b);
    }

    #[test]
    fn foreign_endorsements_verify_and_pin_the_endorser_head() {
        let p = params();
        // Ring 0 seals two epochs; ring 1 endorses ring 0's epoch 1.
        let mut ring0 = CheckpointChain::new();
        ring0.seal(0, 2, p.accumulate([b"r0e0".as_slice()]));
        ring0.seal(1, 2, p.accumulate([b"r0e1".as_slice()]));
        let mut ring1 = CheckpointChain::new();
        ring1.seal(0, 2, p.accumulate([b"r1e0".as_slice()]));

        let subject = RingCheckpoint {
            ring: 0,
            checkpoint: ring0.get(1).expect("sealed").clone(),
        };
        let endorsement = ring1.endorse_foreign(1, subject.clone());
        assert!(endorsement.verify());
        assert!(ring1.upholds(&endorsement));
        assert_eq!(
            RingEndorsement::decode(&endorsement.encode()),
            Some(endorsement.clone())
        );
        assert_eq!(RingEndorsement::decode(&endorsement.encode()[..20]), None);

        // A seal recomputed over a different subject fails verify.
        let mut forged = endorsement.clone();
        forged.subject.ring = 9;
        assert!(!forged.verify());
        assert!(!ring1.upholds(&forged));

        // A valid-sealed endorsement against a head ring 1 never held
        // is not upheld by ring 1's chain.
        let alien_head = [7u8; 32];
        let alien = RingEndorsement {
            endorser: 1,
            subject: subject.clone(),
            endorser_head: alien_head,
            seal: RingEndorsement::seal_over(1, &subject, &alien_head),
        };
        assert!(alien.verify());
        assert!(!ring1.upholds(&alien));

        // The zero genesis head is a state every chain passed through.
        let genesis = RingEndorsement {
            endorser: 1,
            subject: subject.clone(),
            endorser_head: [0u8; 32],
            seal: RingEndorsement::seal_over(1, &subject, &[0u8; 32]),
        };
        assert!(ring1.upholds(&genesis));
    }

    #[test]
    fn power_of_start_matches_ladder_and_accumulate() {
        let p = params();
        let items: Vec<&[u8]> = vec![b"a", b"b", b"c", b"d"];
        let sequential = items
            .iter()
            .fold(p.start().clone(), |acc, item| p.fold(&acc, item));
        let batched = p.accumulate_batch(&items);
        assert_eq!(sequential, batched);
        // And directly against the generic ladder on the same exponent.
        let exponent = p.batch_exponent(&items);
        assert_eq!(
            p.power_of_start(&exponent),
            dla_bigint::modular::modexp(p.start(), &exponent, p.modulus())
        );
        assert_eq!(p.accumulate_batch(&[]), *p.start());
    }

    #[test]
    fn batch_verify_accepts_genuine_and_rejects_forged_claims() {
        let p = params();
        let epochs: Vec<Vec<&[u8]>> = vec![
            vec![b"e0-a", b"e0-b"],
            vec![b"e1-a"],
            vec![b"e2-a", b"e2-b", b"e2-c"],
        ];
        let claims: Vec<(Ubig, Ubig)> = epochs
            .iter()
            .map(|items| {
                let e = p.batch_exponent(items);
                (p.power_of_start(&e), e)
            })
            .collect();
        assert!(p.batch_verify(&claims));
        assert!(p.batch_verify(&[]), "an empty claim set is vacuously true");
        assert!(p.batch_verify(&claims[..1]), "single claims verify too");

        // A tampered digest fails the combined check.
        let mut forged = claims.clone();
        forged[1].0 = p.accumulate([b"evil".as_slice()]);
        assert!(!p.batch_verify(&forged));

        // So does a digest paired with the wrong exponent.
        let mut swapped = claims.clone();
        swapped.swap(0, 2);
        let mut crossed = claims;
        crossed[0].1 = swapped[0].1.clone();
        assert!(!p.batch_verify(&crossed));
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn checkpoint_chain_rejects_out_of_order_seal() {
        let p = params();
        let mut chain = CheckpointChain::new();
        chain.seal(2, 1, p.accumulate([b"x".as_slice()]));
        chain.seal(2, 1, p.accumulate([b"y".as_slice()]));
    }
}
