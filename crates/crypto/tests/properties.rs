//! Property tests for the cryptographic primitives: the paper's Eq. 6
//! (commutativity under arbitrary permutations), Eq. 7 (distinctness),
//! Eq. 9 (accumulator order independence), Shamir reconstruction and
//! signature soundness on randomized inputs — plus SHA-256 against its
//! portable oracle and the totality of the accumulator's wire decoders.

use dla_bigint::jacobi::jacobi;
use dla_bigint::modular::modexp_schoolbook;
use dla_bigint::montgomery::MontgomeryContext;
use dla_bigint::{Ubig, F61};
use dla_crypto::accumulator::{
    AccumulatorParams, EpochCheckpoint, RingCheckpoint, RingEndorsement,
};
use dla_crypto::pohlig_hellman::{CommutativeDomain, PhKey};
use dla_crypto::schnorr::{self, SchnorrGroup, SchnorrKeyPair};
use dla_crypto::{sha256, shamir};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

fn rng_from(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

/// The domains a set element travels on as words: 256 and 512 bits, and
/// the safe prime 23 (one word of four).
fn word_domains() -> [CommutativeDomain; 3] {
    let p23 = CommutativeDomain::from_safe_prime(Ubig::from_u64(23), &mut rng_from(23));
    [
        CommutativeDomain::fixed_256(),
        CommutativeDomain::fixed_512(),
        p23.expect("23 = 2·11 + 1"),
    ]
}

/// The `Ubig` pad search `encode` ran before it was built on words:
/// `m ‖ pad` for the first pad byte whose candidate is a residue.
fn encode_reference(domain: &CommutativeDomain, message: &[u8]) -> Ubig {
    let base = Ubig::from_bytes_be(message) << 8;
    (0..=255u64)
        .map(|pad| &base + &Ubig::from_u64(pad))
        .find(|c| !c.is_zero() && !c.is_one() && jacobi(c, domain.modulus()) == 1)
        .expect("a residue among 256 pads")
}

/// `f`'s result and the Jacobi symbols it counted.
fn counting_jacobi<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let recorder = dla_telemetry::Recorder::new();
    let out = {
        let _install = recorder.install();
        f()
    };
    (out, recorder.take().total_cost().jacobi)
}

/// The batch pad searches, lane and scalar, against one `encode_words`
/// per item: the same elements and the same `Jacobi` count.
fn batch_matches_items<const L: usize>(
    domain: &CommutativeDomain,
    items: &[&[u8]],
) -> Result<(), TestCaseError> {
    let (each, count) = counting_jacobi(|| {
        (items.iter())
            .map(|m| domain.encode_words::<L>(m).unwrap())
            .collect::<Vec<_>>()
    });
    let (batch, batch_count) = counting_jacobi(|| domain.encode_batch_words::<L>(items).unwrap());
    let (scalar, scalar_count) =
        counting_jacobi(|| domain.encode_batch_words_scalar::<L>(items).unwrap());
    prop_assert_eq!(&batch, &each, "{:?}", domain);
    prop_assert_eq!(&scalar, &each, "{:?}", domain);
    prop_assert_eq!((batch_count, scalar_count), (count, count), "{:?}", domain);
    Ok(())
}

/// `set` encrypted and decrypted again by the word batches, as `Ubig`s.
fn word_walk<const L: usize>(key: &PhKey, set: &[Ubig]) -> (Vec<Ubig>, Vec<Ubig>) {
    let words: Vec<[u64; L]> = (set.iter())
        .map(|v| {
            let mut w = [0; L];
            w[..v.limbs().len()].copy_from_slice(v.limbs());
            w
        })
        .collect();
    let encrypted = key.encrypt_words(&words);
    let ubigs = |ws: &[[u64; L]]| ws.iter().map(|w| Ubig::from_limbs(w.to_vec())).collect();
    (ubigs(&encrypted), ubigs(&key.decrypt_words(&encrypted)))
}

/// An [`EpochCheckpoint::encode`] blob spelled out by hand, its digest
/// given as raw bytes: leading zeros are legal there, though
/// `encode` never writes them.
fn checkpoint_bytes(epoch: u64, items: u64, digest: &[u8], fill: u8) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&epoch.to_be_bytes());
    out.extend_from_slice(&items.to_be_bytes());
    out.extend_from_slice(&(digest.len() as u32).to_be_bytes());
    out.extend_from_slice(digest);
    out.extend_from_slice(&[fill; 32]); // aggregates
    out.extend_from_slice(&[fill.wrapping_add(1); 32]); // link
    out
}

/// The three wire types' encodings of one checkpoint: the checkpoint,
/// the ring's publication of it, and another ring's endorsement of
/// that.
fn wire_encodings(checkpoint: EpochCheckpoint, ring: u64) -> [Vec<u8>; 3] {
    let published = RingCheckpoint { ring, checkpoint };
    let endorsement = RingEndorsement {
        endorser: ring ^ 1,
        seal: RingEndorsement::seal_over(ring ^ 1, &published, &[7; 32]),
        subject: published.clone(),
        endorser_head: [7; 32],
    };
    [
        published.checkpoint.encode(),
        published.encode(),
        endorsement.encode(),
    ]
}

/// Decodes `bytes` as each wire type: `None`, or a value that
/// re-decodes to itself from its own encoding.
fn decodes_totally(bytes: &[u8]) -> Result<[bool; 3], TestCaseError> {
    fn check<T: PartialEq + std::fmt::Debug>(
        decoded: Option<T>,
        encode: impl Fn(&T) -> Vec<u8>,
        decode: impl Fn(&[u8]) -> Option<T>,
    ) -> Result<bool, TestCaseError> {
        let Some(value) = decoded else {
            return Ok(false);
        };
        prop_assert_eq!(decode(&encode(&value)), Some(value));
        Ok(true)
    }
    Ok([
        check(
            EpochCheckpoint::decode(bytes),
            EpochCheckpoint::encode,
            EpochCheckpoint::decode,
        )?,
        check(
            RingCheckpoint::decode(bytes),
            RingCheckpoint::encode,
            RingCheckpoint::decode,
        )?,
        check(
            RingEndorsement::decode(bytes),
            RingEndorsement::encode,
            RingEndorsement::decode,
        )?,
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn eq6_commutativity_under_any_permutation(
        seed in 0u64..10_000,
        perm_seed in 0u64..10_000,
        message in prop::collection::vec(any::<u8>(), 1..24),
        n_keys in 2usize..5,
    ) {
        let domain = CommutativeDomain::fixed_256();
        let mut rng = rng_from(seed);
        let keys: Vec<PhKey> = (0..n_keys).map(|_| PhKey::generate(&domain, &mut rng)).collect();
        let m = domain.encode(&message).unwrap();

        // Apply in index order vs. a shuffled order.
        let mut order: Vec<usize> = (0..n_keys).collect();
        let mut prng = rng_from(perm_seed);
        for i in (1..order.len()).rev() {
            let j = rand::Rng::gen_range(&mut prng, 0..=i);
            order.swap(i, j);
        }
        let forward = keys.iter().fold(m.clone(), |c, k| k.encrypt(&c));
        let shuffled = order.iter().fold(m.clone(), |c, &i| keys[i].encrypt(&c));
        prop_assert_eq!(forward, shuffled);

        // And every layer is removable in the shuffled order too.
        let back = order.iter().rev().fold(
            keys.iter().fold(m.clone(), |c, k| k.encrypt(&c)),
            |c, &i| keys[i].decrypt(&c),
        );
        prop_assert_eq!(back, m);
    }

    #[test]
    fn eq7_distinct_plaintexts_distinct_ciphertexts(
        seed in 0u64..10_000,
        a in prop::collection::vec(any::<u8>(), 1..20),
        b in prop::collection::vec(any::<u8>(), 1..20),
    ) {
        prop_assume!(a != b);
        let domain = CommutativeDomain::fixed_256();
        let mut rng = rng_from(seed);
        let key = PhKey::generate(&domain, &mut rng);
        let ca = key.encrypt(&domain.encode(&a).unwrap());
        let cb = key.encrypt(&domain.encode(&b).unwrap());
        prop_assert_ne!(ca, cb);
    }

    #[test]
    fn eq9_accumulator_order_independence(
        items in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..16), 1..6),
        perm_seed in 0u64..10_000,
    ) {
        let params = AccumulatorParams::fixed_512();
        let mut order: Vec<usize> = (0..items.len()).collect();
        let mut prng = rng_from(perm_seed);
        for i in (1..order.len()).rev() {
            let j = rand::Rng::gen_range(&mut prng, 0..=i);
            order.swap(i, j);
        }
        let a = params.accumulate(items.iter().map(Vec::as_slice));
        let b = params.accumulate(order.iter().map(|&i| items[i].as_slice()));
        prop_assert_eq!(a, b);
    }

    /// `accumulate` (one fixed-base power over `∏ yᵢ`) ≡ the per-item
    /// fold ladder, from the empty collection through a record's 4
    /// items (the comb built up front, on the 512-bit modulus) to 9
    /// (combs built on first use) — and it still bills one
    /// `AccumulatorFold` per item.
    #[test]
    fn accumulate_matches_the_fold_ladder(
        items in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..40), 0..=9),
    ) {
        let params = AccumulatorParams::fixed_512();
        let ladder = items
            .iter()
            .fold(params.start().clone(), |acc, item| params.fold(&acc, item));
        let recorder = dla_telemetry::Recorder::new();
        let batched = {
            let _guard = recorder.install();
            params.accumulate(items.iter().map(Vec::as_slice))
        };
        prop_assert_eq!(batched, ladder);
        prop_assert_eq!(recorder.take().total_cost().acc_fold, items.len() as u64);
    }

    /// `fold_batch` ≡ `modexp_batch` on the batch's exponent whether
    /// none, one or all of the accumulators still equal `x₀` (those
    /// take the fixed-base power), from one item through a record's
    /// four (the comb built up front) to an epoch's sixty-four — and it
    /// bills the same
    /// folds and the same exponentiations either way.
    #[test]
    fn fold_batch_from_the_start_value_matches_modexp_batch(
        items in prop::sample::select(vec![1usize, 4, 5, 64]),
        at_start in prop::sample::select(vec![[false, false], [true, false], [false, true], [true, true]]),
        seed in 0u64..10_000,
    ) {
        let params = AccumulatorParams::fixed_512();
        let ctx = MontgomeryContext::new(params.modulus()).expect("RSA moduli are odd");
        let mut rng = rng_from(seed);
        let items: Vec<Vec<u8>> = (0..items)
            .map(|_| (0..20).map(|_| rand::Rng::gen(&mut rng)).collect())
            .collect();
        let refs: Vec<&[u8]> = items.iter().map(Vec::as_slice).collect();
        let accs: Vec<Ubig> = at_start
            .iter()
            .map(|&at_start| match at_start {
                true => params.start().clone(),
                false => Ubig::random_below(&mut rng, params.modulus()),
            })
            .collect();
        let exponent = params.batch_exponent(&refs);

        let recorder = dla_telemetry::Recorder::new();
        let folded = {
            let _guard = recorder.install();
            params.fold_batch(&accs, &refs)
        };
        let cost = recorder.take().total_cost();
        prop_assert_eq!(folded, ctx.modexp_batch(&accs, &exponent));
        prop_assert_eq!(cost.acc_fold, (refs.len() * accs.len()) as u64);
        prop_assert_eq!(cost.modexp, accs.len() as u64);
    }

    #[test]
    fn shamir_reconstructs_from_any_quorum(
        secret in any::<u64>(),
        k in 1usize..5,
        extra in 0usize..3,
        seed in 0u64..10_000,
        pick_seed in 0u64..10_000,
    ) {
        let n = k + extra;
        let mut rng = rng_from(seed);
        let shares = shamir::share(F61::new(secret), k, n, &mut rng);
        // Pick k distinct shares pseudo-randomly.
        let mut idx: Vec<usize> = (0..n).collect();
        let mut prng = rng_from(pick_seed);
        for i in (1..idx.len()).rev() {
            let j = rand::Rng::gen_range(&mut prng, 0..=i);
            idx.swap(i, j);
        }
        let picked: Vec<_> = idx[..k].iter().map(|&i| shares[i]).collect();
        prop_assert_eq!(shamir::reconstruct(&picked).unwrap(), F61::new(secret));
    }

    #[test]
    fn signatures_never_cross_verify(
        seed in 0u64..10_000,
        m1 in prop::collection::vec(any::<u8>(), 0..64),
        m2 in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        prop_assume!(m1 != m2);
        let group = SchnorrGroup::fixed_256();
        let mut rng = rng_from(seed);
        let key = SchnorrKeyPair::generate(&group, &mut rng);
        let sig = key.sign(&m1, &mut rng);
        prop_assert!(schnorr::verify(&group, key.public(), &m1, &sig));
        prop_assert!(!schnorr::verify(&group, key.public(), &m2, &sig));
    }

    /// `pow_g` walks the group's comb where `pow(g, ·)` runs the
    /// ladder: one value, on the fixed 256-bit group and on a generated
    /// one, for exponents below `q`, at it and up to 640 bits.
    #[test]
    fn pow_g_matches_the_ladder(
        seed in 0u64..10_000,
        bits in prop::sample::select(vec![48usize, 64, 80]),
        limbs in prop::collection::vec(prop::collection::vec(any::<u64>(), 0..10), 1..6),
    ) {
        let mut rng = rng_from(seed);
        for group in [SchnorrGroup::fixed_256(), SchnorrGroup::generate(bits, &mut rng)] {
            let mut exponents: Vec<Ubig> = limbs.iter().cloned().map(Ubig::from_limbs).collect();
            exponents.push(group.random_exponent(&mut rng));
            exponents.push(group.order().clone());
            for e in &exponents {
                prop_assert_eq!(group.pow_g(e), group.pow(group.generator(), e), "e={}", e);
            }
        }
    }

    #[test]
    fn group_encode_round_trips(message in prop::collection::vec(1u8..=255, 1..24)) {
        // Leading nonzero byte so the byte round-trip is exact.
        let domain = CommutativeDomain::fixed_256();
        let element = domain.encode(&message).unwrap();
        prop_assert_eq!(domain.decode(&element), message);
    }

    /// The word element (DESIGN §11) on the 256- and 512-bit domains
    /// and the test prime 23: `encode_words` is the `Ubig` pad search it
    /// replaced, for a message of every length up to `max_encode_len`,
    /// and `decode_words` inverts it.
    #[test]
    fn word_encoding_is_the_ubig_encoding_at_every_length(seed in any::<u64>()) {
        for domain in word_domains() {
            let mut rng = rng_from(seed);
            for len in 0..=domain.max_encode_len() {
                let message: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
                let reference = encode_reference(&domain, &message);
                let (words, decoded) = if domain.limbs() <= 4 {
                    let w = domain.encode_words::<4>(&message).unwrap();
                    (w.to_vec(), domain.decode_words(&w))
                } else {
                    let w = domain.encode_words::<8>(&message).unwrap();
                    (w.to_vec(), domain.decode_words(&w))
                };
                prop_assert_eq!(&Ubig::from_limbs(words), &reference, "{:?} {:?}", domain, message);
                prop_assert_eq!(&domain.encode(&message).unwrap(), &reference);
                let stripped: Vec<u8> = message.iter().copied().skip_while(|&b| b == 0).collect();
                prop_assert_eq!(&decoded, &stripped);
                prop_assert_eq!(&domain.decode(&reference), &stripped);
            }
        }
    }

    /// The batch pad search (DESIGN §11) is the per-item search: on
    /// every word domain, a batch holding messages of every length
    /// `0..=max_encode_len` in a shuffled order encodes each to
    /// `encode_words`' element — on the lane stream where the CPU has
    /// one and on the scalar stream forced — and tests exactly the
    /// candidates the per-item searches test (the `Jacobi` count).
    #[test]
    fn batch_pad_search_is_the_per_item_search_at_every_length(seed in any::<u64>()) {
        for domain in word_domains() {
            let mut rng = rng_from(seed);
            let mut messages: Vec<Vec<u8>> = (0..=domain.max_encode_len())
                .flat_map(|len| [0, 1, 2].map(|_| (0..len).map(|_| rng.gen()).collect::<Vec<u8>>()))
                .collect();
            messages.push(vec![0; domain.max_encode_len()]);
            for i in (1..messages.len()).rev() {
                messages.swap(i, rng.gen_range(0..=i));
            }
            let items: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();
            if domain.limbs() <= 4 {
                batch_matches_items::<4>(&domain, &items)?;
            } else {
                batch_matches_items::<8>(&domain, &items)?;
            }
            let too_long = vec![1u8; domain.max_encode_len() + 1];
            prop_assert!(domain.encode_batch_words::<8>(&[&[7], &too_long]).is_err());
        }
    }

    /// `encrypt_words`/`decrypt_words` walk a set to exactly what the
    /// `Ubig` batches give, on every word domain.
    #[test]
    fn word_batches_are_the_ubig_batches(seed in any::<u64>(), n in 0usize..10) {
        for domain in word_domains() {
            let mut rng = rng_from(seed);
            let key = PhKey::generate(&domain, &mut rng);
            let set: Vec<Ubig> = (0..n).map(|_| Ubig::random_below(&mut rng, domain.modulus())).collect();
            let encrypted = key.encrypt_batch(&set, Default::default());
            let decrypted = key.decrypt_batch(&encrypted, Default::default());
            prop_assert_eq!(&decrypted, &set);
            let (by_words, back) = if domain.limbs() <= 4 {
                word_walk::<4>(&key, &set)
            } else {
                word_walk::<8>(&key, &set)
            };
            prop_assert_eq!(&by_words, &encrypted);
            prop_assert_eq!(&back, &set);
        }
    }

    /// Known-order exponent reduction is invisible: the cipher path
    /// (reduce mod p−1, fixed-width kernel) agrees with dla-bigint's
    /// unreduced oracles — schoolbook and the generic-kernel sliding
    /// window — on every base, including exponents far beyond the group
    /// order and exact multiples of it.
    #[test]
    fn exponent_reduction_matches_unreduced(
        base in prop::collection::vec(any::<u64>(), 0..8),
        exp in prop::collection::vec(any::<u64>(), 0..12),
        order_multiple in 0u64..4,
    ) {
        let domain = CommutativeDomain::fixed_256();
        let ctx = MontgomeryContext::new(domain.modulus()).unwrap();
        let b = Ubig::from_limbs(base);
        let order = domain.modulus() - &Ubig::one();
        let e = &Ubig::from_limbs(exp) + &(&order * &Ubig::from_u64(order_multiple));
        let got = domain.pow(&b, &e);
        prop_assert_eq!(&got, &ctx.modexp_generic(&b, &e));
        prop_assert_eq!(&got, &modexp_schoolbook(&b, &e, domain.modulus()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `digest_parts` — on whichever compressor this CPU dispatches to
    /// — equals the portable compressor's digest of the length-prefixed
    /// concatenation it defines.
    #[test]
    fn digest_parts_matches_the_portable_reference(
        parts in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..150), 0..6),
    ) {
        let mut framed = Vec::new();
        for part in &parts {
            framed.extend_from_slice(&(part.len() as u64).to_be_bytes());
            framed.extend_from_slice(part);
        }
        let refs: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
        prop_assert_eq!(sha256::digest_parts(&refs), sha256::digest_portable(&framed));
        prop_assert_eq!(sha256::digest(&framed), sha256::digest_portable(&framed));
    }

    #[test]
    fn wire_decoders_are_total_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        decodes_totally(&bytes)?;
    }

    /// A digest with leading zero bytes decodes (re-encoding drops
    /// them), and any one byte of a valid encoding overwritten still
    /// gives `None` or a value that round-trips.
    #[test]
    fn wire_decoders_are_total_near_valid_encodings(
        epoch in any::<u64>(),
        items in any::<u64>(),
        fill in any::<u8>(),
        ring in any::<u64>(),
        zeros in 0usize..4,
        digest in prop::collection::vec(any::<u8>(), 0..80),
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let digest: Vec<u8> = std::iter::repeat_n(0, zeros).chain(digest).collect();
        let raw = checkpoint_bytes(epoch, items, &digest, fill);
        prop_assert_eq!(decodes_totally(&raw)?, [true, false, false]);
        let checkpoint = EpochCheckpoint::decode(&raw).expect("decoded above");
        prop_assert_eq!(&checkpoint.digest, &Ubig::from_bytes_be(&digest));
        for (kind, encoding) in wire_encodings(checkpoint, ring).into_iter().enumerate() {
            prop_assert!(decodes_totally(&encoding)?[kind]);
            let mut mutated = encoding;
            let at = at % mutated.len();
            mutated[at] = byte;
            decodes_totally(&mutated)?;
        }
    }

    #[test]
    fn every_strict_prefix_and_one_byte_extension_is_refused(
        epoch in any::<u64>(),
        items in any::<u64>(),
        fill in any::<u8>(),
        ring in any::<u64>(),
        digest in prop::collection::vec(any::<u8>(), 0..80),
        extra in any::<u8>(),
    ) {
        let checkpoint = EpochCheckpoint::decode(&checkpoint_bytes(epoch, items, &digest, fill))
            .expect("a well-formed checkpoint");
        for (kind, encoding) in wire_encodings(checkpoint, ring).into_iter().enumerate() {
            prop_assert!(decodes_totally(&encoding)?[kind]);
            for cut in 0..encoding.len() {
                prop_assert!(!decodes_totally(&encoding[..cut])?[kind], "prefix of {cut}");
            }
            let mut extended = encoding;
            extended.push(extra);
            prop_assert!(!decodes_totally(&extended)?[kind], "one byte longer");
        }
    }
}
