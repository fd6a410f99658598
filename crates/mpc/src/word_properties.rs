//! Properties of the word element (DESIGN §11): the set frame and the
//! collectors on `[u64; L]`, on the 256- and 512-bit domains and the
//! test prime 23 (a one-word modulus in four words, which travels in
//! one word). `ci.sh` runs them again in release, beside the bigint and
//! crypto suites.

use crate::one_encoding;
use crate::relay::tests::{canonical, element_words, raw_frame};
use crate::relay::{common, merged, SetFrame};
use dla_bigint::Ubig;
use dla_crypto::pohlig_hellman::CommutativeDomain;
use proptest::prelude::*;
use rand::SeedableRng;
use std::collections::BTreeSet;

/// The safe prime 23 as a domain.
fn prime_23() -> CommutativeDomain {
    let mut rng = rand::rngs::StdRng::seed_from_u64(23);
    CommutativeDomain::from_safe_prime(Ubig::from_u64(23), &mut rng).expect("23 = 2·11 + 1")
}

/// A value below the domain's modulus, from `seed`: a random one most
/// of the time, a short one (one or two bytes) otherwise, so that sets
/// mix widths.
fn below_p<const L: usize>(domain: &CommutativeDomain, seed: u64) -> [u64; L] {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let v = match seed % 4 {
        0 => Ubig::from_u64(seed % 300) % domain.modulus(),
        _ => Ubig::random_below(&mut rng, domain.modulus()),
    };
    let mut words = [0; L];
    words[..v.limbs().len()].copy_from_slice(v.limbs());
    words
}

/// The frame of `seeds`' elements is its header, the count and `k`
/// words an element, and decodes back to them.
fn frames_round_trip<const L: usize>(
    domain: &CommutativeDomain,
    origin: u64,
    seeds: &[u64],
) -> Result<(), TestCaseError> {
    let elements: Vec<[u64; L]> = seeds.iter().map(|&s| below_p(domain, s)).collect();
    let modulus = domain.modulus_words::<L>();
    for (frame, header) in [(SetFrame::Intersection, 9), (SetFrame::Union, 1)] {
        let bytes = frame.encode(&modulus, origin, &elements);
        let len = header + 8 + elements.len() * 8 * domain.limbs();
        prop_assert_eq!(bytes.len(), len);
        let (carried, back) = frame
            .decode(&modulus, &bytes)
            .expect("a frame of elements below p");
        prop_assert_eq!(carried, (frame == SetFrame::Intersection).then_some(origin));
        prop_assert_eq!(&back, &elements);
    }
    Ok(())
}

/// Decoding a frame of `elements` (words as a peer might send them)
/// succeeds exactly when each is below p, and neither it nor `noise`
/// panics.
fn decoder_is_total<const L: usize>(
    modulus: [u64; L],
    elements: &[[u64; L]],
    noise: &[u8],
) -> Result<(), TestCaseError> {
    let frame = SetFrame::Union;
    let reencode = |b: &[u8]| {
        frame
            .decode(&modulus, b)
            .map(|(_, set)| frame.encode(&modulus, 0, &set))
    };
    let payload = raw_frame(frame, &modulus, 0, elements);
    prop_assert_eq!(
        one_encoding(&payload, reencode)?,
        canonical(elements, &modulus)
    );
    one_encoding(noise, reencode)?;
    Ok(())
}

/// The collectors on words against `BTreeSet`s of the same words, most
/// significant first, answer and order alike.
fn collectors_agree<const L: usize>(
    domain: &CommutativeDomain,
    sets: &[Vec<u64>],
    own: Option<usize>,
) -> Result<(), TestCaseError> {
    let sets: Vec<Vec<[u64; L]>> = (sets.iter())
        .map(|set| set.iter().map(|&s| below_p(domain, s)).collect())
        .collect();
    let big_endian = |e: &[u64; L]| {
        let mut words = *e;
        words.reverse();
        words
    };
    let tree = |set: &[[u64; L]]| -> BTreeSet<[u64; L]> { set.iter().map(big_endian).collect() };
    let listed = |set: &[[u64; L]]| -> Vec<[u64; L]> { set.iter().map(big_endian).collect() };
    let reference = (sets.iter())
        .map(|set| tree(set))
        .reduce(|common, set| &common & &set)
        .unwrap_or_default();
    prop_assert_eq!(
        listed(&common(&sets)),
        reference.into_iter().collect::<Vec<_>>()
    );
    let held = own
        .filter(|&pos| pos < sets.len())
        .map(|pos| &sets[pos][..]);
    let mut reference: BTreeSet<[u64; L]> = sets.iter().flat_map(|set| tree(set)).collect();
    for e in held.map(tree).unwrap_or_default() {
        reference.remove(&e);
    }
    prop_assert_eq!(
        listed(&merged(&sets, held)),
        reference.into_iter().collect::<Vec<_>>()
    );
    Ok(())
}

/// Seeds of a few sets drawn from a small pool, so that they overlap
/// and repeat elements.
fn pooled_sets() -> impl Strategy<Value = Vec<Vec<u64>>> {
    prop::collection::vec(prop::collection::vec(0u64..24, 0..12), 1..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn a_word_frame_round_trips_on_every_domain(
        origin in any::<u64>(),
        seeds in prop::collection::vec(any::<u64>(), 0..6),
    ) {
        frames_round_trip::<4>(&CommutativeDomain::fixed_256(), origin, &seeds)?;
        frames_round_trip::<8>(&CommutativeDomain::fixed_512(), origin, &seeds)?;
        frames_round_trip::<4>(&prime_23(), origin, &seeds)?;
    }

    #[test]
    fn the_word_decoder_refuses_every_other_encoding_on_every_domain(
        e256 in prop::collection::vec(
            element_words(CommutativeDomain::fixed_256().modulus_words::<4>()),
            0..4,
        ),
        e512 in prop::collection::vec(
            element_words(CommutativeDomain::fixed_512().modulus_words::<8>()),
            0..4,
        ),
        e23 in prop::collection::vec(element_words(prime_23().modulus_words::<4>()), 0..4),
        noise in prop::collection::vec(any::<u8>(), 0..80),
    ) {
        decoder_is_total(CommutativeDomain::fixed_256().modulus_words::<4>(), &e256, &noise)?;
        decoder_is_total(CommutativeDomain::fixed_512().modulus_words::<8>(), &e512, &noise)?;
        decoder_is_total(prime_23().modulus_words::<4>(), &e23, &noise)?;
    }

    #[test]
    fn the_word_collectors_are_the_word_set_collectors(
        sets in pooled_sets(),
        own in 0usize..6,
    ) {
        // Position 5 is past every ring: an outside collector.
        let own = Some(own).filter(|&pos| pos < 5);
        collectors_agree::<4>(&CommutativeDomain::fixed_256(), &sets, own)?;
        collectors_agree::<8>(&CommutativeDomain::fixed_512(), &sets, own)?;
        collectors_agree::<4>(&prime_23(), &sets, own)?;
    }
}
