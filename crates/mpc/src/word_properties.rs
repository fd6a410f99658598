//! Differential properties of the word element (DESIGN §11): the set
//! frame and the collectors on `[u64; L]` against the `Ubig` codec and
//! the byte-string sets they replaced, on the 256- and 512-bit domains
//! and the test prime 23 (a one-word modulus in four words). `ci.sh`
//! runs them again in release, beside the bigint and crypto suites.

use crate::one_encoding;
use crate::relay::tests::{canonical, element_bytes};
use crate::relay::{common, merged, SetFrame};
use dla_bigint::Ubig;
use dla_crypto::pohlig_hellman::CommutativeDomain;
use dla_net::wire::Writer;
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

/// A set frame as the `Ubig` codec wrote it.
fn ubig_frame(frame: SetFrame, origin: u64, elements: &[Ubig]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(frame as u8);
    if frame == SetFrame::Intersection {
        w.put_u64(origin);
    }
    w.put_list(elements, |w, e| {
        w.put_bytes(&e.to_bytes_be());
    });
    w.finish().to_vec()
}

/// The frame of `seeds`' elements from words equals the `Ubig` codec's,
/// and decodes back to them.
fn frames_agree<const L: usize>(
    domain: &CommutativeDomain,
    origin: u64,
    seeds: &[u64],
) -> Result<(), TestCaseError> {
    let elements: Vec<[u64; L]> = seeds.iter().map(|&s| below_p(domain, s)).collect();
    let ubigs: Vec<Ubig> = (elements.iter())
        .map(|e| Ubig::from_limbs(e.to_vec()))
        .collect();
    let modulus = domain.modulus_words::<L>();
    for frame in [SetFrame::Intersection, SetFrame::Union] {
        let words = frame.encode(origin, &elements);
        prop_assert_eq!(&words[..], &ubig_frame(frame, origin, &ubigs)[..]);
        let (_, back) = frame
            .decode(&words, &modulus)
            .expect("a frame of elements below p");
        prop_assert_eq!(&back, &elements);
    }
    Ok(())
}

/// Decoding a frame of `elements` (bytes as a peer might send them)
/// succeeds exactly when each is in its one encoding below p, and
/// neither it nor `noise` panics.
fn decoder_is_total<const L: usize>(
    modulus: [u64; L],
    elements: &[Vec<u8>],
    noise: &[u8],
) -> Result<(), TestCaseError> {
    let mut w = Writer::new();
    w.put_u8(SetFrame::Union as u8).put_list(elements, |w, e| {
        w.put_bytes(e);
    });
    let frame = SetFrame::Union;
    let reencode = |b: &[u8]| {
        frame
            .decode(b, &modulus)
            .map(|(_, set)| frame.encode(0, &set))
    };
    prop_assert_eq!(
        one_encoding(&w.finish(), reencode)?,
        canonical(elements, &modulus)
    );
    one_encoding(noise, reencode)?;
    Ok(())
}

/// The collectors on words against sets of the elements' minimal
/// big-endian bytes, answer and order alike.
fn collectors_agree<const L: usize>(
    domain: &CommutativeDomain,
    sets: &[Vec<u64>],
    own: Option<usize>,
) -> Result<(), TestCaseError> {
    let sets: Vec<Vec<[u64; L]>> = (sets.iter())
        .map(|set| set.iter().map(|&s| below_p(domain, s)).collect())
        .collect();
    let bytes = |set: &[[u64; L]]| -> BTreeSet<Vec<u8>> {
        let ubig = |e: &[u64; L]| Ubig::from_limbs(e.to_vec()).to_bytes_be();
        set.iter().map(ubig).collect()
    };
    let listed = |set: &[[u64; L]]| -> Vec<Vec<u8>> {
        set.iter()
            .map(|e| Ubig::from_limbs(e.to_vec()).to_bytes_be())
            .collect()
    };
    let reference = (sets.iter())
        .map(|set| bytes(set))
        .reduce(|common, set| &common & &set)
        .unwrap_or_default();
    prop_assert_eq!(
        listed(&common(&sets)),
        reference.into_iter().collect::<Vec<_>>()
    );
    let held = own
        .filter(|&pos| pos < sets.len())
        .map(|pos| &sets[pos][..]);
    let mut reference: BTreeSet<Vec<u8>> = sets.iter().flat_map(|set| bytes(set)).collect();
    for e in held.map(bytes).unwrap_or_default() {
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
    fn a_frame_from_words_is_the_ubig_frame(
        origin in any::<u64>(),
        seeds in prop::collection::vec(any::<u64>(), 0..6),
    ) {
        frames_agree::<4>(&CommutativeDomain::fixed_256(), origin, &seeds)?;
        frames_agree::<8>(&CommutativeDomain::fixed_512(), origin, &seeds)?;
        frames_agree::<4>(&prime_23(), origin, &seeds)?;
    }

    #[test]
    fn the_word_decoder_refuses_every_other_encoding_on_every_domain(
        e256 in prop::collection::vec(
            element_bytes(CommutativeDomain::fixed_256().modulus_words::<4>()),
            0..4,
        ),
        e512 in prop::collection::vec(
            element_bytes(CommutativeDomain::fixed_512().modulus_words::<8>()),
            0..4,
        ),
        e23 in prop::collection::vec(element_bytes(prime_23().modulus_words::<4>()), 0..4),
        noise in prop::collection::vec(any::<u8>(), 0..80),
    ) {
        decoder_is_total(CommutativeDomain::fixed_256().modulus_words::<4>(), &e256, &noise)?;
        decoder_is_total(CommutativeDomain::fixed_512().modulus_words::<8>(), &e512, &noise)?;
        decoder_is_total(prime_23().modulus_words::<4>(), &e23, &noise)?;
    }

    #[test]
    fn the_word_collectors_are_the_byte_set_collectors(
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
