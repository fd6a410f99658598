//! One thin test per layer under the cluster — bigint, crypto, net,
//! mpc (two protocols, each over two transports, and Σₛ against the
//! simulator's clock), logstore (its
//! journal, and the store that replays it) — through the facade and
//! with no `DlaCluster`, so tier-1 touches every crate directly and a
//! break names its layer.

use confidential_audit::bigint::montgomery::MontgomeryContext;
use confidential_audit::bigint::{modular, Ubig};
use confidential_audit::crypto::accumulator::AccumulatorParams;
use confidential_audit::crypto::pohlig_hellman::{CommutativeDomain, CommutativeKey, PhKey};
use confidential_audit::crypto::schnorr::{SchnorrGroup, SchnorrKeyPair};
use confidential_audit::crypto::sha256;
use confidential_audit::logstore::acl::{OperationSet, TicketAuthority};
use confidential_audit::logstore::epoch::{EpochId, EpochPolicy};
use confidential_audit::logstore::fragment::{fragment, Partition};
use confidential_audit::logstore::gen::paper_table1;
use confidential_audit::logstore::journal::{Journal, JournalEntry};
use confidential_audit::logstore::model::Glsn;
use confidential_audit::logstore::schema::Schema;
use confidential_audit::logstore::store::FragmentStore;
use confidential_audit::mpc::{SsiSession, SumSession};
use confidential_audit::net::latency::LatencyModel;
use confidential_audit::net::topology::Ring;
use confidential_audit::net::{
    ChannelNet, Envelope, NetConfig, NodeId, Session, SessionId, SharedNet, SimNet, SimTime,
    Transport,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn bigint_montgomery_modexp_matches_schoolbook() {
    let hex = |s| Ubig::from_hex(s).expect("valid hex");
    let n = hex("f3a1c5d7e9b2046813579bdf02468ace13579bdf02468acefdb97531eca86421");
    let base = hex("1234567890abcdef1234567890abcdef1234567890abcdef1234567890abcdef");
    let exp = hex("fedcba9876543210fedcba9876543210fedcba9876543210fedcba9876543210");
    assert_eq!(n.bit_len(), 256);
    let ctx = MontgomeryContext::new(&n).expect("odd modulus");
    assert_eq!(
        ctx.modexp(&base, &exp),
        modular::modexp_schoolbook(&base, &exp, &n)
    );
}

#[test]
fn crypto_cipher_commutes_and_accumulator_is_order_free() {
    let domain = CommutativeDomain::fixed_256();
    let mut rng = StdRng::seed_from_u64(17);
    let (ka, kb) = (
        PhKey::generate(&domain, &mut rng),
        PhKey::generate(&domain, &mut rng),
    );
    let m = domain.encode(b"glsn-139aef").expect("fits the domain");
    assert_eq!(ka.encrypt(&kb.encrypt(&m)), kb.encrypt(&ka.encrypt(&m)));
    assert_eq!(ka.decrypt(&ka.encrypt(&m)), m);

    let acc = AccumulatorParams::fixed_512();
    let (x, y): (&[u8], &[u8]) = (b"fragment-0", b"fragment-1");
    let xy = acc.fold(&acc.fold(acc.start(), x), y);
    assert_eq!(xy, acc.fold(&acc.fold(acc.start(), y), x), "Eq. 9");
    assert_eq!(xy, acc.accumulate_batch(&[x, y]));
    assert_ne!(xy, acc.accumulate_batch(&[x, b"fragment-X"]));

    // An epoch's worth: sixty-four items are one power of `x₀` sixteen
    // thousand bits long — a comb of its own, not the one the pair rode.
    let epoch: Vec<Vec<u8>> = (0..64)
        .map(|i| format!("deposit-{i}").into_bytes())
        .collect();
    let items: Vec<&[u8]> = epoch.iter().map(Vec::as_slice).collect();
    let ladder = (items.iter()).fold(acc.start().clone(), |a, item| acc.fold(&a, item));
    assert_eq!(acc.accumulate_batch(&items), ladder);
    assert_eq!(
        acc.fold_batch(&[acc.start().clone(), xy.clone()], &items),
        [
            ladder.clone(),
            items.iter().fold(xy, |a, item| acc.fold(&a, item))
        ]
    );
    let exponent = acc.batch_exponent(&items);
    assert!(acc.batch_verify(&[(ladder.clone(), exponent.clone())]));
    assert!(!acc.batch_verify(&[(acc.fold(&ladder, x), exponent)]));
}

#[test]
fn crypto_fixed_base_powers_are_the_ladder_and_a_signature_keeps_its_bytes() {
    // The three exponent makes the combs serve: a Schnorr nonce below
    // q, a record's fold of four fragments, an epoch's of sixty-four
    // with `batch_verify`'s randomizer.
    let group = SchnorrGroup::fixed_256();
    let acc = AccumulatorParams::fixed_512();
    let x0_ladder = MontgomeryContext::new(acc.modulus()).expect("odd modulus");
    let mut rng = StdRng::seed_from_u64(28);
    let k = group.random_exponent(&mut rng);
    assert_eq!(group.pow_g(&k), group.pow(group.generator(), &k));
    for bits in [1_020, 1_152, 16_441] {
        let e = Ubig::random_bits(&mut rng, bits - 1) + (Ubig::one() << (bits - 1));
        assert_eq!(
            acc.power_of_start(&e),
            x0_ladder.modexp(acc.start(), &e),
            "{bits} bits"
        );
    }

    // A signature with a fixed secret and nonce is the one the ladder
    // made before the generator had a comb.
    let key = SchnorrKeyPair::from_secret(&group, Ubig::from_u64(0x139a_ef78));
    let signature = key.sign_with_nonce(b"glsn 139aef78 || deposit", &Ubig::from_u64(0x5eed));
    assert_eq!(
        (signature.e.to_hex(), signature.s.to_hex()),
        (E_BEFORE_THE_COMB.into(), S_BEFORE_THE_COMB.into())
    );
}

/// The challenge and response of the `sign_with_nonce` above, captured
/// on the commit before `pow_g` walked a comb.
const E_BEFORE_THE_COMB: &str = "2e95f80c2a33618ab0fab027bdce806726d2b83364e19ec0f7a1d89b12b3a504";
const S_BEFORE_THE_COMB: &str = "5462ba724e3e261732c840ed730d720fc98411d0e49a43b967c8b422c45728ed";

#[test]
fn crypto_sha256_hardware_path_matches_the_portable_reference() {
    // `digest` takes the CPU's SHA extensions where it has them;
    // `digest_portable` never does. Both must give the FIPS 180-4
    // vectors, and agree around the padding's 55/56/64-byte edges.
    let vectors: [(&[u8], &str); 3] = [
        (
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        ),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
    ];
    for (message, expected) in vectors {
        assert_eq!(sha256::to_hex(&sha256::digest(message)), expected);
        assert_eq!(sha256::to_hex(&sha256::digest_portable(message)), expected);
    }
    let data: Vec<u8> = (0..=255u8).cycle().take(300).collect();
    for len in [
        54, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128, 129, 183, 184, 192, 300,
    ] {
        let message = &data[..len];
        assert_eq!(
            sha256::digest(message),
            sha256::digest_portable(message),
            "{len} bytes"
        );
    }
}

#[test]
fn net_envelope_round_trips_and_rejects_a_flipped_byte() {
    let envelope = Envelope::new(
        SessionId(7),
        NodeId(1),
        NodeId(2),
        bytes::Bytes::copy_from_slice(b"ring relay payload"),
        SimTime::from_nanos(5),
        SimTime::from_nanos(9),
    );
    let wire = envelope.encode();
    let decoded = Envelope::decode(&wire).expect("round trip");
    assert_eq!(
        (decoded.session, decoded.from, decoded.to),
        (SessionId(7), NodeId(1), NodeId(2))
    );
    assert_eq!(decoded.payload, envelope.payload);
    assert!(decoded.is_intact());

    let mut flipped = wire.to_vec();
    *flipped.last_mut().expect("non-empty") ^= 0x01;
    assert!(Envelope::decode(&flipped).is_err(), "CRC must reject it");
}

#[test]
fn mpc_protocols_answer_alike_on_the_simulator_and_on_channels() {
    // The Figure 4 sets through ∩ₛ and a four-party Σₛ, each bound to a
    // session: the same code, seed and answers whichever transport the
    // session opens on.
    let sets: Vec<Vec<Vec<u8>>> = ["cde", "def", "efg"]
        .iter()
        .map(|set| set.bytes().map(|item| vec![item]).collect())
        .collect();
    let (ring, domain) = (Ring::canonical(3), CommutativeDomain::fixed_256());
    let parties: Vec<NodeId> = (0..4).map(NodeId).collect();
    let secrets = [10u64, 20, 30, 40].map(confidential_audit::bigint::F61::new);

    let simulator = SharedNet::new(SimNet::new(5, NetConfig::ideal()));
    let channels = ChannelNet::new(5);
    let transports: [&dyn Transport; 2] = [&simulator, &channels];
    let answers = transports.map(|transport| {
        let mut rng = StdRng::seed_from_u64(23);
        let ssi = SsiSession::new(
            Session::new(transport, SessionId(1)),
            &ring,
            &domain,
            NodeId(0),
        )
        .reveal(true)
        .run(&sets, &mut rng)
        .expect("∩ₛ runs");
        assert_eq!(ssi.common_items, Some(vec![b"e".to_vec()]));
        let sum = SumSession::new(
            Session::new(transport, SessionId(2)),
            &parties,
            3,
            NodeId(4),
        )
        .run(&secrets, &mut rng)
        .expect("Σₛ runs");
        assert_eq!(sum.total.value(), 100);
        // 3·2 relays + 3 collections; 4·3 shares + 4 publishes.
        assert_eq!((ssi.report.messages, sum.report.messages), (9, 16));
        (ssi.common_encrypted, ssi.report.bytes, sum.report.bytes)
    });
    assert_eq!(answers[0], answers[1], "simulator vs channels");
}

#[test]
fn mpc_sum_takes_exactly_its_two_rounds_of_simulator_time() {
    // A round's frames leave together: 12 shares, then 4 publications,
    // over 1 ms links is 2 ms — `elapsed == rounds × latency`.
    let link = LatencyModel::Fixed(SimTime::from_millis(1));
    let net = SharedNet::new(SimNet::new(5, NetConfig::ideal().with_latency(link)));
    let parties: Vec<NodeId> = (0..4).map(NodeId).collect();
    let secrets = [10u64, 20, 30, 40].map(confidential_audit::bigint::F61::new);
    let sum = SumSession::new(Session::root(&net), &parties, 3, NodeId(4))
        .run(&secrets, &mut StdRng::seed_from_u64(23))
        .expect("Σₛ runs");
    assert_eq!(sum.total.value(), 100);
    assert_eq!((sum.report.messages, sum.report.rounds), (16, 2));
    assert_eq!(sum.report.elapsed, SimTime::from_millis(2));
}

#[test]
fn logstore_journal_replays_batches_and_truncates_a_torn_tail() {
    let path = std::env::temp_dir().join(format!("dla-layer-smoke-{}.journal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let entries = vec![
        JournalEntry::Tombstone(Glsn(0x139aef)),
        JournalEntry::Blob {
            tag: 0x01,
            bytes: b"deposit".to_vec(),
        },
    ];
    let (mut journal, replayed) = Journal::open(&path).expect("creates");
    assert!(replayed.is_empty());
    journal.append_batch(&entries).expect("appends");
    drop(journal);
    let intact_len = std::fs::metadata(&path).expect("exists").len();

    let (mut journal, replayed) = Journal::open(&path).expect("reopens");
    assert_eq!(replayed, entries);
    // A crash mid-append: the last entry's frame is cut short.
    journal.append(&entries[1]).expect("appends");
    drop(journal);
    let torn_len = std::fs::metadata(&path).expect("exists").len() - 3;
    let file = std::fs::OpenOptions::new().write(true).open(&path);
    file.expect("opens").set_len(torn_len).expect("truncates");

    let (_, replayed) = Journal::open(&path).expect("a torn tail is not an error");
    assert_eq!(replayed, entries, "only the whole entries survive");
    assert_eq!(std::fs::metadata(&path).expect("exists").len(), intact_len);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn logstore_durable_store_restarts_equal_to_the_live_one() {
    let path = std::env::temp_dir().join(format!("dla-layer-smoke-{}.store", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut rng = StdRng::seed_from_u64(18);
    let group = SchnorrGroup::fixed_256();
    let user = SchnorrKeyPair::generate(&group, &mut rng);
    let ticket =
        TicketAuthority::new(&group, &mut rng).issue(user.public(), OperationSet::all(), &mut rng);
    let partition = Partition::paper_example(&Schema::paper_example());
    let records = paper_table1();
    let policy = EpochPolicy::new(records[0].glsn, 2);
    let observe = |store: &FragmentStore| {
        let fragments: Vec<_> = store.scan_all().cloned().collect();
        let manifests: Vec<_> = store.epoch_manifests().cloned().collect();
        (
            fragments,
            manifests,
            store.acl().len(),
            store.standby_count(),
        )
    };

    // write → standby → seal → restart: the one fixed sequence of the
    // property `crates/logstore/tests/restore_equivalence.rs` samples.
    let mut store = FragmentStore::restore_with_policy(1, &path, policy).expect("creates");
    for record in &records[..3] {
        let mut fragments = fragment(record, &partition);
        store.write(&ticket, fragments.remove(1)).expect("writes");
        store.store_standby(fragments.remove(0)).expect("holds");
    }
    store
        .materialize_partials(EpochId(0))
        .expect("materializes");
    store.seal_epoch(EpochId(0)).expect("seals");
    assert!(store
        .write(&ticket, fragment(&records[1], &partition).remove(1))
        .is_err());
    let live = observe(&store);
    drop(store);

    let restored = FragmentStore::restore(1, &path).expect("replays");
    assert_eq!(observe(&restored), live);
    assert_eq!(restored.len(), 3);
    assert!(restored.is_sealed(EpochId(0)) && restored.epoch_partials(EpochId(0)).is_some());
    let _ = std::fs::remove_file(&path);
}
