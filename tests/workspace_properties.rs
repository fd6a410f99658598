//! Cross-crate property tests: the distributed machinery must agree
//! with straightforward reference computations on randomized inputs.

use confidential_audit::audit::normal::normalize;
use confidential_audit::audit::parser::parse;
use confidential_audit::crypto::pohlig_hellman::CommutativeDomain;
use confidential_audit::logstore::fragment::{fragment, reassemble, Partition};
use confidential_audit::logstore::model::{AttrValue, Glsn, LogRecord};
use confidential_audit::logstore::schema::Schema;
use confidential_audit::mpc::{SsiSession, SumSession, UnionSession};
use confidential_audit::net::topology::Ring;
use confidential_audit::net::{NetConfig, NodeId, Session, SharedNet, SimNet};
use dla_bigint::F61;
use proptest::prelude::*;
use std::collections::BTreeSet;

fn arb_record() -> impl Strategy<Value = LogRecord> {
    (
        any::<u32>(),
        0i64..1000,
        0i64..100_000,
        "[a-z]{1,8}",
        prop::sample::select(vec!["U1", "U2", "U3"]),
        prop::sample::select(vec!["UDP", "TCP"]),
        0u64..2_000_000_000,
    )
        .prop_map(|(glsn, c1, c2, c3, id, protocol, time)| {
            LogRecord::new(Glsn(u64::from(glsn)))
                .with("c1", AttrValue::Int(c1))
                .with("c2", AttrValue::Fixed2(c2))
                .with("c3", AttrValue::text(&c3))
                .with("id", AttrValue::text(id))
                .with("protocol", AttrValue::text(protocol))
                .with("time", AttrValue::Time(time))
                .with("tid", AttrValue::text("T1"))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fragmentation_round_trips_for_every_partition_width(
        record in arb_record(),
        n in 1usize..=7,
    ) {
        let schema = Schema::paper_example();
        let partition = Partition::round_robin(&schema, n).unwrap();
        let frags = fragment(&record, &partition);
        prop_assert_eq!(frags.len(), n);
        prop_assert_eq!(reassemble(&frags).unwrap(), record);
    }

    #[test]
    fn normalization_preserves_semantics(record in arb_record()) {
        let schema = Schema::paper_example();
        for q in [
            "c1 > 500 OR (protocol = 'TCP' AND c2 < 50000.00)",
            "NOT (c1 <= 500 AND NOT protocol = 'UDP')",
            "(id = 'U1' OR id = 'U2') AND NOT c3 = 'zzz'",
        ] {
            let parsed = parse(q, &schema).unwrap();
            let normalized = normalize(&parsed);
            prop_assert_eq!(
                parsed.eval(&record).unwrap(),
                normalized.eval(&record).unwrap(),
                "query {} diverged", q
            );
        }
    }

    #[test]
    fn secure_sum_equals_plain_sum(values in prop::collection::vec(0u64..1_000_000, 2..8)) {
        let n = values.len();
        let net = SharedNet::new(SimNet::new(n + 1, NetConfig::ideal()));
        let parties: Vec<NodeId> = (0..n).map(NodeId).collect();
        let inputs: Vec<F61> = values.iter().map(|&v| F61::new(v)).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        use rand::SeedableRng;
        let _ = &mut rng;
        let outcome = SumSession::new(Session::root(&net), &parties, n / 2 + 1, NodeId(n))
            .run(&inputs, &mut rng)
            .unwrap();
        prop_assert_eq!(outcome.total, F61::new(values.iter().sum()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn ssi_equals_plain_intersection(
        seed in 0u64..1000,
        sets in prop::collection::vec(
            prop::collection::btree_set("[a-f]{1,3}", 0..6),
            2..4,
        ),
    ) {
        use rand::SeedableRng;
        let n = sets.len();
        let net = SharedNet::new(SimNet::new(n, NetConfig::ideal()));
        let ring = Ring::canonical(n);
        let domain = CommutativeDomain::fixed_256();
        let inputs: Vec<Vec<Vec<u8>>> = sets
            .iter()
            .map(|s| s.iter().map(|e| e.as_bytes().to_vec()).collect())
            .collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let outcome = SsiSession::new(Session::root(&net), &ring, &domain, NodeId(0))
            .reveal(true)
            .run(&inputs, &mut rng)
            .unwrap();
        let expect: BTreeSet<Vec<u8>> = sets
            .iter()
            .skip(1)
            .fold(
                sets[0].iter().map(|s| s.as_bytes().to_vec()).collect(),
                |acc: BTreeSet<Vec<u8>>, s| {
                    let cur: BTreeSet<Vec<u8>> =
                        s.iter().map(|e| e.as_bytes().to_vec()).collect();
                    acc.intersection(&cur).cloned().collect()
                },
            );
        let got: BTreeSet<Vec<u8>> =
            outcome.common_items.unwrap().into_iter().collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn union_equals_plain_union(
        seed in 0u64..1000,
        sets in prop::collection::vec(
            prop::collection::btree_set("[a-f]{1,3}", 0..6),
            2..4,
        ),
    ) {
        use rand::SeedableRng;
        let n = sets.len();
        let net = SharedNet::new(SimNet::new(n, NetConfig::ideal()));
        let ring = Ring::canonical(n);
        let domain = CommutativeDomain::fixed_256();
        let inputs: Vec<Vec<Vec<u8>>> = sets
            .iter()
            .map(|s| s.iter().map(|e| e.as_bytes().to_vec()).collect())
            .collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let outcome = UnionSession::new(Session::root(&net), &ring, &domain, NodeId(0))
            .run(&inputs, &mut rng)
            .unwrap();
        let expect: BTreeSet<Vec<u8>> = sets
            .iter()
            .flat_map(|s| s.iter().map(|e| e.as_bytes().to_vec()))
            .collect();
        let got: BTreeSet<Vec<u8>> = outcome.items.into_iter().collect();
        prop_assert_eq!(got, expect);
    }
}
