//! Restore ≡ live: whatever sequence of durable operations a store has
//! been through — accepted or refused — replaying its journal rebuilds
//! a store no caller can tell from the one that was dropped, and doing
//! so twice changes nothing.

use dla_crypto::schnorr::{SchnorrGroup, SchnorrKeyPair};
use dla_logstore::acl::{OperationSet, Ticket, TicketAuthority};
use dla_logstore::epoch::{EpochId, EpochPolicy};
use dla_logstore::fragment::{fragment, Fragment, Partition};
use dla_logstore::model::{AttrValue, Glsn, LogRecord};
use dla_logstore::schema::Schema;
use dla_logstore::store::FragmentStore;
use proptest::prelude::*;
use rand::SeedableRng;

/// The store under test is node 1 of the paper partition.
const NODE: usize = 1;
const EPOCH_LEN: u64 = 4;
const GLSNS: u64 = 3 * EPOCH_LEN;

#[derive(Clone, Debug)]
enum Op {
    Write {
        glsn: u64,
        variant: i64,
    },
    Delete {
        glsn: u64,
    },
    Standby {
        origin: usize,
        glsn: u64,
        variant: i64,
    },
    Adopt {
        origin: usize,
        glsn: u64,
        variant: i64,
    },
    Promote {
        origin: usize,
    },
    Materialize {
        epoch: u64,
    },
    Seal {
        epoch: u64,
    },
}

fn op() -> impl Strategy<Value = Op> {
    let glsn = 0..GLSNS;
    let epoch = 0..GLSNS / EPOCH_LEN;
    // Two variants per glsn: re-ships are sometimes byte-identical,
    // sometimes a conflicting copy.
    let variant = 0i64..2;
    // The other nodes whose copies node 1 may hold: 0 and 2.
    let origin = 0usize..2;
    prop_oneof![
        (glsn.clone(), variant.clone()).prop_map(|(glsn, variant)| Op::Write { glsn, variant }),
        (glsn.clone(), variant.clone()).prop_map(|(glsn, variant)| Op::Write { glsn, variant }),
        glsn.clone().prop_map(|glsn| Op::Delete { glsn }),
        (origin.clone(), glsn.clone(), variant.clone()).prop_map(|(origin, glsn, variant)| {
            Op::Standby {
                origin: 2 * origin,
                glsn,
                variant,
            }
        }),
        (origin.clone(), glsn, variant).prop_map(|(origin, glsn, variant)| Op::Adopt {
            origin: 2 * origin,
            glsn,
            variant,
        }),
        origin.prop_map(|origin| Op::Promote { origin: 2 * origin }),
        epoch.clone().prop_map(|epoch| Op::Materialize { epoch }),
        epoch.prop_map(|epoch| Op::Seal { epoch }),
    ]
}

fn fragment_of(node: usize, glsn: u64, variant: i64) -> Fragment {
    let schema = Schema::paper_example();
    let record = LogRecord::new(Glsn(glsn))
        .with("time", AttrValue::Time(100 + glsn + variant as u64))
        .with("id", AttrValue::text(["U1", "U2"][(glsn % 2) as usize]))
        .with("protocol", AttrValue::text("UDP"))
        .with("tid", AttrValue::text("T1"))
        .with("c1", AttrValue::Int(20 + variant))
        .with("c2", AttrValue::Fixed2(2345 + 100 * variant))
        .with("c3", AttrValue::text("sig"));
    fragment(&record, &Partition::paper_example(&schema)).remove(node)
}

fn ticket() -> Ticket {
    let group = SchnorrGroup::fixed_256();
    let mut rng = rand::rngs::StdRng::seed_from_u64(18);
    let mut authority = TicketAuthority::new(&group, &mut rng);
    let user = SchnorrKeyPair::generate(&group, &mut rng);
    authority.issue(user.public(), OperationSet::all(), &mut rng)
}

/// Everything a caller can observe of a store.
fn observed(store: &FragmentStore) -> impl PartialEq + std::fmt::Debug {
    let epochs = 0..=GLSNS / EPOCH_LEN;
    let acl: Vec<_> = store
        .acl()
        .iter()
        .map(|(id, ops, glsns)| (id.clone(), *ops, glsns.clone()))
        .collect();
    (
        store.scan_all().cloned().collect::<Vec<_>>(),
        store.epoch_manifests().cloned().collect::<Vec<_>>(),
        epochs
            .map(|e| store.epoch_partials(EpochId(e)).cloned())
            .collect::<Vec<_>>(),
        acl,
        (store.len(), store.standby_count(), store.adopted_count()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn a_restored_store_equals_the_store_that_was_dropped(
        ops in prop::collection::vec(op(), 1..40),
    ) {
        let path = std::env::temp_dir().join(format!(
            "dla-restore-equivalence-{}.journal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let policy = EpochPolicy::new(Glsn(0), EPOCH_LEN);
        let ticket = ticket();

        let mut store = FragmentStore::restore_with_policy(NODE, &path, policy).unwrap();
        for op in &ops {
            // A refused operation must leave no trace, so its verdict
            // is not the property's business.
            let before = observed(&store);
            let refused = match op.clone() {
                Op::Write { glsn, variant } => {
                    store.write(&ticket, fragment_of(NODE, glsn, variant)).is_err()
                }
                Op::Delete { glsn } => store.delete(&ticket, Glsn(glsn)).is_err(),
                Op::Standby { origin, glsn, variant } => {
                    store.store_standby(fragment_of(origin, glsn, variant)).is_err()
                }
                Op::Adopt { origin, glsn, variant } => {
                    store.adopt(fragment_of(origin, glsn, variant)).is_err()
                }
                Op::Promote { origin } => store.promote_standby(origin).is_err(),
                Op::Materialize { epoch } => store.materialize_partials(EpochId(epoch)).is_err(),
                Op::Seal { epoch } => store.seal_epoch(EpochId(epoch)).is_err(),
            };
            // `promote_standby` adopts one copy at a time and may stop
            // at a conflicting one; every other refusal is atomic.
            if refused && !matches!(op, Op::Promote { .. }) {
                prop_assert!(before == observed(&store), "{:?} was refused but left a trace", op);
            }
            for manifest in store.epoch_manifests() {
                if let Some(cached) = &manifest.partials {
                    prop_assert_eq!(cached, &store.compute_partials(manifest.epoch));
                }
            }
        }
        let live = observed(&store);
        drop(store);
        let journal = std::fs::read(&path).unwrap();

        let restored = FragmentStore::restore_with_policy(NODE, &path, policy).unwrap();
        prop_assert!(live == observed(&restored), "restored {:?}\nlive {:?}", observed(&restored), live);
        drop(restored);
        // Replay re-records nothing: a second restore reads the same
        // bytes and lands in the same place.
        prop_assert_eq!(&journal, &std::fs::read(&path).unwrap());
        let again = FragmentStore::restore_with_policy(NODE, &path, policy).unwrap();
        prop_assert!(live == observed(&again));
        let _ = std::fs::remove_file(&path);
    }
}
