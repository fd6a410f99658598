//! A 1/32-size smoke of all three workloads, untraced and traced: zero
//! failed ops and every metric present. The numbers of a smoke run are
//! NOT COMPARABLE with the benchmark's and are never written anywhere.
//!
//! The mesh workloads spawn real `dla-node` processes: run these tests
//! through `benchmark/run.sh --test`, which builds the binary and sets
//! `DLA_NODE_BIN`.

use crate::env::Scratch;
use crate::probes::{per_layer, Effort};
use crate::report::end_to_end;
use crate::spec::{Workload, END_TO_END, PER_LAYER, REFERENCE_SECONDS};
use crate::trace::Tracer;
use crate::workloads::{run, Sizes};

const SMOKE_DIVISOR: usize = 32;

fn smoke(workload: Workload) {
    let scratch = Scratch::new().expect("benchmark/out is writable");
    let sizes = Sizes::of(workload, REFERENCE_SECONDS, SMOKE_DIVISOR);

    let untraced = run(workload, 12, sizes, &scratch, &mut None).expect("untraced smoke runs");
    assert_eq!(
        untraced.samples.failed, 0,
        "smoke (non-comparable) failures: {:?}",
        untraced.samples.failures
    );
    assert!(untraced.samples.attempted > 0);
    let metrics = end_to_end(&untraced);
    assert_eq!(metrics.len(), END_TO_END.len());
    for metric in &metrics {
        assert!(
            metric.value.is_finite() && metric.value > 0.0,
            "smoke (non-comparable): {} = {} on {}",
            metric.name,
            metric.value,
            workload.name()
        );
    }

    let mut tracer = Some(Tracer::install());
    let traced = run(workload, 12, sizes, &scratch, &mut tracer).expect("traced smoke runs");
    assert_eq!(traced.samples.failed, 0, "{:?}", traced.samples.failures);
    let chrome = tracer.as_mut().expect("installed").chrome_json();
    assert!(
        chrome.contains("\"cat\": \"harness\""),
        "harness spans were recorded"
    );
    drop(tracer);
    let reference = untraced.samples.attempted as f64 / untraced.samples.op_seconds();
    let layers = per_layer(&traced, reference, &scratch, Effort::smoke()).expect("probes run");
    assert_eq!(layers.metrics.len(), PER_LAYER.len());
    assert_eq!(layers.layer_map.len(), 3);
    for (name, value) in layers.metrics {
        assert!(
            value.is_finite(),
            "smoke (non-comparable): {name} = {value}"
        );
    }
}

#[test]
fn query_scan_smoke() {
    smoke(Workload::QueryScan);
}

#[test]
fn mesh_small_ops_smoke() {
    smoke(Workload::MeshSmallOps);
}

#[test]
fn mixed_audit_smoke() {
    smoke(Workload::MixedAudit);
}

/// The harness rebuilds the trail item itself (the program's own
/// builder is crate-private); it must be the program's, byte for byte.
#[test]
fn trail_items_are_the_programs() {
    use crate::stages::{cluster_config, records, trail_item, Trail};
    let mut trail = Trail::new(cluster_config(3, None)).expect("cluster builds");
    trail.preload(&records(3, 8)).expect("loads");
    let theirs = dla_audit::deploy::fragments(&trail.cluster, 4);
    assert_eq!(theirs.len(), 8);
    for (glsn, _, item) in theirs {
        let glsn = dla_logstore::model::Glsn(glsn);
        let ours = trail_item(glsn, trail.cluster.deposit(glsn).expect("logged"));
        assert_eq!(ours, item);
    }
}
