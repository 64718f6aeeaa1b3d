//! Release-mode scale smoke test for the streaming estimation path.
//!
//! Drives >= 1M observations through the full wire path
//! (`ChannelServer::receive` -> `Coordinator::ingest_report`) and
//! asserts the resident estimation state is O(zones): the sketch
//! footprint measured early in the run (once every zone has been
//! touched) is byte-for-byte the footprint at the end, and it equals
//! `zones_tracked * per_zone_state_bytes` exactly.
//!
//! A second, nation-scale smoke drives one million distinct clients
//! over a >= 100k-zone index through a 4-way [`ShardSet`] and asserts
//! the merged state is bitwise identical to a single coordinator.
//!
//! Run with `cargo test --release -p wiscape-bench --test scale_smoke`;
//! under a debug profile the tests are compiled but ignored (the
//! 1M-fold loops are release-speed work).

use wiscape_channel::codec::{encode, ReportMsg, WireMessage};
use wiscape_channel::{ChannelServer, CommitPolicy};
use wiscape_core::{
    state_fingerprint, Coordinator, CoordinatorConfig, CoordinatorHandle, MeasurementTask,
    SampleReport, ShardSet, ZoneIndex,
};
use wiscape_geo::{BoundingBox, GeoPoint};
use wiscape_mobility::ClientId;
use wiscape_simcore::{SimTime, StreamRng};
use wiscape_simnet::{NetworkId, TransportKind};

const SAMPLES_PER_REPORT: usize = 20;
const TOTAL_OBSERVATIONS: usize = 1_000_000;
const CHECKPOINT_OBSERVATIONS: usize = 100_000;

fn report_for(i: u64, index: &ZoneIndex, origin: GeoPoint) -> SampleReport {
    // 128 distinct zones x 2 networks, cycled; values vary per report
    // so the folds exercise real state updates, not a constant path.
    let k = i % 128;
    let p = origin.destination(k as f64 * 0.35, 300.0 + 55.0 * k as f64);
    let zone = index.zone_of(&p);
    let network = if i.is_multiple_of(2) {
        NetworkId::NetA
    } else {
        NetworkId::NetB
    };
    SampleReport {
        client: ClientId(u32::try_from(i % 16).expect("small")),
        task: MeasurementTask {
            zone,
            network,
            kind: TransportKind::Udp,
            n_packets: u32::try_from(SAMPLES_PER_REPORT).expect("small"),
            packet_bytes: 1200,
        },
        zone,
        t: SimTime::at(1, 9.0),
        samples: (0..SAMPLES_PER_REPORT)
            .map(|s| 800.0 + (s as f64) + (i % 97) as f64)
            .collect(),
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "1M-observation loop; run with --release")]
fn million_observations_hold_o_zones_memory() {
    let origin = GeoPoint::new(39.0, -77.0).expect("valid origin");
    let bounds = BoundingBox::around(origin, 8000.0);
    let index = ZoneIndex::new(bounds, 200.0).expect("valid index");
    let mut server = ChannelServer::new(
        Coordinator::new(index.clone(), CoordinatorConfig::default()),
        CommitPolicy::Immediate,
        StreamRng::new(11).fork("deployment"),
        vec![NetworkId::NetA, NetworkId::NetB],
    );
    let now = SimTime::at(1, 9.0);

    let total_reports = TOTAL_OBSERVATIONS / SAMPLES_PER_REPORT;
    let checkpoint_reports = CHECKPOINT_OBSERVATIONS / SAMPLES_PER_REPORT;
    let mut sketch_bytes_at_checkpoint = 0usize;
    for i in 0..total_reports as u64 {
        let frame = encode(&WireMessage::Report(ReportMsg {
            seq: i,
            report: report_for(i, &index, origin),
        }));
        let replies = server.receive(&frame, now);
        assert_eq!(replies.len(), 1, "every report is acked");
        if i + 1 == checkpoint_reports as u64 {
            sketch_bytes_at_checkpoint = server.sketch_bytes();
        }
    }

    let meters = server.meters();
    assert_eq!(meters.reports_ingested, total_reports as u64);
    assert_eq!(meters.reports_rejected, 0);
    assert_eq!(server.staged_len(), 0, "Immediate policy never stages");

    // Every zone is touched well before the checkpoint (128 zone cycle
    // vs 5k reports), so the footprint must already be final there...
    assert!(sketch_bytes_at_checkpoint > 0);
    assert_eq!(
        server.sketch_bytes(),
        sketch_bytes_at_checkpoint,
        "sketch footprint grew between {CHECKPOINT_OBSERVATIONS} and {TOTAL_OBSERVATIONS} \
         observations: retention is O(samples), not O(zones)"
    );
    // ...and it is exactly the per-cell constant times the cell count.
    assert_eq!(
        server.sketch_bytes(),
        server.zones_tracked() * Coordinator::per_zone_state_bytes()
    );
}

const NATION_REPORTS: usize = 1_000_000;
const NATION_SAMPLES: usize = 2;
const NATION_BATCH: usize = 8192;

/// Nation-scale topology smoke: a >= 100k-zone index, one million
/// distinct clients reporting, folded through a 4-shard `ShardSet`
/// with the parallel batch path — and the merged state is bitwise
/// identical to one coordinator folding the same stream serially.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "1M-client nation-scale loop; run with --release"
)]
fn nation_scale_sharded_merge_matches_single() {
    let origin = GeoPoint::new(39.0, -77.0).expect("valid origin");
    // 72 km around the center at the paper's 250 m default zone radius
    // puts the index well past the 100k-zone nation-scale floor.
    let index = ZoneIndex::around(origin, 72_000.0).expect("valid index");
    assert!(
        index.zone_count() >= 100_000,
        "nation-scale index holds only {} zones",
        index.zone_count()
    );
    let zones: Vec<_> = index.zones().collect();
    let t = SimTime::at(1, 9.0);

    // One distinct client per report (>= 1M clients total), striding
    // the zone list with a prime so every zone is touched.
    let make = |i: usize| -> SampleReport {
        let zone = zones[i.wrapping_mul(7919) % zones.len()];
        let network = if i.is_multiple_of(2) {
            NetworkId::NetA
        } else {
            NetworkId::NetB
        };
        SampleReport {
            client: ClientId(u32::try_from(i).expect("fits u32")),
            task: MeasurementTask {
                zone,
                network,
                kind: TransportKind::Udp,
                n_packets: u32::try_from(NATION_SAMPLES).expect("small"),
                packet_bytes: 1200,
            },
            zone,
            t,
            samples: (0..NATION_SAMPLES)
                .map(|s| 700.0 + (s + i % 211) as f64)
                .collect(),
        }
    };

    let mut single = Coordinator::new(index.clone(), CoordinatorConfig::default());
    let mut sharded = ShardSet::new(index.clone(), CoordinatorConfig::default(), 4);
    let mut batch: Vec<SampleReport> = Vec::with_capacity(NATION_BATCH);
    for i in 0..NATION_REPORTS {
        batch.push(make(i));
        if batch.len() == NATION_BATCH || i + 1 == NATION_REPORTS {
            for r in &batch {
                let _ = single.ingest_report(r);
            }
            sharded.ingest_batch(&batch);
            batch.clear();
        }
    }
    let end = SimTime::at(1, 10.0);
    single.flush(end);
    sharded.flush_tagged(end);

    assert!(
        single.zones_tracked() >= 100_000,
        "stream touched only {} cells",
        single.zones_tracked()
    );
    assert_eq!(
        state_fingerprint(&sharded.merged_state()),
        state_fingerprint(&single.export_state()),
        "4-shard merged state diverged from the single coordinator at nation scale"
    );
}
