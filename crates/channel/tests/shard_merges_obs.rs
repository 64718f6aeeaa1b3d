//! `shard/merges` counts one per merge: a sharded endpoint's drain
//! merges the shards once, so it adds exactly 1.
//!
//! The obs registry is process-global, so this is the only test in its
//! binary: no other test can bump the counter between the two reads.

use wiscape_channel::codec::{encode, ReportMsg, WireMessage};
use wiscape_channel::{CommitPolicy, ServerEndpoint, ShardedChannelServer};
use wiscape_core::{
    Coordinator, CoordinatorConfig, MeasurementTask, SampleReport, ShardAssignment, ZoneId,
    ZoneIndex,
};
use wiscape_geo::GeoPoint;
use wiscape_mobility::ClientId;
use wiscape_simcore::{SimTime, StreamRng};
use wiscape_simnet::{NetworkId, TransportKind};

fn report_frame(zone: ZoneId, seq: u64, t: SimTime) -> Vec<u8> {
    encode(&WireMessage::Report(ReportMsg {
        seq,
        report: SampleReport {
            client: ClientId(1),
            task: MeasurementTask {
                zone,
                network: NetworkId::NetB,
                kind: TransportKind::Udp,
                n_packets: 1,
                packet_bytes: 100,
            },
            zone,
            t,
            samples: vec![100.0 + seq as f64],
        },
    }))
}

#[test]
fn one_sharded_drain_counts_one_merge() {
    wiscape_obs::set_enabled(true);
    let index = ZoneIndex::around(GeoPoint::new(43.0731, -89.4012).unwrap(), 3000.0).unwrap();
    let config = CoordinatorConfig::default();
    let coords = (0..3)
        .map(|_| Coordinator::new(index.clone(), config.clone()))
        .collect();
    let mut server = ShardedChannelServer::new(
        coords,
        ShardAssignment::even(&index, 3),
        index.clone(),
        config,
        CommitPolicy::Immediate,
        StreamRng::new(5).fork("deployment"),
        vec![NetworkId::NetB],
    );
    for (seq, zone) in index.zones().step_by(5).enumerate() {
        let t = SimTime::from_secs(60 * seq as i64);
        server.receive(&report_frame(zone, seq as u64, t), t);
    }
    let merges = wiscape_obs::counter("shard/merges");
    let before = merges.get();
    server.drain(SimTime::from_secs(100_000));
    assert_eq!(merges.get() - before, 1, "one drain is one merge");
    wiscape_obs::set_enabled(false);
}
