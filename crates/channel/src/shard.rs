//! Sharded coordinator endpoint: the single-server wire path over one
//! shard router.
//!
//! [`ShardedChannelServer`] is a [`ChannelServer`] whose coordinator
//! handle is a [`ShardSet`]. Decode, `(client, seq)` dedup, watermark
//! staging and acks are the single server's code, run once at the
//! front; the `ShardSet` routes each committed operation to the shard
//! owning its zone, keeps the alert merge, and serves the merged view.
//! Dedup and staging are therefore global: a retry straddling a
//! rebalance still dedups, and reports settle in the single server's
//! `(t, client, seq)` order whichever shard they land on.
//!
//! **Determinism argument.** The endpoint makes the same handle calls
//! in the same order as a single server fed the same frames, including
//! the task coins, which the one front draws. The router's per-cell
//! argument (see `wiscape_core::shard`) then makes the merged state
//! bitwise-identical for any shard count, any owner permutation and
//! any mid-stream rebalance.

use wiscape_core::{
    Coordinator, CoordinatorConfig, CoordinatorHandle, RebalanceMove, ShardAssignment, ShardSet,
    ZoneId, ZoneIndex,
};
use wiscape_simcore::{SimDuration, SimTime, StreamRng};
use wiscape_simnet::NetworkId;

use crate::server::{ChannelServer, CommitPolicy, ServerEndpoint, ServerMeters};

/// The wire endpoint over N zone-range shards: a [`ChannelServer`]
/// over one [`ShardSet`]. See the module docs for the determinism
/// argument; its [`ServerEndpoint::meters`] are the front server's,
/// exactly the meters a single server would report.
#[derive(Debug)]
pub struct ShardedChannelServer<C: CoordinatorHandle = Coordinator>(ChannelServer<ShardSet<C>>);

/// One shard's read-only view, for topology reports.
#[derive(Debug, Clone, Copy)]
pub struct ShardServer<'a> {
    coordinator: &'a Coordinator,
    reports_ingested: u64,
}

impl<'a> ShardServer<'a> {
    /// The shard's coordinator.
    pub fn coordinator(&self) -> &'a Coordinator {
        self.coordinator
    }

    /// The shard's meters: `reports_ingested` counts the reports this
    /// shard folded. Every other counter is the endpoint's and reads 0
    /// here.
    pub fn meters(&self) -> ServerMeters {
        ServerMeters {
            reports_ingested: self.reports_ingested,
            ..ServerMeters::default()
        }
    }
}

impl<C: CoordinatorHandle> ShardedChannelServer<C> {
    /// Builds the endpoint over `coordinators` (one per shard) and their
    /// zone-range `assignment`. `index` and `config` are the ones every
    /// coordinator was built with. `stream` is the deployment-rooted
    /// fork a single server would get, and `policy` governs the one
    /// dedup/staging front.
    pub fn new(
        coordinators: Vec<C>,
        assignment: ShardAssignment,
        index: ZoneIndex,
        config: CoordinatorConfig,
        policy: CommitPolicy,
        stream: StreamRng,
        networks: Vec<NetworkId>,
    ) -> Self {
        let router = ShardSet::from_handles(coordinators, assignment, index, config);
        Self(ChannelServer::new(router, policy, stream, networks))
    }

    fn router(&self) -> &ShardSet<C> {
        self.0.handle()
    }

    /// The zone-range ownership map.
    pub fn assignment(&self) -> &ShardAssignment {
        self.router().assignment()
    }

    /// Per-shard views, in shard order.
    pub fn servers(&self) -> Vec<ShardServer<'_>> {
        let router = self.router();
        router
            .shards()
            .iter()
            .zip(router.shard_reports())
            .map(|(c, &reports_ingested)| ShardServer {
                coordinator: c.as_coordinator(),
                reports_ingested,
            })
            .collect()
    }

    /// Mutable per-shard coordinator handles, in shard order (for
    /// WAL-backed shards: shutdown, meters, forced snapshots).
    pub fn handles_mut(&mut self) -> impl Iterator<Item = &mut C> + '_ {
        self.0.handle_mut().shards_mut().iter_mut()
    }

    /// Total distinct `(client, seq)` sequences ever accepted (one
    /// seen-set for all shards, so the invariant holds across
    /// rebalances).
    pub fn unique_seqs(&self) -> u64 {
        self.0.unique_seqs()
    }

    /// Reports staged awaiting the watermark.
    pub fn staged_len(&self) -> usize {
        self.0.staged_len()
    }

    /// Moves the zone range `[mv.lo, mv.hi]` between shards; see
    /// [`ShardSet::rebalance`].
    pub fn rebalance(&mut self, mv: &RebalanceMove) -> usize {
        self.0.handle_mut().rebalance(mv)
    }

    /// Re-merges the shards into the merged view; see
    /// [`ShardSet::refresh_merged`].
    pub fn refresh_merged(&mut self) {
        self.0.handle_mut().refresh_merged();
    }
}

impl<C: CoordinatorHandle> ServerEndpoint for ShardedChannelServer<C> {
    fn receive(&mut self, bytes: &[u8], now: SimTime) -> Vec<Vec<u8>> {
        self.0.receive(bytes, now)
    }

    fn drain(&mut self, end: SimTime) {
        self.0.drain(end);
    }

    fn meters(&self) -> ServerMeters {
        self.0.meters()
    }

    fn coordinator(&self) -> &Coordinator {
        self.0.coordinator()
    }

    fn set_zone_quota(&mut self, zone: ZoneId, network: NetworkId, quota: u32) {
        ServerEndpoint::set_zone_quota(&mut self.0, zone, network, quota);
    }

    fn set_zone_epoch(&mut self, zone: ZoneId, network: NetworkId, epoch: SimDuration) {
        ServerEndpoint::set_zone_epoch(&mut self.0, zone, network, epoch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{encode, ReportMsg, WireMessage};
    use wiscape_core::{state_fingerprint, MeasurementTask, SampleReport};
    use wiscape_geo::GeoPoint;
    use wiscape_mobility::ClientId;
    use wiscape_simnet::TransportKind;

    fn center() -> GeoPoint {
        GeoPoint::new(43.0731, -89.4012).unwrap()
    }

    fn index() -> ZoneIndex {
        ZoneIndex::around(center(), 5000.0).unwrap()
    }

    fn single() -> ChannelServer {
        ChannelServer::new(
            Coordinator::new(index(), CoordinatorConfig::default()),
            CommitPolicy::Immediate,
            StreamRng::new(5).fork("deployment"),
            vec![NetworkId::NetB],
        )
    }

    fn sharded(n: usize) -> ShardedChannelServer {
        let idx = index();
        let coords = (0..n)
            .map(|_| Coordinator::new(idx.clone(), CoordinatorConfig::default()))
            .collect();
        let assignment = ShardAssignment::even(&idx, n);
        ShardedChannelServer::new(
            coords,
            assignment,
            idx,
            CoordinatorConfig::default(),
            CommitPolicy::Immediate,
            StreamRng::new(5).fork("deployment"),
            vec![NetworkId::NetB],
        )
    }

    fn report_frame(zone: ZoneId, client: u32, seq: u64, t: SimTime, v: f64) -> Vec<u8> {
        encode(&WireMessage::Report(ReportMsg {
            seq,
            report: SampleReport {
                client: ClientId(client),
                task: MeasurementTask {
                    zone,
                    network: NetworkId::NetB,
                    kind: TransportKind::Udp,
                    n_packets: 1,
                    packet_bytes: 100,
                },
                zone,
                t,
                samples: vec![v],
            },
        }))
    }

    /// Drives an identical report stream over zones spread across the
    /// whole index into a single server and an N-sharded router; the
    /// merged state must fingerprint equal and the meters must match.
    #[test]
    fn sharded_receive_matches_single_bitwise() {
        let idx = index();
        let zones: Vec<ZoneId> = idx.zones().collect();
        for n in [1usize, 2, 4] {
            let mut one = single();
            let mut many = sharded(n);
            for (seq, (i, &zone)) in zones.iter().enumerate().step_by(3).enumerate() {
                let t = SimTime::from_secs(i64::try_from(i).unwrap() * 30);
                let v = 100.0 + 13.0 * (i as f64);
                let frame = report_frame(zone, 1 + (i as u32 % 5), seq as u64, t, v);
                // Duplicate every fourth frame: dedup must hold globally.
                let a = one.receive(&frame, t);
                let b = ServerEndpoint::receive(&mut many, &frame, t);
                assert_eq!(a, b, "reply frames must match (n={n})");
                if i % 4 == 0 {
                    one.receive(&frame, t);
                    ServerEndpoint::receive(&mut many, &frame, t);
                }
            }
            let end = SimTime::from_secs(100_000);
            one.drain(end);
            ServerEndpoint::drain(&mut many, end);
            assert_eq!(
                state_fingerprint(&one.coordinator().export_state()),
                state_fingerprint(&ServerEndpoint::coordinator(&many).export_state()),
                "merged state must be bitwise identical (n={n})"
            );
            assert_eq!(
                one.meters(),
                ServerEndpoint::meters(&many),
                "aggregated meters must equal the single server's (n={n})"
            );
            assert_eq!(one.unique_seqs(), many.unique_seqs());
        }
    }

    /// Quota tuned on a zone that a rebalance then moves: the decision
    /// must have landed on exactly one shard and must survive the
    /// migration — the merged state stays identical to the single run.
    #[test]
    fn quota_routes_to_owner_and_survives_rebalance() {
        let idx = index();
        let zones: Vec<ZoneId> = idx.zones().collect();
        let mid = zones.len() / 2;
        let boundary_zone = match zones.get(mid) {
            Some(z) => *z,
            None => panic!("index has zones"),
        };
        let mut one = single();
        let mut many = sharded(2);

        ServerEndpoint::set_zone_quota(&mut one, boundary_zone, NetworkId::NetB, 77);
        ServerEndpoint::set_zone_quota(&mut many, boundary_zone, NetworkId::NetB, 77);
        // Exactly one shard materialized the cell.
        let cells: usize = many
            .servers()
            .iter()
            .map(|s| s.coordinator().export_state().cells.len())
            .sum();
        assert_eq!(cells, 1, "quota must land on exactly one shard");

        let t = SimTime::from_secs(60);
        let frame = report_frame(boundary_zone, 9, 0, t, 512.0);
        one.receive(&frame, t);
        ServerEndpoint::receive(&mut many, &frame, t);

        // Move the upper half of shard 1's range back onto shard 0 (or
        // wherever the seeded move lands) and keep streaming.
        let mv = RebalanceMove::seeded(33, &idx, many.assignment());
        let mv = match mv {
            Some(mv) => mv,
            None => panic!("seeded move exists for 2 shards"),
        };
        many.rebalance(&mv);

        let t2 = SimTime::from_secs(120);
        let frame2 = report_frame(boundary_zone, 9, 1, t2, 498.0);
        one.receive(&frame2, t2);
        ServerEndpoint::receive(&mut many, &frame2, t2);
        // Retry of seq 0 after the rebalance: still a duplicate.
        ServerEndpoint::receive(&mut many, &frame, t2);
        assert_eq!(ServerEndpoint::meters(&many).duplicates_dropped, 1);

        let end = SimTime::from_secs(100_000);
        one.drain(end);
        ServerEndpoint::drain(&mut many, end);
        assert_eq!(
            state_fingerprint(&one.coordinator().export_state()),
            state_fingerprint(&ServerEndpoint::coordinator(&many).export_state()),
            "tuned + rebalanced sharded state must match single"
        );
    }
}
