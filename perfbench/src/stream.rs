//! Seeded generator of pre-encoded client transmissions.
//!
//! A *transmission* is what one client puts on the uplink in one
//! check-in round: its check-in frame followed by one 20-sample report
//! frame per network, plus (on lossy workloads) late duplicate copies
//! of reports it sent in earlier rounds. Frames are built with the
//! public `codec::encode`, so the bytes are exactly what a real client
//! sends.
//!
//! The generator produces one round at a time into a single buffer, so
//! pre-encoded input never dominates the benchmark's memory. It also
//! keeps exact books on what it injected ([`Expect`]): corrupted
//! transmissions, duplicate copies that a correct server must drop,
//! and the unique reports and samples that must reach the map.

use rand::Rng;
use rand_chacha::ChaCha8Rng;
use wiscape_channel::codec::{encode, CheckinRequest, ReportMsg, WireMessage};
use wiscape_core::{CoordinatorConfig, MeasurementTask, SampleReport, ZoneId, ZoneIndex};
use wiscape_geo::{BoundingBox, GeoPoint};
use wiscape_mobility::ClientId;
use wiscape_simcore::{SimDuration, SimTime, StreamRng};
use wiscape_simnet::{NetworkId, TransportKind};

/// The networks every client reports on, in frame order.
pub const NETWORKS: [NetworkId; 2] = [NetworkId::NetA, NetworkId::NetB];

/// Samples (probe packets) per report, the coordinator's default task.
pub const SAMPLES_PER_REPORT: usize = 20;

/// Names of the pipeline workloads, in the order `BENCHMARK.json` lists
/// them.
pub const WORKLOADS: [&str; 2] = ["durable_lossy", "nation"];

/// Shape of one workload's stream and of the system that receives it.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Half extent of the square zone index around the center, meters.
    pub half_extent_m: f64,
    /// Client count; every client transmits once per round.
    pub clients: u32,
    /// One-minute check-in rounds per pass.
    pub rounds: u32,
    /// Random-walk step of a client per round, meters.
    pub step_m: f64,
    /// Probability that a report copy is duplicated and re-sent later.
    pub dup_frac: f64,
    /// Latest round offset (1..=this) at which a duplicate is re-sent.
    pub dup_delay_max: u32,
    /// Probability that a transmission carries one flipped byte.
    pub corrupt_frac: f64,
    /// Watermark settle window in rounds; `None` commits immediately.
    pub settle_rounds: Option<u32>,
    /// The coordinator is WAL-backed (`DurableCoordinator`).
    pub durable: bool,
    /// Ingest goes through `ShardedChannelServer` (one shard per core).
    pub sharded: bool,
}

impl Spec {
    /// The spec of a named workload.
    pub fn named(name: &str) -> Option<Spec> {
        match name {
            "durable_lossy" => Some(Spec {
                name: "durable_lossy",
                half_extent_m: 7_000.0,
                clients: 2_000,
                rounds: 50,
                step_m: 150.0,
                dup_frac: 0.05,
                dup_delay_max: 3,
                corrupt_frac: 0.001,
                settle_rounds: Some(5),
                durable: true,
                sharded: false,
            }),
            "nation" => Some(Spec {
                name: "nation",
                half_extent_m: 72_000.0,
                clients: 50_000,
                rounds: 10,
                step_m: 600.0,
                dup_frac: 0.0,
                dup_delay_max: 0,
                corrupt_frac: 0.0,
                settle_rounds: None,
                durable: false,
                sharded: true,
            }),
            _ => None,
        }
    }

    /// Center of every workload's zone index (Madison, WI — the paper's
    /// primary measurement city).
    pub fn origin() -> GeoPoint {
        GeoPoint::new(43.0731, -89.4012).expect("valid center")
    }

    /// The zone index at the default 250 m zone radius.
    pub fn zone_index(&self) -> ZoneIndex {
        let bounds = BoundingBox::around(Self::origin(), self.half_extent_m);
        ZoneIndex::new(bounds, wiscape_core::zone::DEFAULT_ZONE_RADIUS_M).expect("valid index")
    }

    /// Coordinator configuration: defaults, except that one epoch spans
    /// the whole run, so the published map accounts for every sample
    /// (the checks rely on it).
    pub fn coordinator_config(&self) -> CoordinatorConfig {
        CoordinatorConfig {
            default_epoch: SimDuration::from_hours(24),
            ..CoordinatorConfig::default()
        }
    }

    /// Measurement time of round `r`.
    pub fn round_time(&self, r: u32) -> SimTime {
        SimTime::at(1, 8.0) + SimDuration::from_mins(i64::from(r))
    }

    /// Server clock when round `r`'s transmissions arrive.
    pub fn arrival(&self, r: u32) -> SimTime {
        self.round_time(r) + SimDuration::from_secs(30)
    }

    /// Watermark settle window, if any.
    pub fn settle(&self) -> Option<SimDuration> {
        self.settle_rounds
            .map(|k| SimDuration::from_mins(i64::from(k)))
    }

    /// Time passed to `drain`: past the last round and its settle
    /// window.
    pub fn end(&self) -> SimTime {
        let settle = self.settle_rounds.unwrap_or(0);
        self.round_time(self.rounds + settle + 1)
    }
}

/// Exact books on what the generator produced and what a correct
/// server must therefore report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Expect {
    /// Transmissions generated.
    pub transmissions: u64,
    /// Transmissions with one flipped byte (each must be one decode
    /// error, and none of its frames may take effect).
    pub corrupted: u64,
    /// Check-in frames in intact transmissions.
    pub checkins: u64,
    /// Copies in intact transmissions whose `(client, seq)` had already
    /// arrived intact: the server must drop exactly these.
    pub duplicates: u64,
    /// Distinct `(client, seq)` reports that arrived intact.
    pub unique_reports: u64,
    /// Samples carried by the unique reports.
    pub samples: u64,
}

/// One transmission: a byte range of its round's buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tx {
    /// Sending client.
    pub client: ClientId,
    /// Start offset in [`Round::buf`].
    pub start: usize,
    /// End offset (exclusive).
    pub end: usize,
    /// Report frames in the transmission (each must be acked).
    pub reports: u32,
    /// A byte was flipped: the server must reject the transmission.
    pub corrupted: bool,
}

/// All transmissions of one round, back to back in one buffer.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Server clock at arrival.
    pub now: SimTime,
    /// Concatenated transmission bytes.
    pub buf: Vec<u8>,
    /// The transmissions, in send order.
    pub txs: Vec<Tx>,
}

impl Round {
    /// The bytes of one transmission.
    pub fn bytes(&self, tx: &Tx) -> &[u8] {
        &self.buf[tx.start..tx.end]
    }
}

/// A late duplicate copy waiting for its round.
#[derive(Debug, Clone)]
struct DupCopy {
    client: u32,
    frame: Vec<u8>,
    /// Whether the original copy arrived intact.
    original_delivered: bool,
}

/// The seeded stream of one workload: the same `(spec, seed)` yields
/// byte-identical rounds.
#[derive(Debug, Clone)]
pub struct Stream {
    spec: Spec,
    index: ZoneIndex,
    rng: ChaCha8Rng,
    /// Client positions, meters east/north of the center.
    pos: Vec<(f64, f64)>,
    /// Pending duplicate copies, indexed by the round they are sent in.
    delayed: Vec<Vec<DupCopy>>,
    next_round: u32,
    books: Expect,
}

/// Meters per degree of latitude.
const M_PER_DEG: f64 = 111_320.0;

impl Stream {
    /// The stream of `spec` under `seed`.
    pub fn new(spec: &Spec, seed: u64) -> Self {
        let root = StreamRng::new(seed).fork("perfbench").fork(spec.name);
        let mut rng = root.rng();
        let lim = spec.half_extent_m * 0.95;
        let pos = (0..spec.clients)
            .map(|_| {
                let x = (rng.gen::<f64>() * 2.0 - 1.0) * lim;
                let y = (rng.gen::<f64>() * 2.0 - 1.0) * lim;
                (x, y)
            })
            .collect();
        Self {
            index: spec.zone_index(),
            spec: spec.clone(),
            rng,
            pos,
            delayed: vec![Vec::new(); spec.rounds as usize],
            next_round: 0,
            books: Expect::default(),
        }
    }

    /// The workload spec.
    pub fn spec(&self) -> &Spec {
        &self.spec
    }

    /// Books on everything generated so far.
    pub fn books(&self) -> Expect {
        self.books
    }

    /// Mean throughput (kbit/s) of a zone/network cell: a smooth
    /// spatial surface, so neighbouring zones agree and the quadtree
    /// can merge them.
    fn cell_mean(&self, zone: ZoneId, net_idx: usize) -> f64 {
        let (c, r) = (f64::from(zone.0.col), f64::from(zone.0.row));
        let level = 800.0 + 250.0 * (c / 37.0).sin() * (r / 29.0).cos();
        if net_idx == 0 {
            level
        } else {
            0.7 * level + 60.0
        }
    }

    /// Relative sample spread of a zone: planted high-variance patches
    /// (4×4-zone blocks) over a quiet background, so the regionalizer
    /// splits around them and the hotspot scan has something to find.
    fn cell_rel_std(zone: ZoneId) -> f64 {
        let (bc, br) = (zone.0.col.div_euclid(4), zone.0.row.div_euclid(4));
        if (bc * 31 + br * 17).rem_euclid(23) == 0 {
            0.30
        } else {
            0.04
        }
    }

    fn point_of(&self, (x, y): (f64, f64)) -> GeoPoint {
        let c = Spec::origin();
        let lat = c.lat_deg() + y / M_PER_DEG;
        let lon = c.lon_deg() + x / (M_PER_DEG * c.lat_deg().to_radians().cos());
        GeoPoint::new(lat, lon).expect("point inside the index")
    }

    /// Generates the next round, or `None` after the last one.
    pub fn next_round(&mut self) -> Option<Round> {
        let r = self.next_round;
        if r >= self.spec.rounds {
            return None;
        }
        self.next_round += 1;
        let t = self.spec.round_time(r);
        let mut round = Round {
            now: self.spec.arrival(r),
            buf: Vec::with_capacity(self.spec.clients as usize * 480),
            txs: Vec::with_capacity(self.spec.clients as usize),
        };
        let mut due = std::mem::take(&mut self.delayed[r as usize]);
        due.sort_by_key(|d| d.client);
        let mut due = due.into_iter().peekable();
        let lim = self.spec.half_extent_m * 0.95;
        for c in 0..self.spec.clients {
            // Random walk, reflected at the coverage edge.
            let (mut x, mut y) = self.pos[c as usize];
            let heading = self.rng.gen::<f64>() * std::f64::consts::TAU;
            x += self.spec.step_m * heading.cos();
            y += self.spec.step_m * heading.sin();
            x = reflect(x, lim);
            y = reflect(y, lim);
            self.pos[c as usize] = (x, y);
            let point = self.point_of((x, y));
            let zone = self.index.zone_of(&point);
            let client = ClientId(c);

            let start = round.buf.len();
            let checkin = WireMessage::Checkin(CheckinRequest {
                client,
                tick: u64::from(r),
                point,
                t,
            });
            round.buf.extend_from_slice(&encode(&checkin));
            let mut fresh = Vec::with_capacity(NETWORKS.len());
            for (k, &network) in NETWORKS.iter().enumerate() {
                let mean = self.cell_mean(zone, k);
                let rel = Self::cell_rel_std(zone);
                let samples: Vec<f64> = (0..SAMPLES_PER_REPORT)
                    .map(|_| (mean * (1.0 + rel * normalish(&mut self.rng))).max(0.0))
                    .collect();
                let msg = WireMessage::Report(ReportMsg {
                    seq: u64::from(r) * NETWORKS.len() as u64 + k as u64,
                    report: SampleReport {
                        client,
                        task: MeasurementTask {
                            zone,
                            network,
                            kind: TransportKind::Udp,
                            n_packets: SAMPLES_PER_REPORT as u32,
                            packet_bytes: 1200,
                        },
                        zone,
                        t,
                        samples,
                    },
                });
                let frame = encode(&msg);
                let frame_start = round.buf.len();
                round.buf.extend_from_slice(&frame);
                fresh.push((frame_start, frame));
            }
            let mut late = Vec::new();
            while due.peek().is_some_and(|d| d.client == c) {
                if let Some(d) = due.next() {
                    round.buf.extend_from_slice(&d.frame);
                    late.push(d.original_delivered);
                }
            }
            let end = round.buf.len();

            let corrupted =
                self.spec.corrupt_frac > 0.0 && self.rng.gen::<f64>() < self.spec.corrupt_frac;
            if corrupted {
                // Flip one byte inside the first report's sample block:
                // CRC-32 detects every single-byte error, so the frame
                // (and with it the whole transmission) must be rejected.
                let (fs, ref frame) = fresh[0];
                let back = 5 + self.rng.gen_range(0..SAMPLES_PER_REPORT * 8);
                let at = fs + frame.len() - back;
                round.buf[at] ^= self.rng.gen_range(1..=255u8);
            }

            // Schedule late duplicate copies of this round's reports.
            for (_, frame) in &fresh {
                if self.spec.dup_frac > 0.0 && self.rng.gen::<f64>() < self.spec.dup_frac {
                    let delay = self.rng.gen_range(1..=self.spec.dup_delay_max);
                    let at = r + delay;
                    if at < self.spec.rounds {
                        self.delayed[at as usize].push(DupCopy {
                            client: c,
                            frame: frame.clone(),
                            original_delivered: !corrupted,
                        });
                    }
                }
            }

            let reports = (fresh.len() + late.len()) as u32;
            self.books.transmissions += 1;
            if corrupted {
                self.books.corrupted += 1;
            } else {
                self.books.checkins += 1;
                let late_dups = late.iter().filter(|&&d| d).count() as u64;
                let late_unique = late.len() as u64 - late_dups;
                self.books.duplicates += late_dups;
                self.books.unique_reports += fresh.len() as u64 + late_unique;
            }
            round.txs.push(Tx {
                client,
                start,
                end,
                reports,
                corrupted,
            });
        }
        self.books.samples = self.books.unique_reports * SAMPLES_PER_REPORT as u64;
        Some(round)
    }
}

/// An approximately standard-normal draw (sum of four uniforms,
/// rescaled): bounded, so samples can never go non-finite.
fn normalish(rng: &mut ChaCha8Rng) -> f64 {
    let s: f64 = (0..4).map(|_| rng.gen::<f64>()).sum();
    (s - 2.0) * 3.0f64.sqrt()
}

/// Reflects `v` back into `[-lim, lim]`.
fn reflect(v: f64, lim: f64) -> f64 {
    if v > lim {
        2.0 * lim - v
    } else if v < -lim {
        -2.0 * lim - v
    } else {
        v
    }
}
