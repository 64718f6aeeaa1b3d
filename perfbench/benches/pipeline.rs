//! Timing harness of the end-to-end pipeline benchmark.
//!
//! ```text
//! pipeline --workload <durable_lossy|nation> --seed N --seconds S --trace <0|1>
//!          [--workdir DIR] [--manifest FILE]
//! ```
//!
//! Each run has two phases that share the `--seconds` budget:
//!
//! 1. **Pipeline passes.** Set-up is timed on throwaway builds before
//!    the passes (see `setup_samples_before`). Each pass builds the
//!    system under test, then one generator thread drives the seeded
//!    stream through `ServerEndpoint::receive` closed-loop — the next
//!    transmission goes out when the previous call returns — and ends
//!    by publishing the map and restarting the coordinator from what it
//!    left behind. Every pass is checked.
//! 2. **Artifact-suite passes.** All 19 experiments at `Scale::Quick`
//!    through `run_many_with_charts`, each artifact hashed and compared
//!    with the committed manifest (manifest seed) or an untimed
//!    1-worker reference (any other seed).
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics
//! (medians over passes). With `--trace 1` every pipeline pass is a
//! traced pass (spans plus the obs registry) followed by isolated
//! per-layer passes, and the last line carries the per-layer metrics
//! (medians over passes) instead.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use wiscape_channel::codec::{decode_ref, FrameReader, WireMessageRef};
use wiscape_channel::{
    ChannelServer, CommitPolicy, ServerEndpoint, ServerMeters, ShardedChannelServer,
};
use wiscape_core::{
    state_fingerprint, Coordinator, CoordinatorHandle, CoordinatorState, ShardAssignment,
};
use wiscape_experiments::{run_by_name, run_many_with_charts, Scale, ALL_EXPERIMENTS};
use wiscape_perfbench::checks::{self, MapDigest, Observed};
use wiscape_perfbench::sha256::hex_digest;
use wiscape_perfbench::stats::{latency_quantile_us, median};
use wiscape_perfbench::stream::{Expect, Spec, Stream, Tx, NETWORKS};
use wiscape_perfbench::trace::{SpanId, Tracer};
use wiscape_region::{
    hotspot_fingerprint, locate_hotspots, region_fingerprint, Hotspot, HotspotConfig, RegionConfig,
    RegionSet,
};
use wiscape_simcore::StreamRng;
use wiscape_wal::{DurableCoordinator, WalOptions};

/// The seed at which the committed quick manifest was produced.
const MANIFEST_SEED: u64 = 7;

/// Share of `--seconds` spent on pipeline passes; the rest goes to the
/// artifact suite.
const PIPELINE_SHARE: f64 = 0.7;

/// Fewest pipeline (and artifact-suite) passes a timed run makes,
/// whatever the budget: medians need at least three.
const MIN_PASSES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    workdir: PathBuf,
    manifest: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        workdir: PathBuf::from(".bench_build/perfbench"),
        manifest: PathBuf::from("results/QUICK_MANIFEST.sha256"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--workdir" => args.workdir = PathBuf::from(value()?),
            "--manifest" => args.manifest = PathBuf::from(value()?),
            // `cargo bench` appends this to the harness-less target.
            "--bench" => {}
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if Spec::named(&args.workload).is_none() {
        return Err(format!("unknown workload '{}'", args.workload));
    }
    Ok(args)
}

/// Monotonic nanoseconds since the run started.
struct Clock(Instant);

impl Clock {
    fn ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Everything one run needs besides its arguments.
struct Ctx {
    clock: Clock,
    tracer: Tracer,
    spec: Spec,
    seed: u64,
    shards: usize,
    wal_dir: PathBuf,
    /// Next transmission id (shared by every span serving it).
    next_tx: u64,
    /// Traced run: tracing (spans and the obs registry) is on for even
    /// slices and off for odd ones, so the tracing overhead is measured
    /// on adjacent slices that ran under the same machine conditions.
    alternate: bool,
}

impl Ctx {
    /// Times `f`, recording a span named `name` under `parent`.
    fn span<T>(&mut self, name: &str, parent: Option<SpanId>, f: impl FnOnce() -> T) -> (T, u64) {
        let id = self.tracer.name(name);
        let t0 = self.clock.ns();
        let out = f();
        let t1 = self.clock.ns();
        self.tracer.record(id, parent, 0, t0, t1);
        (out, t1 - t0)
    }
}

/// Consecutive transmissions per timing slice. Slice boundaries fall
/// at the same transmissions in every pass, so each slice's cost can be
/// taken as its median over passes (see [`ingest_rps`]).
const SLICE_TX: usize = 10_000;

/// Set-up samples timed before pipeline pass `pass` (see
/// [`setup_samples`]). Each sample times a batch of identical builds
/// back to back and keeps the mean per build. Without a WAL, three
/// before every pass, so the median spans the whole run (on a VM the
/// same build can take twice as long from one pass to the next). With
/// a WAL, seven before the first pass only: each pass's log writes slow
/// directory and file creation for seconds afterwards, so later samples
/// would time the previous pass's writeback.
fn setup_samples_before(spec: &Spec, pass: usize) -> usize {
    match (spec.durable, pass) {
        (false, _) => 3,
        (true, 0) => 7,
        (true, _) => 0,
    }
}

/// Builds per set-up sample, so one sample lasts milliseconds: a
/// `durable_lossy` build (one directory, one segment file, an empty
/// coordinator) takes tens to hundreds of microseconds, a `nation`
/// build (one coordinator per shard plus the zone assignment over
/// ~106k zones) a few milliseconds.
fn setup_batch(spec: &Spec) -> usize {
    if spec.sharded {
        4
    } else {
        16
    }
}

/// Cold recoveries timed per `durable_lossy` pass.
const RECOVERS: usize = 3;

/// Restarts timed per `nation` pass.
const RESTARTS: usize = 3;

/// What driving one pass's stream through an endpoint observed.
#[derive(Default)]
struct Drive {
    books: Expect,
    txs: u64,
    receive_ns: u64,
    /// Receive nanoseconds of each slice of `SLICE_TX` transmissions.
    slice_ns: Vec<u64>,
    p50_us: f64,
    p95_us: f64,
    reply_bytes: u64,
    missing_acks: u64,
    staged_max: usize,
}

/// Whether the replies to `tx` ack every report it carried.
fn fully_acked(replies: &[Vec<u8>], tx: &Tx) -> bool {
    let acked: usize = replies
        .iter()
        .filter_map(|r| match decode_ref(r) {
            Ok(WireMessageRef::Ack(a)) if a.client == tx.client => Some(a.len()),
            _ => None,
        })
        .sum();
    acked == tx.reports as usize
}

/// Closed-loop drive of the whole stream through `server`: one
/// generator thread, each transmission sent when the previous `receive`
/// returned. Only the `receive` calls are timed; generation and the ack
/// check are not.
fn drive<S: ServerEndpoint>(
    ctx: &mut Ctx,
    server: &mut S,
    parent: Option<SpanId>,
    staged_len: impl Fn(&S) -> usize,
) -> Drive {
    let recv = ctx.tracer.name("server.receive");
    let gen = ctx.tracer.name("stream.generate");
    let traced = ctx.tracer.enabled();
    let mut out = Drive::default();
    let mut lat_ns: Vec<u32> = Vec::new();
    let (mut slice_ns, mut slice_txs) = (0u64, 0usize);
    let mut stream = Stream::new(&ctx.spec, ctx.seed);
    loop {
        let g0 = ctx.clock.ns();
        let Some(round) = stream.next_round() else {
            break;
        };
        ctx.tracer.record(gen, parent, 0, g0, ctx.clock.ns());
        lat_ns.reserve(round.txs.len());
        for tx in &round.txs {
            let bytes = round.bytes(tx);
            let t0 = ctx.clock.ns();
            let replies = server.receive(bytes, round.now);
            let t1 = ctx.clock.ns();
            ctx.next_tx += 1;
            ctx.tracer.record(recv, parent, ctx.next_tx, t0, t1);
            let dt = t1 - t0;
            lat_ns.push(u32::try_from(dt).unwrap_or(u32::MAX));
            out.receive_ns += dt;
            slice_ns += dt;
            slice_txs += 1;
            if slice_txs == SLICE_TX {
                out.slice_ns.push(slice_ns);
                (slice_ns, slice_txs) = (0, 0);
                if ctx.alternate {
                    let on = out.slice_ns.len() % 2 == 0;
                    ctx.tracer.set_enabled(on);
                    wiscape_obs::set_enabled(on);
                }
            }
            out.reply_bytes += replies.iter().map(|r| r.len() as u64).sum::<u64>();
            if !tx.corrupted && !fully_acked(&replies, tx) {
                out.missing_acks += 1;
            }
            if traced {
                out.staged_max = out.staged_max.max(staged_len(server));
            }
        }
    }
    if slice_txs > 0 {
        out.slice_ns.push(slice_ns);
    }
    if ctx.alternate {
        ctx.tracer.set_enabled(traced);
        wiscape_obs::set_enabled(traced);
    }
    out.txs = lat_ns.len() as u64;
    out.p50_us = latency_quantile_us(&mut lat_ns, 0.50);
    out.p95_us = latency_quantile_us(&mut lat_ns, 0.95);
    out.books = stream.books();
    out
}

/// One pipeline pass's measurements. The `*_ns` vectors hold every
/// timed repetition of that step in the pass.
struct Pass {
    drive: Drive,
    drain_ns: u64,
    publish_ns: Vec<f64>,
    recover_ns: Vec<f64>,
    meters: ServerMeters,
    /// Failures: rejected reports, WAL append errors, missing acks.
    failed: u64,
    check: Result<(), String>,
    /// Per-layer figures gathered on the traced pass.
    layers: BTreeMap<String, f64>,
}

impl Pass {
    fn new() -> Self {
        Self {
            drive: Drive::default(),
            drain_ns: 0,
            publish_ns: Vec::new(),
            recover_ns: Vec::new(),
            meters: ServerMeters::default(),
            failed: 0,
            check: Ok(()),
            layers: BTreeMap::new(),
        }
    }
}

/// Committed reports per second of receive plus drain time over a set
/// of identical passes. Each slice's receive time is its median over
/// the passes, and the drain time is the median drain: a pass that ran
/// while another tenant slowed the machine moves neither, while every
/// slice of the stream, cheap or costly, still counts once.
fn ingest_rps(passes: &[Pass]) -> f64 {
    let Some(first) = passes.first() else {
        return f64::NAN;
    };
    let receive: f64 = (0..first.drive.slice_ns.len())
        .map(|i| {
            let per_pass: Vec<f64> = passes
                .iter()
                .filter_map(|p| p.drive.slice_ns.get(i).map(|&ns| ns as f64))
                .collect();
            median(&per_pass)
        })
        .sum();
    let drain = median(&passes.iter().map(|p| p.drain_ns as f64).collect::<Vec<_>>());
    first.meters.reports_ingested as f64 / ((receive + drain) / 1e9)
}

fn observed(meters: &ServerMeters, d: &Drive, published_samples: u64) -> Observed {
    Observed {
        decode_errors: meters.decode_errors,
        duplicates_dropped: meters.duplicates_dropped,
        reports_ingested: meters.reports_ingested,
        reports_rejected: meters.reports_rejected,
        checkins: meters.checkins,
        missing_acks: d.missing_acks,
        published_samples,
    }
}

fn published_samples(published: &[wiscape_core::ZoneEstimate]) -> u64 {
    published.iter().map(|e| e.samples).sum()
}

fn server_stream(seed: u64) -> StreamRng {
    StreamRng::new(seed).fork("deployment")
}

fn policy(spec: &Spec) -> CommitPolicy {
    match spec.settle() {
        Some(settle) => CommitPolicy::Watermark(settle),
        None => CommitPolicy::Immediate,
    }
}

/// The `durable_lossy` system under test: a WAL-backed coordinator in
/// the new directory `dir` behind a watermark-commit server.
fn build_lossy(
    spec: &Spec,
    seed: u64,
    dir: &Path,
) -> Result<ChannelServer<DurableCoordinator>, String> {
    DurableCoordinator::create(
        dir,
        spec.zone_index(),
        spec.coordinator_config(),
        WalOptions::default(),
    )
    .map(|c| ChannelServer::new(c, policy(spec), server_stream(seed), NETWORKS.to_vec()))
    .map_err(|e| format!("DurableCoordinator::create: {e:?}"))
}

/// The `nation` system under test: one coordinator per shard behind a
/// router over an even zone assignment.
fn build_nation(spec: &Spec, seed: u64, shards: usize) -> ShardedChannelServer<Coordinator> {
    let index = spec.zone_index();
    let config = spec.coordinator_config();
    let coords = (0..shards)
        .map(|_| Coordinator::new(index.clone(), config.clone()))
        .collect();
    let assignment = ShardAssignment::even(&index, shards);
    ShardedChannelServer::new(
        coords,
        assignment,
        index,
        config,
        policy(spec),
        server_stream(seed),
        NETWORKS.to_vec(),
    )
}

/// Writes back the dirty pages and inodes of the filesystem holding
/// `path` (`sync -f`) and waits for it. On an ext4 volume, directory
/// and file creation slows as dirty inodes pile up (from under 50 us to
/// over 600 us each), so without this a WAL set-up's time depends on
/// whatever the host wrote in the seconds before it.
fn flush_filesystem(path: &Path) {
    let dir = path.parent().unwrap_or(path);
    match std::process::Command::new("sync")
        .arg("-f")
        .arg(dir)
        .status()
    {
        Ok(st) if st.success() => {}
        other => eprintln!("perfbench: sync -f {}: {other:?}", dir.display()),
    }
}

/// Set-up time: `samples` batches of `setup_batch` builds, each sample
/// the mean seconds per build, all builds dropped after their batch's
/// timer stops. On `durable_lossy` each sample follows a filesystem
/// flush.
fn setup_samples(ctx: &mut Ctx, samples: usize) -> Result<Vec<f64>, String> {
    let spec = ctx.spec.clone();
    let (seed, shards) = (ctx.seed, ctx.shards);
    let batch = setup_batch(&spec);
    // Every build gets a directory of its own that does not exist yet,
    // and none is deleted until the last sample is taken.
    let dirs: Vec<PathBuf> = (0..samples * batch)
        .map(|k| ctx.wal_dir.with_extension(format!("setup{k}")))
        .collect();
    let clear = || dirs.iter().for_each(|d| drop(std::fs::remove_dir_all(d)));
    clear();
    let mut times = Vec::with_capacity(samples);
    let mut failure = None;
    for sample in dirs.chunks(batch) {
        if spec.durable {
            flush_filesystem(&ctx.wal_dir);
        }
        let t0 = ctx.clock.ns();
        let ns = if spec.durable {
            let built: Vec<_> = sample.iter().map(|d| build_lossy(&spec, seed, d)).collect();
            let ns = ctx.clock.ns() - t0;
            failure = failure.or(built.into_iter().find_map(Result::err));
            ns
        } else {
            let built: Vec<_> = sample
                .iter()
                .map(|_| build_nation(&spec, seed, shards))
                .collect();
            let ns = ctx.clock.ns() - t0;
            drop(built);
            ns
        };
        times.push(ns as f64 / 1e9 / batch as f64);
    }
    clear();
    failure.map_or(Ok(times), Err)
}

/// Copies the flat WAL directory `from` to a fresh `to`. Appends go
/// straight to the segment file, so the copy holds every record the
/// live writer has made so far.
fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// Channel-layer figures every workload reports on its traced pass.
fn channel_layers(layers: &mut BTreeMap<String, f64>, m: &ServerMeters, d: &Drive, drain_ns: u64) {
    let copies = (m.duplicates_dropped + m.reports_ingested + m.reports_rejected).max(1) as f64;
    let txs = d.txs.max(1) as f64;
    layers.insert(
        "codec.bytes_in_per_report".into(),
        m.bytes_received as f64 / copies,
    );
    layers.insert(
        "codec.reply_bytes_per_tx".into(),
        d.reply_bytes as f64 / txs,
    );
    layers.insert("codec.decode_errors".into(), m.decode_errors as f64);
    layers.insert(
        "server.tasks_per_checkin".into(),
        m.tasks_sent as f64 / m.checkins.max(1) as f64,
    );
    layers.insert(
        "server.dup_frac".into(),
        m.duplicates_dropped as f64 / copies,
    );
    layers.insert("server.staged_max".into(), d.staged_max as f64);
    layers.insert("server.drain_ms".into(), drain_ns as f64 / 1e6);
}

fn coordinator_layers(layers: &mut BTreeMap<String, f64>, c: &Coordinator, flush_ns: u64) {
    layers.insert("coordinator.flush_ms".into(), flush_ns as f64 / 1e6);
    layers.insert("coordinator.cells".into(), c.zones_tracked() as f64);
    layers.insert("coordinator.state_bytes".into(), c.sketch_bytes() as f64);
}

/// Isolated `Coordinator::flush` on copies of the pre-drain state
/// (traced pass only).
fn isolated_flush<'a>(
    ctx: &mut Ctx,
    root: Option<SpanId>,
    coords: impl Iterator<Item = &'a Coordinator>,
) -> u64 {
    if !ctx.tracer.enabled() {
        return 0;
    }
    let mut copies: Vec<Coordinator> = coords.cloned().collect();
    let end = ctx.spec.end();
    ctx.span("coordinator.flush", root, || {
        for c in &mut copies {
            c.flush(end);
        }
    })
    .1
}

/// `durable_lossy`: `ChannelServer<DurableCoordinator>` with watermark
/// commit. Publishing is `drain`, `all_published` and the WAL
/// `shutdown` sync, once. A recovery sample is two cold
/// `DurableCoordinator::recover` calls: one of the directory shutdown
/// left (its last snapshot covers the whole log), one of an untimed
/// copy taken before drain, which must replay every record written
/// since its last snapshot. Three samples per pass.
fn pass_lossy(ctx: &mut Ctx) -> Pass {
    let mut p = Pass::new();
    let spec = ctx.spec.clone();
    let seed = ctx.seed;
    let dir = ctx.wal_dir.clone();
    let predrain = dir.with_extension("predrain");
    let pass_span = ctx.tracer.name("pass");
    let root = ctx.tracer.open(pass_span, None, 0, ctx.clock.ns());
    let _ = std::fs::remove_dir_all(&dir);
    let (created, _) = ctx.span("setup", root, || build_lossy(&spec, seed, &dir));
    let mut server = match created {
        Ok(s) => s,
        Err(e) => {
            p.check = Err(e);
            p.failed = 1;
            return p;
        }
    };
    p.drive = drive(ctx, &mut server, root, |s| s.staged_len());
    let copied = copy_dir(&dir, &predrain);
    let live_predrain = state_fingerprint(&server.coordinator().export_state());
    let records_predrain = server.handle_mut().wal_meters().records;
    let flush_ns = isolated_flush(ctx, root, std::iter::once(server.coordinator()));
    let end = spec.end();
    let t0 = ctx.clock.ns();
    let (_, drain_ns) = ctx.span("server.drain", root, || server.drain(end));
    let (published, _) = ctx.span("coordinator.all_published", root, || {
        server.coordinator().all_published()
    });
    let (synced, sync_ns) = ctx.span("wal.shutdown", root, || server.handle_mut().shutdown());
    p.publish_ns.push((ctx.clock.ns() - t0) as f64);
    p.drain_ns = drain_ns;
    p.meters = server.meters();
    let wal = server.handle_mut().wal_meters();
    let live = state_fingerprint(&server.coordinator().export_state());
    let index = server.coordinator().index().clone();
    if ctx.tracer.enabled() {
        channel_layers(&mut p.layers, &p.meters, &p.drive, drain_ns);
        coordinator_layers(&mut p.layers, server.coordinator(), flush_ns);
    }
    drop(server);

    let config = spec.coordinator_config();
    let recover = |from: &Path| {
        DurableCoordinator::recover(from, index.clone(), config.clone(), WalOptions::default())
    };
    let (mut recovered, mut replayed) = (None, None);
    for _ in 0..RECOVERS {
        let (r, ns) = ctx.span("wal.recover", root, || recover(&dir));
        let (q, replay_ns) = ctx.span("wal.recover_replay", root, || recover(&predrain));
        p.recover_ns.push((ns + replay_ns) as f64);
        (recovered, replayed) = (Some(r), Some(q));
    }
    // The pass removes its logs once done, so their writeback does not
    // overlap the artifact suite or the next run's set-up.
    let _ = std::fs::remove_dir_all(&predrain);
    let _ = std::fs::remove_dir_all(&dir);
    let obs = observed(&p.meters, &p.drive, published_samples(&published));
    p.failed = p.meters.reports_rejected + p.drive.missing_acks + wal.append_errors;
    let fingerprint =
        |c: &DurableCoordinator| state_fingerprint(&c.coordinator_ref().export_state());
    p.check = match (&synced, &copied, &recovered, &replayed) {
        (Err(e), ..) => Err(format!("WAL shutdown: {e:?}")),
        (_, Err(e), ..) => Err(format!("copy of the pre-drain WAL: {e}")),
        (_, _, Some(Err(e)), _) => Err(format!("WAL recover: {e:?}")),
        (_, _, _, Some(Err(e))) => Err(format!("WAL recover of the pre-drain copy: {e:?}")),
        (Ok(()), Ok(()), Some(Ok((rec, _))), Some(Ok((pre, report)))) => {
            checks::check_lossy(&obs, &p.drive.books, &live, &fingerprint(rec)).and_then(|()| {
                checks::check_replay(
                    records_predrain,
                    report.records,
                    &live_predrain,
                    &fingerprint(pre),
                )
            })
        }
        _ => Err("WAL recover did not run".into()),
    };
    if ctx.tracer.enabled() {
        let l = &mut p.layers;
        l.insert(
            "wal.bytes_per_record".into(),
            wal.bytes_appended as f64 / wal.records.max(1) as f64,
        );
        l.insert("wal.snapshots".into(), wal.snapshots as f64);
        l.insert("wal.snapshot_bytes".into(), wal.last_snapshot_bytes as f64);
        l.insert("wal.sync_ms".into(), sync_ns as f64 / 1e6);
        // Replay figures come from the pre-drain copy: recovering
        // what shutdown left replays nothing, since the drain's flush
        // leaves a snapshot covering the whole log.
        if let Some(Ok((_, report))) = &replayed {
            l.insert("wal.replayed".into(), report.replayed as f64);
            l.insert(
                "wal.snapshot_records".into(),
                report.snapshot_records as f64,
            );
        }
    }
    ctx.tracer.close(root, ctx.clock.ns());
    p
}

/// The published map of `nation`, reduced to fingerprints.
fn digest(state: &CoordinatorState, set: &RegionSet, spots: &[Hotspot]) -> MapDigest {
    MapDigest {
        state: state_fingerprint(state),
        regions: region_fingerprint(set),
        hotspots: hotspot_fingerprint(spots),
    }
}

/// The single-coordinator oracle for `nation`: the same stream through
/// one plain `ChannelServer`, then the same publisher. Its drive is
/// timed like any other (the traced run derives the router's self time
/// from it) but it is not part of the reported metrics.
fn nation_oracle(ctx: &mut Ctx) -> (MapDigest, Drive) {
    let spec = ctx.spec.clone();
    let mut server = ChannelServer::new(
        Coordinator::new(spec.zone_index(), spec.coordinator_config()),
        policy(&spec),
        server_stream(ctx.seed),
        NETWORKS.to_vec(),
    );
    let oracle = ctx.tracer.name("oracle");
    let root = ctx.tracer.open(oracle, None, 0, ctx.clock.ns());
    let d = drive(ctx, &mut server, root, |s| s.staged_len());
    ctx.tracer.close(root, ctx.clock.ns());
    server.drain(spec.end());
    let state = server.coordinator().export_state();
    let set = RegionSet::build(
        &state,
        server.coordinator().index(),
        &RegionConfig::default(),
    );
    let spots = locate_hotspots(&set, &HotspotConfig::default());
    (digest(&state, &set, &spots), d)
}

/// `nation`: `ShardedChannelServer` with one shard per core. Publishing
/// is `drain` (flush and merge), `export_state`, `RegionSet::build` and
/// `locate_hotspots`, timed twice on the final state (the repeat is
/// idempotent). Restart rebuilds the router and restores every shard
/// from its exported state, three times.
fn pass_nation(ctx: &mut Ctx, oracle: &MapDigest) -> Pass {
    let mut p = Pass::new();
    let spec = ctx.spec.clone();
    let shards = ctx.shards;
    let seed = ctx.seed;
    let pass_span = ctx.tracer.name("pass");
    let root = ctx.tracer.open(pass_span, None, 0, ctx.clock.ns());
    let build = || build_nation(&spec, seed, shards);
    let (mut server, _) = ctx.span("setup", root, build);
    p.drive = drive(ctx, &mut server, root, |s| s.staged_len());
    let flush_ns = isolated_flush(ctx, root, server.servers().iter().map(|s| s.coordinator()));
    let end = spec.end();
    let mut first = None;
    for _ in 0..2 {
        let t0 = ctx.clock.ns();
        let (_, drain_ns) = ctx.span("server.drain", root, || server.drain(end));
        let (state, _) = ctx.span("coordinator.export_state", root, || {
            server.coordinator().export_state()
        });
        let index = server.coordinator().index();
        let (set, build_ns) = ctx.span("region.build", root, || {
            RegionSet::build(&state, index, &RegionConfig::default())
        });
        let (spots, hot_ns) = ctx.span("region.hotspots", root, || {
            locate_hotspots(&set, &HotspotConfig::default())
        });
        p.publish_ns.push((ctx.clock.ns() - t0) as f64);
        if first.is_none() {
            p.drain_ns = drain_ns;
            first = Some((state, set, spots, build_ns, hot_ns));
        }
    }
    let Some((state, set, spots, build_ns, hot_ns)) = first else {
        unreachable!("publish ran at least once");
    };
    p.meters = server.meters();
    let got = digest(&state, &set, &spots);
    let published = server.coordinator().all_published();
    let obs = observed(&p.meters, &p.drive, published_samples(&published));
    p.check = checks::check_nation(&obs, &p.drive.books, &got, oracle);
    p.failed = p.meters.reports_rejected + p.drive.missing_acks;

    if ctx.tracer.enabled() {
        channel_layers(&mut p.layers, &p.meters, &p.drive, p.drain_ns);
        coordinator_layers(&mut p.layers, server.coordinator(), flush_ns);
        let (_, merge_ns) = ctx.span("shard.merge", root, || server.refresh_merged());
        let per_shard: Vec<f64> = server
            .servers()
            .iter()
            .map(|s| s.meters().reports_ingested as f64)
            .collect();
        let mean = per_shard.iter().sum::<f64>() / per_shard.len().max(1) as f64;
        let max = per_shard.iter().cloned().fold(0.0, f64::max);
        let l = &mut p.layers;
        l.insert(
            "shard.skew".into(),
            if mean > 0.0 { max / mean } else { 0.0 },
        );
        l.insert("shard.merge_ms".into(), merge_ns as f64 / 1e6);
        l.insert("region.build_ms".into(), build_ns as f64 / 1e6);
        l.insert("region.hotspot_ms".into(), hot_ns as f64 / 1e6);
        l.insert("region.regions".into(), set.regions.len() as f64);
        l.insert("region.hotspots".into(), spots.len() as f64);
    }

    // Restart from the shards' exported states alone: the live server
    // and the published map are dropped first, and the last restart
    // takes the states instead of a copy, so the process holds no more
    // than a deployment restarting would.
    let mut shard_states: Vec<CoordinatorState> = server
        .servers()
        .iter()
        .map(|s| s.coordinator().export_state())
        .collect();
    drop((server, state, set, spots, published));
    for k in 0..RESTARTS {
        let states = if k + 1 == RESTARTS {
            std::mem::take(&mut shard_states)
        } else {
            shard_states.clone()
        };
        let (restarted, ns) = ctx.span("coordinator.restart", root, || {
            let mut fresh = build();
            for (h, st) in fresh.handles_mut().zip(states) {
                h.restore_state(st);
            }
            fresh.refresh_merged();
            fresh
        });
        drop(restarted);
        p.recover_ns.push(ns as f64);
    }
    ctx.tracer.close(root, ctx.clock.ns());
    p
}

/// One pipeline pass of the run's workload.
fn pass(ctx: &mut Ctx, oracle: Option<&MapDigest>) -> Pass {
    match oracle {
        Some(o) => pass_nation(ctx, o),
        None => pass_lossy(ctx),
    }
}

/// Isolated per-layer passes over the same stream, in pipeline order:
/// decode alone, then per transmission the coordinator's check-in and
/// its report folds alone, and (durable workloads) the WAL-tagged fold
/// against the plain one. Per-call timings have the clock's own cost
/// subtracted.
#[derive(Default)]
struct Isolated {
    txs: u64,
    decode_ns: u64,
    checkins: u64,
    checkin_ns: f64,
    reports: u64,
    fold_ns: f64,
    wal_ns: f64,
}

/// Median cost of one `Clock::ns` reading.
fn clock_cost_ns(clock: &Clock) -> f64 {
    let mut d: Vec<f64> = (0..1001)
        .map(|_| {
            let a = clock.ns();
            (clock.ns() - a) as f64
        })
        .collect();
    d.sort_by(f64::total_cmp);
    d[d.len() / 2]
}

fn isolated(ctx: &mut Ctx, wal_dir: Option<&Path>) -> Isolated {
    let spec = ctx.spec.clone();
    let clock_ns = clock_cost_ns(&ctx.clock);
    let mut out = Isolated::default();
    let mut coord = Coordinator::new(spec.zone_index(), spec.coordinator_config());
    let mut durable = wal_dir.and_then(|d| {
        DurableCoordinator::create(
            d,
            spec.zone_index(),
            spec.coordinator_config(),
            WalOptions::default(),
        )
        .ok()
    });
    let mut plain = Coordinator::new(spec.zone_index(), spec.coordinator_config());
    let mut stream = Stream::new(&spec, ctx.seed);
    let clock = &ctx.clock;
    let timed = |f: &mut dyn FnMut()| {
        let t0 = clock.ns();
        f();
        (clock.ns() - t0) as f64 - clock_ns
    };
    while let Some(round) = stream.next_round() {
        let t0 = clock.ns();
        for tx in &round.txs {
            for frame in FrameReader::new(round.bytes(tx)) {
                black_box(&frame);
            }
        }
        out.decode_ns += clock.ns() - t0;
        out.txs += round.txs.len() as u64;

        for tx in round.txs.iter().filter(|tx| !tx.corrupted) {
            let mut reports = Vec::new();
            for msg in FrameReader::new(round.bytes(tx)).flatten() {
                match msg {
                    WireMessageRef::Checkin(c) => {
                        out.checkin_ns += timed(&mut || {
                            black_box(
                                coord.client_checkin(c.client, &c.point, c.t, &NETWORKS, 0.5),
                            );
                        });
                        out.checkins += 1;
                    }
                    WireMessageRef::Report(v) => reports.push(v),
                    _ => {}
                }
            }
            out.fold_ns += timed(&mut || {
                for v in &reports {
                    let _ =
                        black_box(coord.ingest_samples(v.zone, v.task.network, v.t, v.samples()));
                }
            });
            out.reports += reports.len() as u64;
            if let Some(d) = durable.as_mut() {
                let tagged = timed(&mut || {
                    for v in &reports {
                        let _ = black_box(d.ingest_samples_tagged(
                            v.client,
                            v.seq,
                            v.zone,
                            v.task.network,
                            v.t,
                            v.samples(),
                        ));
                    }
                });
                let bare = timed(&mut || {
                    for v in &reports {
                        let _ = black_box(plain.ingest_samples(
                            v.zone,
                            v.task.network,
                            v.t,
                            v.samples(),
                        ));
                    }
                });
                out.wal_ns += tagged - bare;
            }
        }
    }
    out
}

/// One artifact-suite pass: wall seconds, per-experiment seconds, and
/// the SHA-256 of every artifact (`<name>.json` as `repro` writes it).
struct SuitePass {
    wall_s: f64,
    secs: BTreeMap<String, f64>,
    digests: BTreeMap<String, String>,
    errors: u64,
}

fn suite_pass(ctx: &mut Ctx, names: &[String]) -> SuitePass {
    let seed = ctx.seed;
    let (results, ns) = ctx.span("experiments.suite", None, || {
        run_many_with_charts(names, seed, Scale::Quick)
    });
    let mut out = SuitePass {
        wall_s: ns as f64 / 1e9,
        secs: BTreeMap::new(),
        digests: BTreeMap::new(),
        errors: 0,
    };
    for (name, r) in names.iter().zip(results) {
        match r {
            Some((_, json, _, secs)) => {
                out.secs.insert(name.clone(), secs);
                out.digests
                    .insert(format!("{name}.json"), hex_digest(json.as_bytes()));
            }
            None => out.errors += 1,
        }
    }
    out
}

/// Expected artifact digests: the committed manifest at its seed, else
/// an untimed serial (1-worker) run of the same experiments.
fn suite_reference(args: &Args, names: &[String]) -> BTreeMap<String, String> {
    if args.seed == MANIFEST_SEED {
        if let Ok(text) = std::fs::read_to_string(&args.manifest) {
            return checks::parse_manifest(&text);
        }
    }
    let seed = args.seed;
    wiscape_simcore::exec::par_map_with_threads(1, names, |_, name| {
        run_by_name(name, seed, Scale::Quick)
            .map(|(_, json)| (format!("{name}.json"), hex_digest(json.as_bytes())))
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Peak resident set size of this process so far, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Pipeline passes until `budget_s` has elapsed (at least
/// `MIN_PASSES`), each preceded by set-up samples (appended to
/// `setups`), stopping early on a failed check.
fn run_pipeline(
    ctx: &mut Ctx,
    budget_s: f64,
    oracle: Option<&MapDigest>,
    setups: &mut Vec<f64>,
    failures: &mut Vec<String>,
) -> Vec<Pass> {
    let mut passes = Vec::new();
    let start = ctx.clock.ns();
    while passes.len() < MIN_PASSES || ((ctx.clock.ns() - start) as f64 / 1e9) < budget_s {
        match setup_samples(ctx, setup_samples_before(&ctx.spec, passes.len())) {
            Ok(t) => setups.extend(t),
            Err(e) => {
                failures.push(e);
                break;
            }
        }
        let p = pass(ctx, oracle);
        eprintln!(
            "perfbench: pass {}: {:.0} reports/s, p50 {:.2} us",
            passes.len(),
            ingest_rps(std::slice::from_ref(&p)),
            p.drive.p50_us
        );
        let stop = p.check.is_err();
        passes.push(p);
        if stop {
            break;
        }
    }
    passes
}

/// What a run reports: its metrics and the failure books.
#[derive(Default)]
struct Outcome {
    metrics: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Outcome {
    fn absorb(&mut self, p: &Pass) {
        self.attempted += p.drive.books.transmissions;
        self.failed += p.failed;
        if let Err(e) = &p.check {
            self.failures.push(e.clone());
        }
    }
}

/// Artifact-suite passes until `budget_s` has elapsed (at least
/// `MIN_PASSES`), each checked against the reference digests.
fn suite_phase(
    ctx: &mut Ctx,
    names: &[String],
    reference: &BTreeMap<String, String>,
    budget_s: f64,
    out: &mut Outcome,
) -> Vec<SuitePass> {
    let start = ctx.clock.ns();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || ((ctx.clock.ns() - start) as f64 / 1e9) < budget_s {
        let s = suite_pass(ctx, names);
        out.attempted += names.len() as u64;
        out.failed += s.errors;
        if let Err(e) = checks::check_artifacts(&s.digests, reference) {
            out.failures.push(e);
            break;
        }
        passes.push(s);
    }
    eprintln!("perfbench: {} artifact-suite passes", passes.len());
    passes
}

fn experiment_names() -> Vec<String> {
    ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect()
}

/// The untraced run: end-to-end metrics.
fn timed_run(ctx: &mut Ctx, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let oracle = ctx.spec.sharded.then(|| nation_oracle(ctx).0);
    let mut setups = Vec::new();
    let passes = run_pipeline(
        ctx,
        args.seconds * PIPELINE_SHARE,
        oracle.as_ref(),
        &mut setups,
        &mut out.failures,
    );
    let rss = peak_rss_mb();
    passes.iter().for_each(|p| out.absorb(p));
    eprintln!(
        "perfbench: {} pipeline passes of {} transmissions (latency samples per pass)",
        passes.len(),
        passes.first().map_or(0, |p| p.drive.txs)
    );
    eprintln!(
        "perfbench: set-up samples (us per build): {:.1?}",
        setups.iter().map(|s| s * 1e6).collect::<Vec<_>>()
    );
    let names = experiment_names();
    let reference = suite_reference(args, &names);
    let suite = suite_phase(
        ctx,
        &names,
        &reference,
        args.seconds * (1.0 - PIPELINE_SHARE),
        &mut out,
    );

    let med = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let pooled = |f: &dyn Fn(&Pass) -> &[f64]| {
        median(
            &passes
                .iter()
                .flat_map(|p| f(p).iter().copied())
                .collect::<Vec<_>>(),
        )
    };
    let walls: Vec<f64> = suite.iter().map(|s| s.wall_s).collect();
    out.metrics = vec![
        ("ingest_rps".into(), ingest_rps(&passes), "1/s"),
        ("tx_p50_us".into(), med(&|p| p.drive.p50_us), "us"),
        ("tx_p95_us".into(), med(&|p| p.drive.p95_us), "us"),
        ("publish_ms".into(), pooled(&|p| &p.publish_ns) / 1e6, "ms"),
        ("recover_ms".into(), pooled(&|p| &p.recover_ns) / 1e6, "ms"),
        ("repro_s".into(), median(&walls), "s"),
        ("setup_s".into(), median(&setups), "s"),
        ("peak_rss_mb".into(), rss, "MiB"),
    ];
    out
}

/// Per-layer figures of one traced pass and its isolated passes.
fn layer_figures(
    ctx: &mut Ctx,
    oracle: Option<&(MapDigest, Drive)>,
    iso_dir: &Path,
) -> (Pass, BTreeMap<String, f64>) {
    let spec = ctx.spec.clone();
    let builds = wiscape_obs::counter("region/builds");
    let splits = wiscape_obs::counter("region/splits");
    let (builds0, splits0) = (builds.get(), splits.get());
    ctx.alternate = true;
    let traced = pass(ctx, oracle.map(|(o, _)| o));
    ctx.alternate = false;
    let region_splits = (splits.get() - splits0) as f64 / (builds.get() - builds0).max(1) as f64;
    let iso = isolated(ctx, spec.durable.then_some(iso_dir));
    let _ = std::fs::remove_dir_all(iso_dir);

    let mut l = traced.layers.clone();
    let per = |ns: f64, n: u64| ns / n.max(1) as f64;
    let slice_tx = |slices: &mut dyn Iterator<Item = &u64>| {
        median(&slices.map(|&ns| ns as f64).collect::<Vec<_>>()) / SLICE_TX as f64
    };
    // Receive cost per transmission on the untraced (odd) slices, and
    // the traced/untraced ratio of adjacent slice pairs.
    let untraced_tx = slice_tx(&mut traced.drive.slice_ns.iter().skip(1).step_by(2));
    let overhead: Vec<f64> = traced
        .drive
        .slice_ns
        .chunks_exact(2)
        .map(|pair| pair[0] as f64 / pair[1] as f64)
        .collect();
    // Single-server receive cost: this pass, or on the sharded
    // workload the single-coordinator oracle over the same stream.
    let single_tx = match oracle {
        Some((_, d)) => slice_tx(&mut d.slice_ns.iter()),
        None => untraced_tx,
    };
    let decode = per(iso.decode_ns as f64, iso.txs);
    let coordinator_tx = per(iso.checkin_ns + iso.fold_ns + iso.wal_ns, iso.txs);
    l.insert("codec.decode_ns_per_tx".into(), decode);
    l.insert(
        "server.self_ns_per_tx".into(),
        single_tx - decode - coordinator_tx,
    );
    l.insert(
        "coordinator.fold_ns_per_report".into(),
        per(iso.fold_ns, iso.reports),
    );
    l.insert(
        "coordinator.checkin_ns".into(),
        per(iso.checkin_ns, iso.checkins),
    );
    if spec.durable {
        l.insert(
            "wal.append_ns_per_record".into(),
            per(iso.wal_ns, iso.reports),
        );
    }
    if spec.sharded {
        l.insert("shard.self_ns_per_tx".into(), untraced_tx - single_tx);
        l.insert("region.splits".into(), region_splits);
    }
    l.insert("obs.overhead_pct".into(), (median(&overhead) - 1.0) * 100.0);
    (traced, l)
}

/// The traced run: per-layer metrics. Spans and the obs registry are
/// on (alternating by slice on pipeline passes); each traced pass is
/// followed by isolated layer passes, and the reported figure is the
/// median over passes.
fn traced_run(ctx: &mut Ctx, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    // The oracle runs untraced: it only supplies the single-server
    // receive cost the router is compared against.
    ctx.tracer.set_enabled(false);
    let oracle = ctx.spec.sharded.then(|| nation_oracle(ctx));
    ctx.tracer.set_enabled(true);
    wiscape_obs::set_enabled(true);
    let iso_dir = ctx.wal_dir.with_extension("iso");
    let mut per_pass: Vec<BTreeMap<String, f64>> = Vec::new();
    let start = ctx.clock.ns();
    while per_pass.is_empty()
        || ((ctx.clock.ns() - start) as f64 / 1e9) < args.seconds * PIPELINE_SHARE
    {
        let (traced, layers) = layer_figures(ctx, oracle.as_ref(), &iso_dir);
        out.absorb(&traced);
        per_pass.push(layers);
        if traced.check.is_err() {
            break;
        }
    }
    let mut l: BTreeMap<String, f64> = BTreeMap::new();
    for key in per_pass
        .iter()
        .flat_map(|m| m.keys())
        .collect::<std::collections::BTreeSet<_>>()
    {
        let values: Vec<f64> = per_pass
            .iter()
            .filter_map(|m| m.get(key).copied())
            .collect();
        l.insert(key.clone(), median(&values));
    }

    let calls = wiscape_obs::counter("exec/par_map_calls");
    let single = wiscape_obs::counter("exec/single_chunk_calls");
    let names = experiment_names();
    let reference = suite_reference(args, &names);
    let (c0, s0) = (calls.get(), single.get());
    let suite = suite_phase(
        ctx,
        &names,
        &reference,
        args.seconds * (1.0 - PIPELINE_SHARE),
        &mut out,
    );
    let (dc, ds) = (calls.get() - c0, single.get() - s0);
    l.insert(
        "exec.parallel_speedup".into(),
        median(
            &suite
                .iter()
                .map(|s| s.secs.values().sum::<f64>() / s.wall_s)
                .collect::<Vec<_>>(),
        ),
    );
    l.insert(
        "exec.single_chunk_frac".into(),
        ds as f64 / dc.max(1) as f64,
    );
    for name in &names {
        let secs: Vec<f64> = suite
            .iter()
            .filter_map(|s| s.secs.get(name).copied())
            .collect();
        l.insert(format!("experiments.{name}_s"), median(&secs));
    }

    write_trace(ctx, args);
    for (name, unit) in PER_LAYER {
        out.metrics
            .push((name.to_string(), l.get(*name).copied().unwrap_or(0.0), unit));
    }
    for name in &names {
        let key = format!("experiments.{name}_s");
        let value = l.get(&key).copied().unwrap_or(0.0);
        out.metrics.push((key, value, "s"));
    }
    out
}

/// Writes the spans (JSON lines) and the derived per-layer self times.
fn write_trace(ctx: &Ctx, args: &Args) {
    let stem = format!("{}-{}", args.workload, args.seed);
    let trace_path = args.workdir.join(format!("trace-{stem}.jsonl"));
    let written = std::fs::File::create(&trace_path)
        .and_then(|f| ctx.tracer.write_jsonl(std::io::BufWriter::new(f)));
    if let Err(e) = written {
        eprintln!("perfbench: write {}: {e}", trace_path.display());
    }
    let summary: Vec<String> = ctx
        .tracer
        .layer_times()
        .iter()
        .map(|(name, t)| {
            format!(
                "  {}: {{\"count\": {}, \"total_ms\": {}, \"self_ms\": {}}}",
                json_str(name),
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            )
        })
        .collect();
    let layers_path = args.workdir.join(format!("layers-{stem}.json"));
    if let Err(e) = std::fs::write(&layers_path, format!("{{\n{}\n}}\n", summary.join(",\n"))) {
        eprintln!("perfbench: write {}: {e}", layers_path.display());
    }
    eprintln!(
        "perfbench: {} spans -> {}, self times -> {}",
        ctx.tracer.spans().len(),
        trace_path.display(),
        layers_path.display()
    );
}

/// Removes every scratch WAL directory a run made under `wal_dir`.
fn remove_scratch(wal_dir: &Path) {
    for ext in ["", "predrain", "iso"] {
        let _ = std::fs::remove_dir_all(wal_dir.with_extension(ext));
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let spec = Spec::named(&args.workload).expect("validated workload");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let shards = if spec.sharded { nproc } else { 1 };
    if let Err(e) = std::fs::create_dir_all(&args.workdir) {
        eprintln!("perfbench: create {}: {e}", args.workdir.display());
        std::process::exit(2);
    }
    let wal_dir = args.workdir.join(format!("wal-{}", std::process::id()));
    let mut ctx = Ctx {
        clock: Clock(Instant::now()),
        tracer: Tracer::new(args.trace),
        spec,
        seed: args.seed,
        shards,
        wal_dir: wal_dir.clone(),
        next_tx: 0,
        alternate: false,
    };
    println!(
        "{{\"machine\": {{\"nproc\": {nproc}, \"rustc\": {}, \"wiscape_threads\": {}, \"shards\": {shards}, \"seed\": {}, \"workload\": {}, \"seconds\": {}, \"trace\": {}}}}}",
        json_str(&std::env::var("PERFBENCH_RUSTC").unwrap_or_else(|_| "unknown".into())),
        json_str(&std::env::var("WISCAPE_THREADS").unwrap_or_else(|_| "unset".into())),
        args.seed,
        json_str(&args.workload),
        args.seconds,
        u8::from(args.trace),
    );

    let out = if args.trace {
        traced_run(&mut ctx, &args)
    } else {
        timed_run(&mut ctx, &args)
    };
    remove_scratch(&wal_dir);

    for f in &out.failures {
        eprintln!("perfbench: CHECK FAILED: {f}");
    }
    let correct = out.failures.is_empty();
    let body: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

/// Per-layer metrics and their units (besides one
/// `experiments.<artifact>_s` per experiment), in `BENCHMARK.json`
/// order.
const PER_LAYER: &[(&str, &str)] = &[
    ("codec.decode_ns_per_tx", "ns"),
    ("codec.bytes_in_per_report", "B"),
    ("codec.reply_bytes_per_tx", "B"),
    ("codec.decode_errors", "count"),
    ("server.self_ns_per_tx", "ns"),
    ("server.tasks_per_checkin", "ratio"),
    ("server.dup_frac", "ratio"),
    ("server.staged_max", "count"),
    ("server.drain_ms", "ms"),
    ("coordinator.fold_ns_per_report", "ns"),
    ("coordinator.checkin_ns", "ns"),
    ("coordinator.flush_ms", "ms"),
    ("coordinator.cells", "count"),
    ("coordinator.state_bytes", "B"),
    ("shard.self_ns_per_tx", "ns"),
    ("shard.skew", "ratio"),
    ("shard.merge_ms", "ms"),
    ("wal.append_ns_per_record", "ns"),
    ("wal.bytes_per_record", "B"),
    ("wal.snapshots", "count"),
    ("wal.snapshot_bytes", "B"),
    ("wal.sync_ms", "ms"),
    ("wal.replayed", "count"),
    ("wal.snapshot_records", "count"),
    ("region.build_ms", "ms"),
    ("region.regions", "count"),
    ("region.splits", "count"),
    ("region.hotspot_ms", "ms"),
    ("region.hotspots", "count"),
    ("exec.parallel_speedup", "ratio"),
    ("exec.single_chunk_frac", "ratio"),
    ("obs.overhead_pct", "%"),
];
