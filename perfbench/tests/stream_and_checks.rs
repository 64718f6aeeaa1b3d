//! The benchmark's own tests: the generator is a pure function of its
//! seed, its injection books are exact, and every correctness check
//! trips when the value it guards is perturbed.

use std::collections::{BTreeMap, BTreeSet};

use wiscape_channel::codec::{FrameReader, WireMessageRef};
use wiscape_channel::{ChannelServer, CommitPolicy};
use wiscape_core::{state_fingerprint, Coordinator};
use wiscape_perfbench::checks::{self, MapDigest, Observed};
use wiscape_perfbench::sha256::hex_digest;
use wiscape_perfbench::stream::{Expect, Spec, Stream, NETWORKS, SAMPLES_PER_REPORT};
use wiscape_simcore::StreamRng;

/// A small lossy stream with enough loss that every injection occurs
/// many times.
fn small_lossy() -> Spec {
    Spec {
        clients: 300,
        rounds: 20,
        dup_frac: 0.2,
        corrupt_frac: 0.05,
        ..Spec::named("durable_lossy").expect("known workload")
    }
}

/// A small perfectly delivered stream over the nation-scale index.
fn small_perfect() -> Spec {
    Spec {
        clients: 200,
        rounds: 10,
        ..Spec::named("nation").expect("known workload")
    }
}

/// SHA-256 of every round buffer of a stream, plus its books.
fn stream_digest(spec: &Spec, seed: u64) -> (Vec<String>, Expect) {
    let mut stream = Stream::new(spec, seed);
    let mut digests = Vec::new();
    while let Some(round) = stream.next_round() {
        digests.push(hex_digest(&round.buf));
    }
    (digests, stream.books())
}

#[test]
fn same_seed_gives_identical_bytes_and_other_seeds_differ() {
    let spec = small_lossy();
    let (a, books_a) = stream_digest(&spec, 9);
    let (b, books_b) = stream_digest(&spec, 9);
    assert_eq!(a, b, "same seed must give byte-identical rounds");
    assert_eq!(books_a, books_b);
    let (c, _) = stream_digest(&spec, 10);
    assert_eq!(a.len(), c.len());
    assert!(
        a.iter().zip(&c).all(|(x, y)| x != y),
        "a different seed must change every round"
    );
}

#[test]
fn every_workload_spec_is_known() {
    for name in wiscape_perfbench::stream::WORKLOADS {
        let spec = Spec::named(name).expect("listed workload has a spec");
        assert_eq!(spec.name, name);
    }
    assert!(Spec::named("bogus").is_none());
}

#[test]
fn injected_corruption_and_duplicate_counts_are_exact() {
    let spec = small_lossy();
    let mut stream = Stream::new(&spec, 3);
    let mut seen: BTreeSet<(u32, u64)> = BTreeSet::new();
    let (mut corrupted, mut duplicates, mut unique, mut checkins) = (0, 0, 0, 0);
    let mut transmissions = 0;
    while let Some(round) = stream.next_round() {
        for tx in &round.txs {
            transmissions += 1;
            let frames: Result<Vec<_>, _> = FrameReader::new(round.bytes(tx)).collect();
            let Ok(frames) = frames else {
                corrupted += 1;
                assert!(tx.corrupted, "an intact transmission failed to decode");
                continue;
            };
            assert!(!tx.corrupted, "a corrupted transmission decoded cleanly");
            let mut reports = 0;
            for frame in frames {
                match frame {
                    WireMessageRef::Checkin(_) => checkins += 1,
                    WireMessageRef::Report(v) => {
                        reports += 1;
                        assert_eq!(v.n_samples(), SAMPLES_PER_REPORT);
                        if seen.insert((v.client.0, v.seq)) {
                            unique += 1;
                        } else {
                            duplicates += 1;
                        }
                    }
                    other => panic!("client stream carried a server message: {other:?}"),
                }
            }
            assert_eq!(reports, tx.reports);
        }
    }
    let books = stream.books();
    assert!(books.corrupted > 10 && books.duplicates > 100, "{books:?}");
    assert_eq!(books.transmissions, transmissions);
    assert_eq!(books.corrupted, corrupted);
    assert_eq!(books.duplicates, duplicates);
    assert_eq!(books.unique_reports, unique);
    assert_eq!(books.checkins, checkins);
    assert_eq!(books.samples, unique * SAMPLES_PER_REPORT as u64);
}

/// Drives `spec` through a plain `ChannelServer` and returns what the
/// checks observe, plus the published state's fingerprint.
fn run_small(spec: &Spec, seed: u64) -> (Observed, Expect, String) {
    let policy = spec
        .settle()
        .map_or(CommitPolicy::Immediate, CommitPolicy::Watermark);
    let mut server = ChannelServer::new(
        Coordinator::new(spec.zone_index(), spec.coordinator_config()),
        policy,
        StreamRng::new(seed).fork("deployment"),
        NETWORKS.to_vec(),
    );
    let mut stream = Stream::new(spec, seed);
    let mut missing_acks = 0;
    while let Some(round) = stream.next_round() {
        for tx in &round.txs {
            let replies = server.receive(round.bytes(tx), round.now);
            let acked: usize = replies
                .iter()
                .filter_map(|r| match wiscape_channel::codec::decode_ref(r) {
                    Ok(WireMessageRef::Ack(a)) => Some(a.len()),
                    _ => None,
                })
                .sum();
            if !tx.corrupted && acked != tx.reports as usize {
                missing_acks += 1;
            }
        }
    }
    server.drain(spec.end());
    let m = server.meters();
    let obs = Observed {
        decode_errors: m.decode_errors,
        duplicates_dropped: m.duplicates_dropped,
        reports_ingested: m.reports_ingested,
        reports_rejected: m.reports_rejected,
        checkins: m.checkins,
        missing_acks,
        published_samples: server
            .coordinator()
            .all_published()
            .iter()
            .map(|e| e.samples)
            .sum(),
    };
    let fp = state_fingerprint(&server.coordinator().export_state());
    (obs, stream.books(), fp)
}

#[test]
fn lossy_check_passes_on_a_real_run_and_trips_on_each_perturbation() {
    let (obs, want, fp) = run_small(&small_lossy(), 7);
    assert!(want.corrupted > 0 && want.duplicates > 0);
    checks::check_lossy(&obs, &want, &fp, &fp).expect("a correct run passes");
    for w in [
        Expect {
            corrupted: want.corrupted + 1,
            ..want
        },
        Expect {
            duplicates: want.duplicates - 1,
            ..want
        },
        Expect {
            samples: want.samples + 1,
            ..want
        },
    ] {
        assert!(checks::check_lossy(&obs, &w, &fp, &fp).is_err(), "{w:?}");
    }
    let other = format!("{fp}0");
    assert!(checks::check_lossy(&obs, &want, &fp, &other).is_err());
}

#[test]
fn replay_check_passes_on_equal_state_and_trips_on_each_perturbation() {
    let (_, _, fp) = run_small(&small_lossy(), 7);
    checks::check_replay(812, 812, &fp, &fp).expect("an exact replay passes");
    assert!(checks::check_replay(812, 811, &fp, &fp).is_err());
    assert!(checks::check_replay(812, 812, &fp, &format!("{fp}0")).is_err());
}

#[test]
fn nation_check_passes_on_a_real_run_and_trips_on_each_perturbation() {
    let (obs, want, fp) = run_small(&small_perfect(), 2);
    let oracle = MapDigest {
        state: fp,
        regions: "r".into(),
        hotspots: "h".into(),
    };
    checks::check_nation(&obs, &want, &oracle, &oracle).expect("a correct run passes");
    for got in [
        MapDigest {
            state: "x".into(),
            ..oracle.clone()
        },
        MapDigest {
            regions: "x".into(),
            ..oracle.clone()
        },
        MapDigest {
            hotspots: "x".into(),
            ..oracle.clone()
        },
    ] {
        assert!(checks::check_nation(&obs, &want, &got, &oracle).is_err());
    }
    for w in [
        Expect {
            samples: want.samples + 1,
            ..want
        },
        Expect {
            unique_reports: want.unique_reports - 1,
            ..want
        },
        Expect {
            checkins: want.checkins + 1,
            ..want
        },
    ] {
        assert!(
            checks::check_nation(&obs, &w, &oracle, &oracle).is_err(),
            "{w:?}"
        );
    }
    for o in [
        Observed {
            published_samples: obs.published_samples - 1,
            ..obs
        },
        Observed {
            missing_acks: 1,
            ..obs
        },
        Observed {
            reports_rejected: 1,
            ..obs
        },
    ] {
        assert!(
            checks::check_nation(&o, &want, &oracle, &oracle).is_err(),
            "{o:?}"
        );
    }
}

#[test]
fn artifact_check_reads_the_manifest_format_and_trips_on_any_difference() {
    let manifest = "aa11  fig01.json\nbb22  fig02.json\n";
    let want = checks::parse_manifest(manifest);
    assert_eq!(want.len(), 2);
    assert_eq!(want["fig02.json"], "bb22");
    let got: BTreeMap<String, String> = want.clone();
    checks::check_artifacts(&got, &want).expect("identical digests pass");
    let mut changed = got.clone();
    changed.insert("fig01.json".into(), "ff".into());
    assert!(checks::check_artifacts(&changed, &want).is_err());
    let mut missing = got.clone();
    missing.remove("fig02.json");
    assert!(checks::check_artifacts(&missing, &want).is_err());
    let mut extra = got;
    extra.insert("fig99.json".into(), "00".into());
    assert!(checks::check_artifacts(&extra, &want).is_err());
}

#[test]
fn artifact_digests_match_the_committed_manifest_at_its_seed() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let text = std::fs::read_to_string(root.join("results/QUICK_MANIFEST.sha256"))
        .expect("committed manifest");
    let want = checks::parse_manifest(&text);
    assert_eq!(want.len(), wiscape_experiments::ALL_EXPERIMENTS.len());
    let (_, json) = wiscape_experiments::run_by_name("fig10", 7, wiscape_experiments::Scale::Quick)
        .expect("fig10 exists");
    assert_eq!(hex_digest(json.as_bytes()), want["fig10.json"]);
}
