//! Correctness checks. Each returns `Err` with a one-line reason when
//! the system's output disagrees with what the generator (or an
//! independent oracle) says it must be; the benchmark fails the run on
//! any `Err`.

use std::collections::BTreeMap;

use crate::stream::Expect;

/// The counters a pipeline run observed, read from public meters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Observed {
    /// `ServerMeters::decode_errors`.
    pub decode_errors: u64,
    /// `ServerMeters::duplicates_dropped`.
    pub duplicates_dropped: u64,
    /// `ServerMeters::reports_ingested`.
    pub reports_ingested: u64,
    /// `ServerMeters::reports_rejected`.
    pub reports_rejected: u64,
    /// `ServerMeters::checkins`.
    pub checkins: u64,
    /// Intact transmissions whose replies did not ack every report.
    pub missing_acks: u64,
    /// Sum of `samples` over the published map.
    pub published_samples: u64,
}

fn expect_eq(what: &str, got: u64, want: u64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got}, expected {want}"))
    }
}

/// Checks every workload shares: each intact transmission was fully
/// acked, every intact check-in was processed, and exactly the unique
/// reports were committed, none rejected.
fn check_delivery(obs: &Observed, want: &Expect) -> Result<(), String> {
    expect_eq("transmissions missing acks", obs.missing_acks, 0)?;
    expect_eq("check-ins processed", obs.checkins, want.checkins)?;
    expect_eq("reports rejected", obs.reports_rejected, 0)?;
    expect_eq(
        "unique reports committed",
        obs.reports_ingested,
        want.unique_reports,
    )
}

/// `durable_lossy`: every corrupted transmission was one decode error,
/// exactly the injected duplicates were dropped, the published map
/// accounts for every sample delivered, and a cold recovery of the WAL
/// reproduces the live state bit for bit.
pub fn check_lossy(
    obs: &Observed,
    want: &Expect,
    live_fingerprint: &str,
    recovered_fingerprint: &str,
) -> Result<(), String> {
    check_delivery(obs, want)?;
    expect_eq("decode errors", obs.decode_errors, want.corrupted)?;
    expect_eq(
        "duplicates dropped",
        obs.duplicates_dropped,
        want.duplicates,
    )?;
    expect_eq("published samples", obs.published_samples, want.samples)?;
    if live_fingerprint != recovered_fingerprint {
        return Err("recovered state fingerprint differs from the live state".into());
    }
    Ok(())
}

/// `durable_lossy`, replay path: a cold recovery of a copy of the WAL
/// caught before drain (so it must replay the log written since its
/// last snapshot) finds every record the live writer had made durable
/// and rebuilds the live state of that moment bit for bit.
pub fn check_replay(
    live_records: u64,
    recovered_records: u64,
    live_fingerprint: &str,
    recovered_fingerprint: &str,
) -> Result<(), String> {
    expect_eq(
        "records recovered before drain",
        recovered_records,
        live_records,
    )?;
    if live_fingerprint != recovered_fingerprint {
        return Err("state replayed from the pre-drain log differs from the live state".into());
    }
    Ok(())
}

/// What the `nation` pipeline publishes, reduced to fingerprints.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MapDigest {
    /// `state_fingerprint` of the merged coordinator state.
    pub state: String,
    /// `region_fingerprint` of the adaptive partition.
    pub regions: String,
    /// `hotspot_fingerprint` of the ranked hotspot list.
    pub hotspots: String,
}

/// `nation`: the published map accounts for every sample sent, and the
/// sharded pipeline's merged state, region set and hotspot list equal
/// those of a single-coordinator oracle.
pub fn check_nation(
    obs: &Observed,
    want: &Expect,
    got: &MapDigest,
    oracle: &MapDigest,
) -> Result<(), String> {
    check_delivery(obs, want)?;
    expect_eq("published samples", obs.published_samples, want.samples)?;
    if got.state != oracle.state {
        return Err("merged state fingerprint differs from the single-coordinator oracle".into());
    }
    if got.regions != oracle.regions {
        return Err("region set differs from the single-coordinator oracle".into());
    }
    if got.hotspots != oracle.hotspots {
        return Err("hotspot list differs from the single-coordinator oracle".into());
    }
    Ok(())
}

/// Parses a `sha256sum`-format manifest into `file -> hex digest`.
pub fn parse_manifest(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .filter_map(|line| {
            let mut parts = line.split_whitespace();
            let digest = parts.next()?;
            let file = parts.next()?;
            Some((file.to_string(), digest.to_string()))
        })
        .collect()
}

/// Quick artifact suite: every experiment produced an artifact whose
/// SHA-256 equals the expected one (the committed manifest at the
/// manifest seed, a 1-worker reference run otherwise).
pub fn check_artifacts(
    got: &BTreeMap<String, String>,
    want: &BTreeMap<String, String>,
) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "artifact count: got {}, expected {}",
            got.len(),
            want.len()
        ));
    }
    for (file, digest) in want {
        match got.get(file) {
            Some(d) if d == digest => {}
            Some(_) => return Err(format!("artifact {file}: bytes differ from the reference")),
            None => return Err(format!("artifact {file}: missing")),
        }
    }
    Ok(())
}
