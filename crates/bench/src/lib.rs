//! Shared fixtures for the `baseline` performance binary, plus the
//! quality-ablation studies called out in `DESIGN.md`.
//!
//! The baseline writes `results/BENCH_core.json`
//! (`cargo run -p wiscape-bench --bin baseline --release`); the
//! ablations (which measure estimation *quality*, not time) are a
//! binary too: `cargo run -p wiscape-bench --bin ablations --release`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;

use wiscape_geo::GeoPoint;
use wiscape_simnet::{Landscape, LandscapeConfig};

/// The canonical benchmark landscape (Madison preset, fixed seed).
pub fn bench_landscape() -> Landscape {
    Landscape::new(LandscapeConfig::madison(0xBE7C))
}

/// A healthy benchmark point near the city center.
pub fn bench_point(land: &Landscape) -> GeoPoint {
    let c = land.origin();
    (0..200)
        .map(|i| c.destination(i as f64 * 0.37, 150.0 + i as f64 * 53.0))
        .find(|p| !land.is_degraded(p))
        .unwrap_or(c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_usable() {
        let land = bench_landscape();
        let p = bench_point(&land);
        assert!(!land.is_degraded(&p));
    }
}
