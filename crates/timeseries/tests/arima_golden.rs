//! Golden AutoArima fixtures: a cold `AutoArima::fit` at n = 100 followed
//! by warm refits at n = 200, 300, …, 1000 on three series (an AR(2) whose
//! `Σ|φ| > 1`, so the optimizer probes coefficient vectors that need the
//! full impulse-response stability loop; an MA(1); a drift series), each
//! under `ArimaFitOptions::default()` and `::baseline()`. After every fit
//! the whole `AutoArima` (selected order, fitted coefficients, warm table)
//! and its 16-step forecast as raw `f64` bits are compared with a committed
//! rendering, so any change to the CSS objective, the stability check or
//! the forecast recursion that moves a single bit fails here.
//!
//! Regenerate (only when a behaviour change is intended and documented):
//!
//! ```text
//! cargo test -p utilcast-timeseries --test arima_golden -- --ignored generate_arima_golden_fixtures
//! ```

use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use utilcast_linalg::rng::standard_normal;
use utilcast_timeseries::arima::{ArimaFitOptions, ArimaGrid, AutoArima};
use utilcast_timeseries::Forecaster;

const LEN: usize = 1000;
const HORIZON: usize = 16;

/// AR(2) with φ = (1.3, −0.4): stationary (roots 1.25 and 2), but
/// `Σ|φ| = 1.7`.
fn ar2_series(seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut xs = vec![0.0f64, 0.0];
    for t in 2..LEN {
        let x = 1.3 * xs[t - 1] - 0.4 * xs[t - 2] + 0.1 * standard_normal(&mut rng);
        xs.push(x);
    }
    xs
}

fn ma1_series(seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let es: Vec<f64> = (0..=LEN).map(|_| 0.1 * standard_normal(&mut rng)).collect();
    (1..=LEN).map(|t| es[t] + 0.6 * es[t - 1]).collect()
}

fn drift_series(seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..LEN)
        .map(|t| t as f64 * 0.002 + 0.05 * standard_normal(&mut rng))
        .collect()
}

#[derive(Serialize)]
struct Step {
    n: usize,
    model: AutoArima,
    forecast_bits: Vec<u64>,
}

/// One case: the rendered model and forecast after every (re)fit, one JSON
/// line per fit.
fn render(series: &[f64], options: ArimaFitOptions) -> String {
    let mut model = AutoArima::new(ArimaGrid::quick(), options);
    let mut out = String::new();
    for n in (100..=LEN).step_by(100) {
        let history = &series[..n];
        model.fit(history).expect("fit");
        let forecast = model.forecast(history, HORIZON).expect("forecast");
        let step = Step {
            n,
            model: model.clone(),
            forecast_bits: forecast.iter().map(|v| v.to_bits()).collect(),
        };
        out.push_str(&serde_json::to_string(&step).expect("serialize"));
        out.push('\n');
    }
    out
}

fn cases() -> Vec<(String, String)> {
    let series = [
        ("ar2", ar2_series(71)),
        ("ma1", ma1_series(73)),
        ("drift", drift_series(79)),
    ];
    let mut out = Vec::new();
    for (tag, xs) in &series {
        for (opt_tag, options) in [
            ("default", ArimaFitOptions::default()),
            ("baseline", ArimaFitOptions::baseline()),
        ] {
            out.push((format!("arima_{tag}_{opt_tag}"), render(xs, options)));
        }
    }
    out
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("{name}.jsonl"))
}

#[test]
#[ignore = "writes the fixtures; run only to re-pin an intended change"]
fn generate_arima_golden_fixtures() {
    std::fs::create_dir_all(fixture_path("x").parent().unwrap()).unwrap();
    for (name, rendered) in cases() {
        std::fs::write(fixture_path(&name), rendered).unwrap();
    }
}

#[test]
fn auto_arima_fits_and_forecasts_match_golden_fixtures() {
    for (name, rendered) in cases() {
        let fixture = std::fs::read_to_string(fixture_path(&name))
            .unwrap_or_else(|e| panic!("fixture {name}: {e}"));
        for (i, (got, want)) in rendered.lines().zip(fixture.lines()).enumerate() {
            assert_eq!(got, want, "{name}: fit {} diverged from its fixture", i + 1);
        }
        assert_eq!(
            rendered.lines().count(),
            fixture.lines().count(),
            "{name}: fit count"
        );
    }
}
