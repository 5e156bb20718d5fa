//! LSTM kernel-parity suite (ISSUE 4 satellite): the fused flat-buffer
//! kernels must be **bit-identical** to the `Exact` scalar reference across
//! seeds and shapes — same training trajectory (per-epoch MSE), same fitted
//! state, same forecasts. Equality below is exact floating-point equality,
//! never a tolerance.

use proptest::prelude::*;
use utilcast_timeseries::lstm::{Lstm, LstmConfig, LstmKernel};
use utilcast_timeseries::Forecaster;

/// A bounded synthetic utilization-like series: deterministic mix of trend,
/// seasonality, and hash noise.
fn series(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|t| {
            let wave = ((t as f64) * 0.35).sin() * 0.2;
            let noise = (((t as u64).wrapping_mul(2654435761).wrapping_add(seed * 97)) % 1000)
                as f64
                / 10_000.0;
            0.5 + wave + noise
        })
        .collect()
}

fn fit_pair(config: &LstmConfig, data: &[f64]) -> (Lstm, Lstm) {
    let mut exact = Lstm::new(LstmConfig {
        kernel: LstmKernel::Exact,
        ..config.clone()
    });
    let mut fused = Lstm::new(LstmConfig {
        kernel: LstmKernel::FusedFlat,
        ..config.clone()
    });
    exact.fit(data).expect("exact fit");
    fused.fit(data).expect("fused fit");
    (exact, fused)
}

proptest! {
    /// Fused training and forecasting are bitwise equal to the Exact
    /// reference kernel across window/hidden/layer/epoch/seed shapes.
    #[test]
    fn fused_kernel_bit_identical_across_shapes(
        window in 2usize..6,
        hidden in 1usize..6,
        layers in 1usize..3,
        epochs in 1usize..4,
        seed in 0u64..1000,
        data_seed in 0u64..1000,
    ) {
        let config = LstmConfig {
            window,
            hidden,
            layers,
            epochs,
            learning_rate: 0.02,
            grad_clip: 1.0,
            seed,
            kernel: LstmKernel::FusedFlat,
        };
        let data = series(window * 4 + 24, data_seed);
        let (exact, fused) = fit_pair(&config, &data);
        // Training trajectory: the last-epoch MSE is an accumulation over
        // every per-sample forward/backward pass, so bitwise equality here
        // certifies the whole trajectory matched.
        prop_assert_eq!(
            exact.train_mse().expect("trained").to_bits(),
            fused.train_mse().expect("trained").to_bits(),
            "train_mse diverged"
        );
        // Closed-loop multi-step forecasts feed predictions back through
        // the network, compounding any kernel difference.
        let ef = exact.forecast(&data, 8).expect("exact forecast");
        let ff = fused.forecast(&data, 8).expect("fused forecast");
        for (h, (e, f)) in ef.iter().zip(ff.iter()).enumerate() {
            prop_assert_eq!(e.to_bits(), f.to_bits(), "forecast h={} diverged", h);
        }
    }

    /// Kernel choice does not leak into the harness contract: both kernels
    /// accept the same minimum history and reject the same short inputs.
    #[test]
    fn fused_kernel_same_error_surface(
        window in 2usize..6,
        seed in 0u64..100,
    ) {
        let config = LstmConfig {
            window,
            hidden: 3,
            layers: 1,
            epochs: 1,
            learning_rate: 0.02,
            grad_clip: 1.0,
            seed,
            kernel: LstmKernel::FusedFlat,
        };
        let short = series(window, seed); // too short: needs window + 2
        let mut exact = Lstm::new(LstmConfig { kernel: LstmKernel::Exact, ..config.clone() });
        let mut fused = Lstm::new(config);
        prop_assert_eq!(exact.fit(&short).is_err(), fused.fit(&short).is_err());
    }
}

/// Forecast feedback clamps engage on out-of-range data; the clamp path
/// must also be bit-identical between kernels.
#[test]
fn fused_kernel_bit_identical_with_clamped_feedback() {
    let config = LstmConfig {
        window: 4,
        hidden: 4,
        layers: 2,
        epochs: 3,
        learning_rate: 0.05,
        grad_clip: 0.5,
        seed: 7,
        kernel: LstmKernel::FusedFlat,
    };
    // Data hugging the range edges so normalized values hit the clamps.
    let data: Vec<f64> = (0..40)
        .map(|t| if t % 7 < 3 { 0.001 } else { 0.999 })
        .collect();
    let (exact, fused) = fit_pair(&config, &data);
    let ef = exact.forecast(&data, 12).expect("exact forecast");
    let ff = fused.forecast(&data, 12).expect("fused forecast");
    assert_eq!(ef, ff);
}
