//! Closed-loop tick benchmark for utilcast.
//!
//! ```text
//! perfbench --workload <collect|serve|degraded> --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! Generates the workload's trace from `--seed`, checks the loop against
//! `Simulation::run` on a prefix, then runs episodes (fresh controller,
//! slot 0 onward) until `--seconds` have passed. With `--trace 0` the last
//! stdout line carries the end-to-end metrics; with `--trace 1` the first
//! episode runs untraced (the overhead baseline) and the rest record
//! per-layer spans, which are summarised on the last line and written to
//! `out/spans-<workload>-<seed>.csv` beside this package's manifest.
//! `--tiny` shrinks every workload for the smoke test. The process exits
//! non-zero when any operation fails or any correctness check disagrees.

mod episode;
mod spans;
mod stats;
mod tickloop;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use utilcast_bench::report::ResolvedConfig;
use utilcast_datasets::{Resource, Trace};
use utilcast_simnet::sim::{SimReport, Simulation};

use crate::episode::{Counters, Episode, Plan, Quality};
use crate::spans::{Layer, Recorder};
use crate::stats::{median, tail_percentile};
use crate::workload::{Kind, Workload, BUDGET, K};

/// Set-up samples a run takes (extra set-up-only episodes fill the gap).
const SETUP_SAMPLES: usize = 5;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tiny,
    })
}

/// One output metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Listed in `BENCHMARK.json` (and on the last line); otherwise only
    /// printed.
    gated: bool,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        gated: true,
    }
}

/// A metric printed but not gated: its value follows the shared host's
/// memory speed, which was seen to swing by more than the largest bound
/// between runs.
fn reported(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        gated: false,
        ..metric(name, value, unit)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = Workload::new(args.kind, args.seed, 0, args.tiny);
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        w.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    // The episode schedule: one per sub-trace. A traced run, whose twins
    // make each episode about three times as long, takes a third of the
    // sub-traces and first replays sub-trace 0 untraced as the overhead
    // baseline.
    let planned = w.episodes(args.seconds);
    let planned = if args.trace {
        planned.div_ceil(3)
    } else {
        planned
    };
    let mut schedule: Vec<(usize, bool)> = (0..planned).map(|sub| (sub, args.trace)).collect();
    if args.trace {
        schedule.insert(0, (0, false));
    }

    let steal_at_start = stats::host_steal_s();
    let mut failures: Vec<String> = Vec::new();
    let mut reference: Option<SimReport> = None;
    let mut rec = Recorder::new(false);
    // Per-layer counts of the traced episodes; untraced ones count into
    // `scratch`.
    let mut counters = Counters::default();
    let mut scratch = Counters::default();
    let mut episodes: Vec<(usize, Episode)> = Vec::new();
    let mut load_s = 0.0;
    let mut current: Option<(usize, Workload, Trace)> = None;
    for (index, &(sub, traced)) in schedule.iter().enumerate() {
        if current.as_ref().map(|c| c.0) != Some(sub) {
            // Load generator: never part of a measurement.
            // Free the previous trace before generating the next.
            drop(current.take());
            let started = Instant::now();
            let ws = Workload::new(args.kind, args.seed, sub, args.tiny);
            let trace = ws.generate();
            load_s += started.elapsed().as_secs_f64();
            current = Some((sub, ws, trace));
        }
        let Some((_, ws, trace)) = current.as_ref() else {
            break;
        };
        let parity_at = (index == 0).then_some(ws.parity_prefix);
        if index == 0 {
            let prefix = trace.truncated(ws.parity_prefix);
            match Simulation::new(ws.sim_config()).and_then(|sim| sim.run(&prefix, Resource::Cpu)) {
                Ok(r) => {
                    reference = Some(SimReport {
                        forecast_table_rebuilds: 0,
                        forecast_reads_served: 0,
                        ..r
                    })
                }
                Err(e) => failures.push(format!("Simulation::run: {e}")),
            }
        }
        let plan = Plan {
            traced,
            parity_at,
            setup_only: false,
        };
        let sink = if traced { &mut counters } else { &mut scratch };
        let ep = episode::run(ws, trace, index, plan, sink, &mut rec);
        let failed = !ep.failures.is_empty();
        episodes.push((sub, ep));
        if failed {
            break;
        }
    }
    println!("# load generator: {load_s:.3} s over the run's traces (not measured)");
    if let (Some(a), Some(b)) = (steal_at_start, stats::host_steal_s()) {
        println!(
            "# host: {:.2} s of CPU time stolen by the hypervisor during the episodes",
            b - a
        );
    }

    // Set-up samples: one per episode, topped up with set-up-only episodes
    // on the last trace.
    let mut setup_ns: Vec<f64> = episodes.iter().map(|(_, e)| e.setup_ns as f64).collect();
    let mut extra = Vec::new();
    if let Some((_, ws, trace)) = current.as_ref() {
        while setup_ns.len() < SETUP_SAMPLES && failures.is_empty() {
            let plan = Plan {
                traced: false,
                parity_at: None,
                setup_only: true,
            };
            let index = episodes.len() + extra.len();
            let ep = episode::run(ws, trace, index, plan, &mut scratch, &mut rec);
            setup_ns.push(ep.setup_ns as f64);
            extra.push(ep);
        }
    }
    drop(current);

    // Correctness: reference parity, replay agreement, every operation.
    if let (Some(r), Some((_, first))) = (&reference, episodes.first()) {
        match &first.parity {
            Some(p) if !same_report(r, p) => failures.push(format!(
                "loop diverges from Simulation::run on the {}-slot prefix:\n  loop {p:?}\n  sim  {r:?}",
                w.parity_prefix
            )),
            None => failures.push("parity prefix not reached".into()),
            _ => {}
        }
    }
    for (i, (sub, ep)) in episodes.iter().enumerate() {
        for (other_sub, other) in &episodes[..i] {
            if other_sub == sub && !ep.quality.same_bits(&other.quality) {
                failures.push(format!(
                    "replay of trace {sub} differs: {:?} vs {:?}",
                    ep.quality, other.quality
                ));
            }
        }
    }
    // Failed checks above each count as one failed operation.
    let mut failed = failures.len() as u64;
    let mut attempted = 0u64;
    for ep in episodes.iter().map(|(_, e)| e).chain(&extra) {
        attempted += ep.attempted;
        failed += ep.failed;
        failures.extend(ep.failures.iter().cloned());
    }
    let attempted = attempted.max(1);
    let correct = failures.is_empty();
    let episodes: Vec<Episode> = episodes.into_iter().map(|(_, e)| e).collect();

    print_config(&w, &args, &episodes);
    let metrics = if args.trace {
        layer_metrics(&w, &episodes, &counters, &rec, args.seed)
    } else {
        end_to_end(&w, &episodes, &setup_ns)
    };
    for m in &metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    println!(
        "metric failed_op_ratio {} ratio ({failed} of {attempted} ticks, table builds, reads and restores)",
        failed as f64 / attempted as f64
    );
    for f in &failures {
        println!("FAILED {f}");
    }
    let body: Vec<String> = metrics
        .iter()
        .filter(|m| m.gated)
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Reference parity: every field bitwise (floats by their bits).
fn same_report(a: &SimReport, b: &SimReport) -> bool {
    let floats = |r: &SimReport| {
        [
            r.realized_frequency,
            r.staleness_rmse,
            r.intermediate_rmse,
            r.mean_age,
        ]
        .map(f64::to_bits)
    };
    a == b && floats(a) == floats(b)
}

/// A JSON number (non-finite values, which no metric should produce,
/// become `-1`).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".into()
    }
}

fn print_config(w: &Workload, args: &Args, episodes: &[Episode]) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let features: Vec<&str> = [
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx", cfg!(target_feature = "avx")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
    ]
    .into_iter()
    .filter_map(|(name, on)| on.then_some(name))
    .collect();
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let timed: usize = episodes.iter().map(|e| e.tick_ns.len()).sum();
    let compute = serde_json::to_string(&w.compute).unwrap_or_default();
    let resolved = serde_json::to_string(&ResolvedConfig::capture(&w.compute)).unwrap_or_default();
    let link = serde_json::to_string(&w.delivery).unwrap_or_default();
    println!(
        "config {{\"host\": {{\"nproc\": {nproc}, \"arch\": \"{}\", \"os\": \"{}\", \
         \"rustflags\": {:?}, \"target_features\": {features:?}, \"profile\": \"{profile}\"}}, \
         \"workload\": {{\"name\": \"{}\", \"preset\": \"{}\", \"seed\": {}, \"seconds\": {}, \
         \"nodes\": {}, \"k\": {K}, \"budget\": {BUDGET}, \"resource\": \"cpu\", \"model\": \"{}\", \
         \"warmup\": {}, \"retrain_every\": {}, \"episode_ticks\": {}, \"episodes\": {}, \
         \"timed_ticks\": {timed}, \"serve_reads\": {}, \"checkpoint_every\": {}, \
         \"probe_every\": {}, \"parity_prefix\": {}}}, \"compute\": {compute}, \
         \"resolved\": {resolved}, \"delivery\": {link}}}",
        std::env::consts::ARCH,
        std::env::consts::OS,
        std::env::var("RUSTFLAGS").unwrap_or_default(),
        w.kind.name(),
        w.preset,
        args.seed,
        args.seconds,
        w.nodes,
        w.model_name,
        w.warmup,
        w.retrain_every,
        w.episode_ticks(),
        episodes.len(),
        w.serve_reads,
        w.checkpoint_every,
        w.probe_every,
        w.parity_prefix,
    );
}

fn end_to_end(w: &Workload, episodes: &[Episode], setup_ns: &[f64]) -> Vec<Metric> {
    let ticks: Vec<f64> = episodes
        .iter()
        .flat_map(|e| e.tick_ns.iter().map(|&ns| ns as f64 / 1e6))
        .collect();
    let timed = ticks.len() as f64;
    let loop_s: f64 = episodes.iter().map(|e| e.loop_ns as f64 / 1e9).sum();
    let reads: Vec<f64> = episodes
        .iter()
        .flat_map(|e| e.read_ns.iter().copied())
        .collect();
    let (p, tail) = tail_percentile(&ticks);
    println!(
        "# tick_ms_tail is p{p} of {} timed slots ({} beyond it); tick_ms_p50 is p50",
        ticks.len(),
        (timed * (1.0 - p / 100.0)).floor()
    );
    let per_episode: Vec<String> = episodes
        .iter()
        .map(|e| {
            let nsps = w.nodes as f64 * e.tick_ns.len() as f64 / (e.loop_ns as f64 / 1e9);
            let ms: Vec<f64> = e.tick_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
            format!("{nsps:.0}/{:.2}", median(&ms))
        })
        .collect();
    println!(
        "# node_steps_per_s/tick_ms_p50 by episode: {}",
        per_episode.join(" ")
    );
    // Scores are medians over the run's traces (one episode each), so one
    // trace with an unlucky regime shift does not move them.
    let across = |f: fn(&Quality) -> f64| {
        let v: Vec<f64> = episodes.iter().map(|e| f(&e.quality)).collect();
        median(&v)
    };
    vec![
        metric("setup_s", median(setup_ns) / 1e9, "s"),
        reported("node_steps_per_s", w.nodes as f64 * timed / loop_s, "1/s"),
        reported("tick_ms_p50", median(&ticks), "ms"),
        metric("tick_ms_tail", tail, "ms"),
        reported("read_ns_p50", median(&reads), "ns"),
        metric("staleness_rmse", across(|q| q.staleness_rmse), "util"),
        metric("intermediate_rmse", across(|q| q.intermediate_rmse), "util"),
        metric("forecast_rmse_h1", across(|q| q.forecast_rmse_h1), "util"),
        metric("forecast_rmse_h16", across(|q| q.forecast_rmse_h16), "util"),
        metric(
            "wire_bytes_per_node_step",
            across(|q| q.wire_bytes_per_node_step),
            "B",
        ),
        metric("peak_rss_mb", stats::peak_rss_mb(), "MB"),
    ]
}

fn layer_metrics(
    w: &Workload,
    episodes: &[Episode],
    c: &Counters,
    rec: &Recorder,
    seed: u64,
) -> Vec<Metric> {
    let traced: Vec<&Episode> = episodes.iter().filter(|e| e.traced).collect();
    // Tracing overhead: the first two episodes replay one trace, untraced
    // then traced (twins excluded from both clocks).
    let rate = |e: &Episode| w.nodes as f64 * e.tick_ns.len() as f64 / (e.loop_ns as f64 / 1e9);
    let overhead = match episodes {
        [base, replay, ..] => 1.0 - rate(replay) / rate(base),
        _ => 0.0,
    };

    let tot = rec.totals();
    let slots = tot.count(Layer::Slot).max(1) as f64;
    let per_tick = |l: Layer| tot.busy(l) as f64 / slots / 1e3;
    let ticks = traced.iter().map(|e| e.tick_ns.len()).sum::<usize>().max(1) as f64;
    let plain_ticks = (ticks - c.retrain_ticks as f64).max(1.0);
    let tick_us = c.tick_ns[0] as f64 / plain_ticks / 1e3;
    let retrain_us = if c.retrain_ticks > 0 {
        c.tick_ns[1] as f64 / c.retrain_ticks as f64 / 1e3
    } else {
        0.0
    };
    let controller_us = per_tick(Layer::Controller);
    let twin_ok = traced.iter().all(|e| e.twin_ok);
    // Twin layers are reported as -1 (unavailable) once a twin has left
    // lockstep with the controller.
    let twin = |v: f64| if twin_ok { v } else { -1.0 };
    let stage_us = twin(per_tick(Layer::TwinStage));
    let cluster_us = twin(per_tick(Layer::TwinCluster));
    // Reads on the slot path only (off the serve path, the sampled read
    // batches sit outside the slot).
    let reads = if w.serve_reads {
        traced.iter().map(|e| e.read_ns.len() as u64).sum::<u64>() * w.nodes as u64
    } else {
        0
    };
    let useful = if w.delivery.is_passthrough() {
        1.0
    } else {
        c.frames_admitted as f64 / c.delivered.max(1) as f64
    };

    // Self time per layer and the unattributed remainder of the slot.
    println!("# layer self time per timed slot ({} traced slots)", slots);
    println!("#   {:<22} {:>12} {:>8}", "layer", "self_us", "share");
    let slot_us = tot.slot_total as f64 / slots / 1e3;
    for l in Layer::ALL.iter().filter(|l| l.in_slot()) {
        let us = per_tick(*l);
        println!(
            "#   {:<22} {:>12.3} {:>7.2}%",
            l.name(),
            us,
            100.0 * us / slot_us
        );
    }
    let unattributed_us = tot.unattributed as f64 / slots / 1e3;
    let unattributed_share = tot.unattributed as f64 / tot.slot_total.max(1) as f64;
    println!(
        "#   {:<22} {:>12.3} {:>7.2}%   (bar: <= 5%)",
        "unattributed",
        unattributed_us,
        100.0 * unattributed_share
    );
    println!("#   {:<22} {:>12.3}", "slot total", slot_us);
    println!(
        "# twins (outside the slot): parity {}; stage {:.3} us, cluster {:.3} us per slot; \
         admission and forecasting costs below are estimates (controller - stage, stage - cluster)",
        if twin_ok {
            "ok"
        } else {
            "LOST - twin layers unavailable"
        },
        per_tick(Layer::TwinStage),
        per_tick(Layer::TwinCluster)
    );
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-{seed}.csv", w.kind.name()));
    match rec.write_csv(&path) {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => println!("# spans not written: {e}"),
    }

    let first = c.checkpoint_bytes.first().copied().unwrap_or(0) as f64;
    let last = c.checkpoint_bytes.last().copied().unwrap_or(0) as f64;
    vec![
        metric("transmit.busy_us", per_tick(Layer::Transmit), "us"),
        metric(
            "transmit.sent_ratio",
            c.sent as f64 / (ticks * w.nodes as f64),
            "ratio",
        ),
        metric("transport.busy_us", per_tick(Layer::Transport), "us"),
        metric(
            "transport.bytes_per_tick",
            c.frame_bytes as f64 / ticks,
            "B",
        ),
        metric("link.busy_us", per_tick(Layer::Link), "us"),
        metric(
            "link.delivered_per_tick",
            c.delivered as f64 / ticks,
            "count",
        ),
        metric("link.lost", c.lost as f64, "count"),
        metric("link.duplicated", c.duplicated as f64, "count"),
        metric("link.retransmits", c.retransmits as f64, "count"),
        metric("link.useful_ratio", useful, "ratio"),
        metric("controller.tick_us", tick_us, "us"),
        metric("controller.retrain_tick_us", retrain_us, "us"),
        metric("controller.retrain_ticks", c.retrain_ticks as f64, "count"),
        metric(
            "controller.admitted_per_tick",
            c.admitted as f64 / ticks,
            "count",
        ),
        metric("controller.quarantined", c.quarantined as f64, "count"),
        metric("controller.duplicates", c.duplicates as f64, "count"),
        metric(
            "controller.duplicate_frames",
            c.duplicate_frames as f64,
            "count",
        ),
        metric("controller.masked_node_steps", c.masked as f64, "count"),
        metric("twin.parity", if twin_ok { 1.0 } else { 0.0 }, "bool"),
        metric("stage.step_us", stage_us, "us"),
        metric("cluster.step_us", cluster_us, "us"),
        metric("admission.est_us", twin(controller_us - stage_us), "us"),
        metric("forecasting.est_us", twin(stage_us - cluster_us), "us"),
        metric("table.build_us", tot.mean_us(Layer::Table), "us"),
        metric("table.rebuilds", c.table_builds as f64, "count"),
        metric(
            "table.reads_per_rebuild",
            reads as f64 / c.table_builds.max(1) as f64,
            "count",
        ),
        metric("query.batch_us", tot.mean_us(Layer::Query), "us"),
        metric("query.reads", reads as f64, "count"),
        metric("checkpoint.snapshot_us", tot.mean_us(Layer::Snapshot), "us"),
        metric("checkpoint.encode_us", tot.mean_us(Layer::Encode), "us"),
        metric("checkpoint.restore_us", tot.mean_us(Layer::Restore), "us"),
        metric("checkpoint.bytes_first", first, "B"),
        metric("checkpoint.bytes_last", last, "B"),
        metric("tick.unattributed_us", unattributed_us, "us"),
        metric("tick.unattributed_share", unattributed_share, "ratio"),
        metric("trace.overhead_share", overhead, "ratio"),
    ]
}
