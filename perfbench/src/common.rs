//! Shared plumbing: the run budget, seeded input derivation, order
//! statistics, and the metric report every workload returns.

use std::time::{Duration, Instant};

/// How long a workload measures: whole passes over its input set until
/// `seconds` have elapsed (at least one), or exactly `passes` passes.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Measuring time in seconds.
    pub seconds: f64,
    /// A fixed pass count instead of a time limit (the determinism test).
    pub passes: Option<u32>,
}

impl Budget {
    /// Whether another pass should start, given the passes already run and
    /// the time spent measuring so far.
    pub fn more(&self, done: u32, elapsed: Duration) -> bool {
        match self.passes {
            Some(n) => done < n,
            None => done == 0 || elapsed.as_secs_f64() < self.seconds,
        }
    }
}

/// The `i`-th 64-bit seed derived from the benchmark seed (SplitMix64), so
/// every input a workload generates is a pure function of `--seed`.
pub fn derive_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Quantile `q` of `values` (which need not be sorted), interpolating
/// linearly between the two nearest order statistics; 0 for an empty
/// slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The Harrell–Davis estimate of quantile `q` (0 < q < 1) of `values`: a
/// Beta-weighted mean of all order statistics. A pass mixes apps whose
/// latencies form separate clusters, and a single order statistic jumps
/// between clusters when a seed shifts one value across a gap; the
/// weighted mean moves smoothly. 0 for an empty slice.
pub fn hd_quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    let (a, b) = ((n + 1.0) * q, (n + 1.0) * (1.0 - q));
    let mut below = 0.0;
    let mut estimate = 0.0;
    for (i, x) in sorted.iter().enumerate() {
        let upto = inc_beta(a, b, (i + 1) as f64 / n);
        estimate += (upto - below) * x;
        below = upto;
    }
    estimate
}

/// ln Γ(x) for x > 0 (Lanczos approximation, g = 7).
fn ln_gamma(x: f64) -> f64 {
    if x < 0.5 {
        // Reflection: the series below is accurate for x ≥ 0.5.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let x = x - 1.0;
    let t = x + 7.5;
    let series = C[1..]
        .iter()
        .enumerate()
        .fold(C[0], |s, (i, c)| s + c / (x + i as f64 + 1.0));
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + series.ln()
}

/// The regularized incomplete beta function I_x(a, b).
fn inc_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    // The continued fraction converges fast on this side of the mean;
    // use the symmetry I_x(a, b) = 1 - I_{1-x}(b, a) on the other.
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_fraction(a, b, x) / a
    } else {
        1.0 - front * beta_fraction(b, a, 1.0 - x) / b
    }
}

/// Lentz's evaluation of the incomplete beta continued fraction.
fn beta_fraction(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut c = 1.0;
    let mut d = 1.0 - (a + b) * x / (a + 1.0);
    d = 1.0 / if d.abs() < TINY { TINY } else { d };
    let mut h = d;
    for m in 1..300 {
        let m = m as f64;
        for num in [
            m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0)),
        ] {
            d = 1.0 + num * d;
            d = 1.0 / if d.abs() < TINY { TINY } else { d };
            c = 1.0 + num / c;
            if c.abs() < TINY {
                c = TINY;
            }
            h *= d * c;
        }
        if (d * c - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// Mean of `values` without the lowest and highest tenth (rounded down);
/// 0 for an empty slice.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 10;
    mean(&sorted[cut..sorted.len() - cut])
}

/// Mean of `values`; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when the denominator is 0 (a layer the workload does
/// not exercise).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Seconds between repeated set-ups during a run.
const SETUP_EVERY_S: f64 = 3.0;

/// Set-up timings, taken once before the first pass and again between
/// passes every [`SETUP_EVERY_S`] seconds: set-up is timed like a metric,
/// so work moved into it shows, and spreading the repeats over the run
/// keeps the host's drift from deciding `setup_s`.
#[derive(Debug)]
pub struct SetupTimes {
    times: Vec<f64>,
    last: Instant,
}

impl SetupTimes {
    /// Runs and times the first set-up, returning its result.
    pub fn first<T>(setup: impl FnOnce() -> T) -> (T, SetupTimes) {
        let started = Instant::now();
        let out = setup();
        let times = vec![started.elapsed().as_secs_f64()];
        (
            out,
            SetupTimes {
                times,
                last: Instant::now(),
            },
        )
    }

    /// Repeats and times the set-up, discarding its result, when
    /// [`SETUP_EVERY_S`] have passed since the last one.
    pub fn repeat_due<T>(&mut self, setup: impl FnOnce() -> T) {
        if self.last.elapsed().as_secs_f64() < SETUP_EVERY_S {
            return;
        }
        let started = Instant::now();
        std::hint::black_box(setup());
        self.times.push(started.elapsed().as_secs_f64());
        self.last = Instant::now();
    }

    /// The median set-up time in seconds.
    pub fn seconds(&self) -> f64 {
        quantile(&self.times, 0.5)
    }
}

/// Per-pass latency percentiles and busy times. The reported figure of each
/// is its 10%-trimmed mean over passes: on a shared host the speed drifts
/// by up to a quarter over spells of a few seconds, and a mean over a whole
/// run averages those spells where a median would pick one, while the trim
/// drops isolated bursts.
#[derive(Debug, Default)]
pub struct PassStats {
    p50: Vec<f64>,
    p90: Vec<f64>,
    busy_s: Vec<f64>,
}

impl PassStats {
    /// Records one pass: its per-operation latencies (ms) and the time the
    /// pass spent on them (s).
    pub fn record(&mut self, latencies_ms: &[f64], busy_s: f64) {
        self.p50.push(hd_quantile(latencies_ms, 0.5));
        self.p90.push(hd_quantile(latencies_ms, 0.9));
        self.busy_s.push(busy_s);
    }

    /// Appends `latency_ms_p50`, `latency_ms_p90` and `throughput_per_s`
    /// (`ops_per_pass` over the mean pass time) to `report`.
    pub fn report(&self, ops_per_pass: f64, report: &mut Report) {
        report.metric("latency_ms_p50", trimmed_mean(&self.p50), "ms");
        report.metric("latency_ms_p90", trimmed_mean(&self.p90), "ms");
        report.metric(
            "throughput_per_s",
            ratio(ops_per_pass, trimmed_mean(&self.busy_s)),
            "1/s",
        );
    }
}

/// Looks a cumulative counter up in a registry snapshot (0 when absent).
pub fn counter(snap: &ct_obs::Snapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

/// The `em.*` counters that ct-core keeps, read around a call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EmCounters {
    /// `em.restarts`.
    pub restarts: u64,
    /// `em.cache.hit`.
    pub cache_hits: u64,
    /// `em.cache.miss`.
    pub cache_misses: u64,
}

impl EmCounters {
    /// The current registry values.
    pub fn read() -> EmCounters {
        let snap = ct_obs::snapshot();
        EmCounters {
            restarts: counter(&snap, "em.restarts"),
            cache_hits: counter(&snap, "em.cache.hit"),
            cache_misses: counter(&snap, "em.cache.miss"),
        }
    }

    /// Counts accrued since `before`.
    pub fn since(before: EmCounters) -> EmCounters {
        let now = EmCounters::read();
        EmCounters {
            restarts: now.restarts - before.restarts,
            cache_hits: now.cache_hits - before.cache_hits,
            cache_misses: now.cache_misses - before.cache_misses,
        }
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: EmCounters) {
        self.restarts += other.restarts;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
    }
}

/// What one workload run reports: the jobs attempted, the failed jobs or
/// output checks, and its metrics in output order.
#[derive(Debug, Default)]
pub struct Report {
    /// Jobs attempted (flows, estimates, or deliveries plus serves).
    pub attempted: u64,
    /// Jobs or output checks that failed.
    pub failed: u64,
    /// `(name, value, unit)` in output order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable check failures (printed to standard error).
    pub problems: Vec<String>,
}

impl Report {
    /// Appends one metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Records a failed job or check.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    /// Records a check: a failure unless `ok`.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.fail(problem());
        }
    }
}

/// Every per-layer metric with its unit, in output order. Each workload
/// reports all of them in its traced run; a layer the workload never calls
/// reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("stage.compile.ms", "ms"),
    ("stage.deploy.ms", "ms"),
    ("stage.run.ms", "ms"),
    ("stage.collect.ms", "ms"),
    ("stage.corrupt.ms", "ms"),
    ("stage.estimate.ms", "ms"),
    ("stage.place.ms", "ms"),
    ("stage.evaluate.ms", "ms"),
    ("stage.coverage", "ratio"),
    ("mote.kcycles", "count"),
    ("mote.ns_per_kcycle", "ns"),
    ("em.iterations", "count"),
    ("em.restarts", "count"),
    ("em.cache.hits", "count"),
    ("em.cache.misses", "count"),
    ("em.cache.lookups", "count"),
    ("em.cache.hit_ratio", "ratio"),
    ("estimate.unrolled", "count"),
    ("ladder.calls", "count"),
    ("ladder.ms", "ms"),
    ("ladder.trim.ms", "ms"),
    ("rung.full_em.ms", "ms"),
    ("rung.trimmed_em.ms", "ms"),
    ("rung.gnt.ms", "ms"),
    ("rung.moments.ms", "ms"),
    ("ladder.coverage", "ratio"),
    ("ladder.attempted.full_em", "count"),
    ("ladder.attempted.trimmed_em", "count"),
    ("ladder.attempted.gnt", "count"),
    ("ladder.attempted.moments", "count"),
    ("ladder.attempted.prior", "count"),
    ("ladder.accepted.full_em", "count"),
    ("ladder.accepted.trimmed_em", "count"),
    ("ladder.accepted.gnt", "count"),
    ("ladder.accepted.moments", "count"),
    ("ladder.accepted.prior", "count"),
    ("ladder.confidence_mean", "ratio"),
    ("place.installed", "count"),
    ("svc.deliveries", "count"),
    ("svc.ingest.accepted", "count"),
    ("svc.ingest.dedup", "count"),
    ("svc.dedup_ratio", "ratio"),
    ("svc.ingest.ns_per_batch", "ns"),
    ("svc.ingest.ns_p99", "ns"),
    ("svc.backpressure", "count"),
    ("svc.reduce.ms", "ms"),
    ("svc.drain.ms", "ms"),
    ("svc.serve.em_iterations", "count"),
    ("svc.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Per-layer values keyed by name; unset names read 0.
#[derive(Debug, Default)]
pub struct Layers {
    values: Vec<(&'static str, f64)>,
}

impl Layers {
    /// Sets one per-layer metric.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`PER_LAYER`] (a benchmark bug).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    /// Appends every per-layer metric, in [`PER_LAYER`] order, to `report`.
    pub fn into_report(self, report: &mut Report) {
        for (name, unit) in PER_LAYER {
            let value = self
                .values
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, v)| *v);
            report.metric(name, value, unit);
        }
    }
}

/// Sets the five `em.*` per-layer metrics from one pass's counts.
pub fn set_em_layers(layers: &mut Layers, iterations: u64, em: EmCounters) {
    let lookups = em.cache_hits + em.cache_misses;
    layers.set("em.iterations", iterations as f64);
    layers.set("em.restarts", em.restarts as f64);
    layers.set("em.cache.hits", em.cache_hits as f64);
    layers.set("em.cache.misses", em.cache_misses as f64);
    layers.set("em.cache.lookups", lookups as f64);
    layers.set(
        "em.cache.hit_ratio",
        ratio(em.cache_hits as f64, lookups as f64),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incomplete_beta_matches_closed_forms() {
        for x in [0.1, 0.5, 0.9] {
            assert!((inc_beta(1.0, 1.0, x) - x).abs() < 1e-12);
        }
        // I_0.4(2, 3) = P(Binomial(4, 0.4) >= 2) = 0.5248.
        assert!((inc_beta(2.0, 3.0, 0.4) - 0.5248).abs() < 1e-12);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-12);
        assert!((ln_gamma(0.25) - 3.625_609_908_221_908f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn harrell_davis_is_a_weighted_median() {
        let symmetric: Vec<f64> = (0..=10).map(f64::from).collect();
        assert!((hd_quantile(&symmetric, 0.5) - 5.0).abs() < 1e-9);
        assert!((hd_quantile(&[3.0; 7], 0.9) - 3.0).abs() < 1e-12);
        let p90 = hd_quantile(&symmetric, 0.9);
        assert!(p90 > 8.0 && p90 < 10.0, "{p90}");
    }

    #[test]
    fn trimmed_mean_drops_the_outer_tenths() {
        let mut values: Vec<f64> = (1..=18).map(f64::from).collect();
        values.extend([1000.0, -1000.0]);
        assert_eq!(trimmed_mean(&values), 9.5);
        assert_eq!(trimmed_mean(&[2.0, 4.0]), 3.0);
        assert_eq!(trimmed_mean(&[]), 0.0);
    }
}
