//! A perf-like PMU model with counter multiplexing.
//!
//! Real x86-64 cores expose only a handful of physical counters (4 per hyperthread
//! on Haswell, 8 with SMT off), so measuring more logical events forces the kernel
//! to time-multiplex them: each event is counted only during its share of the
//! measurement interval and the observed value is extrapolated by the
//! enabled/running time ratio.  The extrapolation is noisy because program phases
//! are not uniform across the interval — and the noise grows as more events are
//! multiplexed, which is exactly the effect behind the paper's Figure 1c and the
//! motivation for counter confidence regions.
//!
//! [`MultiplexingPmu`] reproduces this: it takes the per-interval ground-truth
//! increments from the simulator, splits each interval into scheduling slices with
//! phase-dependent intensity, counts each event only on the slices its group is
//! scheduled on, and extrapolates.

use crate::hec::Hec;
use crate::mem::{MemoryAccess, PageSize};
use crate::mmu::HaswellMmu;
use counterpoint_mudd::CounterSpace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// PMU configuration.
#[derive(Clone, Debug)]
pub struct PmuConfig {
    /// Number of physical counters available simultaneously (Haswell: 4 with SMT
    /// enabled, 8 with SMT disabled).
    pub physical_counters: usize,
    /// Number of scheduling slices per measurement interval.
    pub slices_per_interval: usize,
    /// Relative phase non-uniformity across slices (0 = perfectly uniform program,
    /// larger values = burstier program and therefore noisier extrapolation).
    pub phase_variation: f64,
    /// RNG seed (the model is deterministic given the seed).
    pub seed: u64,
}

impl Default for PmuConfig {
    fn default() -> Self {
        PmuConfig {
            physical_counters: 4,
            slices_per_interval: 50,
            phase_variation: 0.25,
            seed: 0xC0FFEE,
        }
    }
}

impl PmuConfig {
    /// A noise-free PMU: as many physical counters as needed and uniform phases.
    pub fn noiseless() -> PmuConfig {
        PmuConfig {
            physical_counters: usize::MAX,
            slices_per_interval: 1,
            phase_variation: 0.0,
            seed: 0,
        }
    }
}

/// Number of multiplexing rounds (event groups that take turns on the physical
/// counters) needed to observe `num_events` logical events on
/// `physical_counters` physical counters.
///
/// This is the scheduling kernel shared by [`MultiplexingPmu`] and the
/// `counterpoint-collect` event-schedule planner: one round when everything
/// fits, `ceil(events / counters)` rounds otherwise.
pub fn multiplexing_rounds(num_events: usize, physical_counters: usize) -> usize {
    num_events.div_ceil(physical_counters.max(1))
}

/// Runs an access stream on a simulator, splitting it into chunks of
/// `len / intervals` accesses, and returns the noise-free per-interval counter
/// increments over `space` — the ground truth a PMU model samples from.
///
/// `intervals` is the *requested* interval count: when the access count is not
/// divisible by it the trailing remainder becomes one extra (shorter) row, and
/// when there are fewer accesses than intervals fewer rows come back — callers
/// must size from the returned vector, not from `intervals`.
///
/// # Panics
///
/// Panics if `intervals` is zero.
pub fn ground_truth_intervals(
    mmu: &mut HaswellMmu,
    accesses: &[MemoryAccess],
    page_size: PageSize,
    space: &CounterSpace,
    intervals: usize,
) -> Vec<Vec<f64>> {
    assert!(intervals > 0, "need at least one measurement interval");
    let chunk = (accesses.len() / intervals).max(1);
    let columns = Hec::columns(space);
    let mut true_increments = Vec::with_capacity(intervals);
    let mut previous = *mmu.counts();
    for slice in accesses.chunks(chunk) {
        for a in slice {
            mmu.access(a, page_size);
        }
        let now = *mmu.counts();
        true_increments.push(now.delta_vector(&previous, &columns));
        previous = now;
    }
    true_increments
}

/// The multiplexing PMU model.
#[derive(Clone, Debug)]
pub struct MultiplexingPmu {
    config: PmuConfig,
}

impl MultiplexingPmu {
    /// Creates a PMU with the given configuration.
    pub fn new(config: PmuConfig) -> MultiplexingPmu {
        MultiplexingPmu { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PmuConfig {
        &self.config
    }

    /// Converts per-interval ground-truth increments into the samples a perf-style
    /// tool would report when `num_events` logical events are programmed.
    ///
    /// Each returned row corresponds to one measurement interval; each column to
    /// one counter of the input rows.  When the number of events fits in the
    /// physical counters the samples equal the ground truth; otherwise each event
    /// is observed on a subset of slices and extrapolated.
    ///
    /// # Panics
    ///
    /// Panics if `num_events` is zero or the input rows have inconsistent lengths.
    pub fn sample_intervals(
        &self,
        true_increments: &[Vec<f64>],
        num_events: usize,
    ) -> Vec<Vec<f64>> {
        assert!(num_events > 0, "at least one event must be programmed");
        let groups = multiplexing_rounds(num_events, self.config.physical_counters);
        self.sample_intervals_assigned(true_increments, groups, |event_idx| event_idx % groups)
    }

    /// Like [`sample_intervals`](MultiplexingPmu::sample_intervals), but with an
    /// explicit multiplexing schedule: `rounds` scheduling rounds, with column
    /// `event_idx` of the input counted only on the slices assigned to round
    /// `round_of(event_idx)`.
    ///
    /// This is the entry point the `counterpoint-collect` event-schedule planner
    /// drives; the default round-robin schedule of `sample_intervals` is the
    /// special case `round_of = |e| e % rounds`.
    ///
    /// # Panics
    ///
    /// Panics if the input rows have inconsistent lengths or `round_of` returns
    /// a round `>= rounds`.
    pub fn sample_intervals_assigned(
        &self,
        true_increments: &[Vec<f64>],
        rounds: usize,
        round_of: impl Fn(usize) -> usize,
    ) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let slices = self.config.slices_per_interval.max(1);
        let groups = rounds.max(1);

        let dim = true_increments.first().map(|r| r.len()).unwrap_or(0);
        let mut samples = Vec::with_capacity(true_increments.len());
        for row in true_increments {
            assert_eq!(row.len(), dim, "inconsistent interval dimensions");
            // Phase intensity profile of this interval: how much of the interval's
            // activity falls into each slice (sums to 1).
            let mut weights: Vec<f64> = (0..slices)
                .map(|_| (1.0 + self.config.phase_variation * rng.gen_range(-1.0..1.0)).max(0.05))
                .collect();
            let total: f64 = weights.iter().sum();
            for w in &mut weights {
                *w /= total;
            }

            let mut sampled_row = Vec::with_capacity(row.len());
            for (event_idx, &value) in row.iter().enumerate() {
                if groups <= 1 {
                    sampled_row.push(value);
                    continue;
                }
                // The event's group is scheduled on every `groups`-th slice.
                let group = round_of(event_idx);
                assert!(group < groups, "round {group} out of range (< {groups})");
                let mut observed_fraction = 0.0;
                let mut active_slices = 0usize;
                for (slice, w) in weights.iter().enumerate() {
                    if slice % groups == group {
                        observed_fraction += w;
                        active_slices += 1;
                    }
                }
                if active_slices == 0 || observed_fraction <= 0.0 {
                    sampled_row.push(0.0);
                    continue;
                }
                // perf extrapolates by time-enabled / time-running, i.e. assumes the
                // observed slices are representative.
                let time_fraction = active_slices as f64 / slices as f64;
                let observed = value * observed_fraction;
                sampled_row.push(observed / time_fraction);
            }
            samples.push(sampled_row);
        }
        samples
    }

    /// Runs an access stream on a simulator, splitting it into roughly
    /// `intervals` chunks (see [`ground_truth_intervals`] for the exact row
    /// count), and returns the multiplexed per-interval samples over `space`.
    ///
    /// This is the simulated equivalent of `perf stat -I` on the real machine.
    ///
    /// # Panics
    ///
    /// Panics if `intervals` is zero.
    pub fn collect(
        &self,
        mmu: &mut HaswellMmu,
        accesses: &[MemoryAccess],
        page_size: PageSize,
        space: &CounterSpace,
        intervals: usize,
    ) -> Vec<Vec<f64>> {
        let true_increments = ground_truth_intervals(mmu, accesses, page_size, space, intervals);
        self.sample_intervals(&true_increments, space.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mmu::MmuConfig;

    fn uniform_intervals(n: usize, dim: usize, value: f64) -> Vec<Vec<f64>> {
        vec![vec![value; dim]; n]
    }

    #[test]
    fn no_multiplexing_returns_ground_truth() {
        let pmu = MultiplexingPmu::new(PmuConfig {
            physical_counters: 8,
            ..PmuConfig::default()
        });
        let truth = uniform_intervals(5, 4, 100.0);
        let samples = pmu.sample_intervals(&truth, 4);
        assert_eq!(samples, truth);
    }

    #[test]
    fn noiseless_config_is_exact_even_with_many_events() {
        let pmu = MultiplexingPmu::new(PmuConfig::noiseless());
        let truth = uniform_intervals(3, 26, 1234.0);
        let samples = pmu.sample_intervals(&truth, 26);
        assert_eq!(samples, truth);
    }

    #[test]
    fn multiplexing_preserves_expected_magnitude() {
        let pmu = MultiplexingPmu::new(PmuConfig::default());
        let truth = uniform_intervals(200, 26, 10_000.0);
        let samples = pmu.sample_intervals(&truth, 26);
        for row in &samples {
            for &v in row {
                // Extrapolated values stay within a factor of ~2 of the truth and
                // are never negative.
                assert!(v >= 0.0);
                assert!(v > 3_000.0 && v < 30_000.0, "implausible extrapolation {v}");
            }
        }
        // The mean across many intervals converges near the truth.
        let mean: f64 = samples.iter().map(|r| r[0]).sum::<f64>() / samples.len() as f64;
        assert!((mean - 10_000.0).abs() / 10_000.0 < 0.2);
    }

    #[test]
    fn noise_grows_with_the_number_of_multiplexed_events() {
        let spread = |num_events: usize| {
            let pmu = MultiplexingPmu::new(PmuConfig::default());
            let truth = uniform_intervals(300, num_events, 10_000.0);
            let samples = pmu.sample_intervals(&truth, num_events);
            let values: Vec<f64> = samples.iter().map(|r| r[0]).collect();
            let mean = values.iter().sum::<f64>() / values.len() as f64;
            let var =
                values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / values.len() as f64;
            var.sqrt()
        };
        let few = spread(4);
        let many = spread(26);
        assert!(
            many > few,
            "multiplexing noise should grow with active events (4 -> {few}, 26 -> {many})"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let truth = uniform_intervals(10, 12, 500.0);
        let a = MultiplexingPmu::new(PmuConfig::default()).sample_intervals(&truth, 12);
        let b = MultiplexingPmu::new(PmuConfig::default()).sample_intervals(&truth, 12);
        assert_eq!(a, b);
        let c = MultiplexingPmu::new(PmuConfig {
            seed: 42,
            ..PmuConfig::default()
        })
        .sample_intervals(&truth, 12);
        assert_ne!(a, c);
    }

    #[test]
    fn collect_produces_one_row_per_interval() {
        let space = crate::hec::full_counter_space();
        let pmu = MultiplexingPmu::new(PmuConfig::noiseless());
        let mut mmu = HaswellMmu::new(MmuConfig::haswell());
        let accesses: Vec<MemoryAccess> =
            (0..10_000u64).map(|i| MemoryAccess::load(i * 64)).collect();
        let samples = pmu.collect(&mut mmu, &accesses, PageSize::Size4K, &space, 8);
        assert_eq!(samples.len(), 8);
        assert_eq!(samples[0].len(), 26);
        // Noiseless sampling sums back to the ground truth.
        let ret_idx = space.index_of("load.ret").unwrap();
        let total_ret: f64 = samples.iter().map(|r| r[ret_idx]).sum();
        assert_eq!(total_ret, 10_000.0);
    }

    #[test]
    #[should_panic(expected = "at least one event")]
    fn zero_events_panics() {
        let pmu = MultiplexingPmu::new(PmuConfig::default());
        let _ = pmu.sample_intervals(&[], 0);
    }

    #[test]
    fn multiplexing_rounds_formula() {
        assert_eq!(multiplexing_rounds(4, 4), 1);
        assert_eq!(multiplexing_rounds(5, 4), 2);
        assert_eq!(multiplexing_rounds(26, 4), 7);
        assert_eq!(multiplexing_rounds(26, usize::MAX), 1);
        assert_eq!(multiplexing_rounds(3, 0), 3);
    }

    #[test]
    fn explicit_round_robin_schedule_matches_default() {
        let truth = uniform_intervals(50, 26, 10_000.0);
        let pmu = MultiplexingPmu::new(PmuConfig::default());
        let default = pmu.sample_intervals(&truth, 26);
        let rounds = multiplexing_rounds(26, pmu.config().physical_counters);
        let explicit = pmu.sample_intervals_assigned(&truth, rounds, |e| e % rounds);
        assert_eq!(default, explicit);
    }

    #[test]
    fn collect_equals_ground_truth_plus_sampling() {
        let space = crate::hec::full_counter_space();
        let pmu = MultiplexingPmu::new(PmuConfig::default());
        let accesses: Vec<MemoryAccess> = (0..20_000u64)
            .map(|i| MemoryAccess::load(i * 4096))
            .collect();
        let mut mmu_a = HaswellMmu::new(MmuConfig::haswell());
        let collected = pmu.collect(&mut mmu_a, &accesses, PageSize::Size4K, &space, 6);
        let mut mmu_b = HaswellMmu::new(MmuConfig::haswell());
        let truth = ground_truth_intervals(&mut mmu_b, &accesses, PageSize::Size4K, &space, 6);
        assert_eq!(collected, pmu.sample_intervals(&truth, space.len()));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_round_panics() {
        let pmu = MultiplexingPmu::new(PmuConfig::default());
        let truth = uniform_intervals(2, 4, 10.0);
        let _ = pmu.sample_intervals_assigned(&truth, 2, |_| 5);
    }
}
