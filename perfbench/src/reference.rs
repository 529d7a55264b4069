//! A fixed reference computation, timed before and after every pass so that
//! `run_s` can be scaled to a quiet host.
//!
//! The measuring VM shares its cores with other tenants.  In busy phases,
//! which last from seconds to several minutes, every part of a pass slows by
//! about 1.4–1.7x, simulator and LP code alike (README.md, "Steadiness").  A
//! phase longer than a run cannot be filtered out by any statistic over that
//! run's passes.  This kernel does the kinds of work the simulator does —
//! hashed page-table lookups, a set-associative tag search, string-keyed
//! counter updates, a buffer and a sort — so it slows with the passes.  It
//! is the benchmark's own code: no change to the program under test changes
//! its time.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Loop trips of one run of the kernel.
const ITERATIONS: u64 = 800_000;
/// Distinct page-table keys per level (four levels).
const PAGES: u64 = 4096;
const SETS: usize = 1024;

/// A constant near the kernel's time on a quiet host: on the 2-vCPU VM the
/// README's figures come from, its fastest runs took 0.055–0.064 s while the
/// host was busy.  `run_s` is the median of pass time ÷ kernel time, times
/// `QUIET_S`, so it reads roughly as a pass on a quiet host.
pub const QUIET_S: f64 = 0.050;

/// The kernel's working memory (about 2.5 MiB), allocated once and reused,
/// so that running the kernel does not move the process's peak RSS.
pub struct Reference {
    tables: HashMap<(u8, u64), u64>,
    counters: HashMap<String, u64>,
    names: Vec<String>,
    sets: Vec<[u64; 8]>,
    buffer: Vec<u64>,
}

impl Reference {
    pub fn new() -> Reference {
        Reference {
            tables: HashMap::with_capacity(4 * PAGES as usize),
            counters: HashMap::with_capacity(24),
            names: (0..24).map(|i| format!("event.{i}")).collect(),
            sets: vec![[0; 8]; SETS],
            buffer: Vec::with_capacity(ITERATIONS as usize / 4),
        }
    }

    /// Runs the kernel once; returns its wall time.
    pub fn run(&mut self) -> f64 {
        self.run_with_checksum().0
    }

    /// Runs the kernel once; returns its wall time and a checksum of its
    /// result.
    fn run_with_checksum(&mut self) -> (f64, u64) {
        let started = Instant::now();
        self.tables.clear();
        self.counters.clear();
        self.sets.fill([0; 8]);
        self.buffer.clear();
        let mut state = 0x1234_5678u64;
        for i in 0..ITERATIONS {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let random = i % 4 == 0;
            let addr = if random { state % (1 << 32) } else { i * 64 };
            let page = addr >> 12;
            let key = ((i % 4) as u8, page % PAGES);
            let entry = *self.tables.entry(key).or_insert(page);
            let set = &mut self.sets[(addr >> 6) as usize % SETS];
            let tag = addr >> 16;
            if !set.contains(&tag) {
                set.rotate_right(1);
                set[0] = tag;
            }
            let name = &self.names[(i % 24) as usize];
            *self.counters.entry(name.clone()).or_insert(0) += entry & 1;
            if random {
                self.buffer.push(addr ^ entry);
            }
        }
        self.buffer.sort_unstable();
        let mut checksum = self
            .buffer
            .iter()
            .step_by(997)
            .fold(self.tables.len() as u64, |acc, &x| acc.rotate_left(5) ^ x);
        for name in &self.names {
            checksum = checksum.wrapping_mul(31).wrapping_add(self.counters[name]);
        }
        (started.elapsed().as_secs_f64(), black_box(checksum))
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn the_kernel_is_deterministic_and_keeps_its_memory() {
        let mut reference = super::Reference::new();
        let capacity = reference.buffer.capacity();
        let (seconds, checksum) = reference.run_with_checksum();
        assert!(seconds > 0.0);
        assert_eq!(checksum, reference.run_with_checksum().1);
        assert_eq!(reference.buffer.capacity(), capacity);
    }
}
