//! Deterministic ingest-stream generator for serving-loop benchmarks.
//!
//! The `Pd` generator ([`crate::pd`]) materializes a whole collaborative
//! project at once; a serving-loop benchmark instead needs the same
//! workload *as a stream* — activity records arriving batch by batch against
//! a live database, inputs drawn from whatever entities exist at arrival
//! time. [`ActivityStream`] produces that: the `Pd` parameterization
//! (Poisson in/out degrees, Zipf-by-recency input selection, versioned
//! artifacts) decoupled from any particular store, so the benchmark driver
//! resolves the picks against the database it is ingesting into.
//!
//! The stream is fully deterministic per seed: two runs replay
//! byte-identical ingest sequences.

use crate::dist::{poisson, ZipfTable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the activity stream (the `Pd` shape, streamed).
#[derive(Debug, Clone, Copy)]
pub struct StreamParams {
    /// Mean extra inputs `λi` (inputs per activity = 1 + Poisson(λi)).
    pub lambda_in: f64,
    /// Mean extra outputs `λo` (outputs per activity = 1 + Poisson(λo)).
    pub lambda_out: f64,
    /// Input-selection Zipf skew `se` over recency (rank 1 = newest entity).
    pub se: f64,
    /// Probability an output is a new version of an existing artifact
    /// rather than the first version of a fresh one.
    pub reuse: f64,
    /// Distinct command templates cycled through activity records.
    pub commands: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for StreamParams {
    fn default() -> Self {
        // The paper's Pd defaults (Sec. V) plus its 0.7 artifact-reuse rate.
        StreamParams {
            lambda_in: 2.0,
            lambda_out: 2.0,
            se: 1.5,
            reuse: 0.7,
            commands: 17,
            seed: 42,
        }
    }
}

/// One streamed activity record, store-agnostic: inputs are Zipf recency
/// ranks into the consumer's current entity pool, outputs are artifact base
/// names (the consumer assigns versions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamActivity {
    /// Command line of the activity.
    pub command: String,
    /// Distinct 1-based recency ranks into the consumer's entity pool at
    /// ingest time (1 = newest). Always within `1..=pool_len` of the
    /// [`ActivityStream::next_activity`] call that produced the record.
    pub input_ranks: Vec<usize>,
    /// Output artifact base names, to be versioned by the consumer.
    pub outputs: Vec<String>,
}

/// The deterministic activity source.
#[derive(Debug)]
pub struct ActivityStream {
    params: StreamParams,
    rng: StdRng,
    pick: ZipfTable,
    produced: usize,
    artifacts: usize,
}

impl ActivityStream {
    /// A stream expecting entity pools up to `max_pool` (the Zipf rank table
    /// is sized once; larger pools are served at clamped rank).
    pub fn new(params: StreamParams, max_pool: usize) -> ActivityStream {
        ActivityStream {
            rng: StdRng::seed_from_u64(params.seed),
            pick: ZipfTable::new(max_pool.max(1) + 1, params.se),
            params,
            produced: 0,
            artifacts: 0,
        }
    }

    /// Number of activities produced so far.
    pub fn produced(&self) -> usize {
        self.produced
    }

    /// The next activity against a consumer pool of `pool_len` entities.
    /// With an empty pool the record has no inputs (a source activity).
    pub fn next_activity(&mut self, pool_len: usize) -> StreamActivity {
        let command =
            format!("cmd{} --run {}", self.produced % self.params.commands, self.produced);
        let want = 1 + poisson(&mut self.rng, self.params.lambda_in) as usize;
        let mut input_ranks: Vec<usize> = Vec::with_capacity(want);
        let mut attempts = 0;
        while input_ranks.len() < want.min(pool_len) && attempts < 8 * want {
            attempts += 1;
            let rank = self.pick.sample_rank(&mut self.rng, pool_len);
            if !input_ranks.contains(&rank) {
                input_ranks.push(rank);
            }
        }
        let n_out = 1 + poisson(&mut self.rng, self.params.lambda_out) as usize;
        let mut outputs = Vec::with_capacity(n_out);
        for _ in 0..n_out {
            let artifact = if self.artifacts > 0 && self.rng.gen::<f64>() < self.params.reuse {
                self.rng.gen_range(0..self.artifacts)
            } else {
                self.artifacts += 1;
                self.artifacts - 1
            };
            outputs.push(format!("artifact{artifact}"));
        }
        self.produced += 1;
        StreamActivity { command, input_ranks, outputs }
    }

    /// The next `size` activities against a pool that starts at `pool_len`
    /// and grows by each record's outputs (the consumer appends output
    /// entities to its pool in order — [`StreamActivity::input_ranks`] stay
    /// valid under exactly that discipline).
    pub fn batch(&mut self, pool_len: usize, size: usize) -> Vec<StreamActivity> {
        let mut pool = pool_len;
        let mut out = Vec::with_capacity(size);
        for _ in 0..size {
            let record = self.next_activity(pool);
            pool += record.outputs.len();
            out.push(record);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic_per_seed() {
        let mut a = ActivityStream::new(StreamParams::default(), 10_000);
        let mut b = ActivityStream::new(StreamParams::default(), 10_000);
        let batch_a = a.batch(3, 50);
        let batch_b = b.batch(3, 50);
        assert_eq!(batch_a, batch_b);
        assert_eq!(a.produced(), 50);
        let mut c = ActivityStream::new(StreamParams { seed: 7, ..Default::default() }, 10_000);
        assert_ne!(batch_a, c.batch(3, 50), "different seeds should differ");
    }

    #[test]
    fn input_ranks_are_valid_and_distinct() {
        let mut s = ActivityStream::new(StreamParams::default(), 10_000);
        let mut pool = 0usize;
        for step in 0..200 {
            let rec = s.next_activity(pool);
            assert!(rec.input_ranks.len() <= pool, "step {step}: more inputs than pool");
            for &r in &rec.input_ranks {
                assert!((1..=pool).contains(&r), "step {step}: rank {r} out of 1..={pool}");
            }
            let mut dedup = rec.input_ranks.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), rec.input_ranks.len(), "step {step}: duplicate rank");
            assert!(!rec.outputs.is_empty());
            pool += rec.outputs.len();
        }
        assert!(pool > 200, "outputs should accumulate (λo = 2)");
    }

    #[test]
    fn degree_means_track_lambdas() {
        let mut s = ActivityStream::new(StreamParams::default(), 100_000);
        // Warm pool so input draws are not pool-limited.
        let mut pool = 500usize;
        let (mut ins, mut outs) = (0usize, 0usize);
        let n = 2_000;
        for _ in 0..n {
            let rec = s.next_activity(pool);
            ins += rec.input_ranks.len();
            outs += rec.outputs.len();
            pool += rec.outputs.len();
        }
        let avg_in = ins as f64 / n as f64;
        let avg_out = outs as f64 / n as f64;
        assert!((avg_out - 3.0).abs() < 0.3, "avg_out={avg_out}");
        assert!(avg_in > 2.0 && avg_in < 3.2, "avg_in={avg_in}");
    }

    #[test]
    fn artifacts_gather_versions() {
        let mut s = ActivityStream::new(StreamParams::default(), 10_000);
        let batch = s.batch(0, 300);
        let mut counts: std::collections::BTreeMap<&str, usize> = Default::default();
        for rec in &batch {
            for o in &rec.outputs {
                *counts.entry(o.as_str()).or_default() += 1;
            }
        }
        assert!(counts.values().any(|&c| c >= 3), "reuse=0.7 should revisit artifacts");
        assert!(counts.len() > 10, "fresh artifacts should keep appearing");
    }
}
