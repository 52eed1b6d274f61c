//! Input generation. Everything the program receives is made here from
//! the run's `--seed`: member rows, the paced writer's rows and the
//! per-query protocol seeds. The same seed gives the same inputs.

use privtopk_core::derive_batch_seed;
use privtopk_domain::{TopKVector, Value, ValueDomain};

/// SplitMix64: a small, well-mixed generator owned by the benchmark, so
/// inputs do not depend on the program's own RNG.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64, stream: u64) -> Self {
        SplitMix(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Stream tag of the paced writer's rows (member streams are 0..n).
const WRITER_STREAM: u64 = 0x5772_6974;

/// One row of member `member`: `1 + ⌊9999 · u^(3 + member)⌋` over the
/// paper's domain [1, 10000]. Rows crowd the floor and thin out towards
/// the top, so the top-k holds repeated values (a true multiset) and
/// members differ in how much of it they own.
fn row(rng: &mut SplitMix, member: usize) -> Value {
    let width = (ValueDomain::paper_default().width() - 1) as f64;
    Value::new(1 + (width * rng.unit().powi(3 + member as i32)) as i64)
}

/// The rows of member `member`.
pub fn member_rows(seed: u64, member: usize, rows: usize) -> Vec<Value> {
    let mut rng = SplitMix::new(seed, member as u64);
    (0..rows).map(|_| row(&mut rng, member)).collect()
}

/// The paced writer's rows: uniform over the domain, as the CLI's
/// `query --write-rate` writer draws them.
pub fn writer_rows(seed: u64, batch: u64, rows: usize) -> Vec<Value> {
    let mut rng = SplitMix::new(
        seed ^ batch.wrapping_mul(0x2545_F491_4F6C_DD1D),
        WRITER_STREAM,
    );
    let domain = ValueDomain::paper_default();
    let width = domain.width() as f64;
    (0..rows)
        .map(|_| Value::new(domain.min().get() + (width * rng.unit()) as i64))
        .collect()
}

/// Distinct protocol seeds a run draws its queries from; the oracle
/// screens them before the timed phase (see `oracle`).
pub const SEED_POOL: u64 = 4096;

/// The protocol seed of query `index` (already reduced mod the pool).
pub fn query_seed(seed: u64, index: u64) -> u64 {
    derive_batch_seed(seed, index)
}

/// The benchmark's own multiset top-k: sort the rows apart from the
/// program, descending, and keep the first `k`, floor-padded.
pub fn sorted_topk<'a>(rows: impl IntoIterator<Item = &'a [Value]>, k: usize) -> TopKVector {
    let mut all: Vec<Value> = rows.into_iter().flatten().copied().collect();
    all.sort_unstable_by(|a, b| b.cmp(a));
    all.truncate(k);
    all.resize(k, ValueDomain::paper_default().min());
    TopKVector::from_sorted(all).expect("a sorted, in-domain prefix is a top-k vector")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_repeat_per_seed_and_stay_in_domain() {
        let a = member_rows(7, 2, 1000);
        assert_eq!(a, member_rows(7, 2, 1000));
        assert_ne!(a, member_rows(8, 2, 1000));
        let domain = ValueDomain::paper_default();
        assert!(a.iter().all(|v| domain.contains(*v)));
    }

    #[test]
    fn writer_rows_cover_the_domain() {
        let rows = writer_rows(7, 3, 20_000);
        assert_eq!(rows, writer_rows(7, 3, 20_000));
        let domain = ValueDomain::paper_default();
        assert!(rows.iter().all(|v| domain.contains(*v)));
        // Uniform: about a tenth of the rows land in the top tenth.
        let top = rows.iter().filter(|v| v.get() > 9000).count();
        assert!((1_600..2_400).contains(&top), "{top}");
    }

    #[test]
    fn sorted_topk_keeps_duplicates() {
        let rows = [
            vec![Value::new(5), Value::new(9)],
            vec![Value::new(9), Value::new(1)],
        ];
        let top = sorted_topk(rows.iter().map(Vec::as_slice), 3);
        assert_eq!(
            top.as_slice(),
            &[Value::new(9), Value::new(9), Value::new(5)]
        );
    }
}
