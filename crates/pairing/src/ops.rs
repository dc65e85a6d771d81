//! Process-wide operation counters for the cryptographic hot paths.
//!
//! How many fixed-base exponentiations, variable-base scalar
//! multiplications, pairings, Miller-loop pairs and `GT`
//! exponentiations a workload performed. Counts are exact and
//! machine-independent, so a cache that claims to skip the pairing
//! phase can be audited by counter deltas rather than timing noise:
//! the root crate's `tests/op_counts.rs` pins them for a fixed-seed
//! series, and the `benchmark/` harness reports them per run.
//!
//! Counters are relaxed atomics — the increments are nanoseconds next
//! to the multi-microsecond operations they count — and cumulative per
//! process; callers measure deltas via [`snapshot`].

use std::sync::atomic::{AtomicU64, Ordering};

static FIXED_BASE_MULS: AtomicU64 = AtomicU64::new(0);
static BATCHED_FIXED_BASE_MULS: AtomicU64 = AtomicU64::new(0);
static VARIABLE_BASE_MULS: AtomicU64 = AtomicU64::new(0);
static PAIRINGS: AtomicU64 = AtomicU64::new(0);
static MILLER_PAIRS: AtomicU64 = AtomicU64::new(0);
static PREPARED_MILLER_PAIRS: AtomicU64 = AtomicU64::new(0);
static G2_PREPARES: AtomicU64 = AtomicU64::new(0);
static GT_POWS: AtomicU64 = AtomicU64::new(0);
static CYCLOTOMIC_SQUARES: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the cumulative operation counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Fixed-base generator exponentiations (comb-table `g1`/`g2`)
    /// run one at a time, each paying its own five field inversions.
    pub fixed_base_muls: u64,
    /// Fixed-base exponentiations that went through the *batched* path
    /// ([`crate::scalar_mul::FixedBaseTable::mul_batch`]): a batch of
    /// `n` adds `n` here but shares **five** Montgomery-trick
    /// inversions (one per level of its affine addition tree) across
    /// the whole batch, so `fixed_base_muls` staying flat while this
    /// grows is the counter-level proof that ingest amortized its
    /// inversions.
    pub batched_fixed_base_muls: u64,
    /// Variable-base scalar multiplications (wNAF): the one-time
    /// derivation of each generator adds two (cofactor clearing and the
    /// order check), and nothing else in the product does. Decoding a group element adds nothing here: the
    /// subgroup checks multiply by the public curve parameter `z`, not
    /// by a protocol scalar.
    pub variable_base_muls: u64,
    /// Pairing evaluations (each = one Miller loop + one final
    /// exponentiation; a multi-pairing counts once).
    pub pairings: u64,
    /// Point pairs fed through Miller loops (a multi-pairing over `n`
    /// pairs adds `n`).
    pub miller_pairs: u64,
    /// The subset of `miller_pairs` that ran through the *prepared*
    /// loop ([`crate::pairing::multi_miller_loop_prepared`]) — line
    /// coefficients read from a table instead of being re-derived.
    pub prepared_miller_pairs: u64,
    /// `G2` points prepared into Miller-loop line tables
    /// ([`crate::pairing::G2Prepared`]); a series pays this once per
    /// stored ciphertext element, not per query.
    pub g2_prepares: u64,
    /// `GT` exponentiations.
    pub gt_pows: u64,
    /// Granger–Scott cyclotomic squarings (the fast squaring `Gt::pow`
    /// and the final exponentiation run on) — a nonzero delta proves
    /// the cyclotomic path is engaged.
    pub cyclotomic_squares: u64,
}

impl OpCounts {
    /// Component-wise `self - earlier` (saturating), for measuring a
    /// workload between two snapshots.
    pub fn since(&self, earlier: &OpCounts) -> OpCounts {
        OpCounts {
            fixed_base_muls: self.fixed_base_muls.saturating_sub(earlier.fixed_base_muls),
            batched_fixed_base_muls: self
                .batched_fixed_base_muls
                .saturating_sub(earlier.batched_fixed_base_muls),
            variable_base_muls: self
                .variable_base_muls
                .saturating_sub(earlier.variable_base_muls),
            pairings: self.pairings.saturating_sub(earlier.pairings),
            miller_pairs: self.miller_pairs.saturating_sub(earlier.miller_pairs),
            prepared_miller_pairs: self
                .prepared_miller_pairs
                .saturating_sub(earlier.prepared_miller_pairs),
            g2_prepares: self.g2_prepares.saturating_sub(earlier.g2_prepares),
            gt_pows: self.gt_pows.saturating_sub(earlier.gt_pows),
            cyclotomic_squares: self
                .cyclotomic_squares
                .saturating_sub(earlier.cyclotomic_squares),
        }
    }
}

/// Read the cumulative counters.
pub fn snapshot() -> OpCounts {
    OpCounts {
        fixed_base_muls: FIXED_BASE_MULS.load(Ordering::Relaxed),
        batched_fixed_base_muls: BATCHED_FIXED_BASE_MULS.load(Ordering::Relaxed),
        variable_base_muls: VARIABLE_BASE_MULS.load(Ordering::Relaxed),
        pairings: PAIRINGS.load(Ordering::Relaxed),
        miller_pairs: MILLER_PAIRS.load(Ordering::Relaxed),
        prepared_miller_pairs: PREPARED_MILLER_PAIRS.load(Ordering::Relaxed),
        g2_prepares: G2_PREPARES.load(Ordering::Relaxed),
        gt_pows: GT_POWS.load(Ordering::Relaxed),
        cyclotomic_squares: CYCLOTOMIC_SQUARES.load(Ordering::Relaxed),
    }
}

#[inline]
pub(crate) fn count_fixed_base_mul() {
    FIXED_BASE_MULS.fetch_add(1, Ordering::Relaxed);
}

#[inline]
pub(crate) fn count_batched_fixed_base_muls(n: u64) {
    BATCHED_FIXED_BASE_MULS.fetch_add(n, Ordering::Relaxed);
}

#[inline]
pub(crate) fn count_variable_base_mul() {
    VARIABLE_BASE_MULS.fetch_add(1, Ordering::Relaxed);
}

#[inline]
pub(crate) fn count_pairing(pairs: u64) {
    PAIRINGS.fetch_add(1, Ordering::Relaxed);
    MILLER_PAIRS.fetch_add(pairs, Ordering::Relaxed);
}

#[inline]
pub(crate) fn count_prepared_pairing(pairs: u64) {
    PAIRINGS.fetch_add(1, Ordering::Relaxed);
    MILLER_PAIRS.fetch_add(pairs, Ordering::Relaxed);
    PREPARED_MILLER_PAIRS.fetch_add(pairs, Ordering::Relaxed);
}

#[inline]
pub(crate) fn count_g2_prepares(points: u64) {
    G2_PREPARES.fetch_add(points, Ordering::Relaxed);
}

#[inline]
pub(crate) fn count_gt_pow() {
    GT_POWS.fetch_add(1, Ordering::Relaxed);
}

#[inline]
pub(crate) fn count_cyclotomic_square() {
    CYCLOTOMIC_SQUARES.fetch_add(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_deltas_track_increments() {
        let before = snapshot();
        count_fixed_base_mul();
        count_batched_fixed_base_muls(6);
        count_variable_base_mul();
        count_pairing(3);
        count_prepared_pairing(2);
        count_g2_prepares(4);
        count_gt_pow();
        count_cyclotomic_square();
        let delta = snapshot().since(&before);
        // Other tests run concurrently and also bump the globals, so
        // assert lower bounds only.
        assert!(delta.fixed_base_muls >= 1);
        assert!(delta.batched_fixed_base_muls >= 6);
        assert!(delta.variable_base_muls >= 1);
        assert!(delta.pairings >= 2);
        assert!(delta.miller_pairs >= 5);
        assert!(delta.prepared_miller_pairs >= 2);
        assert!(delta.g2_prepares >= 4);
        assert!(delta.gt_pows >= 1);
        assert!(delta.cyclotomic_squares >= 1);
        assert_eq!(OpCounts::default().since(&snapshot()), OpCounts::default());
    }
}
