//! Regenerate the **§6.5 comparison**: Secure Join vs the Hahn et al.
//! reconstruction — per-row and per-query costs, join algorithm asymptotics,
//! and the parallelization headroom the paper discusses.
//!
//! ```sh
//! cargo run --release -p eqjoin-bench --bin compare
//! ```

use eqjoin_baselines::kpabe::{KpAbe, Policy};
use eqjoin_bench::{
    mean_duration, millis, run_join_session, secs, selectivity_query, setup_tpch_session,
};
use eqjoin_core::{embed_attribute, RowEncoding, SecureJoin, SjParams, SjTableSide};
use eqjoin_crypto::ChaChaRng;
use eqjoin_db::join::{hash_join, nested_loop_join};
use eqjoin_pairing::{Bls12, Fr};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Each scheme's whole per-row and per-query cost: the upload encrypts
/// every row once, a query draws one key per side, and the server
/// unlocks each candidate row with it.
fn per_row_unlock() {
    println!("-- per-row and per-query costs (BLS12-381, m = 8, t = 1) --");
    let mut rng = ChaChaRng::seed_from_u64(0xc0);
    type Sj = SecureJoin<Bls12>;
    let msk = Sj::setup(SjParams { m: 8, t: 1 }, &mut rng);
    let attrs: Vec<Vec<u8>> = (0..8).map(|i| format!("a{i}").into_bytes()).collect();
    let row = RowEncoding::from_bytes(b"jv", &attrs);
    let sj_enc = mean_duration(10, || {
        let t0 = Instant::now();
        let _ = Sj::encrypt_row(&msk, &row, &mut rng);
        t0.elapsed()
    });
    let ct = Sj::encrypt_row(&msk, &row, &mut rng).unwrap();
    let key = Sj::fresh_query_key(&mut rng);
    let mut filters: Vec<Option<Vec<Fr>>> = vec![None; 8];
    filters[0] = Some(vec![embed_attribute(b"a0")]);
    let sj_tkgen = mean_duration(10, || {
        let t0 = Instant::now();
        let _ = Sj::token_gen(&msk, SjTableSide::A, &key, &filters, &mut rng);
        t0.elapsed()
    });
    let tk = Sj::token_gen(&msk, SjTableSide::A, &key, &filters, &mut rng).unwrap();
    let sj_dec = mean_duration(10, || {
        let t0 = Instant::now();
        let _ = Sj::decrypt(&tk, &ct);
        t0.elapsed()
    });

    let universe: Vec<String> = vec!["a".into(), "b".into()];
    let kp_msk = KpAbe::<Bls12>::setup(&universe, &mut rng);
    let (m, _) = KpAbe::<Bls12>::random_message(&kp_msk, &mut rng);
    let attrs: HashSet<String> = ["a".to_string(), "b".to_string()].into();
    let hahn_encrypt = mean_duration(10, || {
        let t0 = Instant::now();
        let _ = KpAbe::<Bls12>::encrypt(&kp_msk, &m, &attrs, &mut rng);
        t0.elapsed()
    });
    let kp_ct = KpAbe::<Bls12>::encrypt(&kp_msk, &m, &attrs, &mut rng);
    let policy = Policy::And(vec![Policy::leaf("a"), Policy::leaf("b")]);
    let hahn_keygen = mean_duration(10, || {
        let t0 = Instant::now();
        let _ = KpAbe::<Bls12>::keygen(&kp_msk, &policy, &mut rng);
        t0.elapsed()
    });
    let kp_key = KpAbe::<Bls12>::keygen(&kp_msk, &policy, &mut rng);
    let hahn_unwrap = mean_duration(10, || {
        let t0 = Instant::now();
        let _ = KpAbe::<Bls12>::decrypt(&kp_key, &kp_ct);
        t0.elapsed()
    });

    println!(
        "  SecureJoin SJ.Enc (upload, per row):          {} ms",
        millis(sj_enc)
    );
    println!(
        "  Hahn KP-ABE encrypt (upload, per row):        {} ms",
        millis(hahn_encrypt)
    );
    println!(
        "  SecureJoin SJ.TkGen (per query side):         {} ms",
        millis(sj_tkgen)
    );
    println!(
        "  Hahn KP-ABE keygen (per query side):          {} ms",
        millis(hahn_keygen)
    );
    println!(
        "  SecureJoin SJ.Dec (one 19-way multi-pairing): {} ms",
        millis(sj_dec)
    );
    println!(
        "  Hahn KP-ABE unwrap (2-leaf policy):           {} ms",
        millis(hahn_unwrap)
    );
    println!("  paper reference: SJ ~21 ms/dec, Hahn ~15 ms/dec (different hw/libs)\n");
}

fn match_asymptotics() {
    println!("-- matching phase: O(n) hash join vs O(n^2) nested loop --");
    println!("   (D-value matching only; per-pair costs are equal-by-construction)");
    println!(
        "{:>8} {:>14} {:>14} {:>8}",
        "n/side", "hash (ms)", "nested (ms)", "ratio"
    );
    for n in [500usize, 2000, 8000] {
        let keyed = |offset: usize| -> Vec<(usize, Vec<u8>)> {
            (0..n)
                .map(|i| (i, ((i * 10 + offset) % (n * 9)).to_le_bytes().to_vec()))
                .collect()
        };
        let left = keyed(0);
        let right = keyed(5);
        let h = mean_duration(5, || {
            let t0 = Instant::now();
            let _ = hash_join(&left, &right);
            t0.elapsed()
        });
        let nl = mean_duration(5, || {
            let t0 = Instant::now();
            let _ = nested_loop_join(&left, &right);
            t0.elapsed()
        });
        println!(
            "{:>8} {:>14} {:>14} {:>8.1}",
            n,
            millis(h),
            millis(nl),
            nl.as_secs_f64() / h.as_secs_f64().max(1e-9)
        );
    }
    println!();
}

/// Timed runs per thread count in the parallelism sweep: enough for a
/// median and a spread on a shared host.
const SCALING_REPS: usize = 7;

fn parallel_scaling() {
    println!("-- server decrypt parallelism (BLS12-381, 60+600 rows, s = 1/12.5) --");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("  ({cores} cores: one server per thread count up to {cores}; each query");
    println!("   runs once untimed first, so every timed run is over prepared rows;");
    println!("   median of {SCALING_REPS} runs, min-max beside it)");
    let query = selectivity_query("1/12.5", 1);
    let mut base = None;
    for threads in [1usize, 2, 4, 8].into_iter().filter(|&n| n <= cores) {
        let mut bench = setup_tpch_session::<Bls12>(0.0004, 1, 0xca, threads);
        run_join_session(&mut bench, &query);
        let mut runs: Vec<Duration> = (0..SCALING_REPS)
            .map(|_| run_join_session(&mut bench, &query).total)
            .collect();
        let median = *runs.select_nth_unstable(SCALING_REPS / 2).1;
        let min = runs.iter().copied().min().unwrap_or_default();
        let max = runs.iter().copied().max().unwrap_or_default();
        let base = *base.get_or_insert(median);
        let speedup = |d: Duration| base.as_secs_f64() / d.as_secs_f64();
        println!(
            "  threads = {threads}: {} s ({}-{} s), speedup {:.2}x ({:.2}x-{:.2}x)",
            secs(median),
            secs(min),
            secs(max),
            speedup(median),
            speedup(max),
            speedup(min),
        );
    }
    println!("  (the paper's numbers are single-threaded; §6.5 notes its scheme");
    println!("   parallelizes trivially — this measures that headroom)\n");
}

fn whole_query_shape() {
    println!("-- whole-query scaling, BLS12-381, scale 0.001 (shape check) --");
    let mut bench = setup_tpch_session::<Bls12>(0.001, 1, 0xcb, 0);
    let mut times = Vec::new();
    for s in ["1/100", "1/12.5"] {
        let query = selectivity_query(s, 1);
        // The first run prepares the selected rows; the second is timed warm.
        run_join_session(&mut bench, &query);
        let m = run_join_session(&mut bench, &query);
        println!(
            "  s = {s:>7}: {} rows decrypted, {} pairs, {} s total",
            m.rows_decrypted,
            m.matched_pairs,
            secs(m.total)
        );
        times.push(m.total.as_secs_f64());
    }
    println!(
        "  measured ratio {:.1}x between s=1/12.5 and s=1/100 (paper: 27.88/3.52 = 7.9x)",
        times[1] / times[0].max(1e-9)
    );
}

fn main() {
    println!("§6.5 comparison — Secure Join vs Hahn et al. reconstruction\n");
    per_row_unlock();
    match_asymptotics();
    parallel_scaling();
    whole_query_shape();
}
