//! Per-layer unit costs, measured from outside by timing calls into
//! each layer's public functions: the calibration phase of the traced
//! run (`pairing`, `core`, `crypto`), the direct calls into
//! `db.client`, `db.server` and `db.store`, and the codec replay over
//! the messages the [`Link`](crate::stack::Link) kept.

use crate::inputs::{table_config, Tables};
use crate::report::median;
use crate::stack::{thread_cap, Exchange, POOL_THREADS};
use eqjoin_core::{embed_attribute, RowEncoding, SecureJoin, SjParams, SjTableSide};
use eqjoin_crypto::{AeadKey, ChaChaRng};
use eqjoin_db::{
    ClientConfig, DbClient, DbServer, EncryptedStore, JoinOptions, JoinQuery, Request, Response,
    Table,
};
use eqjoin_pairing::{
    final_exponentiation, final_exponentiation_batch, multi_miller_loop_prepared, pairing, Bls12,
    Engine, Field, Fp, Fp12, Fr, G2Prepared,
};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Elements per ciphertext and per token at m = 2, t = 3.
pub const INNER_DIM: usize = 11;

/// Median over `batches` of the mean nanoseconds per call.
fn per_call_ns(batches: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&samples)
}

/// How hard the calibration works: the smoke run only proves the code
/// paths, a real run wants stable medians.
#[derive(Clone, Copy)]
pub struct Effort {
    batches: usize,
    scale: usize,
}

impl Effort {
    pub fn new(smoke: bool) -> Self {
        if smoke {
            Effort {
                batches: 1,
                scale: 1,
            }
        } else {
            Effort {
                batches: 5,
                scale: 8,
            }
        }
    }
}

/// One `Fp` multiplication: the normaliser a report divides every unit
/// cost by when numbers from two machines are set side by side.
pub fn fp_mul_ns() -> f64 {
    time_fp_mul(5, 10_000)
}

fn time_fp_mul(batches: usize, calls: usize) -> f64 {
    let mut rng = ChaChaRng::seed_from_u64(0xf9);
    let (mut x, y) = (Fp::random(&mut rng), Fp::random(&mut rng));
    per_call_ns(batches, calls, || {
        for _ in 0..100 {
            x *= y;
        }
        black_box(x);
    }) / 100.0
}

pub struct UnitCosts {
    pub fp_mul_ns: f64,
    pub fp12_mul_ns: f64,
    pub cyclotomic_sq_ns: f64,
    pub miller_pair_us: f64,
    pub final_exp_us: f64,
    pub final_exp_batch_us: f64,
    pub g2_prepare_us: f64,
    pub g1_mul_gen_batch_us: f64,
    pub g2_mul_gen_batch_us: f64,
    pub enc_row_us: f64,
    pub tkgen_us: f64,
    pub prepare_row_us: f64,
    pub dec_row_us: f64,
    pub dec_many_row_us: f64,
    pub aead_open_ns_per_kib: f64,
    pub aead_seal_ns_per_kib: f64,
}

/// The calibration phase. `pairing` is always the BLS12-381 arithmetic
/// (it is what the layer is); `core` runs on the workload's engine.
pub fn calibrate<E: Engine>(effort: Effort) -> UnitCosts {
    let Effort { batches, scale } = effort;
    let mut rng = ChaChaRng::seed_from_u64(0xca11_b8a7e);

    let fp_mul_ns = time_fp_mul(batches, 2_000 * scale);
    let (mut x12, y12) = (Fp12::random(&mut rng), Fp12::random(&mut rng));
    let fp12_mul_ns = per_call_ns(batches, 500 * scale, || {
        x12 *= y12;
        black_box(x12);
    });

    let g1: Vec<_> = (0..INNER_DIM)
        .map(|_| Bls12::g1_mul_gen(&Fr::random(&mut rng)))
        .collect();
    let g2: Vec<_> = (0..INNER_DIM)
        .map(|_| Bls12::g2_mul_gen(&Fr::random(&mut rng)))
        .collect();
    let mut cyc = *pairing(&g1[0], &g2[0]).as_fp12();
    let cyclotomic_sq_ns = per_call_ns(batches, 500 * scale, || {
        cyc = cyc.cyclotomic_square();
        black_box(cyc);
    });
    let prepared = G2Prepared::prepare_batch(&g2);
    let pairs: Vec<_> = g1.iter().copied().zip(&prepared).collect();
    let miller_pair_us = per_call_ns(batches, 4 * scale, || {
        black_box(multi_miller_loop_prepared(black_box(&pairs)));
    }) / 1e3
        / INNER_DIM as f64;
    let f = multi_miller_loop_prepared(&pairs);
    let final_exp_us = per_call_ns(batches, 4 * scale, || {
        black_box(final_exponentiation(black_box(&f)));
    }) / 1e3;
    let fs = vec![f; 16];
    let final_exp_batch_us = per_call_ns(batches, scale.div_ceil(2), || {
        black_box(final_exponentiation_batch(black_box(&fs)));
    }) / 1e3
        / fs.len() as f64;
    let g2_prepare_us = per_call_ns(batches, 2 * scale, || {
        black_box(G2Prepared::prepare_batch(black_box(&g2)));
    }) / 1e3
        / INNER_DIM as f64;
    let scalars: Vec<Fr> = (0..64).map(|_| Fr::random(&mut rng)).collect();
    let g1_mul_gen_batch_us = per_call_ns(batches, scale, || {
        black_box(Bls12::g1_mul_gen_batch(black_box(&scalars)));
    }) / 1e3
        / scalars.len() as f64;
    let g2_mul_gen_batch_us = per_call_ns(batches, scale.div_ceil(2), || {
        black_box(Bls12::g2_mul_gen_batch(black_box(&scalars)));
    }) / 1e3
        / scalars.len() as f64;

    let msk = SecureJoin::<E>::setup(SjParams { m: 2, t: 3 }, &mut rng);
    let row = RowEncoding::from_bytes(b"42", &[b"1-URGENT".to_vec(), b"1/25".to_vec()]);
    let enc_row_us = per_call_ns(batches, 4 * scale, || {
        black_box(SecureJoin::<E>::encrypt_row(&msk, &row, &mut rng).expect("m matches"));
    }) / 1e3;
    let key = SecureJoin::<E>::fresh_query_key(&mut rng);
    let filters = [
        None,
        Some(vec![
            embed_attribute(b"1/25"),
            embed_attribute(b"pad-a"),
            embed_attribute(b"pad-b"),
        ]),
    ];
    let tkgen_us = per_call_ns(batches, 4 * scale, || {
        black_box(
            SecureJoin::<E>::token_gen(&msk, SjTableSide::A, &key, &filters, &mut rng)
                .expect("m matches"),
        );
    }) / 1e3;
    let token = SecureJoin::<E>::token_gen(&msk, SjTableSide::A, &key, &filters, &mut rng)
        .expect("m matches");
    let cipher = SecureJoin::<E>::encrypt_row(&msk, &row, &mut rng).expect("m matches");
    let prepare_row_us = per_call_ns(batches, 2 * scale, || {
        black_box(SecureJoin::<E>::prepare_row(black_box(&cipher)));
    }) / 1e3;
    let prepared_row = SecureJoin::<E>::prepare_row(&cipher);
    let dec_row_us = per_call_ns(batches, 2 * scale, || {
        black_box(SecureJoin::<E>::decrypt_prepared(&token, &prepared_row));
    }) / 1e3;
    let many = vec![&prepared_row; 16];
    let dec_many_row_us = per_call_ns(batches, scale.div_ceil(4), || {
        black_box(SecureJoin::<E>::decrypt_prepared_many(&token, &many));
    }) / 1e3
        / many.len() as f64;

    let aead = AeadKey::generate(&mut rng);
    let kib = [0x5au8; 1024];
    let aead_seal_ns_per_kib = per_call_ns(batches, 200 * scale, || {
        black_box(aead.seal(&mut rng, b"row:col", &kib));
    });
    let sealed = aead.seal(&mut rng, b"row:col", &kib);
    let aead_open_ns_per_kib = per_call_ns(batches, 200 * scale, || {
        black_box(aead.open(b"row:col", &sealed).expect("sealed above"));
    });

    UnitCosts {
        fp_mul_ns,
        fp12_mul_ns,
        cyclotomic_sq_ns,
        miller_pair_us,
        final_exp_us,
        final_exp_batch_us,
        g2_prepare_us,
        g1_mul_gen_batch_us,
        g2_mul_gen_batch_us,
        enc_row_us,
        tkgen_us,
        prepare_row_us,
        dec_row_us,
        dec_many_row_us,
        aead_open_ns_per_kib,
        aead_seal_ns_per_kib,
    }
}

pub struct DirectCalls {
    pub encrypt_rows_per_s: f64,
    pub parallel_efficiency: f64,
    pub copy_rows_per_s: f64,
    pub snapshot_bytes: f64,
    pub snapshot_save_s: f64,
    pub snapshot_load_s: f64,
    pub load_us_per_row: f64,
}

/// Time `db.client`, `db.server` and `db.store` directly on the
/// workload's `Orders` and `Customers`, bypassing session and wire.
pub fn direct_calls<E: Engine>(
    tables: &Tables,
    seed: u64,
    dir: &Path,
) -> Result<DirectCalls, String> {
    let cap = thread_cap();
    let err = |e: eqjoin_db::DbError| e.to_string();
    let mut client = DbClient::<E>::with_config(
        ClientConfig::new(2, 3)
            .seed(seed)
            .prefilter(true)
            .encrypt_threads(POOL_THREADS),
    );

    // db.client: register `Orders` with an empty shell, then time the
    // encryption of its rows alone.
    let orders_cfg = table_config("Orders");
    let shell = Table::new(tables.orders.schema.clone());
    client
        .encrypt_table(&shell, orders_cfg.clone())
        .map_err(err)?;
    let plain: Vec<_> = tables.orders.rows.iter().map(|r| r.0.clone()).collect();
    let t = Instant::now();
    let (start_row, encrypted) = client.encrypt_rows("Orders", &plain).map_err(err)?;
    let encrypt_rows_per_s = plain.len() as f64 / t.elapsed().as_secs_f64();

    // db.store: the COPY path, then a snapshot round trip.
    let mut store = EncryptedStore::<E>::new();
    let t = Instant::now();
    store
        .copy_rows(
            "Orders",
            &orders_cfg.join_column,
            &orders_cfg.filter_columns,
            start_row,
            encrypted.clone(),
        )
        .map_err(err)?;
    let copy_rows_per_s = plain.len() as f64 / t.elapsed().as_secs_f64();
    let snapshot = dir.join("direct.snap");
    let t = Instant::now();
    store.save(&snapshot).map_err(err)?;
    let snapshot_save_s = t.elapsed().as_secs_f64();
    let snapshot_bytes = std::fs::metadata(&snapshot).map_or(0, |m| m.len()) as f64;
    let t = Instant::now();
    let reloaded = EncryptedStore::<E>::load(&snapshot).map_err(err)?;
    let snapshot_load_s = t.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&snapshot);
    drop(reloaded);

    // db.server: one uncached join at 1 thread and at the cap.
    let mut server = DbServer::with_store(store);
    server
        .insert_table(
            client
                .encrypt_table(&tables.customers, table_config("Customers"))
                .map_err(err)?,
        )
        .map_err(err)?;
    let query = JoinQuery::on("Customers", "custkey", "Orders", "custkey").filter(
        "Orders",
        "selectivity",
        vec!["1/12.5".into()],
    );
    let tokens = client.query_tokens(&query).map_err(err)?;
    let decrypt_s = |threads: usize| -> Result<f64, String> {
        let options = JoinOptions {
            threads,
            decrypt_cache: false,
            ..JoinOptions::default()
        };
        let mut samples = Vec::new();
        for _ in 0..3 {
            let (result, _) = server.execute_join(&tokens, &options).map_err(err)?;
            samples.push(result.stats.decrypt_time.as_secs_f64());
        }
        Ok(median(&samples))
    };
    let single = decrypt_s(1)?;
    let parallel_efficiency = if cap > 1 {
        single / (cap as f64 * decrypt_s(cap)?)
    } else {
        1.0
    };

    Ok(DirectCalls {
        encrypt_rows_per_s,
        parallel_efficiency,
        copy_rows_per_s,
        snapshot_bytes,
        snapshot_save_s,
        snapshot_load_s,
        load_us_per_row: snapshot_load_s * 1e6 / plain.len() as f64,
    })
}

#[derive(Clone, Copy, Default)]
pub struct Codec {
    pub encode_ns_per_kib: f64,
    pub decode_ns_per_kib: f64,
    /// Mean codec time of one query exchange: request and response,
    /// encoded and decoded once each (client plus server side).
    pub query_exchange_ns: f64,
}

/// Replay `to_bytes`/`from_bytes` over the messages the link kept.
pub fn codec_replay<E: Engine>(exchanges: &[Exchange<E>]) -> Codec {
    let (mut encode_ns, mut decode_ns, mut bytes) = (0.0, 0.0, 0.0);
    let (mut query_ns, mut queries) = (0.0, 0u64);
    for exchange in exchanges {
        let timed = |f: &mut dyn FnMut()| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        };
        let mut request_bytes = Vec::new();
        let mut response_bytes = Vec::new();
        let enc = timed(&mut || request_bytes = exchange.request.to_bytes())
            + timed(&mut || response_bytes = exchange.response.to_bytes());
        let dec = timed(&mut || {
            black_box(Request::<E>::from_bytes(&request_bytes).is_ok());
        }) + timed(&mut || {
            black_box(Response::from_bytes(&response_bytes).is_ok());
        });
        encode_ns += enc;
        decode_ns += dec;
        bytes += (request_bytes.len() + response_bytes.len()) as f64;
        let is_query = match &exchange.response {
            Response::JoinExecuted { .. } => true,
            Response::Batch(parts) => parts
                .iter()
                .all(|p| matches!(p, Response::JoinExecuted { .. })),
            _ => false,
        };
        if is_query {
            query_ns += enc + dec;
            queries += 1;
        }
    }
    let kib = (bytes / 1024.0).max(f64::MIN_POSITIVE);
    Codec {
        encode_ns_per_kib: encode_ns / kib,
        decode_ns_per_kib: decode_ns / kib,
        query_exchange_ns: query_ns / queries.max(1) as f64,
    }
}
