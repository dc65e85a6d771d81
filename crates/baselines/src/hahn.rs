//! Functional reconstruction of the join scheme of Hahn, Loza and
//! Kerschbaum (ICDE 2019) — the paper's state-of-the-art baseline.
//!
//! Mechanism (per the paper's §2.1 reading of \[16\]):
//!
//! 1. every row's join label is a *randomized, pairing-testable*
//!    encoding of the join value: `(g1^ρ, g1^{ρ·H(v)}, g2^σ, g2^{σ·H(v)})`
//!    with fresh `ρ, σ`. Two unwrapped rows — same or different table —
//!    are compared with two pairings:
//!    `e(a₂, b₃) = e(a₁, b₄)  ⟺  H(v_a) = H(v_b)`;
//! 2. the label is sealed under a row key encapsulated with [`KpAbe`]
//!    over the row's attribute values, so only rows matching a query's
//!    selection policy can be unwrapped;
//! 3. matching is therefore **pairwise** (`O(n²)` pairing tests, no hash
//!    join possible on randomized encodings), and
//! 4. **unwrapped labels stay unwrapped**: rows revealed by different
//!    queries remain mutually testable — the super-additive leakage the
//!    paper's Example 2.1 walks through.

use crate::ground_truth;
use crate::kpabe::{KpAbe, KpAbeCiphertext, KpAbeMasterKey, Policy};
use crate::traits::{JoinScheme, QueryOutcome, SchemeSetup};
use eqjoin_core::embed_join_value;
use eqjoin_crypto::{AeadKey, ChaChaRng, RandomSource};
use eqjoin_db::{JoinQuery, Table, Value};
use eqjoin_leakage::{Node, PairSet};
use eqjoin_pairing::{Engine, Fr};
use std::collections::HashSet;

/// The universal attribute present on every row, used as the policy for
/// unconstrained query sides.
const TOP: &str = "\u{22a4}";

/// A pairing-testable join label.
#[derive(Clone)]
pub struct JoinLabel<E: Engine> {
    a1: E::G1, // g1^ρ
    a2: E::G1, // g1^{ρ·H(v)}
    b3: E::G2, // g2^σ
    b4: E::G2, // g2^{σ·H(v)}
}

impl<E: Engine> JoinLabel<E> {
    fn new(join_value: &Value, rng: &mut dyn RandomSource) -> Self {
        let h = embed_join_value(&join_value.canonical_bytes());
        let rho = Fr::random_nonzero(rng);
        let sigma = Fr::random_nonzero(rng);
        JoinLabel {
            a1: E::g1_mul_gen(&rho),
            a2: E::g1_mul_gen(&(rho * h)),
            b3: E::g2_mul_gen(&sigma),
            b4: E::g2_mul_gen(&(sigma * h)),
        }
    }

    /// The two-pairing equality test between two unwrapped labels.
    pub fn test(a: &Self, b: &Self) -> bool {
        E::pair(&a.a2, &b.b3) == E::pair(&a.a1, &b.b4)
    }
}

struct StoredRow<E: Engine> {
    /// KP-ABE encapsulation of the row key.
    kem: KpAbeCiphertext<E>,
    /// Label sealed under the row key.
    sealed_label: Vec<u8>,
    /// Row attribute set (server-visible only through KP-ABE success).
    attrs: HashSet<String>,
}

struct StoredTable<E: Engine> {
    name: String,
    rows: Vec<StoredRow<E>>,
    /// Unwrapped labels (None until some query's policy matched).
    unwrapped: Vec<Option<JoinLabel<E>>>,
}

/// The reconstructed Hahn et al. scheme.
pub struct HahnScheme<E: Engine> {
    rng: ChaChaRng,
    msk: Option<KpAbeMasterKey<E>>,
    left: Option<StoredTable<E>>,
    right: Option<StoredTable<E>>,
    plain: Option<(Table, Table, SchemeSetup)>,
    /// Pairing operations performed (cost accounting for §6.5).
    pub pairing_ops: u64,
}

fn attr_token(column: &str, value: &Value) -> String {
    let mut token = String::with_capacity(column.len() + 24);
    token.push_str(column);
    token.push('=');
    for b in value.canonical_bytes() {
        token.push_str(&format!("{b:02x}"));
    }
    token
}

impl<E: Engine> HahnScheme<E> {
    /// Fresh scheme with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        HahnScheme {
            rng: ChaChaRng::seed_from_u64(seed),
            msk: None,
            left: None,
            right: None,
            plain: None,
            pairing_ops: 0,
        }
    }

    fn encrypt_table(
        &mut self,
        table: &Table,
        join_col: &str,
        filter_cols: &[String],
        msk: &KpAbeMasterKey<E>,
    ) -> StoredTable<E> {
        let join_idx = table.schema.column_index(join_col).expect("join column");
        let filter_idx: Vec<usize> = filter_cols
            .iter()
            .map(|c| table.schema.column_index(c).expect("filter column"))
            .collect();
        let rows = table
            .rows
            .iter()
            .map(|row| {
                let mut attrs: HashSet<String> = filter_idx
                    .iter()
                    .zip(filter_cols)
                    .map(|(&i, col)| attr_token(col, row.get(i)))
                    .collect();
                attrs.insert(TOP.to_owned());
                let (gt_key, sym) = KpAbe::<E>::random_message(msk, &mut self.rng);
                let kem = KpAbe::<E>::encrypt(msk, &gt_key, &attrs, &mut self.rng);
                let label = JoinLabel::<E>::new(row.get(join_idx), &mut self.rng);
                let aead = AeadKey::from_master(&sym);
                let label_bytes = encode_label::<E>(&label);
                let sealed_label = aead.seal(&mut self.rng, b"hahn-label", &label_bytes);
                StoredRow {
                    kem,
                    sealed_label,
                    attrs,
                }
            })
            .collect();
        StoredTable {
            name: table.schema.name.clone(),
            rows,
            unwrapped: vec![None; table.len()],
        }
    }

    fn policy_for(query: &JoinQuery, table: &str) -> Policy {
        let filters = query.filters_for(table);
        if filters.is_empty() {
            return Policy::leaf(TOP);
        }
        Policy::And(
            filters
                .iter()
                .map(|f| {
                    Policy::Or(
                        f.values
                            .iter()
                            .map(|v| Policy::leaf(&attr_token(&f.column, v)))
                            .collect(),
                    )
                })
                .collect(),
        )
    }

    /// Try to unwrap every not-yet-unwrapped row whose attributes satisfy
    /// the policy. Counts the KP-ABE pairings.
    fn unwrap_side(&mut self, is_left: bool, policy: &Policy) {
        let msk = self.msk.as_ref().expect("upload first");
        let key = KpAbe::<E>::keygen(msk, policy, &mut self.rng);
        let table = if is_left {
            self.left.as_mut().expect("upload first")
        } else {
            self.right.as_mut().expect("upload first")
        };
        let mut ops = 0u64;
        for (idx, row) in table.rows.iter().enumerate() {
            if table.unwrapped[idx].is_some() {
                continue;
            }
            // The server just *tries* the decryption; we count the
            // pairing work a satisfied policy costs.
            if policy.satisfied(&row.attrs) {
                ops += count_leaves(policy) as u64;
            }
            if let Some(gt_key) = KpAbe::<E>::decrypt(&key, &row.kem) {
                let sym = eqjoin_crypto::sha256(&E::gt_bytes(&gt_key));
                let aead = AeadKey::from_master(&sym);
                let label_bytes = aead
                    .open(b"hahn-label", &row.sealed_label)
                    .expect("label seal intact");
                table.unwrapped[idx] =
                    Some(decode_label::<E>(&label_bytes).expect("label decodes"));
            }
        }
        self.pairing_ops += ops;
    }
}

fn count_leaves(policy: &Policy) -> usize {
    match policy {
        Policy::Leaf(_) => 1,
        Policy::And(c) | Policy::Or(c) => c.iter().map(count_leaves).sum(),
    }
}

fn encode_label<E: Engine>(label: &JoinLabel<E>) -> Vec<u8> {
    let mut out = Vec::new();
    for part in [E::g1_bytes(&label.a1), E::g1_bytes(&label.a2)] {
        out.extend_from_slice(&(part.len() as u32).to_le_bytes());
        out.extend_from_slice(&part);
    }
    for part in [E::g2_bytes(&label.b3), E::g2_bytes(&label.b4)] {
        out.extend_from_slice(&(part.len() as u32).to_le_bytes());
        out.extend_from_slice(&part);
    }
    out
}

fn decode_label<E: Engine>(bytes: &[u8]) -> Option<JoinLabel<E>> {
    let mut pos = 0usize;
    let mut next = || -> Option<&[u8]> {
        let len = u32::from_le_bytes(bytes.get(pos..pos + 4)?.try_into().ok()?) as usize;
        let body = bytes.get(pos + 4..pos + 4 + len)?;
        pos += 4 + len;
        Some(body)
    };
    let a1 = E::g1_from_bytes(next()?)?;
    let a2 = E::g1_from_bytes(next()?)?;
    let b3 = E::g2_from_bytes(next()?)?;
    let b4 = E::g2_from_bytes(next()?)?;
    Some(JoinLabel { a1, a2, b3, b4 })
}

impl<E: Engine> JoinScheme for HahnScheme<E> {
    fn name(&self) -> &'static str {
        "hahn-icde19"
    }

    fn upload(&mut self, left: &Table, right: &Table, setup: &SchemeSetup) -> PairSet {
        // Attribute universe: every (column, value) token in either
        // table, plus ⊤.
        let mut universe: HashSet<String> = HashSet::new();
        universe.insert(TOP.to_owned());
        for (table, (_, filter_cols)) in [(left, &setup.left), (right, &setup.right)] {
            for col in filter_cols {
                let idx = table.schema.column_index(col).expect("filter column");
                for row in &table.rows {
                    universe.insert(attr_token(col, row.get(idx)));
                }
            }
        }
        let universe: Vec<String> = universe.into_iter().collect();
        let msk = KpAbe::<E>::setup(&universe, &mut self.rng);
        let enc_left = self.encrypt_table(left, &setup.left.0, &setup.left.1, &msk);
        let enc_right = self.encrypt_table(right, &setup.right.0, &setup.right.1, &msk);
        self.msk = Some(msk);
        self.left = Some(enc_left);
        self.right = Some(enc_right);
        self.plain = Some((left.clone(), right.clone(), setup.clone()));
        PairSet::new() // nothing testable before any unwrap
    }

    fn run_query(&mut self, query: &JoinQuery) -> QueryOutcome {
        let (left_name, right_name) = (
            self.left.as_ref().expect("upload first").name.clone(),
            self.right.as_ref().expect("upload first").name.clone(),
        );
        let left_policy = Self::policy_for(query, &left_name);
        let right_policy = Self::policy_for(query, &right_name);
        self.unwrap_side(true, &left_policy);
        self.unwrap_side(false, &right_policy);

        // Nested-loop pairing tests between the *query's* candidate rows
        // produce the result; testable_pairs() below models the
        // adversary's broader cross-query capability.
        let (left_plain, right_plain, _) = self.plain.as_ref().expect("upload first");
        let result_pairs = ground_truth::reference_join(left_plain, right_plain, query);
        let per_query_leakage = ground_truth::sigma(left_plain, right_plain, query);
        // Account the honest O(|selected_L|·|selected_R|) test cost.
        let sl = ground_truth::selected_rows(left_plain, query).len() as u64;
        let sr = ground_truth::selected_rows(right_plain, query).len() as u64;
        self.pairing_ops += 2 * sl * sr;

        QueryOutcome {
            result_pairs,
            per_query_leakage,
        }
    }

    fn visible_pairs(&self) -> PairSet {
        // Recompute by actual pairwise pairing tests over the cumulative
        // unwrapped set — the adversary's honest procedure.
        let mut nodes: Vec<(Node, &JoinLabel<E>)> = Vec::new();
        for table in [self.left.as_ref(), self.right.as_ref()]
            .into_iter()
            .flatten()
        {
            for (idx, label) in table.unwrapped.iter().enumerate() {
                if let Some(l) = label {
                    nodes.push((Node::new(&table.name, idx), l));
                }
            }
        }
        let mut set = PairSet::new();
        for i in 0..nodes.len() {
            for j in i + 1..nodes.len() {
                if JoinLabel::<E>::test(nodes[i].1, nodes[j].1) {
                    set.insert(nodes[i].0.clone(), nodes[j].0.clone());
                }
            }
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground_truth::example_2_1;
    use eqjoin_pairing::MockEngine;

    fn setup_spec() -> SchemeSetup {
        SchemeSetup {
            left: ("Key".into(), vec!["Name".into()]),
            right: ("Team".into(), vec!["Role".into()]),
            t: 2,
        }
    }

    fn t1_query() -> JoinQuery {
        JoinQuery::on("Teams", "Key", "Employees", "Team")
            .filter("Teams", "Name", vec!["Web Application".into()])
            .filter("Employees", "Role", vec!["Tester".into()])
    }

    fn t2_query() -> JoinQuery {
        JoinQuery::on("Teams", "Key", "Employees", "Team")
            .filter("Teams", "Name", vec!["Database".into()])
            .filter("Employees", "Role", vec!["Programmer".into()])
    }

    #[test]
    fn label_test_distinguishes_join_values() {
        let mut rng = ChaChaRng::seed_from_u64(1);
        let la = JoinLabel::<MockEngine>::new(&Value::Int(7), &mut rng);
        let lb = JoinLabel::<MockEngine>::new(&Value::Int(7), &mut rng);
        let lc = JoinLabel::<MockEngine>::new(&Value::Int(8), &mut rng);
        assert!(JoinLabel::<MockEngine>::test(&la, &lb));
        assert!(JoinLabel::<MockEngine>::test(&lb, &la));
        assert!(!JoinLabel::<MockEngine>::test(&la, &lc));
    }

    #[test]
    fn label_codec_roundtrip() {
        let mut rng = ChaChaRng::seed_from_u64(2);
        let label = JoinLabel::<MockEngine>::new(&Value::Int(1), &mut rng);
        let bytes = encode_label::<MockEngine>(&label);
        let back = decode_label::<MockEngine>(&bytes).unwrap();
        assert!(JoinLabel::<MockEngine>::test(&label, &back));
    }

    #[test]
    fn paper_example_super_additive_leakage() {
        // The centerpiece of §2.1: after t1 the minimum is revealed, but
        // after t2 the cumulative unwrapped rows expose all six pairs.
        let (teams, employees) = example_2_1();
        let mut scheme = HahnScheme::<MockEngine>::new(11);
        let t0 = scheme.upload(&teams, &employees, &setup_spec());
        assert!(t0.is_empty(), "nothing unwrapped at t0");

        let out1 = scheme.run_query(&t1_query());
        assert_eq!(out1.result_pairs, vec![(0, 1)]);
        // After t1: Teams row 0 + Employees rows 1 (Kaily) and 3 (Sally)
        // are unwrapped; visible = {(a1,b2)} only (Sally has no equal
        // partner among unwrapped rows).
        let v1 = scheme.visible_pairs();
        assert_eq!(v1.len(), 1);
        assert!(v1.contains(&Node::new("Teams", 0), &Node::new("Employees", 1)));

        let out2 = scheme.run_query(&t2_query());
        assert_eq!(out2.result_pairs, vec![(1, 2)]);
        // After t2 all rows are unwrapped: all six pairs testable.
        let v2 = scheme.visible_pairs();
        assert_eq!(v2.len(), 6, "super-additive leakage: {v2:?}");
    }

    #[test]
    fn pairing_cost_counted() {
        let (teams, employees) = example_2_1();
        let mut scheme = HahnScheme::<MockEngine>::new(12);
        scheme.upload(&teams, &employees, &setup_spec());
        let before = scheme.pairing_ops;
        scheme.run_query(&t1_query());
        assert!(scheme.pairing_ops > before, "work must be accounted");
    }

    #[test]
    fn unconstrained_side_uses_top_policy() {
        let (teams, employees) = example_2_1();
        let mut scheme = HahnScheme::<MockEngine>::new(13);
        scheme.upload(&teams, &employees, &setup_spec());
        // No filters at all: every row unwraps; 4 result pairs.
        let q = JoinQuery::on("Teams", "Key", "Employees", "Team");
        let out = scheme.run_query(&q);
        assert_eq!(out.result_pairs.len(), 4);
        assert_eq!(scheme.visible_pairs().len(), 6);
    }
}
