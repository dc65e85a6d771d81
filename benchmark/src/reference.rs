//! The machine's speed, measured beside the program's.
//!
//! The benchmark runs on a few cores of a shared host whose speed
//! drifts by tens of percent over tens of seconds to minutes. Every
//! timed section is therefore bracketed by a fixed piece of work that
//! belongs to the benchmark, not to the program — 384-bit schoolbook
//! multiplications, the instruction mix the program spends its time on —
//! and every gated time is divided by how much longer than
//! [`QUIET_MS`] that work took just then. On a quiet reference box the
//! divisor is 1 and the numbers are plain milliseconds; on a busy one
//! they are what the quiet box would have shown. No change to the
//! program can move the divisor.

use std::hint::black_box;
use std::time::Instant;

/// Milliseconds [`work`] takes on one thread of the reference box
/// (2-vCPU Xeon @ 2.1 GHz) with nothing else running.
pub const QUIET_MS: f64 = 46.6;

const ROUNDS: usize = 1_500_000;

/// `ROUNDS` 6 × 6-limb products, each folded back into its operands.
fn work() -> u64 {
    let mut a: [u64; 6] = [
        0x9e37_79b9_7f4a_7c15,
        0xbf58_476d_1ce4_e5b9,
        0x94d0_49bb_1331_11eb,
        0x2545_f491_4f6c_dd1d,
        0xd6e8_feb8_6659_fd93,
        0xa076_1d64_78bd_642f,
    ];
    let mut b = a;
    b.reverse();
    for _ in 0..ROUNDS {
        let mut wide = [0u64; 12];
        for i in 0..6 {
            let mut carry = 0u128;
            for j in 0..6 {
                let t = u128::from(a[i]) * u128::from(b[j]) + u128::from(wide[i + j]) + carry;
                wide[i + j] = t as u64;
                carry = t >> 64;
            }
            wide[i + 6] = carry as u64;
        }
        for i in 0..6 {
            a[i] = wide[i] ^ wide[i + 6].rotate_left(7);
            b[i] = b[i].wrapping_add(wide[11 - i]) | 1;
        }
    }
    a.iter().fold(0, |acc, limb| acc ^ limb)
}

/// How many times longer than on the quiet reference box the work
/// takes right now, on the caller's thread.
pub fn slowdown() -> f64 {
    let started = Instant::now();
    black_box(work());
    started.elapsed().as_secs_f64() * 1e3 / QUIET_MS
}
