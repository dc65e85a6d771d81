//! What a hostile frame can make the decoder spend, measured rather
//! than argued: a counting global allocator records every byte the
//! process requests while a frame decodes, and frames built to lie
//! about their counts, to nest without end, or to be cut or corrupted
//! anywhere must cost memory in proportion to their own size and end
//! in `Ok` or a typed error.
//!
//! One `#[test]` only: the counter is process-wide, and the harness
//! runs the tests of one binary on parallel threads.

use eqjoin::db::{Request, Response};
use eqjoin::pairing::MockEngine;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

mod wire_samples;

type Req = Request<MockEngine>;

/// Bytes requested so far (`realloc` falls back to `alloc` of the new
/// size, so growth is counted in full).
static REQUESTED: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: both methods hand their arguments to `System` unchanged and
// return what it returns; the counter is a side effect.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's contract is `System::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes requested while `decode` runs, and whether it returned `Ok`.
fn cost<T, E>(decode: impl FnOnce() -> Result<T, E>) -> (usize, bool) {
    let before = REQUESTED.load(Ordering::Relaxed);
    let ok = decode().is_ok();
    (REQUESTED.load(Ordering::Relaxed) - before, ok)
}

fn request_cost(frame: &[u8]) -> (usize, bool) {
    cost(|| Req::from_bytes(frame))
}

fn response_cost(frame: &[u8]) -> (usize, bool) {
    cost(|| Response::from_bytes(frame))
}

fn u64_le(n: usize) -> [u8; 8] {
    (n as u64).to_le_bytes()
}

/// `header`, then a count claiming one item per byte that follows,
/// then `0xff` up to `frame_len` bytes.
fn lying_frame(header: &[u8], frame_len: usize) -> Vec<u8> {
    let mut frame = header.to_vec();
    frame.extend_from_slice(&u64_le(frame_len - header.len() - 8));
    frame.resize(frame_len, 0xff);
    frame
}

/// `depth` messages each wrapping the next behind `wrap` (tag and the
/// fields before the nested message's length prefix), a bare `leaf`
/// tag innermost.
fn nested_frame(wrap: &[u8], leaf: u8, depth: usize) -> Vec<u8> {
    let mut frame = Vec::new();
    for level in (0..depth).rev() {
        frame.extend_from_slice(wrap);
        frame.extend_from_slice(&u64_le(1 + level * (wrap.len() + 8)));
    }
    frame.push(leaf);
    frame
}

#[test]
fn hostile_frames_cost_memory_in_proportion_to_their_size() {
    const MIB: usize = 1 << 20;

    // -- Counts that lie. Each frame is 1 MiB, claims about a million
    // items and follows with 0xff, so the first item fails to parse.
    // Reserving `count` items up front cost 16-300 bytes per claimed
    // item (a shipped row, a class member, an `EncryptedRow`, a
    // `Request`); the decoder may reserve what the unread bytes could
    // pay for and no more. A token side's elements have the engine's
    // fixed width, so a count of them is refused outright when
    // `count × width` exceeds the bytes left.
    let empty_str = u64_le(0);
    let insert_table = [&[1u8][..], &empty_str, &empty_str, &empty_str].concat();
    let insert_rows = [&[4u8][..], &empty_str, &empty_str].concat();
    // `ExecuteJoin`: the left side's table name "T", its token's side
    // tag — then the element count.
    let token_side = [&[2u8][..], &u64_le(1), b"T", &[0]].concat();
    // `JoinExecuted`: no left rows — then the right rows' count.
    let right_rows = [&[2u8][..], &empty_str].concat();
    // `JoinExecuted`: no rows, seven zero counters, one class — then
    // that class's member count.
    let class_members = [&[2u8][..], &empty_str, &empty_str, &[0; 7 * 8], &u64_le(1)].concat();
    type Cost = fn(&[u8]) -> (usize, bool);
    let lies: [(&str, Cost, &[u8]); 8] = [
        ("request batch", request_cost, &[3]),
        ("table rows", request_cost, &insert_table),
        ("inserted rows", request_cost, &insert_rows),
        ("token elements", request_cost, &token_side),
        ("left shipped rows", response_cost, &[2]),
        ("right shipped rows", response_cost, &right_rows),
        ("class members", response_cost, &class_members),
        ("response batch", response_cost, &[4]),
    ];
    for (what, decode_cost, header) in lies {
        let (requested, ok) = decode_cost(&lying_frame(header, MIB));
        assert!(!ok, "{what}: a lying count must not decode");
        assert!(
            requested <= 2 * MIB,
            "{what}: a 1 MiB frame made the decoder request {requested} bytes"
        );
    }

    // An element count whose product with the width overflows is a
    // lie too, refused before anything is sized by it.
    for count in [u64::MAX, u64::MAX / 32 + 1] {
        let frame = [&token_side[..], &count.to_le_bytes(), &[0xff; 64]].concat();
        let (requested, ok) = request_cost(&frame);
        assert!(!ok, "a token side of {count} elements must not decode");
        assert!(
            requested <= 512,
            "{count} elements requested {requested} bytes"
        );
    }

    // -- Nesting without end. Legal messages nest two deep; the
    // decoder must refuse a third level before it recurses, not after
    // 100 000 levels have run the stack out.
    let tenant_wrap = [&[6u8][..], &u64_le(1), b"a"].concat();
    let batch_wrap = [&[3u8][..], &u64_le(1)].concat();
    for (wrap, leaf) in [(&batch_wrap, 0), (&tenant_wrap, 0)] {
        assert!(Req::from_bytes(&nested_frame(wrap, leaf, 1)).is_ok());
        let frame = nested_frame(wrap, leaf, 100_000);
        let (requested, ok) = request_cost(&frame);
        assert!(!ok, "100 000 nested messages must not decode");
        assert!(
            requested <= frame.len(),
            "deep nesting requested {requested}"
        );
    }
    let response_wrap = [&[4u8][..], &u64_le(1)].concat();
    assert!(Response::from_bytes(&nested_frame(&response_wrap, 0, 1)).is_ok());
    let (_, ok) = response_cost(&nested_frame(&response_wrap, 0, 100_000));
    assert!(!ok);

    // -- Anything else: every sample of every variant, cut at every
    // length and with every byte in turn forced to 0xff (which turns
    // lengths and counts into lies). The constant is the honest worst
    // case, a batch of `Ping`s: 9 bytes each on the wire, one
    // `Request` each in memory, and a `Vec` that starts from what the
    // frame could pay for and doubles requests up to four times its
    // final size in total. The slack covers error strings on tiny
    // frames.
    let per_byte = 4 * std::mem::size_of::<Req>().div_ceil(9);
    let bound = |frame: &[u8]| per_byte * frame.len() + 512;
    for (space, variant, bytes) in wire_samples::encoded_samples() {
        let decode_cost = if space == "request" {
            request_cost
        } else {
            response_cost
        };
        for cut in 0..=bytes.len() {
            let (requested, ok) = decode_cost(&bytes[..cut]);
            assert_eq!(ok, cut == bytes.len(), "{space}.{variant} cut at {cut}");
            assert!(
                requested <= bound(&bytes[..cut]),
                "{space}.{variant} cut at {cut} requested {requested} bytes"
            );
        }
        let mut corrupt = bytes.clone();
        for at in 0..bytes.len() {
            corrupt[at] = 0xff;
            let (requested, _) = decode_cost(&corrupt);
            assert!(
                requested <= bound(&corrupt),
                "{space}.{variant} with byte {at} set to 0xff requested {requested} bytes"
            );
            corrupt[at] = bytes[at];
        }
    }
    let pings = Req::Batch(vec![Req::Ping; 10_000]).to_bytes();
    let (requested, ok) = request_cost(&pings);
    assert!(ok);
    assert!(
        requested <= bound(&pings),
        "10 000 pings requested {requested}"
    );
}
