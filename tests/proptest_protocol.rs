//! Property tests for the protocol wire codec: randomly generated
//! `Request`/`Response` values round-trip **byte-identically**, and
//! truncated or corrupted frames are rejected with an error — never a
//! panic, never a huge allocation.

use eqjoin::db::protocol::{error_tag, request_tag, response_tag};
use eqjoin::db::{peek_envelope, DbError, Request, RequestEnvelope, Response};
use eqjoind_net::reactor::{next_frame, FrameStep};
use proptest::prelude::*;

mod wire_samples;
use wire_samples::{copy_rows_request, exec_request, join_response, stats_response, table, Req};

/// Byte-identity round trip through the codec, in both directions.
fn assert_request_round_trips(request: &Req) {
    let bytes = request.to_bytes();
    let back = Req::from_bytes(&bytes).expect("valid message must decode");
    assert_eq!(
        back.to_bytes(),
        bytes,
        "decode→re-encode must be byte-identical"
    );
}

fn assert_response_round_trips(response: &Response) {
    let bytes = response.to_bytes();
    let back = Response::from_bytes(&bytes).expect("valid message must decode");
    assert_eq!(back.to_bytes(), bytes);
}

/// Every strict prefix must fail to decode (no message is a prefix of
/// another), and decoding must neither panic nor over-allocate.
fn assert_prefixes_rejected(bytes: &[u8], check: fn(&[u8]) -> bool) {
    // Exhaustive below 64 cuts, then sampled — keeps big tables cheap.
    let step = (bytes.len() / 64).max(1);
    for cut in (0..bytes.len()).step_by(step) {
        assert!(
            check(&bytes[..cut]),
            "strict prefix of {cut}/{} bytes must be rejected",
            bytes.len()
        );
    }
}

fn request_rejected(bytes: &[u8]) -> bool {
    Req::from_bytes(bytes).is_err()
}

fn response_rejected(bytes: &[u8]) -> bool {
    Response::from_bytes(bytes).is_err()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn insert_table_requests_round_trip_and_reject_truncation(
        name_id in 0u64..4,
        rows in proptest::collection::vec((0u64..1_000_000, 0u64..6, 0u64..40), 0..12),
        tagged in 0u64..2,
    ) {
        let request = Request::InsertTable(table(name_id, &rows, tagged == 1));
        assert_request_round_trips(&request);
        let bytes = request.to_bytes();
        assert_prefixes_rejected(&bytes, request_rejected);
        // Trailing garbage is rejected too.
        let mut long = bytes.clone();
        long.push(0);
        prop_assert!(Req::from_bytes(&long).is_err());
    }

    #[test]
    fn incremental_update_requests_round_trip_and_reject_truncation(
        name_id in 0u64..4,
        start_row in 0u64..1_000_000,
        rows in proptest::collection::vec((0u64..1_000_000, 0u64..6, 0u64..40), 0..8),
        tagged in 0u64..2,
        delete_ids in proptest::collection::vec(0u64..1_000_000, 0..10),
    ) {
        let insert = Request::InsertRows {
            table: format!("T{name_id}"),
            start_row,
            rows: table(name_id, &rows, tagged == 1).rows,
        };
        assert_request_round_trips(&insert);
        assert_prefixes_rejected(&insert.to_bytes(), request_rejected);

        let delete = Req::DeleteRows {
            table: format!("T{name_id}"),
            rows: delete_ids,
        };
        assert_request_round_trips(&delete);
        assert_prefixes_rejected(&delete.to_bytes(), request_rejected);

        // Their responses, alone and inside a batch.
        let batch = Response::Batch(vec![
            Response::RowsInserted { table: format!("T{name_id}"), rows: rows.len() },
            Response::RowsDeleted { table: format!("T{name_id}"), rows: start_row as usize % 9 },
            Response::Error(DbError::UnknownRow { table: format!("T{name_id}"), row: start_row }),
            Response::Error(DbError::Snapshot("checksum mismatch".into())),
        ]);
        assert_response_round_trips(&batch);
        assert_prefixes_rejected(&batch.to_bytes(), response_rejected);
    }

    #[test]
    fn copy_rows_requests_round_trip_and_reject_truncation(
        name_id in 0u64..4,
        start_row in 0u64..1_000_000,
        rows in proptest::collection::vec((0u64..1_000_000, 0u64..6, 0u64..40), 0..8),
        tagged in 0u64..2,
        total in 0u64..1_000_000,
    ) {
        // The self-describing bulk-load chunk: table metadata rides in
        // every frame, and a zero-row chunk (pure "create table") is
        // wire-legal.
        let request = copy_rows_request(name_id, start_row, &rows, tagged == 1);
        assert_request_round_trips(&request);
        assert_prefixes_rejected(&request.to_bytes(), request_rejected);
        // Chunks pipeline inside a batch.
        assert_request_round_trips(&Request::Batch(vec![Request::Ping, request.clone()]));

        let response = Response::CopyRows {
            table: format!("T{name_id}"),
            rows: rows.len(),
            total_rows: total,
        };
        assert_response_round_trips(&response);
        assert_prefixes_rejected(&response.to_bytes(), response_rejected);
        let mut long = response.to_bytes();
        long.push(0);
        prop_assert!(Response::from_bytes(&long).is_err());
    }

    #[test]
    fn execute_join_requests_round_trip_and_reject_truncation(
        id in 0u64..1_000,
        seeds in proptest::collection::vec(0u64..1_000_000, 1..8),
    ) {
        let request = exec_request(id, &seeds);
        assert_request_round_trips(&request);
        assert_prefixes_rejected(&request.to_bytes(), request_rejected);
    }

    #[test]
    fn batched_series_round_trip_and_reject_truncation(
        ids in proptest::collection::vec(0u64..100, 0..5),
        seeds in proptest::collection::vec(0u64..1_000_000, 1..4),
    ) {
        let mut requests: Vec<Req> = vec![Request::Ping];
        for &id in &ids {
            requests.push(exec_request(id, &seeds));
        }
        let batch = Request::Batch(requests);
        assert_request_round_trips(&batch);
        assert_prefixes_rejected(&batch.to_bytes(), request_rejected);
    }

    #[test]
    fn join_responses_round_trip_and_reject_truncation(
        rows in proptest::collection::vec((0u64..500, 0u64..500, 0u64..256), 0..12),
        classes in proptest::collection::vec((0u64..4, 0u64..50), 0..6),
    ) {
        let response = join_response(&rows, &classes);
        assert_response_round_trips(&response);
        assert_prefixes_rejected(&response.to_bytes(), response_rejected);

        // And inside a batch, mixed with the other response kinds.
        let batch = Response::Batch(vec![
            Response::Pong,
            response,
            Response::TableInserted { table: "T".into(), rows: rows.len() },
            Response::Error(DbError::InClauseTooLarge { got: rows.len(), max: 2 }),
        ]);
        assert_response_round_trips(&batch);
        assert_prefixes_rejected(&batch.to_bytes(), response_rejected);
    }

    #[test]
    fn stats_round_trip_and_reject_truncation(exposition_lines in 0u64..20) {
        // The request is a bare tag; it also rides inside batches and
        // tenant envelopes (it is read-only, unlike Drain).
        assert_request_round_trips(&Req::Stats);
        assert_request_round_trips(&Request::Batch(vec![Request::Ping, Request::Stats]));
        assert_request_round_trips(&Req::WithTenant {
            tenant: "acme".into(),
            inner: Box::new(Request::Stats),
        });

        let response = stats_response(exposition_lines);
        assert_response_round_trips(&response);
        assert_prefixes_rejected(&response.to_bytes(), response_rejected);
        let mut long = response.to_bytes();
        long.push(0);
        prop_assert!(Response::from_bytes(&long).is_err());
    }

    #[test]
    fn oversized_length_fields_error_without_allocating(
        tag_byte in 0u64..10,
        len in (1u64 << 32)..(1u64 << 62),
    ) {
        // A message whose first length field claims up to 2^62 bytes:
        // the plausibility check must reject it before any allocation.
        let mut bytes = vec![tag_byte as u8];
        bytes.extend_from_slice(&len.to_le_bytes());
        prop_assert!(Req::from_bytes(&bytes).is_err());
        prop_assert!(Response::from_bytes(&bytes).is_err());
    }

    #[test]
    fn random_byte_flips_never_panic(
        seeds in proptest::collection::vec(0u64..1_000_000, 1..4),
        flip_pos in 0u64..10_000,
        flip_mask in 1u64..256,
    ) {
        let request = exec_request(7, &seeds);
        let mut bytes = request.to_bytes();
        let pos = (flip_pos as usize) % bytes.len();
        bytes[pos] ^= flip_mask as u8;
        // Outcome may be Ok (the flip hit a payload byte) or Err; the
        // only forbidden outcomes are panics and runaway allocation.
        let _ = Req::from_bytes(&bytes);
    }
}

/// One walk over the three generated tag listings. A variant added to a
/// table without a sample in `tests/wire_samples` fails here, which is
/// what keeps the golden fixture and the checks below complete.
#[test]
fn every_wire_tag_has_a_sample_that_round_trips_and_rejects_every_prefix() {
    let samples = wire_samples::encoded_samples();
    for (space, tags) in [
        ("request", request_tag::WIRE_TAGS),
        ("response", response_tag::WIRE_TAGS),
        ("error", error_tag::WIRE_TAGS),
    ] {
        for (i, (variant, tag)) in tags.iter().enumerate() {
            assert!(
                tags[..i].iter().all(|(v, t)| v != variant && t != tag),
                "{space}.{variant} = {tag} is listed twice"
            );
            assert!(
                samples.iter().any(|(s, v, _)| s == &space && v == variant),
                "no sample for {space}.{variant}: add one to tests/wire_samples"
            );
        }
    }

    for (space, variant, bytes) in &samples {
        let reencoded = |bytes: &[u8]| match *space {
            "request" => Req::from_bytes(bytes).map(|m| m.to_bytes()),
            _ => Response::from_bytes(bytes).map(|m| m.to_bytes()),
        };
        assert_eq!(reencoded(bytes).as_ref(), Ok(bytes), "{space}.{variant}");
        for cut in 0..bytes.len() {
            assert!(
                reencoded(&bytes[..cut]).is_err(),
                "{space}.{variant}: strict prefix of {cut}/{} bytes must be rejected",
                bytes.len()
            );
        }
    }

    // Errors survive structurally, not just byte for byte.
    for error in wire_samples::error_samples() {
        match Response::from_bytes(&Response::Error(error.clone()).to_bytes()) {
            Ok(Response::Error(back)) => assert_eq!(back, error),
            other => panic!("{error:?} came back as {other:?}"),
        }
    }
}

/// What the layout cannot express is checked after decode: batches hold
/// no batch, envelope or drain; envelopes name a well-formed tenant and
/// wrap no envelope or drain.
#[test]
fn illegal_nesting_and_tenant_names_are_rejected_after_decode() {
    let envelope = |tenant: &str, inner: Req| Req::WithTenant {
        tenant: tenant.into(),
        inner: Box::new(inner),
    };
    let illegal = [
        Req::Batch(vec![Req::Ping, Req::Batch(vec![])]),
        Req::Batch(vec![envelope("acme", Req::Ping)]),
        Req::Batch(vec![Req::Drain]),
        envelope("acme", envelope("acme", Req::Ping)),
        envelope("acme", Req::Drain),
        envelope("acme", Req::Batch(vec![Req::Drain])),
        envelope("", Req::Ping),
        envelope("../etc", Req::Ping),
        envelope(&"x".repeat(65), Req::Ping),
    ];
    for request in illegal {
        let bytes = request.to_bytes();
        assert!(
            matches!(Req::from_bytes(&bytes), Err(DbError::Protocol(_))),
            "must be rejected: {bytes:02x?}"
        );
    }
    let nested = Response::Batch(vec![Response::Pong, Response::Batch(vec![])]);
    assert!(matches!(
        Response::from_bytes(&nested.to_bytes()),
        Err(DbError::Protocol(_))
    ));
    // The legal maximum: an envelope around a batch of leaves.
    let legal = envelope("acme", Req::Batch(vec![Req::Ping, Req::Stats]));
    assert!(Req::from_bytes(&legal.to_bytes()).is_ok());
}

/// README quotes tags in prose ("`Request::Stats` (wire tag 8)") and
/// carries the three tables in its "Wire format" section; both must
/// say what the generated listings say.
#[test]
fn readme_wire_tags_match_the_generated_listings() {
    let readme = include_str!("../README.md");
    let spaces = [
        ("Request", request_tag::WIRE_TAGS),
        ("Response", response_tag::WIRE_TAGS),
        ("DbError", error_tag::WIRE_TAGS),
    ];
    let mention = "` (wire tag ";
    let mut quoted = 0;
    for (at, _) in readme.match_indices(mention) {
        let name = readme[..at].rsplit('`').next().unwrap_or_default();
        let (space, variant) = name
            .split_once("::")
            .expect("`Space::Variant` before a wire tag");
        let tag = readme[at + mention.len()..].split(')').next();
        let tag: u8 = tag.and_then(|n| n.parse().ok()).expect("a number");
        let (_, tags) = spaces
            .iter()
            .find(|(s, _)| *s == space)
            .expect("a known tag space");
        assert!(
            tags.contains(&(variant, tag)),
            "README says {name} has wire tag {tag}"
        );
        quoted += 1;
    }
    assert!(quoted >= 2, "the prose mentions this test is for are gone");

    for (space, tags) in spaces {
        let table: String = tags
            .iter()
            .map(|(variant, tag)| format!("| {tag} | `{variant}` |\n"))
            .collect();
        assert!(
            readme.contains(&table),
            "README's `{space}` tag table must read:\n{table}"
        );
    }
}

/// Walk `buf` with [`next_frame`] from `pos` 0, collecting payloads
/// until the decoder stops. Returns the payloads and the stopping step.
fn walk_frames(buf: &[u8]) -> (Vec<Vec<u8>>, FrameStep<'_>) {
    let mut pos = 0;
    let mut payloads = Vec::new();
    loop {
        match next_frame(buf, pos) {
            FrameStep::Frame { payload, next } => {
                payloads.push(payload.to_vec());
                pos = next;
            }
            step => return (payloads, step),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // ---- the envelope peek the reactor runs on every arriving frame ----

    #[test]
    fn peek_envelope_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(0u8..=255, 0..64),
    ) {
        // Any byte soup yields *an* envelope without panicking.
        let _ = peek_envelope(&bytes);
    }

    #[test]
    fn peek_envelope_agrees_with_the_codec_and_survives_corruption(
        tenant_id in 0u64..1000,
        flip_bit in 0usize..8,
        flip_at in 0usize..64,
        cut in 0usize..64,
    ) {
        let tenant = format!("t{tenant_id}");
        let wrapped = Req::WithTenant {
            tenant: tenant.clone(),
            inner: Box::new(Request::Ping),
        };
        let bytes = wrapped.to_bytes();

        // On the intact encoding, the O(1) peek and the full decode agree.
        prop_assert_eq!(peek_envelope(&bytes), RequestEnvelope::Tenant(tenant));
        prop_assert_eq!(peek_envelope(&Req::Drain.to_bytes()), RequestEnvelope::Drain);
        prop_assert_eq!(peek_envelope(&Req::Ping.to_bytes()), RequestEnvelope::Plain);

        // Truncated at any point: still classified, never a panic.
        let _ = peek_envelope(&bytes[..cut.min(bytes.len())]);

        // One flipped bit: still classified, never a panic.
        let mut corrupt = bytes.clone();
        let at = flip_at % corrupt.len();
        corrupt[at] ^= 1 << flip_bit;
        let _ = peek_envelope(&corrupt);
    }

    // ---- the reactor's frame decoder ----

    #[test]
    fn frame_decoder_recovers_every_frame_and_rejects_corruption(
        payload_lens in proptest::collection::vec(0usize..200, 1..8),
        extra in 0usize..5,
        flip_at in 0usize..1024,
    ) {
        // Assemble valid length-framed messages back to back.
        let mut buf = Vec::new();
        let mut expected = Vec::new();
        for (i, &len) in payload_lens.iter().enumerate() {
            let payload: Vec<u8> = (0..len).map(|b| (b ^ i) as u8).collect();
            buf.extend_from_slice(&(len as u32).to_le_bytes());
            buf.extend_from_slice(&payload);
            expected.push(payload);
        }

        // The decoder slices every frame back out, byte-identically,
        // and then reports Incomplete on the empty tail.
        let (payloads, stop) = walk_frames(&buf);
        prop_assert_eq!(&payloads, &expected);
        prop_assert_eq!(stop, FrameStep::Incomplete);

        // A trailing partial header is Incomplete, not an error.
        let mut partial = buf.clone();
        partial.extend_from_slice(&vec![7u8; extra.min(3)]);
        let (payloads, stop) = walk_frames(&partial);
        prop_assert_eq!(&payloads, &expected);
        prop_assert_eq!(stop, FrameStep::Incomplete);

        // Any truncation yields a prefix of the frames, never a panic.
        let cut = flip_at % (buf.len() + 1);
        let (prefix, _) = walk_frames(&buf[..cut]);
        prop_assert!(prefix.len() <= expected.len());
        prop_assert!(prefix.iter().zip(&expected).all(|(a, b)| a == b));

        // Flip one bit anywhere: the decoder still terminates cleanly
        // (frames after the flip may differ or become incomplete).
        let mut corrupt = buf.clone();
        let at = flip_at % corrupt.len();
        corrupt[at] ^= 0x80;
        let _ = walk_frames(&corrupt);
    }

    #[test]
    fn frame_decoder_flags_oversized_lengths(
        over in 1u64..1_000_000,
        junk in proptest::collection::vec(0u8..=255, 0..16),
    ) {
        use eqjoin::db::backend::MAX_FRAME_BYTES;
        let len = (MAX_FRAME_BYTES as u64 + over).min(u32::MAX as u64) as u32;
        let mut buf = len.to_le_bytes().to_vec();
        buf.extend_from_slice(&junk);
        prop_assert_eq!(next_frame(&buf, 0), FrameStep::Oversized(len as usize));
        // An out-of-range position is just an incomplete frame.
        prop_assert_eq!(next_frame(&buf, buf.len() + 100), FrameStep::Incomplete);
        prop_assert_eq!(next_frame(&buf, usize::MAX - 1), FrameStep::Incomplete);
    }
}
