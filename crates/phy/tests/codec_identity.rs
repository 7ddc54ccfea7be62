//! Codec-stack identity: every stack in the [`vlc_phy::codec::registry`]
//! must (a) roundtrip every payload up to the paper maximum, (b) keep its
//! zero-alloc workspace path byte-identical to its allocating reference —
//! on clean streams *and* under injected corruption, where accept/reject
//! and every recovered byte must agree — and (c) reject truncated streams
//! identically. Mirrors `packed_identity.rs`; `cargo tier2` replays this
//! suite at `DENSEVLC_JOBS=1` and `DENSEVLC_JOBS=max`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vlc_phy::codec::{registry, CodecError, CodecStack};
use vlc_phy::rs::{ReedSolomon, RsCodec, RsError};

/// RS(216, 200) is RS(255, 239) shortened by 39 leading zero symbols.
const RS_PAD: usize = 255 - 216;

/// The two RS(216, 200) decoders: the scalar reference and the workspace.
fn rs_decode(workspace: bool, block: &mut [u8]) -> Result<usize, RsError> {
    if workspace {
        RsCodec::paper().decode_in_place(block)
    } else {
        ReedSolomon::paper().decode(block)
    }
}

/// A paper RS block of `data` with `n_err` byte errors at distinct seeded
/// positions, next to its clean form.
fn corrupted_rs_block(data: &[u8], n_err: usize, err_seed: u64) -> (Vec<u8>, Vec<u8>) {
    let clean = ReedSolomon::paper().encode(data);
    let mut received = clean.clone();
    let mut rng = StdRng::seed_from_u64(err_seed);
    let mut positions = std::collections::HashSet::new();
    while positions.len() < n_err {
        positions.insert(rng.gen_range(0..received.len()));
    }
    for &p in &positions {
        received[p] ^= rng.gen_range(1..=255u8);
    }
    (clean, received)
}

/// A decoded block and the decoder's verdict.
type Decoded = (Vec<u8>, Result<usize, RsError>);

/// Decodes `received` as RS(216, 200) and, behind `RS_PAD` zero bytes, as
/// RS(255, 239): `(short form, full form)`.
fn short_and_full(workspace: bool, received: &[u8]) -> (Decoded, Decoded) {
    let mut short = received.to_vec();
    let short_res = rs_decode(workspace, &mut short);
    let mut full = vec![0u8; RS_PAD];
    full.extend_from_slice(received);
    let full_res = rs_decode(workspace, &mut full);
    ((short, short_res), (full, full_res))
}

/// Drives one stack's workspace and reference paths over the same corrupted
/// stream and asserts they agree exactly, returning the shared outcome.
fn twin_decode(
    stack: &mut dyn CodecStack,
    coded: &[u8],
    payload_len: usize,
) -> Result<(Vec<u8>, usize), CodecError> {
    // Seed the output with a sentinel prefix: decode_into must append, and
    // must append nothing on error.
    let mut ws_out = vec![0xEE, 0xBB];
    let ws_res = stack.decode_into(coded, payload_len, &mut ws_out);
    let ref_res = stack.decode_ref(coded, payload_len);
    match (ws_res, &ref_res) {
        (Ok(ws_corrected), Ok((ref_payload, ref_corrected))) => {
            assert_eq!(&ws_out[..2], &[0xEE, 0xBB], "stack {}", stack.name());
            assert_eq!(&ws_out[2..], &ref_payload[..], "stack {}", stack.name());
            assert_eq!(ws_corrected, *ref_corrected, "stack {}", stack.name());
        }
        (Err(ws_err), Err(ref_err)) => {
            assert_eq!(ws_err, *ref_err, "stack {}", stack.name());
            assert_eq!(
                ws_out,
                [0xEE, 0xBB],
                "stack {}: failed decode must not emit bytes",
                stack.name()
            );
        }
        (ws, _) => panic!(
            "stack {}: workspace {ws:?} disagrees with reference {ref_res:?}",
            stack.name()
        ),
    }
    ref_res
}

proptest! {
    /// Clean roundtrip for every registered stack, payloads 0..=200 (the
    /// paper's Table 3 payload ceiling): encode twins agree byte-for-byte,
    /// decode twins recover the exact payload.
    #[test]
    fn clean_roundtrip_identity(payload in proptest::collection::vec(any::<u8>(), 0..=200)) {
        for stack in registry().iter_mut() {
            let mut coded = Vec::new();
            stack.encode_into(&payload, &mut coded);
            prop_assert_eq!(coded.len(), stack.encoded_len(payload.len()), "stack {}", stack.name());
            prop_assert_eq!(&coded, &stack.encode_ref(&payload), "stack {}", stack.name());
            let (decoded, _) = twin_decode(stack.as_mut(), &coded, payload.len())
                .expect("clean stream must decode");
            prop_assert_eq!(&decoded, &payload, "stack {}", stack.name());
        }
    }

    /// Multi-chunk payloads (several RS chunks, > 1 KiB convolutional
    /// trellis): same twin identities hold past the single-chunk regime.
    #[test]
    fn multi_chunk_roundtrip_identity(payload in proptest::collection::vec(any::<u8>(), 401..=517)) {
        for stack in registry().iter_mut() {
            let mut coded = Vec::new();
            stack.encode_into(&payload, &mut coded);
            prop_assert_eq!(&coded, &stack.encode_ref(&payload), "stack {}", stack.name());
            let (decoded, _) = twin_decode(stack.as_mut(), &coded, payload.len())
                .expect("clean stream must decode");
            prop_assert_eq!(&decoded, &payload, "stack {}", stack.name());
        }
    }

    /// Corruption from zero to well past every stack's budget: the
    /// workspace and reference twins accept/reject identically and agree on
    /// every recovered byte and corrected count. When decode succeeds *and*
    /// the stack offers any correction guarantee, the payload must be the
    /// original (detect-only stacks reject any corruption instead).
    #[test]
    fn corrupted_stream_identity(
        payload in proptest::collection::vec(any::<u8>(), 1..=200),
        err_seed in any::<u64>(),
        n_err in 0usize..=24,
    ) {
        for stack in registry().iter_mut() {
            let mut coded = Vec::new();
            stack.encode_into(&payload, &mut coded);
            let mut rng = StdRng::seed_from_u64(err_seed);
            let n_err = n_err.min(coded.len());
            let mut positions = std::collections::HashSet::new();
            while positions.len() < n_err {
                positions.insert(rng.gen_range(0..coded.len()));
            }
            for &p in &positions {
                coded[p] ^= rng.gen_range(1..=255u8);
            }
            let outcome = twin_decode(stack.as_mut(), &coded, payload.len());
            if let Ok((decoded, corrected)) = outcome {
                if n_err == 0 {
                    prop_assert_eq!(&decoded, &payload, "stack {}", stack.name());
                    prop_assert_eq!(corrected, 0, "stack {}", stack.name());
                } else if stack.correction().t_per_block > 0 {
                    // An RS-family success is a *guaranteed-correct*
                    // success: the decoded payload is the original.
                    prop_assert_eq!(&decoded, &payload, "stack {}", stack.name());
                }
                // Viterbi successes under heavy corruption may be wrong
                // payloads that happen to pass CRC (~2^-32); the twin
                // agreement above is the contract being tested.
            }
        }
    }

    /// Truncation at any point is the same `BadLength` for both twins.
    #[test]
    fn truncation_identity(
        payload in proptest::collection::vec(any::<u8>(), 1..=200),
        cut in 1usize..64,
    ) {
        for stack in registry().iter_mut() {
            let mut coded = Vec::new();
            stack.encode_into(&payload, &mut coded);
            let cut = cut.min(coded.len());
            coded.truncate(coded.len() - cut);
            let err = twin_decode(stack.as_mut(), &coded, payload.len())
                .expect_err("truncated stream must be rejected");
            prop_assert_eq!(err, CodecError::BadLength { len: coded.len() }, "stack {}", stack.name());
        }
    }

    /// Workspace reuse across differently-sized payloads leaves no residue:
    /// a stack that just processed a large frame must encode/decode a small
    /// one identically to a fresh stack.
    #[test]
    fn workspace_reuse_identity(
        first in proptest::collection::vec(any::<u8>(), 100..=517),
        second in proptest::collection::vec(any::<u8>(), 0..=99),
    ) {
        let mut warmed = registry();
        for stack in warmed.iter_mut() {
            let mut coded = Vec::new();
            stack.encode_into(&first, &mut coded);
            let mut out = Vec::new();
            stack.decode_into(&coded, first.len(), &mut out).expect("clean");
        }
        for (stack, fresh) in warmed.iter_mut().zip(registry().iter_mut()) {
            let mut warm_coded = Vec::new();
            stack.encode_into(&second, &mut warm_coded);
            let mut fresh_coded = Vec::new();
            fresh.encode_into(&second, &mut fresh_coded);
            prop_assert_eq!(&warm_coded, &fresh_coded, "stack {}", stack.name());
            let mut warm_out = Vec::new();
            let warm = stack.decode_into(&warm_coded, second.len(), &mut warm_out);
            let mut fresh_out = Vec::new();
            let fresh_res = fresh.decode_into(&fresh_coded, second.len(), &mut fresh_out);
            prop_assert_eq!(warm, fresh_res, "stack {}", stack.name());
            prop_assert_eq!(&warm_out, &fresh_out, "stack {}", stack.name());
        }
    }

    /// Within capacity (0–8 byte errors) the shortened decode is the
    /// full-length RS(255, 239) decode of the zero-padded block: same
    /// corrected bytes, same correction count, pad untouched — for the
    /// scalar decoder and the workspace alike.
    #[test]
    fn shortened_rs_matches_its_full_length_form(
        data in proptest::collection::vec(any::<u8>(), 200..=200),
        err_seed in any::<u64>(),
        n_err in 0usize..=8,
    ) {
        let (clean, received) = corrupted_rs_block(&data, n_err, err_seed);
        for workspace in [false, true] {
            let ((short, short_res), (full, full_res)) = short_and_full(workspace, &received);
            prop_assert_eq!(short_res, Ok(n_err), "workspace={}", workspace);
            prop_assert_eq!(full_res, short_res, "workspace={}", workspace);
            prop_assert_eq!(&full[RS_PAD..], &short[..], "workspace={}", workspace);
            prop_assert!(full[..RS_PAD].iter().all(|&b| b == 0), "workspace={}", workspace);
            prop_assert_eq!(&short, &clean, "workspace={}", workspace);
        }
    }

    /// Beyond capacity (9–16 byte errors) the shortened decode rejects the
    /// block whenever its full-length form fails or "corrects" a pad byte
    /// (an error the shortened code cannot hold), and otherwise agrees
    /// with it byte for byte.
    #[test]
    fn shortened_rs_rejects_what_its_full_length_form_cannot_place(
        data in proptest::collection::vec(any::<u8>(), 200..=200),
        err_seed in any::<u64>(),
        n_err in 9usize..=16,
    ) {
        let (_, received) = corrupted_rs_block(&data, n_err, err_seed);
        for workspace in [false, true] {
            let ((short, short_res), (full, full_res)) = short_and_full(workspace, &received);
            if full_res.is_err() || full[..RS_PAD].iter().any(|&b| b != 0) {
                prop_assert!(short_res.is_err(), "workspace={}: {:?}", workspace, short_res);
            } else {
                prop_assert_eq!(short_res, full_res, "workspace={}", workspace);
                prop_assert_eq!(&full[RS_PAD..], &short[..], "workspace={}", workspace);
            }
        }
    }
}
