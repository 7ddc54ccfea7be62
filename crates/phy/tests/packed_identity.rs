//! Packed-vs-scalar identity: the bit-packed fast path must be
//! bit-identical to the scalar reference for encode, decode (including
//! invalid streams), non-byte-aligned bit slices, and the Reed–Solomon
//! workspace (parity bytes, corrected blocks, error positions/results) —
//! for random payloads and random bit flips beyond the correction
//! capacity. `cargo tier2` replays this suite at `DENSEVLC_JOBS=1` and
//! `DENSEVLC_JOBS=max`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vlc_phy::codec::RsStack;
use vlc_phy::manchester::{
    dc_balance, manchester_decode, manchester_decode_bits, manchester_encode,
    manchester_encode_bits, Chip,
};
use vlc_phy::packed::{packed_encode, PackedChips};
use vlc_phy::rs::{ReedSolomon, RsCodec};
use vlc_phy::waveform::{
    correlate_pattern, correlate_template, render, render_into, render_packed_into, slice_chips,
    slice_chips_packed_into, template_energy, WaveformConfig,
};
use vlc_phy::{Frame, FrameHeader};

proptest! {
    /// Packed encode produces the exact chip stream of the scalar encoder,
    /// and packed decode returns the exact bytes.
    #[test]
    fn encode_decode_identity(data in proptest::collection::vec(any::<u8>(), 0..300)) {
        let scalar = manchester_encode(&data);
        let packed = packed_encode(&data);
        prop_assert_eq!(packed.len(), scalar.len());
        prop_assert_eq!(packed.to_chips(), scalar.clone());
        prop_assert_eq!(packed.decode_bytes(), manchester_decode(&scalar));
        prop_assert_eq!(packed.decode_bytes(), Some(data));
        // Soft statistics agree too.
        prop_assert!((packed.dc_balance() - dc_balance(&scalar)).abs() < 1e-15);
    }

    /// Random chip-level corruption (which may destroy mid-bit
    /// transitions): both decoders accept/reject identically and agree on
    /// the decoded bytes when they accept.
    #[test]
    fn corrupted_stream_identity(
        data in proptest::collection::vec(any::<u8>(), 1..64),
        flips in proptest::collection::vec(any::<u16>(), 0..40),
    ) {
        let mut chips = manchester_encode(&data);
        for f in flips {
            let i = f as usize % chips.len();
            chips[i] = if chips[i] == Chip::High { Chip::Low } else { Chip::High };
        }
        let packed = PackedChips::from_chips(&chips);
        prop_assert_eq!(packed.decode_bytes(), manchester_decode(&chips));
        let mut bits = Vec::new();
        let ok = packed.decode_bits_into(&mut bits);
        match manchester_decode_bits(&chips) {
            Some(scalar_bits) => {
                prop_assert!(ok);
                prop_assert_eq!(bits, scalar_bits);
            }
            None => prop_assert!(!ok),
        }
    }

    /// Non-byte-aligned bit slices: packed bit encode/decode mirrors the
    /// scalar bit path exactly.
    #[test]
    fn bit_slice_identity(bits in proptest::collection::vec(any::<bool>(), 0..200)) {
        let scalar = manchester_encode_bits(&bits);
        let mut packed = PackedChips::new();
        packed.encode_bits(&bits);
        prop_assert_eq!(packed.to_chips(), scalar.clone());
        let mut decoded = Vec::new();
        prop_assert!(packed.decode_bits_into(&mut decoded));
        prop_assert_eq!(&decoded, &bits);
        prop_assert_eq!(manchester_decode_bits(&scalar), Some(bits));
    }

    /// Truncated (odd / non-multiple-of-16) streams are rejected by both.
    #[test]
    fn truncation_identity(
        data in proptest::collection::vec(any::<u8>(), 1..16),
        cut in 1usize..16,
    ) {
        let chips = manchester_encode(&data);
        let cut = cut.min(chips.len() - 1);
        let truncated = &chips[..chips.len() - cut];
        let packed = PackedChips::from_chips(truncated);
        prop_assert_eq!(packed.decode_bytes(), manchester_decode(truncated));
        let mut bits = Vec::new();
        let ok = packed.decode_bits_into(&mut bits);
        prop_assert_eq!(ok, manchester_decode_bits(truncated).is_some());
    }

    /// The RsCodec workspace is byte-identical to the scalar codec:
    /// same parity on encode, same result (count or error) and same
    /// corrected block — hence the same error positions — on decode, for
    /// corruption from 0 to beyond the t = 8 capacity.
    #[test]
    fn rs_codec_identity(
        data in proptest::collection::vec(any::<u8>(), 1..=200),
        err_seed in any::<u64>(),
        n_err in 0usize..=12,
    ) {
        let rs = ReedSolomon::paper();
        let mut codec = RsCodec::paper();
        // Parity identity (satellite: in-place add_shifted must keep
        // encode byte-identical on this corpus).
        let clean = rs.encode(&data);
        let mut codec_out = Vec::new();
        codec.encode_into(&data, &mut codec_out);
        prop_assert_eq!(&codec_out, &clean);

        let mut rng = StdRng::seed_from_u64(err_seed);
        let mut scalar_block = clean.clone();
        let mut packed_block = clean;
        let n_err = n_err.min(scalar_block.len());
        let mut positions = std::collections::HashSet::new();
        while positions.len() < n_err {
            positions.insert(rng.gen_range(0..scalar_block.len()));
        }
        for &p in &positions {
            let flip = rng.gen_range(1..=255u8);
            scalar_block[p] ^= flip;
            packed_block[p] ^= flip;
        }
        let scalar_res = rs.decode(&mut scalar_block);
        let packed_res = codec.decode_in_place(&mut packed_block);
        prop_assert_eq!(scalar_res, packed_res);
        prop_assert_eq!(scalar_block, packed_block);
    }

    /// Multi-chunk payloads through the frame layer: the parts-based
    /// zero-alloc path reproduces `to_bytes`/`from_bytes` exactly.
    #[test]
    fn frame_parts_identity(
        payload in proptest::collection::vec(any::<u8>(), 0..450),
        mask in any::<u64>(),
        at_pos in any::<u32>(),
    ) {
        let rs = ReedSolomon::paper();
        let mut stack = RsStack::paper();
        let header = FrameHeader { dst: 7, src: 3, protocol: 1 };
        let frame = Frame::new(mask, header, payload.clone());
        let mut wire = Vec::new();
        Frame::encode_parts_with(mask, &header, &payload, &mut stack, &mut wire);
        prop_assert_eq!(&wire, &frame.to_bytes(&rs));
        if !wire.is_empty() {
            let p = at_pos as usize % wire.len();
            wire[p] ^= 0x5a;
        }
        let mut payload_out = Vec::new();
        let parts = Frame::decode_parts_with(&wire, &mut stack, &mut payload_out);
        match Frame::from_bytes(&wire, &rs) {
            Ok((f, fixed)) => {
                let (got_mask, got_header, got_fixed) = parts.expect("parts path must agree");
                prop_assert_eq!(got_mask, f.tx_id_mask);
                prop_assert_eq!(got_header, f.header);
                prop_assert_eq!(got_fixed, fixed);
                prop_assert_eq!(payload_out, f.payload);
            }
            Err(e) => prop_assert_eq!(parts.expect_err("parts path must agree"), e),
        }
    }

    /// Waveform kernels: the run-based renderer, packed slicer, and
    /// hoisted-template correlator are bit-identical to the scalar ops
    /// for random amplitudes, delays, and rate ratios.
    #[test]
    fn waveform_kernel_identity(
        data in proptest::collection::vec(any::<u8>(), 1..12),
        amp in 0.01f64..2.0,
        delay_us in -20.0f64..60.0,
        spc_num in 2u32..25,
    ) {
        let cfg = WaveformConfig {
            symbol_rate_hz: 100_000.0,
            sample_rate_hz: 100_000.0 * spc_num as f64 / 2.0,
        };
        let chips = manchester_encode(&data);
        let packed = packed_encode(&data);
        let n = (chips.len() as f64 * cfg.samples_per_chip()).ceil() as usize + 120;
        let delay = delay_us * 1e-6;
        let reference = render(&chips, &cfg, amp, delay, n);
        let mut buf = Vec::new();
        render_into(&chips, &cfg, amp, delay, n, &mut buf);
        prop_assert_eq!(&buf, &reference);
        render_packed_into(&packed, &cfg, amp, delay, n, &mut buf);
        prop_assert_eq!(&buf, &reference);

        let scalar_sliced = slice_chips(&reference, &cfg, 0, chips.len());
        let mut packed_sliced = PackedChips::new();
        let ok = slice_chips_packed_into(&reference, &cfg, 0, chips.len(), &mut packed_sliced);
        match scalar_sliced {
            Some(s) => {
                prop_assert!(ok);
                prop_assert_eq!(packed_sliced.to_chips(), s);
            }
            None => prop_assert!(!ok),
        }

        let template = render(
            &chips,
            &cfg,
            1.0,
            0.0,
            (chips.len() as f64 * cfg.samples_per_chip()).round() as usize,
        );
        let via_pattern = correlate_pattern(&reference, &cfg, &chips, 0, 100);
        let via_template =
            correlate_template(&reference, &template, template_energy(&template), 0, 100);
        prop_assert_eq!(via_pattern, via_template);
    }
}
