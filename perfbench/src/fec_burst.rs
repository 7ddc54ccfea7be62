//! `fec_burst`: the paper's RS stack and its interleaved variant under
//! pre-computed channel errors.
//!
//! Payloads are coded by the `rs` and `rs+il16` stacks of the codec
//! registry and hit by error patterns modelled on the codec lab's: clean,
//! independent bit flips (AWGN at the hard-decision OOK error rate), and
//! byte bursts (an occluder crossing the beam), from no errors to beyond
//! either stack's capacity. One op is one `encode_into`, the op's error
//! mask, and one `decode_into`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vlc_phy::codec::{registry, CodecStack};
use vlc_telemetry::{MetricsSnapshot, Registry};

use crate::harness::{time_setup, Counts, Ctx, Workload};
use crate::layers::LayerTimes;

/// Ops per pass.
const OPS: usize = 6000;
/// The registry stacks under test and their layer names.
const STACKS: [(&str, &str, &str); 2] = [
    ("rs", "phy.codec.rs.encode", "phy.codec.rs.decode"),
    (
        "rs+il16",
        "phy.codec.rs_il16.encode",
        "phy.codec.rs_il16.decode",
    ),
];
/// Payload lengths, bytes (one, two and four RS chunks).
const LENS: [usize; 3] = [200, 400, 800];
/// Chip rate of the paper's Manchester link, chips/s.
const CHIP_RATE_HZ: f64 = 100_000.0;
/// Every `SAMPLE_EVERY`-th op of the first pass is decoded again through
/// the stack's allocating reference path.
const SAMPLE_EVERY: usize = 7;

/// An error pattern generator.
#[derive(Clone, Copy)]
enum Errors {
    Clean,
    /// Independent bit flips with this probability.
    Flips(f64),
    /// Non-overlapping bursts of `len` bytes starting at each byte with
    /// probability `rate`.
    Bursts {
        rate: f64,
        len: usize,
    },
}

/// The error ladder, cycled op by op: the bare RS stack corrects 8 bytes
/// per 216-byte block, the interleaved one spreads a burst over 16 blocks.
const ERRORS: [Errors; 9] = [
    Errors::Clean,
    Errors::Flips(2e-4),
    Errors::Flips(1.5e-3),
    Errors::Flips(3e-3),
    Errors::Flips(8e-3),
    Errors::Bursts { rate: 2e-3, len: 6 },
    Errors::Bursts {
        rate: 2e-3,
        len: 24,
    },
    Errors::Bursts {
        rate: 3e-3,
        len: 96,
    },
    Errors::Bursts {
        rate: 2e-3,
        len: 400,
    },
];

impl Errors {
    fn mask(self, len: usize, rng: &mut StdRng) -> Vec<u8> {
        let mut mask = vec![0u8; len];
        match self {
            Errors::Clean => {}
            Errors::Flips(p) => {
                for byte in &mut mask {
                    for bit in 0..8 {
                        if rng.gen_bool(p) {
                            *byte ^= 1 << bit;
                        }
                    }
                }
            }
            Errors::Bursts { rate, len: burst } => {
                let mut i = 0;
                while i < len {
                    if rng.gen_bool(rate) {
                        let end = (i + burst).min(len);
                        for b in &mut mask[i..end] {
                            *b = rng.gen_range(1..=255u8);
                        }
                        i = end;
                    } else {
                        i += 1;
                    }
                }
            }
        }
        mask
    }
}

/// One op's input.
struct Case {
    stack: usize,
    payload: Vec<u8>,
    mask: Vec<u8>,
}

/// What a decode returned.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Outcome {
    /// The sent payload, after this many corrected symbols.
    Delivered(usize),
    /// A detected loss.
    Lost,
    /// A different payload reported as success.
    Wrong,
}

/// The workload.
pub struct FecBurst {
    cases: Vec<Case>,
    stacks: Vec<Box<dyn CodecStack>>,
    coded: Vec<u8>,
    decoded: Vec<u8>,
    last: Option<Result<usize, ()>>,
    first: Vec<Outcome>,
    current: Vec<Outcome>,
}

fn setup() -> Vec<Box<dyn CodecStack>> {
    let mut all = registry();
    STACKS
        .iter()
        .map(|(name, _, _)| {
            let k = all
                .iter()
                .position(|s| s.name() == *name)
                .expect("stack is registered");
            all.swap_remove(k)
        })
        .collect()
}

impl FecBurst {
    /// Generates the inputs for `seed` and times the set-up.
    pub fn new(seed: u64) -> (Self, f64) {
        let (setup_s, stacks) = time_setup(setup);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0000_fec0);
        let cases = (0..OPS)
            .map(|i| {
                let stack = i % STACKS.len();
                let len = LENS[(i / STACKS.len()) % LENS.len()];
                let errors = ERRORS[(i / (STACKS.len() * LENS.len())) % ERRORS.len()];
                let payload: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
                let mask = errors.mask(stacks[stack].encoded_len(len), &mut rng);
                Case {
                    stack,
                    payload,
                    mask,
                }
            })
            .collect();
        let w = FecBurst {
            cases,
            stacks,
            coded: Vec::new(),
            decoded: Vec::new(),
            last: None,
            first: Vec::new(),
            current: Vec::new(),
        };
        (w, setup_s)
    }
}

impl Workload for FecBurst {
    fn pass_len(&self) -> usize {
        self.cases.len()
    }

    fn start_pass(&mut self, _registry: &Registry) {
        self.current.clear();
    }

    fn op(&mut self, i: usize, ctx: &Ctx) {
        let case = &self.cases[i];
        let stack = &mut self.stacks[case.stack];
        let (_, encode, decode) = STACKS[case.stack];
        self.coded.clear();
        {
            let _encode = ctx.span.child(encode);
            stack.encode_into(&case.payload, &mut self.coded);
        }
        for (c, m) in self.coded.iter_mut().zip(&case.mask) {
            *c ^= m;
        }
        self.decoded.clear();
        let result = ctx.layer("phy.codec.decode", || {
            let _decode = ctx.span.child(decode);
            stack.decode_into(&self.coded, case.payload.len(), &mut self.decoded)
        });
        self.last = Some(result.map_err(|_| ()));
    }

    fn record(&mut self, i: usize) {
        let outcome = match self.last.take().expect("op ran") {
            Ok(fixed) if self.decoded == self.cases[i].payload => Outcome::Delivered(fixed),
            Ok(_) => Outcome::Wrong,
            Err(()) => Outcome::Lost,
        };
        self.current.push(outcome);
    }

    fn end_pass(&mut self) -> u64 {
        let failed = self
            .current
            .iter()
            .enumerate()
            .filter(|(i, o)| **o == Outcome::Wrong || self.first.get(*i).is_some_and(|f| f != *o))
            .count() as u64;
        if self.first.is_empty() {
            self.first = std::mem::take(&mut self.current);
        }
        failed
    }

    fn final_checks(&mut self) -> u64 {
        (0..self.first.len())
            .step_by(SAMPLE_EVERY)
            .filter(|&i| {
                let case = &self.cases[i];
                let stack = &self.stacks[case.stack];
                let mut coded = stack.encode_ref(&case.payload);
                for (c, m) in coded.iter_mut().zip(&case.mask) {
                    *c ^= m;
                }
                let reference = match stack.decode_ref(&coded, case.payload.len()) {
                    Ok((p, fixed)) if p == case.payload => Outcome::Delivered(fixed),
                    Ok(_) => Outcome::Wrong,
                    Err(_) => Outcome::Lost,
                };
                reference != self.first[i]
            })
            .count() as u64
    }

    fn goodput_mbps(&self) -> f64 {
        let (mut bits, mut air_s) = (0.0, 0.0);
        for (case, outcome) in self.cases.iter().zip(&self.first) {
            if matches!(outcome, Outcome::Delivered(_)) {
                bits += case.payload.len() as f64 * 8.0;
            }
            // Manchester: two chips per coded bit.
            air_s += case.mask.len() as f64 * 16.0 / CHIP_RATE_HZ;
        }
        bits / air_s / 1e6
    }

    fn traced_pass_end(
        &mut self,
        _snapshot: &MetricsSnapshot,
        _layers: &mut LayerTimes,
        counts: Option<&mut Counts>,
    ) {
        let Some(counts) = counts else { return };
        let (mut fixed, mut lost) = (0usize, 0usize);
        for o in &self.first {
            match o {
                Outcome::Delivered(n) => fixed += n,
                Outcome::Lost => lost += 1,
                Outcome::Wrong => {}
            }
        }
        counts.insert("phy.rs.symbols_corrected", fixed as f64);
        counts.insert(
            "phy.codec.detected_loss_ratio",
            lost as f64 / self.first.len().max(1) as f64,
        );
    }

    fn input_digest(&self) -> u64 {
        let mut h = crate::Fnv::default();
        for c in &self.cases {
            h.bytes(&c.payload);
            h.bytes(&c.mask);
        }
        h.0
    }

    fn expected_dominant(&self) -> &'static str {
        "phy.codec.decode"
    }
}
