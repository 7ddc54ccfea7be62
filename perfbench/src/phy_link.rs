//! `phy_link`: one joint-transmission frame through the packed PHY.
//!
//! Seeded beamspots take the 1–9 strongest TXs for a receiver somewhere in
//! the paper room, hosted on the paper's BBB map, synchronised by NLOS-VLC
//! or NTP/PTP. Link gains are scaled along a fixed ladder from clean
//! through the waterfall into loss. One op is one `FramePipeline::run` of
//! one frame on a reused pipeline, with a per-op seed.

use densevlc::e2e::{self, E2eConfig, E2eResult, E2eTx, FramePipeline};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vlc_channel::{AwgnChannel, ChannelMatrix, RxOptics};
use vlc_geom::{Pose, Room, TxGrid};
use vlc_phy::codec::RsStack;
use vlc_phy::frame::Frame;
use vlc_phy::packed::{packed_encode, PackedChips};
use vlc_phy::waveform::{render_packed_into, WaveformConfig};
use vlc_sync::SyncScheme;
use vlc_telemetry::{MetricsSnapshot, Registry};
use vlc_testbed::BbbHostMap;

use crate::harness::{time_setup, Counts, Ctx, Workload};
use crate::layers::LayerTimes;

/// Ops per pass.
const OPS: usize = 1200;
/// Gain scale ladder, cycled op by op: clean, waterfall, loss.
const SCALES: [f64; 8] = [1.0, 0.3, 0.1, 0.05, 0.03, 0.02, 0.015, 0.008];
/// Every `SAMPLE_EVERY`-th op of the first pass is replayed through the
/// scalar reference.
const SAMPLE_EVERY: usize = 10;

/// One op's input.
#[derive(Clone)]
struct Link {
    txs: Vec<E2eTx>,
    scheme: SyncScheme,
    seed: u64,
}

/// The workload.
pub struct PhyLink {
    links: Vec<Link>,
    cfg: E2eConfig,
    pipeline: FramePipeline,
    last: Option<E2eResult>,
    first: Vec<E2eResult>,
    current: Vec<E2eResult>,
    // Traced-pass replay state.
    n_samples: usize,
    chips: PackedChips,
    wave_cfg: WaveformConfig,
    awgn: AwgnChannel,
    replay_rng: StdRng,
    noise: Vec<f64>,
    wave: Vec<f64>,
}

impl PhyLink {
    /// Generates the inputs for `seed` and times the set-up.
    pub fn new(seed: u64) -> (Self, f64) {
        // Set-up first, as in room_track.
        let cfg = E2eConfig::default();
        let (setup_s, pipeline) = time_setup(|| FramePipeline::new(&cfg));
        let links = links(seed);
        let wave_cfg = WaveformConfig {
            symbol_rate_hz: cfg.symbol_rate_hz,
            sample_rate_hz: cfg.sample_rate_hz,
        };
        // The frame as the pipeline puts it on air: 4 preamble bytes and
        // the RS-coded wire frame, Manchester-coded, plus a guard of 8
        // chips at each end.
        let wire = Frame::wire_len_with(cfg.payload_len, &RsStack::paper()) + 4;
        let chips = packed_encode(&vec![0x5a; wire]);
        let spc = wave_cfg.samples_per_chip();
        let guard = (8.0 * spc) as usize;
        let n_samples = 2 * guard + (chips.len() as f64 * spc).ceil() as usize;
        let w = PhyLink {
            links,
            awgn: AwgnChannel::new(cfg.noise),
            cfg,
            pipeline,
            last: None,
            first: Vec::new(),
            current: Vec::new(),
            n_samples,
            chips,
            wave_cfg,
            replay_rng: StdRng::seed_from_u64(seed),
            noise: vec![0.0; n_samples],
            wave: Vec::new(),
        };
        (w, setup_s)
    }
}

fn links(seed: u64) -> Vec<Link> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0000_0f4a);
    let room = Room::paper_testbed();
    let grid = TxGrid::paper(&room);
    let optics = RxOptics::paper();
    let hosts = BbbHostMap::paper();
    let hpsa = 15f64.to_radians();
    let mut out = Vec::with_capacity(OPS);
    while out.len() < OPS {
        let pose = Pose::face_up(rng.gen_range(0.2..2.8), rng.gen_range(0.2..2.8), 0.0);
        let h = ChannelMatrix::compute(&grid, &[pose], hpsa, &optics);
        let mut gains: Vec<(usize, f64)> = (0..h.n_tx())
            .map(|tx| (tx, h.gain(tx, 0)))
            .filter(|&(_, g)| g > 0.0)
            .collect();
        gains.sort_by(|a, b| b.1.total_cmp(&a.1));
        let n = rng.gen_range(1..=9usize);
        let scheme = if rng.gen_bool(0.5) {
            SyncScheme::nlos_paper()
        } else {
            SyncScheme::NtpPtp
        };
        let op_seed = rng.gen::<u64>();
        if gains.is_empty() {
            continue;
        }
        let scale = SCALES[out.len() % SCALES.len()];
        out.push(Link {
            txs: gains
                .iter()
                .take(n)
                .map(|&(tx, g)| E2eTx {
                    gain: g * scale,
                    host: hosts.host_of(tx),
                })
                .collect(),
            scheme,
            seed: op_seed,
        });
    }
    out
}

impl Workload for PhyLink {
    fn pass_len(&self) -> usize {
        self.links.len()
    }

    fn start_pass(&mut self, _registry: &Registry) {
        self.current.clear();
    }

    fn op(&mut self, i: usize, ctx: &Ctx) {
        let link = &self.links[i];
        let result = ctx.layer("e2e.pipeline", || {
            self.pipeline.run(
                &link.txs,
                &link.scheme,
                &self.cfg,
                1,
                link.seed,
                ctx.registry,
            )
        });
        self.last = Some(result);
    }

    fn record(&mut self, _i: usize) {
        self.current.push(self.last.take().expect("op ran"));
    }

    fn end_pass(&mut self) -> u64 {
        let failed = self
            .current
            .iter()
            .enumerate()
            .filter(|(i, r)| {
                r.frames_total != 1
                    || !r.goodput_bps.is_finite()
                    || self.first.get(*i).is_some_and(|f| f != *r)
            })
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
                let l = &self.links[i];
                e2e::run_scalar(&l.txs, &l.scheme, &self.cfg, 1, l.seed) != self.first[i]
            })
            .count() as u64
    }

    fn goodput_mbps(&self) -> f64 {
        let sum: f64 = self.first.iter().map(|r| r.goodput_bps).sum();
        sum / self.first.len().max(1) as f64 / 1e6
    }

    fn replay_layers(&mut self, i: usize, layers: &mut LayerTimes) {
        let t0 = std::time::Instant::now();
        self.awgn.fill(&mut self.replay_rng, &mut self.noise);
        *layers.entry("channel.noise").or_default() += t0.elapsed().as_secs_f64();
        std::hint::black_box(&self.noise);
        let t0 = std::time::Instant::now();
        for tx in &self.links[i].txs {
            render_packed_into(
                &self.chips,
                &self.wave_cfg,
                tx.gain,
                0.0,
                self.n_samples,
                &mut self.wave,
            );
            std::hint::black_box(&self.wave);
        }
        *layers.entry("phy.render").or_default() += t0.elapsed().as_secs_f64();
    }

    fn traced_pass_end(
        &mut self,
        snapshot: &MetricsSnapshot,
        layers: &mut LayerTimes,
        counts: Option<&mut Counts>,
    ) {
        let sum = |name: &str| snapshot.histogram(name).map_or(0.0, |h| h.sum);
        layers.insert("phy.encode", sum("phy.packed.encode_s"));
        layers.insert("phy.decode", sum("phy.packed.decode_s"));
        layers.insert("phy.rs", sum("phy.rs.block_s"));
        let Some(counts) = counts else { return };
        let c = |name: &str| snapshot.counter(name).unwrap_or(0) as f64;
        let ok: usize = self.first.iter().map(|r| r.frames_ok).sum();
        counts.insert("phy.frames_ok_ratio", ok as f64 / self.pass_len() as f64);
        counts.insert("phy.preamble_misses", c("phy.preamble_misses"));
        counts.insert("phy.frame_sync_errors", c("phy.frame_sync_errors"));
        counts.insert("phy.rs_uncorrectable", c("phy.rs_uncorrectable"));
        counts.insert("phy.rs.symbols_corrected", c("phy.rs_symbols_corrected"));
    }

    fn remainder_layer(&self) -> &'static str {
        "e2e.other"
    }

    fn input_digest(&self) -> u64 {
        let mut h = crate::Fnv::default();
        for l in &self.links {
            h.u64(l.seed);
            for t in &l.txs {
                h.f64(t.gain);
                h.u64(t.host as u64);
            }
        }
        h.0
    }

    fn expected_dominant(&self) -> &'static str {
        "channel.noise"
    }
}
