//! `fig10_quick`: the `fig10_latency_ebn0 --quick` required-Eb/N0
//! search, once under each check rule — LDPC-CC N=25 window-decoded at
//! W ∈ {4, 6} and LDPC-BC N ∈ {50, 100} BP-decoded, BER 1e-2, bisection
//! ladder, batch 8, frames fanned out over the worker threads.

use super::{check_digest, Ctx, SETUP_BURST_S};
use crate::layer::{EvalCall, TimedTarget};
use crate::report::{Outcome, RULES};
use crate::sys::secs;
use std::time::{Duration, Instant};
use wi_ldpc::ber::{
    ebn0_db_to_sigma, fill_frame_llrs, search_required_ebn0_with_threads, BerSimOptions, BerTarget,
    BlockBerTarget, CoupledBerTarget, SearchConfig, SearchReport, SearchStrategy,
};
use wi_ldpc::decoder::{reference, BpConfig, BpDecoder, CheckRule, DecoderWorkspace};
use wi_ldpc::window::{CoupledCode, WindowDecoder, WindowWorkspace};
use wi_ldpc::{BatchWorkspace, LdpcCode, WindowBatchWorkspace};
use wi_num::rng::derive_seed;
use wi_sweep::exec::render_search_report;

/// Pinned digest of every stream's search reports at the default seed.
const PINNED: u64 = 0xb2b0_21c5_24f1_6292;

/// Inter-frame batch width (the fig10 default).
pub const LANES: usize = 8;
/// Decoder iterations (the fig10 default).
pub const ITERS: usize = 50;
/// Window sizes of the coupled code.
pub const WINDOWS: [usize; 2] = [4, 6];
/// Block code lengths.
pub const BLOCKS: [usize; 2] = [50, 100];
/// Coupled-code lifting factor.
pub const CC_LIFTING: usize = 25;

/// The check rule behind a metric suffix.
pub fn rule(name: &str) -> CheckRule {
    match name {
        "exact" => CheckRule::SumProduct,
        "table" => CheckRule::sum_product_table(),
        "minsum" => CheckRule::min_sum(),
        other => panic!("unknown check rule '{other}'"),
    }
}

/// The fig10 codes, built with the bin's fixed code seeds.
pub struct Codes {
    /// LDPC-CC N=25, termination length 20.
    pub cc: CoupledCode,
    /// LDPC-BC N=50 and N=100.
    pub blocks: Vec<LdpcCode>,
}

/// Lifts the preset's codes (the `ldpc.code_build_s` layer).
pub fn build_codes() -> Codes {
    Codes {
        cc: CoupledCode::paper_cc(CC_LIFTING, 20, 0xCC00 + CC_LIFTING as u64),
        blocks: BLOCKS
            .iter()
            .map(|&n| LdpcCode::paper_block(n, 0xBC00 + n as u64))
            .collect(),
    }
}

/// Search budget and bracket of one preset.
#[derive(Clone, Copy, Debug)]
pub struct Preset {
    /// Target BER.
    pub target_ber: f64,
    /// Per-probe frame budget; its seed is the benchmark seed.
    pub opts: BerSimOptions,
    /// Search strategy and bracket.
    pub search: SearchConfig,
}

impl Preset {
    /// The `fig10_latency_ebn0 --quick` preset at `seed`.
    pub fn quick(seed: u64) -> Self {
        Preset {
            target_ber: 1e-2,
            opts: BerSimOptions {
                target_errors: 120,
                max_frames: 60,
                min_frames: 20,
                seed,
            },
            search: SearchConfig {
                strategy: SearchStrategy::Bisection,
                lo_db: 0.5,
                hi_db: 8.0,
                tol_db: 0.25,
                grid_points: 7,
                ..SearchConfig::default()
            },
        }
    }
}

/// One search of the preset: a code plus its decoder.
#[derive(Clone, Copy)]
pub enum Job<'a> {
    /// Window-decoded coupled code.
    Window(&'a CoupledCode, WindowDecoder),
    /// BP-decoded block code.
    Block(&'a LdpcCode, BpConfig),
}

impl<'a> Job<'a> {
    /// The job's BER target.
    pub fn target(&self) -> Box<dyn BerTarget + 'a> {
        match *self {
            Job::Window(code, dec) => Box::new(CoupledBerTarget::new(code, dec).with_batch(LANES)),
            Job::Block(code, config) => {
                Box::new(BlockBerTarget::new(code, config, 0.5).with_batch(LANES))
            }
        }
    }
}

/// The preset's searches under `rule`, in fig10 row order.
pub fn jobs(codes: &Codes, rule: CheckRule) -> Vec<Job<'_>> {
    let mut jobs: Vec<Job> = WINDOWS
        .iter()
        .map(|&w| Job::Window(&codes.cc, WindowDecoder::new(w, ITERS).with_rule(rule)))
        .collect();
    for code in &codes.blocks {
        jobs.push(Job::Block(
            code,
            BpConfig {
                max_iterations: ITERS,
                check_rule: rule,
            },
        ));
    }
    jobs
}

fn search(target: &dyn BerTarget, preset: &Preset, threads: usize) -> SearchReport {
    search_required_ebn0_with_threads(
        target,
        preset.target_ber,
        &preset.opts,
        &preset.search,
        threads,
    )
}

/// Runs every job untraced; returns the reports and the wall clock.
pub fn run_jobs(jobs: &[Job], preset: &Preset, threads: usize) -> (Vec<SearchReport>, f64) {
    let t0 = Instant::now();
    let reports = jobs
        .iter()
        .map(|job| search(&*job.target(), preset, threads))
        .collect();
    (reports, secs(t0))
}

/// A traced pass over one rule's jobs.
pub struct TracedRule {
    /// Search reports, in job order.
    pub reports: Vec<SearchReport>,
    /// Wall clock of the searches.
    pub wall_s: f64,
    /// Host seconds inside the targets, summed over workers.
    pub eval_s: f64,
    /// Frames in full-width batch calls.
    pub full_frames: u64,
    /// Frames in narrower calls.
    pub tail_frames: u64,
    /// Every frame-evaluation call, per job.
    pub calls: Vec<Vec<EvalCall>>,
}

/// Runs every job through a [`TimedTarget`] (with `delay` injected into
/// each call — 0 outside the self-test).
pub fn run_jobs_traced(
    jobs: &[Job],
    preset: &Preset,
    threads: usize,
    delay: Duration,
) -> TracedRule {
    let mut traced = TracedRule {
        reports: Vec::new(),
        wall_s: 0.0,
        eval_s: 0.0,
        full_frames: 0,
        tail_frames: 0,
        calls: Vec::new(),
    };
    for job in jobs {
        let target = job.target();
        let timed = TimedTarget::with_delay(&*target, delay);
        let t0 = Instant::now();
        traced.reports.push(search(&timed, preset, threads));
        traced.wall_s += secs(t0);
        traced.eval_s += timed.eval_s();
        let (full, tail) = timed.frame_split();
        traced.full_frames += full;
        traced.tail_frames += tail;
        traced.calls.push(timed.calls());
    }
    traced
}

/// Serial replay of recorded frame evaluations, split by layer.
#[derive(Debug, Default)]
pub struct Replay {
    /// LLR synthesis seconds.
    pub llr_s: f64,
    /// Decoder seconds (LLRs filled outside the timer).
    pub decode_s: f64,
    /// Frames replayed.
    pub frames: u64,
    /// Calls whose replayed bit errors differ from the recorded ones.
    pub mismatches: u64,
}

/// The three decoder operations a replay times.
trait ReplayDecoder {
    /// Loads one lane of the next full batch.
    fn load(&mut self, lane: usize, llr: &[f64]);
    /// Decodes the loaded batch; returns its bit errors.
    fn batch(&mut self) -> u64;
    /// Decodes one frame with the scalar decoder; returns its bit errors.
    fn scalar(&mut self, llr: &[f64]) -> u64;
}

struct BlockReplay<'a> {
    dec: BpDecoder<'a>,
    ws: DecoderWorkspace,
    batch: BatchWorkspace,
}

impl ReplayDecoder for BlockReplay<'_> {
    fn load(&mut self, lane: usize, llr: &[f64]) {
        self.batch.set_lane_llr(lane, llr);
    }

    fn batch(&mut self) -> u64 {
        self.dec.decode_batch(&mut self.batch);
        (0..LANES).map(|l| self.batch.lane_error_count(l)).sum()
    }

    fn scalar(&mut self, llr: &[f64]) -> u64 {
        self.dec.decode_in_place(&mut self.ws, llr);
        self.ws.hard().iter().filter(|&&b| b).count() as u64
    }
}

struct WindowReplay<'a> {
    code: &'a CoupledCode,
    dec: WindowDecoder,
    ws: WindowWorkspace,
    batch: WindowBatchWorkspace,
}

impl ReplayDecoder for WindowReplay<'_> {
    fn load(&mut self, lane: usize, llr: &[f64]) {
        self.batch.set_lane_llr(lane, llr);
    }

    fn batch(&mut self) -> u64 {
        self.dec.decode_batch(&mut self.batch, self.code);
        (0..LANES).map(|l| self.batch.lane_error_count(l)).sum()
    }

    fn scalar(&mut self, llr: &[f64]) -> u64 {
        self.dec.decode_in_place(&mut self.ws, self.code, llr);
        self.ws.hard().iter().filter(|&&b| b).count() as u64
    }
}

/// Replays `calls` of `job`: each call's LLRs are synthesized once under
/// their own timer, then decoded the way the target decodes them — full
/// batches through the lane engine, the rest through the scalar decoder
/// — with the LLRs filled outside the decode timer.
pub fn replay(job: &Job, calls: &[EvalCall], acc: &mut Replay) {
    let rate = job.target().rate();
    match *job {
        Job::Block(code, config) => {
            let mut dec = BlockReplay {
                dec: BpDecoder::new(code, config),
                ws: DecoderWorkspace::new(code),
                batch: BatchWorkspace::new(code, LANES),
            };
            replay_calls(&mut dec, code.len(), rate, calls, acc);
        }
        Job::Window(code, dec) => {
            let mut dec = WindowReplay {
                code,
                dec,
                ws: WindowWorkspace::new(code.code()),
                batch: WindowBatchWorkspace::new(code.code(), LANES),
            };
            replay_calls(&mut dec, code.code().len(), rate, calls, acc);
        }
    }
}

fn replay_calls(
    dec: &mut dyn ReplayDecoder,
    n: usize,
    rate: f64,
    calls: &[EvalCall],
    acc: &mut Replay,
) {
    let mut llr = vec![0.0; n];
    for call in calls {
        let sigma = ebn0_db_to_sigma(call.ebn0_db, rate);
        let t0 = Instant::now();
        for f in call.first..call.first + call.len as u64 {
            fill_frame_llrs(&mut llr, sigma, call.seed, f);
            std::hint::black_box(&llr);
        }
        acc.llr_s += secs(t0);

        let mut errors = 0;
        let mut i = 0;
        while call.len - i >= LANES {
            for lane in 0..LANES {
                fill_frame_llrs(&mut llr, sigma, call.seed, call.first + (i + lane) as u64);
                dec.load(lane, &llr);
            }
            let t0 = Instant::now();
            errors += dec.batch();
            acc.decode_s += secs(t0);
            i += LANES;
        }
        for f in i..call.len {
            fill_frame_llrs(&mut llr, sigma, call.seed, call.first + f as u64);
            let t0 = Instant::now();
            errors += dec.scalar(&llr);
            acc.decode_s += secs(t0);
        }
        acc.frames += call.len as u64;
        if errors != call.bit_errors {
            acc.mismatches += 1;
        }
    }
}

/// Records the per-layer metrics of one traced rule.
pub fn rule_metrics(
    name: &str,
    traced: &TracedRule,
    replayed: &Replay,
    threads: usize,
    out: &mut Outcome,
) {
    out.layer(&format!("ber.eval_s.{name}"), traced.eval_s);
    out.layer(
        &format!("ber.busy_frac.{name}"),
        traced.eval_s / (threads as f64 * traced.wall_s),
    );
    let seen = (traced.full_frames + traced.tail_frames).max(1);
    out.layer(
        &format!("ber.full_batch_frac.{name}"),
        traced.full_frames as f64 / seen as f64,
    );
    out.layer(
        &format!("ber.frames.{name}"),
        traced.reports.iter().map(|r| r.frames).sum::<u64>() as f64,
    );
    out.layer(
        &format!("ber.probes.{name}"),
        traced.reports.iter().map(|r| r.probes).sum::<u64>() as f64,
    );
    out.layer(&format!("ldpc.decode_s.{name}"), replayed.decode_s);
    out.layer(
        &format!("ldpc.decode_ns_per_frame.{name}"),
        replayed.decode_s * 1e9 / replayed.frames.max(1) as f64,
    );
    out.layer_add("ber.llr_s", replayed.llr_s);
}

/// Engine ≡ oracle spot checks at the benchmark seed: BP frames (scalar
/// and batched) against `decoder::reference`, and batched window frames
/// against the scalar window decoder, under every rule.
pub fn oracle_checks(codes: &Codes, seed: u64, out: &mut Outcome) {
    const EBN0_DB: f64 = 2.0;
    for name in RULES {
        let rule = rule(name);
        for code in &codes.blocks {
            let config = BpConfig {
                max_iterations: ITERS,
                check_rule: rule,
            };
            let dec = BpDecoder::new(code, config);
            let mut ws = DecoderWorkspace::new(code);
            let mut batch = BatchWorkspace::new(code, LANES);
            let sigma = ebn0_db_to_sigma(EBN0_DB, 0.5);
            let mut llr = vec![0.0; code.len()];
            let mut expected = Vec::new();
            let mut ok = true;
            for lane in 0..LANES {
                fill_frame_llrs(&mut llr, sigma, seed, 1_000 + lane as u64);
                let want = reference::decode(code, config, &llr);
                let status = dec.decode_in_place(&mut ws, &llr);
                ok &= ws.hard() == want.hard.as_slice()
                    && status.iterations == want.iterations
                    && status.converged == want.converged;
                batch.set_lane_llr(lane, &llr);
                expected.push(want);
            }
            dec.decode_batch(&mut batch);
            for (lane, want) in expected.iter().enumerate() {
                ok &= (0..code.len()).all(|v| batch.hard_bit(v, lane) == want.hard[v]);
            }
            out.check(ok, || {
                format!("BP {name} N={} differs from decoder::reference", code.len())
            });
        }
        for w in WINDOWS {
            let dec = WindowDecoder::new(w, ITERS).with_rule(rule);
            let code = &codes.cc;
            let n = code.code().len();
            let sigma = ebn0_db_to_sigma(EBN0_DB, code.design_rate());
            let mut ws = WindowWorkspace::new(code.code());
            let mut batch = WindowBatchWorkspace::new(code.code(), LANES);
            let mut llr = vec![0.0; n];
            let mut scalar = Vec::new();
            for lane in 0..LANES {
                fill_frame_llrs(&mut llr, sigma, seed, 2_000 + lane as u64);
                dec.decode_in_place(&mut ws, code, &llr);
                scalar.push(ws.hard().to_vec());
                batch.set_lane_llr(lane, &llr);
            }
            dec.decode_batch(&mut batch, code);
            let ok = scalar
                .iter()
                .enumerate()
                .all(|(lane, hard)| (0..n).all(|v| batch.hard_bit(v, lane) == hard[v]));
            out.check(ok, || {
                format!("window {name} W={w} batch differs from scalar decode_in_place")
            });
        }
    }
}

/// Monte-Carlo streams a run averages over at least: one preset pass
/// takes longer than the measurement window, and the search's frame
/// count moves with the seed, so a single stream would time the seed as
/// much as the code.
pub const MIN_STREAMS: u64 = 3;

/// Seed of Monte-Carlo stream `k` of a run: the benchmark seed itself for
/// stream 0 (so stream 0 is exactly `fig10_latency_ebn0 --quick` at that
/// seed), derived streams after it.
pub fn stream_seed(seed: u64, k: u64) -> u64 {
    if k == 0 {
        seed
    } else {
        derive_seed(seed, k)
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx, out: &mut Outcome) {
    let codes = out.setup_burst(5, 5_000, SETUP_BURST_S, build_codes);

    // The preset runs once per stream, streams until the window is spent
    // (at least MIN_STREAMS); times are reported per stream.
    let started = Instant::now();
    let mut rule_s = [0.0; RULES.len()];
    let mut renders = Vec::new();
    let mut frames = 0;
    let mut streams = 0;
    let mut stream0_s = 0.0;
    while streams < MIN_STREAMS || secs(started) < ctx.seconds {
        let preset = Preset::quick(stream_seed(ctx.seed, streams));
        for (k, name) in RULES.iter().enumerate() {
            out.sample_host(ctx.threads);
            drop(out.setup_burst(5, 5_000, SETUP_BURST_S, build_codes));
            let (reports, wall) = run_jobs(&jobs(&codes, rule(name)), &preset, ctx.threads);
            renders.extend(reports.iter().map(render_search_report));
            frames += reports.iter().map(|r| r.frames).sum::<u64>();
            rule_s[k] += wall;
            if streams == 0 {
                stream0_s += wall;
            }
        }
        streams += 1;
    }
    out.ops(streams * (RULES.len() * jobs(&codes, CheckRule::SumProduct).len()) as u64);
    let total: f64 = rule_s.iter().sum();
    let wall = total / streams as f64;
    out.note(format!(
        "fig10_quick: {streams} Monte-Carlo streams, {total:.4} s"
    ));
    out.layer("wall_s", wall);
    out.layer("peak_rss_mib", crate::sys::peak_rss_mib());
    for (k, name) in RULES.iter().enumerate() {
        let v = rule_s[k] / streams as f64;
        out.layer(&format!("fig10_{name}_s"), v);
    }
    out.layer("ber_frames_per_s", frames as f64 / total);

    // Pinned over the first MIN_STREAMS streams, which every run covers.
    let pinned = &renders[..renders.len() / streams as usize * MIN_STREAMS as usize];
    check_digest(
        ctx,
        out,
        "fig10_quick reports",
        super::digest(pinned),
        PINNED,
    );
    oracle_checks(&codes, ctx.seed, out);

    if ctx.trace {
        let build_t0 = Instant::now();
        let rebuilt = build_codes();
        out.layer("ldpc.code_build_s", secs(build_t0));
        drop(rebuilt);
        // Stream 0 again, through the timing wrappers: it must reproduce
        // the untraced reports exactly, and its replay the recorded errors.
        let preset = Preset::quick(stream_seed(ctx.seed, 0));
        let mut traced_wall = 0.0;
        let mut traced_renders = Vec::new();
        for name in RULES {
            let jobs = jobs(&codes, rule(name));
            let traced = run_jobs_traced(&jobs, &preset, ctx.threads, Duration::ZERO);
            traced_wall += traced.wall_s;
            traced_renders.extend(traced.reports.iter().map(render_search_report));
            let mut replayed = Replay::default();
            for (job, calls) in jobs.iter().zip(&traced.calls) {
                replay(job, calls, &mut replayed);
            }
            out.check(replayed.mismatches == 0, || {
                format!(
                    "{name}: {} replayed calls differ from the search",
                    replayed.mismatches
                )
            });
            rule_metrics(name, &traced, &replayed, ctx.threads, out);
        }
        out.check(
            traced_renders[..] == renders[..traced_renders.len()],
            || "fig10_quick: traced reports differ from untraced".into(),
        );
        out.layer("trace.wall_gap_frac", traced_wall / stream0_s - 1.0);
    }
}
