//! Experiment P10: the crypto hot-path ablation grid. Runs the same
//! seeded 4-party secure set intersection (256-bit domain, reveal pass
//! to a collector outside the ring) across every combination of
//!
//! * exponentiation algorithm — `schoolbook` (division-based ladder),
//!   `binary` (Montgomery bit-at-a-time), `windowed` (Montgomery
//!   sliding-window with odd-powers table), `accel` (fixed-width
//!   Montgomery kernel with known-order exponent reduction — the
//!   default),
//! * quadratic-residue test for message encoding — `euler` (full
//!   exponent-`q` modexp per pad probe) vs `jacobi` (binary Jacobi
//!   symbol),
//! * batching — `serial` vs `pooled` (scoped worker threads),
//!
//! measuring wall-clock and telemetry op counts per cell. Every cell
//! must return identical answers and message counts; the windowed
//! exponentiation must strictly beat the binary baseline, the full
//! fast path (windowed+jacobi+pooled) must be at least 2× faster than
//! the old default (binary+euler+serial), and the accelerated kernel
//! must be at least 2× faster again than the windowed ladder on the
//! same cell — the PR gate for the fixed-base/multi-exp work.
//!
//! Writes `BENCH_crypto_hotpath.json`.
//!
//! Run with: `cargo run -p dla-bench --bin exp_crypto_hotpath --release`
//! (pass `--quick` for the CI-sized configuration).

use dla_bench::render_table;
use dla_crypto::pohlig_hellman::{BatchMode, CommutativeDomain, ExpAlgo, QrTest};
use dla_mpc::set_intersection::SsiSession;
use dla_net::topology::Ring;
use dla_net::{NetConfig, NodeId, Session, SimLink, SimNet};
use dla_telemetry::Recorder;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const EXP_ALGOS: [(ExpAlgo, &str); 4] = [
    (ExpAlgo::Schoolbook, "schoolbook"),
    (ExpAlgo::Binary, "binary"),
    (ExpAlgo::Windowed, "windowed"),
    (ExpAlgo::Accel, "accel"),
];
const QR_TESTS: [(QrTest, &str); 2] = [(QrTest::Euler, "euler"), (QrTest::Jacobi, "jacobi")];
const BATCHES: [(BatchMode, &str); 2] = [
    (BatchMode::Serial, "serial"),
    (BatchMode::Pooled { threads: 4 }, "pooled"),
];

struct Cell {
    exp: &'static str,
    qr: &'static str,
    batch: &'static str,
    elapsed_ms: f64,
    modexp: u64,
    mont_mul_steps: u64,
    messages: u64,
    answer: Vec<Vec<u8>>,
}

impl Cell {
    fn modexp_per_sec(&self) -> f64 {
        self.modexp as f64 / (self.elapsed_ms / 1000.0)
    }
}

fn sets(n: usize, size: usize) -> Vec<Vec<Vec<u8>>> {
    (0..n)
        .map(|party| {
            (0..size)
                .map(|i| {
                    if i < size / 2 {
                        format!("shared-{i}").into_bytes()
                    } else {
                        format!("private-{party}-{i}").into_bytes()
                    }
                })
                .collect()
        })
        .collect()
}

/// One seeded SSI run under the given knobs; wall-clock is the best of
/// `iters` repetitions (the telemetry counts are identical every time).
fn run_cell(
    n: usize,
    inputs: &[Vec<Vec<u8>>],
    exp: (ExpAlgo, &'static str),
    qr: (QrTest, &'static str),
    batch: (BatchMode, &'static str),
    iters: usize,
) -> Cell {
    let domain = CommutativeDomain::fixed_256()
        .with_exp_algo(exp.0)
        .with_qr_test(qr.0);
    let mut best_ms = f64::INFINITY;
    let mut result = None;
    for _ in 0..iters {
        let recorder = Recorder::new();
        // The collector is an extra node: an in-ring collector would
        // skip the reveal pass, and the grid wants every exponentiation
        // of the full protocol.
        let mut net = SimNet::new(n + 1, NetConfig::ideal());
        let session_id = net.open_session();
        let link = SimLink::new(&mut net);
        let ring = Ring::canonical(n);
        let mut rng = StdRng::seed_from_u64(1);
        let started = Instant::now();
        let outcome = {
            let _install = recorder.install();
            SsiSession::new(Session::new(&link, session_id), &ring, &domain, NodeId(n))
                .reveal(true)
                .batch(batch.0)
                .run(inputs, &mut rng)
                .expect("ssi runs")
        };
        let elapsed_ms = started.elapsed().as_secs_f64() * 1000.0;
        let costs = recorder.take().total_cost();
        best_ms = best_ms.min(elapsed_ms);
        result = Some((outcome, costs));
    }
    let (outcome, costs) = result.expect("at least one iteration");
    Cell {
        exp: exp.1,
        qr: qr.1,
        batch: batch.1,
        elapsed_ms: best_ms,
        modexp: costs.modexp,
        mont_mul_steps: costs.mont_mul_steps,
        messages: costs.msgs_sent,
        answer: outcome.common_items.expect("reveal requested"),
    }
}

fn json_cell(c: &Cell) -> String {
    format!(
        concat!(
            "    {{\"exp\": \"{}\", \"qr\": \"{}\", \"batch\": \"{}\", ",
            "\"elapsed_ms\": {:.3}, \"modexp\": {}, \"mont_mul_steps\": {}, ",
            "\"messages\": {}, \"modexp_per_sec\": {:.1}}}"
        ),
        c.exp,
        c.qr,
        c.batch,
        c.elapsed_ms,
        c.modexp,
        c.mont_mul_steps,
        c.messages,
        c.modexp_per_sec(),
    )
}

fn find<'a>(cells: &'a [Cell], exp: &str, qr: &str, batch: &str) -> &'a Cell {
    cells
        .iter()
        .find(|c| c.exp == exp && c.qr == qr && c.batch == batch)
        .expect("grid is complete")
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (n, set_size, iters) = if quick { (3, 8, 3) } else { (4, 16, 7) };
    let inputs = sets(n, set_size);

    let mut cells = Vec::with_capacity(16);
    for exp in EXP_ALGOS {
        for qr in QR_TESTS {
            for batch in BATCHES {
                cells.push(run_cell(n, &inputs, exp, qr, batch, iters));
            }
        }
    }

    // Correctness across the whole grid: every ablation cell computes
    // the same intersection over the same transcript.
    let reference = &cells[0];
    assert!(
        !reference.answer.is_empty(),
        "the shared prefix must intersect"
    );
    for c in &cells[1..] {
        assert_eq!(
            c.answer, reference.answer,
            "{}/{}/{} diverged from {}",
            c.exp, c.qr, c.batch, reference.exp
        );
        assert_eq!(
            c.messages, reference.messages,
            "{}/{}/{} changed the message count",
            c.exp, c.qr, c.batch
        );
    }

    // The windowed ladder must strictly out-run the binary baseline on
    // the same configuration (the CI regression gate).
    let binary = find(&cells, "binary", "jacobi", "serial");
    let windowed = find(&cells, "windowed", "jacobi", "serial");
    assert_eq!(binary.modexp, windowed.modexp);
    assert!(
        windowed.modexp_per_sec() > binary.modexp_per_sec(),
        "windowed modexp throughput ({:.1}/s) must strictly beat binary ({:.1}/s)",
        windowed.modexp_per_sec(),
        binary.modexp_per_sec()
    );
    assert!(
        windowed.mont_mul_steps < binary.mont_mul_steps,
        "windowed must take fewer Montgomery steps than binary"
    );

    // The accelerated kernel: same op counts as the windowed ladder
    // (reduction never fires on in-range Pohlig–Hellman exponents) but
    // at least 2x the throughput — the gate for the fixed-base /
    // multi-exp PR.
    let accel = find(&cells, "accel", "jacobi", "serial");
    assert_eq!(
        accel.modexp, windowed.modexp,
        "accel must perform the same modexp count as windowed"
    );
    assert!(
        accel.mont_mul_steps <= windowed.mont_mul_steps,
        "accel must never take more Montgomery steps than windowed"
    );
    let accel_vs_windowed = windowed.elapsed_ms / accel.elapsed_ms;
    if !quick {
        assert!(
            accel_vs_windowed >= 2.0,
            "accel must be >= 2x over the windowed ladder (got {accel_vs_windowed:.2}x)"
        );
    }

    // Pooled batching with the work-size threshold: batches below the
    // crossover run the serial code path, so `pooled` may never be
    // meaningfully slower than `serial` on the same knobs.
    let accel_pooled = find(&cells, "accel", "jacobi", "pooled");
    assert!(
        accel_pooled.elapsed_ms <= accel.elapsed_ms * 1.5,
        "pooled ({:.2}ms) must stay within 1.5x of serial ({:.2}ms) below the \
         batching crossover",
        accel_pooled.elapsed_ms,
        accel.elapsed_ms
    );

    // Headline speedup: the full fast path vs the old default path.
    let baseline = find(&cells, "binary", "euler", "serial");
    let fast = find(&cells, "windowed", "jacobi", "pooled");
    let speedup = baseline.elapsed_ms / fast.elapsed_ms;
    let windowed_vs_binary = binary.elapsed_ms / windowed.elapsed_ms;
    if !quick {
        assert!(
            speedup >= 2.0,
            "windowed+jacobi+pooled must be >= 2x over binary+euler+serial (got {speedup:.2}x)"
        );
    }

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.exp.to_string(),
                c.qr.to_string(),
                c.batch.to_string(),
                format!("{:.2}", c.elapsed_ms),
                c.modexp.to_string(),
                c.mont_mul_steps.to_string(),
                format!("{:.0}", c.modexp_per_sec()),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &format!(
                "P10 - CRYPTO HOT-PATH ABLATION ({n}-party SSI, {set_size}-element sets, 256-bit{})",
                if quick { ", quick" } else { "" }
            ),
            &["exp", "qr", "batch", "ms", "modexp", "mont_steps", "modexp/s"],
            &rows
        )
    );
    println!(
        "speedup: windowed+jacobi+pooled is {speedup:.2}x over binary+euler+serial \
         (windowed vs binary alone: {windowed_vs_binary:.2}x, accel vs windowed: \
         {accel_vs_windowed:.2}x); identical answers and transcripts in all 16 cells."
    );

    let entries: Vec<String> = cells.iter().map(json_cell).collect();
    let json = format!(
        concat!(
            "{{\n  \"experiment\": \"crypto_hotpath\",\n  \"quick\": {},\n",
            "  \"parties\": {},\n  \"set_size\": {},\n  \"modulus_bits\": 256,\n",
            "  \"speedup_fast_vs_baseline\": {:.3},\n",
            "  \"speedup_windowed_vs_binary\": {:.3},\n",
            "  \"speedup_accel_vs_windowed\": {:.3},\n",
            "  \"cells\": [\n{}\n  ]\n}}\n"
        ),
        quick,
        n,
        set_size,
        speedup,
        windowed_vs_binary,
        accel_vs_windowed,
        entries.join(",\n")
    );
    std::fs::write("BENCH_crypto_hotpath.json", &json).expect("write BENCH_crypto_hotpath.json");
    println!("\nwrote BENCH_crypto_hotpath.json");
}
