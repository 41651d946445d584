//! The host's speed: where the server and the generator run, and a probe
//! that times a fixed reference kernel on the server's vCPU.
//!
//! On a shared virtual machine a vCPU's speed drifts with the load its
//! neighbours put on the physical cores: on the 2-vCPU machine the
//! benchmark was tuned on, a fixed CPU loop's time varied from 106 to 208
//! ms over four minutes, and its interquartile range over 17 s windows was
//! 20% of the median. A whole-run figure of a CPU-bound server follows that
//! drift, and ten runs spread as far as 35%, more than any bound allows.
//!
//! So the server runs pinned to one vCPU, the generator to another, and a
//! probe thread pinned to the server's vCPU runs a [`Kernel`] every
//! [`PROBE_EVERY`] while a phase is timed. The kernel does the same work on
//! every call, of both kinds the server does: computation over a buffer in
//! the core's cache, and round trips over a loopback TCP connection. Its
//! mean time over a phase measures that vCPU's speed during it (a compute
//! kernel's 1 s windows tracked the closed loop's throughput with a
//! correlation of 0.89 when pinned, and 0.5 or less unpinned). The mean,
//! not the median: the guest reports no steal time, so when the hypervisor
//! stops the vCPU the server's CPU clock charges the stall to the server,
//! and the probe's calls that the stall lands in must count too.
//!
//! Over ten `hash_scan` runs the server's CPU per op grew as the kernel's
//! time to the power 1.0 with this mixed kernel (correlation 0.91); a
//! compute-only kernel gave 1.3-1.9 (the server slowed more than it did),
//! a socket-only one 0.7, and pointer chases over 512 KiB or 4 MiB tracked
//! it poorly (correlation 0.5 or less). Time-based end-to-end metrics are
//! then stated at a reference speed: the one at which the kernel takes
//! [`REF_KERNEL_US`].

use crate::Result;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The kernel's time on the reference vCPU, in µs: a fixed scale, about
/// its mean time on the machine the benchmark was tuned on, so the `ref_`
/// figures read close to the figures as measured there.
pub const REF_KERNEL_US: f64 = 280.0;

/// How often the probe runs the kernel: about 3% of the server's vCPU.
pub const PROBE_EVERY: Duration = Duration::from_millis(10);

/// 64-bit words the kernel fills and hashes (32 KiB, inside a core's L2).
const KERNEL_WORDS: usize = 4096;
/// Loopback round trips per kernel call, each [`MESSAGE_BYTES`] each way.
const ROUND_TRIPS: usize = 15;
const MESSAGE_BYTES: usize = 1024;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A set of CPUs in the kernel's `cpu_set_t` layout (1024 CPUs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuSet([u64; 16]);

impl CpuSet {
    pub fn one(cpu: usize) -> CpuSet {
        let mut bits = [0; 16];
        bits[cpu / 64] |= 1 << (cpu % 64);
        CpuSet(bits)
    }

    /// The CPUs the calling thread may run on, in ascending order.
    pub fn allowed() -> Result<Vec<usize>> {
        let mut bits = [0u64; 16];
        // SAFETY: the kernel writes at most `size` bytes into `bits`, which
        // is exactly that large.
        if unsafe { sched_getaffinity(0, std::mem::size_of_val(&bits), bits.as_mut_ptr()) } != 0 {
            return Err(std::io::Error::last_os_error().into());
        }
        Ok((0..1024)
            .filter(|&c| bits[c / 64] & (1 << (c % 64)) != 0)
            .collect())
    }

    /// Restrict the calling thread to this set. A single system call, so
    /// it is safe between fork and exec.
    pub fn pin_current(&self) -> std::io::Result<()> {
        // SAFETY: the kernel reads `size` bytes from `self.0`, which is
        // exactly that large.
        if unsafe { sched_setaffinity(0, std::mem::size_of_val(&self.0), self.0.as_ptr()) } != 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(())
    }
}

/// Which vCPU the generator and the server (with the probe) run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    pub generator: usize,
    pub server: usize,
}

impl Placement {
    /// The generator on the first allowed vCPU, the server on the last;
    /// with a single vCPU they share it.
    pub fn from_allowed(allowed: &[usize]) -> Option<Placement> {
        Some(Placement {
            generator: *allowed.first()?,
            server: *allowed.last()?,
        })
    }

    pub fn choose() -> Result<Placement> {
        Placement::from_allowed(&CpuSet::allowed()?).ok_or_else(|| "no CPU allowed".into())
    }
}

/// The probe's fixed work: [`compute`] over a 32 KiB buffer, then
/// [`ROUND_TRIPS`] writes and reads of [`MESSAGE_BYTES`] over a loopback TCP
/// connection of its own (both ends in the calling thread).
pub struct Kernel {
    buf: Vec<u64>,
    out: Vec<u64>,
    tx: TcpStream,
    rx: TcpStream,
    message: Vec<u8>,
    back: Vec<u8>,
}

impl Kernel {
    pub fn new() -> std::io::Result<Kernel> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let tx = TcpStream::connect(listener.local_addr()?)?;
        let (rx, _) = listener.accept()?;
        tx.set_nodelay(true)?;
        Ok(Kernel {
            buf: vec![0; KERNEL_WORDS],
            out: vec![0; KERNEL_WORDS / 2],
            tx,
            rx,
            message: (0..MESSAGE_BYTES).map(|i| i as u8).collect(),
            back: vec![0; MESSAGE_BYTES],
        })
    }

    /// One call. Returns a checksum so the work cannot be optimised away;
    /// a message that comes back changed is an error.
    pub fn run(&mut self) -> std::io::Result<u64> {
        let mut sum = compute(std::hint::black_box(&mut self.buf), &mut self.out);
        for _ in 0..ROUND_TRIPS {
            self.tx.write_all(&self.message)?;
            self.rx.read_exact(&mut self.back)?;
            if self.back != self.message {
                return Err(std::io::Error::other("loopback message changed"));
            }
            sum = sum.wrapping_add(u64::from(self.back[MESSAGE_BYTES - 1]));
        }
        Ok(sum)
    }
}

/// Fill `buf` from a SplitMix64 stream, then hash it four times with
/// FNV-1a, scattering into `out` (a power of two long). Returns a checksum.
fn compute(buf: &mut [u64], out: &mut [u64]) -> u64 {
    let mut state: u64 = 0x1234;
    for word in buf.iter_mut() {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        *word = z ^ (z >> 31);
    }
    out.fill(0);
    let mask = out.len() - 1;
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for round in 0..4 {
        for (i, word) in buf.iter().enumerate() {
            h = (h ^ (word >> (round * 8))).wrapping_mul(0x0100_0000_01B3);
            if h & 1 == 0 {
                out[i & mask] ^= h;
            }
        }
    }
    h ^ out[7]
}

/// A thread, pinned to one vCPU, that times [`kernel`] every
/// [`PROBE_EVERY`] until [`Probe::finish`]. Dropping it stops and joins
/// the thread too.
pub struct Probe {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<std::io::Result<Vec<f64>>>>,
}

impl Probe {
    pub fn start(cpu: usize) -> Probe {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            CpuSet::one(cpu).pin_current()?;
            let mut kernel = Kernel::new()?;
            // One untimed call faults the buffers in.
            std::hint::black_box(kernel.run()?);
            let mut samples = Vec::new();
            // Relaxed is enough: the flag carries no other data, and
            // `finish` joins the thread.
            while !flag.load(Ordering::Relaxed) {
                let t = Instant::now();
                std::hint::black_box(kernel.run()?);
                samples.push(t.elapsed().as_nanos() as f64 / 1e3);
                std::thread::park_timeout(PROBE_EVERY);
            }
            Ok(samples)
        });
        Probe {
            stop,
            handle: Some(handle),
        }
    }

    /// Stop the probe and return its kernel times in µs, one per call.
    pub fn finish(mut self) -> Result<Vec<f64>> {
        self.stop_and_join()
            .ok_or("the probe was already stopped")?
    }

    fn stop_and_join(&mut self) -> Option<Result<Vec<f64>>> {
        let handle = self.handle.take()?;
        self.stop.store(true, Ordering::Relaxed);
        handle.thread().unpark();
        Some(match handle.join() {
            Ok(samples) => samples.map_err(Into::into),
            Err(_) => Err("the probe thread panicked".into()),
        })
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        let _ = self.stop_and_join();
    }
}

/// A rate measured while the kernel took `kernel_us`, restated at the
/// reference speed: a vCPU half as fast as the reference doubles it.
pub fn rate_at_ref(rate: f64, kernel_us: f64) -> f64 {
    rate * kernel_us / REF_KERNEL_US
}

/// A duration measured while the kernel took `kernel_us`, restated at the
/// reference speed: a vCPU half as fast as the reference halves it.
pub fn time_at_ref(time: f64, kernel_us: f64) -> f64 {
    time * REF_KERNEL_US / kernel_us
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_does_the_same_work_every_call() {
        let mut kernel = Kernel::new().unwrap();
        let first = kernel.run().unwrap();
        assert_eq!(kernel.run().unwrap(), first);
        kernel.buf.fill(7);
        assert_eq!(kernel.run().unwrap(), first, "no state carries over");
    }

    #[test]
    fn metrics_restate_at_the_reference_speed() {
        // The kernel took twice its reference time: the vCPU ran at half
        // speed, so the reference vCPU would have served twice the rate in
        // half the time.
        let slow = 2.0 * REF_KERNEL_US;
        assert_eq!(rate_at_ref(40_000.0, slow), 80_000.0);
        assert_eq!(time_at_ref(60.0, slow), 30.0);
        assert_eq!(time_at_ref(60.0, REF_KERNEL_US / 2.0), 120.0);
        assert_eq!(rate_at_ref(40_000.0, REF_KERNEL_US), 40_000.0);
        assert_eq!(time_at_ref(60.0, REF_KERNEL_US), 60.0);
    }

    #[test]
    fn placement_splits_the_first_and_last_cpu() {
        assert_eq!(
            Placement::from_allowed(&[2, 3]),
            Some(Placement {
                generator: 2,
                server: 3
            })
        );
        assert_eq!(
            Placement::from_allowed(&[5]),
            Some(Placement {
                generator: 5,
                server: 5
            })
        );
        assert_eq!(Placement::from_allowed(&[]), None);
        assert_eq!(CpuSet::one(65).0[1], 2);
    }

    #[test]
    fn probe_samples_until_finished() {
        let cpu = Placement::choose().unwrap().server;
        let probe = Probe::start(cpu);
        std::thread::sleep(PROBE_EVERY * 3);
        let samples = probe.finish().unwrap();
        assert!(!samples.is_empty());
        assert!(samples.iter().all(|&us| us > 0.0));
        // Dropping a running probe stops it as well.
        drop(Probe::start(cpu));
    }
}
