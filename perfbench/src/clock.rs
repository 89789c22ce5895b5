//! Processor time, and the calibration kernel that measures how fast the
//! host runs right now.
//!
//! Arm times are processor time (user plus system, all threads) read with
//! `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`: unlike wall time it does not
//! count the time the process waits for a processor, so it stays steady
//! when other work shares the host. It still moves with the speed the host
//! gives the process, which on a shared machine changes by tens of percent
//! within a minute (other tenants contend for the caches and memory).
//! `calibrate` times a fixed kernel that uses none of the code under test;
//! a child runs it right before and right after its measurement, and the
//! benchmark reports the measurement in units of the kernel's time.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Seconds of processor time this process has used so far.
pub fn process_cpu_seconds() -> f64 {
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable timespec; the call writes only it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    t.tv_sec as f64 + t.tv_nsec as f64 * 1e-9
}

/// A fixed multiplicative hash, so every process probes the kernel's table
/// in the same pattern (the standard hasher is keyed per process, which
/// moves the kernel's time by up to ±30% from one process to the next).
#[derive(Default)]
struct FixedHasher(u64);

impl Hasher for FixedHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// Processor seconds one run of the calibration kernel takes now: 300 000
/// lookups and inserts of complex weights at random keys in a hash table
/// sized for a million entries (about 32 MB), with the complex arithmetic
/// between them, the work a decision-diagram package's unique and compute
/// tables do. Its working set is far larger than a core's own caches, so it
/// slows down with the arms when other tenants load the shared cache and
/// memory; on a 2-core shared host, per-repetition arm times divided by it
/// (run with twice the operations) spread by 0.08-0.14 (IQR over median)
/// while the raw times spread by 0.18-0.36.
pub fn calibrate() -> f64 {
    const KEYS: u64 = 1_000_000;
    let started = process_cpu_seconds();
    let mut table: HashMap<u64, (f64, f64), BuildHasherDefault<FixedHasher>> =
        HashMap::with_capacity_and_hasher(KEYS as usize, BuildHasherDefault::default());
    let (mut re, mut im, mut x) = (0.6f64, 0.8f64, 0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..300_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let w = table.entry(x % KEYS).or_insert((re, im));
        let (r, i) = (w.0 * re - w.1 * im, w.0 * im + w.1 * re);
        let norm = (r * r + i * i).sqrt();
        (re, im) = (r / norm, i / norm);
        w.0 = re;
    }
    std::hint::black_box((re, im, table.len()));
    process_cpu_seconds() - started
}
