//! A fixed reference kernel, timed between the instances of every
//! end-to-end pass.
//!
//! The host's speed drifts by tens of percent over seconds to minutes as
//! other tenants load it, and every kernel of this repository slows with
//! it. Dividing a pass's time by the median reference time of the same
//! run expresses the pass in units of the host's speed during that run.
//! The kernel lives here, so no change to the repository can move it,
//! and it reuses one buffer, so its time does not include page faults
//! (which made a kernel allocating afresh on every call three times as
//! noisy).

use std::hint::black_box;
use std::time::Instant;

/// Elements the kernel sorts: about 2.4 MB, ~10 ms on a 2-vCPU Xeon VM.
const LEN: usize = 300_000;

/// Reference samples per pass, at least; spread evenly over its
/// instances.
pub const SAMPLES_PER_PASS: usize = 16;

/// The kernel's working buffer, allocated once.
#[derive(Debug)]
pub struct Reference {
    buf: Vec<u64>,
}

impl Reference {
    pub fn new() -> Self {
        Reference {
            buf: Vec::with_capacity(LEN),
        }
    }

    /// Seconds one run of the kernel takes now: fill the buffer from
    /// xorshift64, sort it and fold it into a hash.
    pub fn seconds(&mut self) -> f64 {
        let start = Instant::now();
        let mut x: u64 = 0x1234_5678;
        self.buf.clear();
        self.buf.extend((0..black_box(LEN)).map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }));
        self.buf.sort_unstable();
        let h = self.buf.iter().enumerate().fold(0u64, |h, (i, y)| {
            h.wrapping_mul(31).wrapping_add(y ^ i as u64)
        });
        black_box(h);
        start.elapsed().as_secs_f64()
    }
}
