//! Seeded arrival schedules for the open-loop load generator.
//!
//! A schedule is a list of Poisson arrival offsets at unit rate; scaling
//! by `1 / rate` gives the due time of every wire message at any rate, so
//! every rung of the rate ladder replays the same arrival pattern.

/// SplitMix64: a tiny, dependency-free generator that is fully
/// determined by its seed (the benchmark's own randomness never touches
/// the program's RNG streams).
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1]: never 0, so `-ln(u)` is finite.
    pub fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// `n` cumulative Poisson arrival offsets at rate 1 (seconds), for
/// connection `stream` of a run seeded with `seed`.
pub fn poisson_offsets(seed: u64, stream: u64, n: usize) -> Vec<f64> {
    let mut rng = SplitMix::new(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += -rng.next_unit().ln();
            t
        })
        .collect()
}

/// Due times in nanoseconds after the pass starts, at `rate` messages/s.
pub fn due_ns(offsets: &[f64], rate: f64) -> Vec<u64> {
    offsets.iter().map(|t| (t / rate * 1e9) as u64).collect()
}

/// The fixed rate ladder: rung `k` is `LADDER_BASE · LADDER_STEP^k`
/// events/s. Steps are 4% apart everywhere, so also near any knee.
pub const LADDER_BASE: f64 = 500.0;
pub const LADDER_STEP: f64 = 1.04;
/// Rungs up to ≈ 2.3 M events/s — far past what one loopback host serves.
pub const LADDER_RUNGS: usize = 200;

pub fn ladder_rate(rung: usize) -> f64 {
    LADDER_BASE * LADDER_STEP.powi(rung as i32)
}

/// The highest rung whose rate does not exceed `rate` (0 when below).
pub fn rung_at_or_below(rate: f64) -> usize {
    (0..LADDER_RUNGS)
        .take_while(|&k| ladder_rate(k) <= rate)
        .last()
        .unwrap_or(0)
}

/// Rungs skipped per step while searching for the knee (≈ 17%).
pub const GALLOP: usize = 4;

/// Find the highest rung that holds, assuming rungs hold below a knee
/// and fail above it: gallop from `start` in steps of [`GALLOP`] rungs
/// until the outcome flips, then bisect the last step down to one rung.
/// `None` when not even rung 0 holds.
pub fn search_ladder(
    start: usize,
    mut holds: impl FnMut(usize) -> Result<bool, String>,
) -> Result<Option<usize>, String> {
    let top = LADDER_RUNGS - 1;
    let start = start.min(top);
    let (mut lo, mut hi) = if holds(start)? {
        let mut lo = start;
        loop {
            let up = (lo + GALLOP).min(top);
            if up == lo {
                return Ok(Some(lo));
            }
            if !holds(up)? {
                break (lo, up);
            }
            lo = up;
        }
    } else {
        let mut hi = start;
        loop {
            if hi == 0 {
                return Ok(None);
            }
            let down = hi.saturating_sub(GALLOP);
            if holds(down)? {
                break (down, hi);
            }
            hi = down;
        }
    };
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if holds(mid)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(Some(lo))
}

/// The sustained rate a search found: its rung's rate, or half the
/// lowest rung's when none held.
pub fn sustained_rate(found: Option<usize>) -> f64 {
    found.map_or(LADDER_BASE / 2.0, ladder_rate)
}
