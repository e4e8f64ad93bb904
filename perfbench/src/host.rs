//! Time the hypervisor takes from this virtual machine ("steal").
//!
//! On a shared host the virtual CPUs are paused now and then; every
//! message in flight during a pause is delayed by it, whatever the
//! program does. The load generator samples the kernel's steal counter
//! while it runs, so passes that overlap a pause can be told apart from
//! the ones that do not.

/// The whole-machine steal counter and the sum of all CPU time counters,
/// in clock ticks (`/proc/stat`). `None` where the kernel does not
/// report steal.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

fn steal_ticks() -> Option<u64> {
    cpu_ticks().map(|(steal, _)| steal)
}

/// Steal counter samples taken during one pass, at ns after its start.
#[derive(Debug, Clone, Default)]
pub struct StealLog {
    samples: Vec<(u64, u64)>,
}

impl StealLog {
    /// Sample at most this often.
    pub const EVERY_NS: u64 = 5_000_000;
    /// One clock tick: the counter's resolution.
    const TICK_NS: u64 = 10_000_000;

    /// Take a sample if the last one is older than [`Self::EVERY_NS`].
    pub fn sample(&mut self, now_ns: u64) {
        if self
            .samples
            .last()
            .is_some_and(|&(t, _)| now_ns < t + Self::EVERY_NS)
        {
            return;
        }
        if let Some(ticks) = steal_ticks() {
            self.samples.push((now_ns, ticks));
        }
    }

    /// Whether the counter moved between `from_ns` and `to_ns`, widened
    /// by a tick on each side (a tick is counted only once it is full).
    /// False when nothing was sampled.
    pub fn stolen(&self, from_ns: u64, to_ns: u64) -> bool {
        let (Some(first), Some(last)) = (self.samples.first(), self.samples.last()) else {
            return false;
        };
        let before = self
            .samples
            .iter()
            .rev()
            .find(|(t, _)| t + Self::TICK_NS <= from_ns)
            .unwrap_or(first)
            .1;
        let after = self
            .samples
            .iter()
            .find(|(t, _)| *t >= to_ns.saturating_add(Self::TICK_NS))
            .unwrap_or(last)
            .1;
        after > before
    }
}

/// The members of `items` that `stolen` says were undisturbed, or all of
/// them when fewer than `min` were.
pub fn undisturbed<T: Clone>(items: &[T], min: usize, stolen: impl Fn(&T) -> bool) -> Vec<T> {
    let clean: Vec<T> = items.iter().filter(|i| !stolen(i)).cloned().collect();
    if clean.len() >= min {
        clean
    } else {
        items.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_window_is_stolen_only_near_a_counter_step() {
        let ms = 1_000_000;
        let log = StealLog {
            samples: (0..100)
                .map(|i| (i * 5 * ms, if i < 50 { 7 } else { 8 }))
                .collect(),
        };
        // The step shows between the samples at 245 and 250 ms.
        assert!(log.stolen(240 * ms, 252 * ms));
        assert!(log.stolen(200 * ms, 245 * ms), "widened by a tick");
        assert!(!log.stolen(0, 200 * ms));
        assert!(!log.stolen(300 * ms, 450 * ms));
        assert!(!StealLog::default().stolen(0, 1));
        let kept = undisturbed(&[1, 2, 3, 4], 2, |&x| x % 2 == 0);
        assert_eq!(kept, vec![1, 3]);
        assert_eq!(undisturbed(&[1, 2], 2, |&x| x == 2), vec![1, 2]);
    }
}
