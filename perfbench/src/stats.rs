//! Order statistics used by every workload: the median, the tail
//! percentile rule, and quartiles; and the clocks and host-speed
//! calibration the timed end-to-end metrics rest on.

/// The tail percentiles the benchmark may report, highest first. A run
/// reports the highest one its sample supports (see [`tail`]).
pub const TAIL_PERCENTILES: [f64; 4] = [99.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// A tail percentile as reported: which percentile, its value, and the
/// sample it rests on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported (99 when the sample supports it).
    pub percentile: f64,
    /// The sample value at that percentile.
    pub value: f64,
    /// Sample size.
    pub count: usize,
}

/// Nearest-rank percentile of an ascending sample: the value at rank
/// `ceil(p/100 · n)` (1-based). `None` for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// The 1-based nearest rank of percentile `p` in a sample of `n`.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The median of a sample (nearest rank), sorting a copy.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    percentile(&sorted, 50.0).unwrap_or(0.0)
}

/// An ascending copy of a sample.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The highest of [`TAIL_PERCENTILES`] with at least [`MIN_BEYOND`]
/// samples beyond its rank. A sample too small for even the median to
/// qualify reports its maximum, marked as percentile 100.
pub fn tail(sorted: &[f64]) -> Tail {
    let count = sorted.len();
    for p in TAIL_PERCENTILES {
        if count > 0 && count - rank(count, p) >= MIN_BEYOND {
            return Tail {
                percentile: p,
                value: sorted[rank(count, p) - 1],
                count,
            };
        }
    }
    Tail {
        percentile: 100.0,
        value: sorted.last().copied().unwrap_or(0.0),
        count,
    }
}

/// CPU time the calling thread has used, in seconds
/// (`CLOCK_THREAD_CPUTIME_ID`). Unlike wall time it leaves out the time
/// the thread waits for a core.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(3)
}

/// CPU time all threads of this process have used, in seconds
/// (`CLOCK_PROCESS_CPUTIME_ID`): [`thread_cpu_s`] for work that spans
/// threads, such as a server warming its cache on its worker pool.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(2)
}

/// Reads a Linux CPU-time clock, in seconds.
fn cpu_clock_s(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the whole call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// The CPU time [`calibrate`] takes at the reference host speed, in
/// seconds: about what it takes on a 2-vCPU Xeon VM in its usual state.
pub const CALIBRATION_S: f64 = 0.015;

/// Runs the calibration kernel and returns the thread CPU time it took.
/// The kernel is fixed work of the benchmark's own (generate, sort and
/// hash-probe pseudo-random keys), so no change to the program moves it,
/// while a shared host that gives the thread a slower core (an SMT
/// sibling busy, frequency, a neighbour's cache traffic) slows it as it
/// slows the program.
pub fn calibrate() -> f64 {
    let begin = thread_cpu_s();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut keys: Vec<u64> = (0..200_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    keys.sort_unstable();
    let table: std::collections::HashMap<u64, usize> = keys
        .iter()
        .take(60_000)
        .enumerate()
        .map(|(i, k)| (k % 100_003, i))
        .collect();
    let hits = keys
        .iter()
        .take(100_000)
        .filter(|k| table.contains_key(&(*k % 100_003)))
        .count();
    std::hint::black_box(hits);
    thread_cpu_s() - begin
}

/// A time measured between two runs of [`calibrate`], expressed at the
/// reference host speed: scaled by [`CALIBRATION_S`] over the mean of the
/// two calibration times.
pub fn at_reference_speed(time: f64, before: f64, after: f64) -> f64 {
    time * 2.0 * CALIBRATION_S / (before + after)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn median_is_the_nearest_rank_middle() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, ten beyond it.
        let t = tail(&ramp(1000));
        assert_eq!((t.percentile, t.value, t.count), (99.0, 990.0, 1000));
        // 999 samples: p99 has rank 990 and only nine beyond; p90 has 99.
        let t = tail(&ramp(999));
        assert_eq!((t.percentile, t.value, t.count), (90.0, 900.0, 999));
    }

    #[test]
    fn small_samples_fall_back_to_lower_percentiles() {
        // 40 samples: p90 leaves 4 beyond, p75 leaves 10.
        let t = tail(&ramp(40));
        assert_eq!((t.percentile, t.value), (75.0, 30.0));
        // 20 samples: only the median leaves ten beyond.
        let t = tail(&ramp(20));
        assert_eq!((t.percentile, t.value), (50.0, 10.0));
        // 5 samples: nothing qualifies; the maximum is reported.
        let t = tail(&ramp(5));
        assert_eq!((t.percentile, t.value, t.count), (100.0, 5.0, 5));
    }

    fn spin() {
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
    }

    #[test]
    fn thread_cpu_time_counts_work_and_not_sleep() {
        let begin = thread_cpu_s();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let slept = thread_cpu_s() - begin;
        let begin = thread_cpu_s();
        spin();
        let worked = thread_cpu_s() - begin;
        assert!(slept < 0.02, "sleep cost {slept} s of CPU");
        assert!(worked > slept, "work cost {worked} s of CPU");
    }

    #[test]
    fn times_scale_by_the_calibration_around_them() {
        // A host at half the reference speed takes twice as long for both.
        let slow = 2.0 * CALIBRATION_S;
        assert_eq!(at_reference_speed(0.4, slow, slow), 0.2);
        assert_eq!(at_reference_speed(0.3, CALIBRATION_S, CALIBRATION_S), 0.3);
        assert!(calibrate() > 0.0);
    }

    #[test]
    fn process_cpu_time_counts_other_threads() {
        let begin = process_cpu_s();
        let mine = thread_cpu_s();
        std::thread::spawn(spin).join().unwrap();
        let process = process_cpu_s() - begin;
        let mine = thread_cpu_s() - mine;
        assert!(
            process > 2.0 * mine,
            "process {process} s, this thread {mine} s"
        );
    }
}
