//! How much parallel capacity does this host give two threads?  Standard
//! library only, so it builds anywhere the toolchain does:
//!
//!   rustc -O --edition 2024 -o "${TMPDIR:-/tmp}/two_threads" scripts/two_threads.rs
//!   "${TMPDIR:-/tmp}/two_threads" [iterations]
//!
//! Times one CPU-bound loop (the default 2×10⁸ iterations) alone, twice
//! on two threads at once, and alone again beside a sibling thread that
//! either spins on `spin_loop` (PAUSE on x86) or sleeps in 1 ms steps.
//! Each figure is the median of seven repetitions.  Two independent
//! cores read ≈ 1× for every row; one core shared by two threads reads
//! ≈ 2× for the pair, and a spinning sibling then slows the loop too.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

const REPS: usize = 7;

/// Dependent integer work with no memory traffic.
fn work(iters: u64) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..iters {
        x = x.rotate_left(7) ^ i.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = black_box(x);
    }
    x
}

fn ms(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e3
}

fn median(f: impl FnMut() -> f64) -> f64 {
    let mut v: Vec<f64> = std::iter::repeat_with(f).take(REPS).collect();
    v.sort_by(f64::total_cmp);
    v[REPS / 2]
}

/// The loop's wall time while `sibling` runs on another thread.
fn beside(iters: u64, sibling: fn(&AtomicBool)) -> f64 {
    let stop = AtomicBool::new(false);
    thread::scope(|s| {
        s.spawn(|| sibling(&stop));
        thread::sleep(Duration::from_millis(20));
        let t = ms(|| {
            black_box(work(iters));
        });
        stop.store(true, Ordering::Relaxed);
        t
    })
}

fn main() {
    let iters: u64 = std::env::args()
        .nth(1)
        .map_or(200_000_000, |s| s.parse().expect("iterations: a count"));
    let one = median(|| {
        ms(|| {
            black_box(work(iters));
        })
    });
    let two = median(|| {
        ms(|| {
            thread::scope(|s| {
                s.spawn(|| black_box(work(iters)));
                s.spawn(|| black_box(work(iters)));
            })
        })
    });
    let spin = median(|| {
        beside(iters, |stop| {
            while !stop.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        })
    });
    let sleep = median(|| {
        beside(iters, |stop| {
            while !stop.load(Ordering::Relaxed) {
                thread::sleep(Duration::from_millis(1));
            }
        })
    });
    println!("available_parallelism: {:?}", thread::available_parallelism());
    println!("one thread                 {one:8.1} ms");
    println!("two threads at once        {two:8.1} ms  {:.2}x", two / one);
    println!("beside a spinning sibling  {spin:8.1} ms  {:.2}x", spin / one);
    println!("beside a sleeping sibling  {sleep:8.1} ms  {:.2}x", sleep / one);
}
