//! Regression test for the explorer's shutdown hand-shake.
//!
//! `explore()` once raised its `stop` flag without holding the core mutex
//! its workers test the flag under, so a worker between that test and its
//! `Condvar::wait` missed the only notification and the exploration never
//! joined. The window is a few instructions wide; thousands of back-to-back
//! explorations hit it within seconds.

use std::sync::mpsc;
use std::time::Duration;

#[test]
fn back_to_back_explorations_never_lose_the_shutdown_wakeup() {
    const RUNS: usize = 3_000;
    let (done, progress) = mpsc::channel();
    // The explorations run on their own thread so that this one can act as
    // the watchdog: a hang fails the test instead of stalling the suite.
    std::thread::spawn(move || {
        for run in 0..RUNS {
            modelcheck::suite::run_smoke("tas", 2);
            if done.send(run).is_err() {
                return;
            }
        }
    });
    for run in 0..RUNS {
        match progress.recv_timeout(Duration::from_secs(30)) {
            Ok(finished) => assert_eq!(finished, run),
            Err(err) => panic!("exploration {run} of {RUNS} never returned: {err}"),
        }
    }
}
