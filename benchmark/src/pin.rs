//! Pins the calling thread, and every thread it then spawns, to one core.
//!
//! A lockstep latency probe has one item in flight, so one thread runnable at
//! a time; where the scheduler happens to put the program's four threads then
//! decides how many of the hand-offs wake a halted core of the guest, ≈60 µs
//! each on the recording host. Left free, the 120-bp probe read 0.12, 0.19 or
//! 0.25 ms from one probe to the next of the same run; on one core it reads
//! 0.107 ms ± 0.5 %. What is left is what the program does to hand one item
//! across: parse, channel, deque, engine, reorder, sink.

/// Bits of the affinity mask this module reads and writes.
const MASK_BITS: usize = 1024;
type Mask = [u64; MASK_BITS / 64];

#[cfg(target_os = "linux")]
extern "C" {
    // Both in the C library `std` already links; pid 0 is the calling thread.
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

#[cfg(target_os = "linux")]
fn allowed() -> Option<Mask> {
    let mut mask: Mask = [0; MASK_BITS / 64];
    // SAFETY: `mask` is a live, writable buffer of the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

#[cfg(target_os = "linux")]
fn apply(mask: &Mask) -> bool {
    // SAFETY: `mask` is a live buffer of the size passed; the call reads it.
    unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn allowed() -> Option<Mask> {
    None
}

#[cfg(not(target_os = "linux"))]
fn apply(_: &Mask) -> bool {
    false
}

/// The mask holding only the lowest core of `mask`; `None` if it is empty.
fn lowest_core(mask: &Mask) -> Option<Mask> {
    let word = mask.iter().position(|&w| w != 0)?;
    let mut one: Mask = [0; MASK_BITS / 64];
    one[word] = 1 << mask[word].trailing_zeros();
    Some(one)
}

/// While it lives, the calling thread and the threads it spawns run on the
/// lowest core the process is allowed; dropping it restores the allowed set.
/// Threads that already exist are not touched.
pub struct OneCore {
    restore: Option<Mask>,
}

impl OneCore {
    /// Pins if the host lets it; otherwise says so once and measures unpinned.
    pub fn pin() -> Self {
        let restore = allowed().filter(|mask| lowest_core(mask).is_some_and(|one| apply(&one)));
        if restore.is_none() {
            static SAID: std::sync::Once = std::sync::Once::new();
            SAID.call_once(|| println!("cannot pin to one core: latency probes run unpinned"));
        }
        Self { restore }
    }
}

impl Drop for OneCore {
    fn drop(&mut self) {
        if let Some(mask) = &self.restore {
            apply(mask);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowest_core_keeps_one_bit() {
        let mut mask: Mask = [0; MASK_BITS / 64];
        assert_eq!(lowest_core(&mask), None);
        mask[1] = 0b1100;
        mask[3] = 1;
        let one = lowest_core(&mask).unwrap();
        assert_eq!(one.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
        assert_eq!(one[1], 0b0100);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pin_narrows_to_one_core_and_drop_restores() {
        let before = allowed().expect("sched_getaffinity");
        {
            let _guard = OneCore::pin();
            let during = allowed().unwrap();
            assert_eq!(during.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
            // A thread spawned while pinned inherits the one core.
            let child = std::thread::spawn(allowed).join().unwrap().unwrap();
            assert_eq!(child, during);
        }
        assert_eq!(allowed().unwrap(), before);
    }
}
