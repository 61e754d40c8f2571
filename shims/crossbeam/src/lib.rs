//! Offline stand-in for `crossbeam`: the bounded MPMC channel subset of
//! `crossbeam::channel` — `crossbeam::channel::bounded` with blocking
//! `send`/`recv` and disconnection when all peers on the other side are
//! dropped. Scoped threads are `std::thread::scope`.

pub mod channel;
