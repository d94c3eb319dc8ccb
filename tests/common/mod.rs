//! Stream helpers shared by the integration tests (each test binary
//! uses a subset of them).
#![allow(dead_code)]

use gogreen::data::FnSink;
use gogreen::prelude::*;

/// The exact emission sequence of one mining run.
pub type Stream = Vec<(Vec<Item>, u64)>;

/// Records every pattern `f` emits into the sink it is handed, in order.
pub fn stream_of(f: &mut dyn FnMut(&mut dyn PatternSink)) -> Stream {
    let mut out: Stream = Vec::new();
    {
        let mut sink = FnSink(|items: &[Item], sup: u64| out.push((items.to_vec(), sup)));
        f(&mut sink);
    }
    out
}

/// The patterns of `stream`, emission order dropped.
pub fn as_set(stream: &Stream) -> PatternSet {
    stream.iter().map(|(items, sup)| Pattern::new(items.clone(), *sup)).collect()
}
