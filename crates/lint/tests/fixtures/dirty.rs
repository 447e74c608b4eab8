// Fixture: one positive case per lint, and one per allocation form in the
// hot kernel. The engine tests lint this file as `crates/sim/src/dirty.rs`
// with `hot_kernel` declared hot. Not compiled —
// nothing under tests/fixtures/ is a test target, and lint.toml excludes the
// directory from the workspace scan.

use std::collections::HashMap;

pub fn wall() -> u64 {
    let t = std::time::Instant::now();
    t.elapsed().as_nanos() as u64
}

pub struct Table {
    pub by_name: HashMap<String, u32>,
}

pub fn dump(t: &Table) -> Vec<u32> {
    let mut out = Vec::new();
    for v in t.by_name.values() {
        out.push(*v);
    }
    out
}

pub fn must(v: Option<u32>) -> u32 {
    v.unwrap()
}

pub fn roll() -> u32 {
    let mut r = thread_rng();
    r.next_u32()
}

pub fn hot_kernel(n: usize) -> Vec<f64> {
    let mut v = Vec::with_capacity(n);
    let scratch = Vec::<u8>::with_capacity(n);
    let shared = std::rc::Rc::new(scratch);
    v.resize(n + shared.len(), 0.0);
    v
}

pub fn fan_out() {
    std::thread::spawn(|| {});
}

// graf-lint: allow(unwrap)
pub fn annotated_badly() {}
