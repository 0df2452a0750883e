//! Fixture: a waiver with a reason silences the finding and is reported.
use std::collections::HashMap;

pub fn bump_all(map: &mut HashMap<u32, u32>) {
    // Order-insensitive in-place rewrite.
    // lint: nondeterministic-iter-ok(per-entry rewrite, visit order cannot influence results)
    for v in map.values_mut() {
        *v += 1;
    }
}
