//! Next-access precomputation: the oracle behind Belady's MIN
//! (`cdn_policies::replacement::BeladyPolicy`) and behind the ZRO / P-ZRO
//! labels ([`crate::label::label_outcomes`]).

use cdn_cache::{FxHashMap, ObjectId, Request};

/// Sentinel "no further access" value in a next-access table.
pub const NO_NEXT: u64 = u64::MAX;

/// For each request index `i`, the index of the next request to the same
/// object, or [`NO_NEXT`]. O(n) time, one backward pass.
pub fn next_access_table(trace: &[Request]) -> Vec<u64> {
    let mut next: Vec<u64> = vec![NO_NEXT; trace.len()];
    let mut last_seen: FxHashMap<ObjectId, u64> = FxHashMap::default();
    for (i, r) in trace.iter().enumerate().rev() {
        if let Some(&j) = last_seen.get(&r.id) {
            next[i] = j;
        }
        last_seen.insert(r.id, i as u64);
    }
    next
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdn_cache::object::micro_trace;

    #[test]
    fn next_access_table_basics() {
        let t = micro_trace(&[(1, 1), (2, 1), (1, 1), (1, 1)]);
        let n = next_access_table(&t);
        assert_eq!(n, vec![2, NO_NEXT, 3, NO_NEXT]);
    }
}
