//! Seeded input generators. Every request stream and grid is a pure
//! function of `(workload, seed)` and of the committed flows' slot
//! tables; the program under test receives only the generated lines.
//!
//! The generator is the benchmark's own SplitMix64, not the workspace's
//! `SimRng`: a later change to the simulator's mixing function must not
//! change the benchmark's inputs, or parent and child would be measured
//! on different work.

use ipass_moe::SlotKind;
use ipass_report::json::escape;

/// Distinct requests in one `serve_query` stream (cycled while timing).
pub const QUERY_STREAM_LEN: usize = 2048;
/// Distinct requests in one `serve_mc` stream (cycled while timing).
pub const MC_STREAM_LEN: usize = 256;
/// Monte Carlo unit counts of `serve_mc`. 4 096 and 16 384 split into
/// whole 64-unit lanes; 20 000 and 24 000 leave a scalar tail in every
/// executor chunk (`chunk_size(20 000) = 312 = 4·64 + 56`).
pub const MC_UNIT_SET: [u64; 4] = [4_096, 16_384, 20_000, 24_000];
/// Side of the `explore_refine` grid (cost scale × test coverage).
pub const GRID_SIDE: usize = 128;

/// Stream tags: one independent generator per workload.
const QUERY_TAG: u64 = 0x5155_4552_5900_0001;
const MC_TAG: u64 = 0x4d43_0000_0000_0002;
const GRID_TAG: u64 = 0x4752_4944_0000_0003;

/// SplitMix64 over `seed ^ tag`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The generator of stream `tag` under `seed`.
    pub fn new(seed: u64, tag: u64) -> Rng {
        Rng(seed ^ tag)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `cells` repeated to `len` entries, then shuffled (Fisher–Yates).
    /// Every seed gets the same mix, so the work per pass over a
    /// stream does not vary with the seed; only the order and the
    /// per-request details do.
    pub fn balanced<T: Copy>(&mut self, cells: &[T], len: usize) -> Vec<T> {
        let mut out: Vec<T> = cells.iter().copied().cycle().take(len).collect();
        for i in (1..len).rev() {
            out.swap(i, self.below(i + 1));
        }
        out
    }

    /// Uniform in `[lo, hi)`, rounded to four decimals so the wire form
    /// and the parsed value agree exactly.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        ((lo + u * (hi - lo)) * 1e4).round() / 1e4
    }
}

/// A registered flow's name and its patchable slots, in program order.
#[derive(Debug, Clone)]
pub struct FlowSlots {
    /// Registered name (`solution1`..`solution4`).
    pub name: String,
    /// `(slot, kind)` pairs from `CompiledFlow::slots`.
    pub slots: Vec<(String, SlotKind)>,
}

/// The `serve_query` stream: every flow gets as many analyze as patch
/// requests, in seeded order. A patch carries 1–3 directives on
/// distinct slots (a cost slot is scaled, a yield or coverage slot is
/// set) and, half the time, a volume override.
pub fn query_stream(flows: &[FlowSlots], seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed, QUERY_TAG);
    let cells: Vec<(usize, bool)> = (0..flows.len())
        .flat_map(|f| [(f, false), (f, true)])
        .collect();
    rng.balanced(&cells, QUERY_STREAM_LEN)
        .into_iter()
        .map(|(f, patch)| {
            let flow = &flows[f];
            if !patch {
                return format!(r#"{{"verb":"analyze","flow":"{}"}}"#, flow.name);
            }
            let count = 1 + rng.below(3).min(flow.slots.len() - 1);
            let mut picked: Vec<usize> = Vec::with_capacity(count);
            while picked.len() < count {
                let slot = rng.below(flow.slots.len());
                if !picked.contains(&slot) {
                    picked.push(slot);
                }
            }
            let directives: Vec<String> = picked
                .iter()
                .map(|&i| {
                    let (slot, kind) = &flow.slots[i];
                    let slot = escape(slot);
                    match kind {
                        SlotKind::Cost => format!(
                            r#"{{"scale":"cost","slot":"{slot}","factor":{}}}"#,
                            rng.uniform(0.5, 1.5)
                        ),
                        SlotKind::Yield => format!(
                            r#"{{"set":"yield","slot":"{slot}","value":{}}}"#,
                            rng.uniform(0.9, 0.999)
                        ),
                        SlotKind::Coverage => format!(
                            r#"{{"set":"coverage","slot":"{slot}","value":{}}}"#,
                            rng.uniform(0.85, 0.999)
                        ),
                    }
                })
                .collect();
            let volume = match rng.below(2) {
                0 => String::new(),
                _ => format!(r#","volume":{}"#, 1_000 + rng.below(99_001)),
            };
            format!(
                r#"{{"verb":"patch","flow":"{}","directives":[{}]{volume}}}"#,
                flow.name,
                directives.join(",")
            )
        })
        .collect()
}

/// The `serve_mc` stream: `mc` requests, every (flow, unit count) pair
/// equally often, in seeded order, with seeded 32-bit client seeds.
pub fn mc_stream(flows: &[&str], seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed, MC_TAG);
    let cells: Vec<(usize, u64)> = (0..flows.len())
        .flat_map(|f| MC_UNIT_SET.map(|units| (f, units)))
        .collect();
    rng.balanced(&cells, MC_STREAM_LEN)
        .into_iter()
        .map(|(f, units)| {
            let flow = &flows[f];
            let client_seed = rng.next_u64() >> 32;
            format!(r#"{{"verb":"mc","flow":"{flow}","units":{units},"seed":{client_seed}}}"#)
        })
        .collect()
}

/// The `explore_refine` design space: substrate cost scale × functional
/// test coverage on a [`GRID_SIDE`]² grid, plus the refine base seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    /// Substrate cost-scale range.
    pub cost_scale: (f64, f64),
    /// Functional-test coverage range.
    pub coverage: (f64, f64),
    /// Points per axis.
    pub side: usize,
    /// `RefineOptions::seed`.
    pub refine_seed: u64,
}

/// The seeded `explore_refine` grid.
pub fn explore_grid(seed: u64) -> Grid {
    let mut rng = Rng::new(seed, GRID_TAG);
    Grid {
        cost_scale: (rng.uniform(0.4, 0.7), rng.uniform(1.3, 1.6)),
        coverage: (rng.uniform(0.85, 0.92), rng.uniform(0.99, 0.999)),
        side: GRID_SIDE,
        refine_seed: rng.next_u64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{flow_slots, registry};
    use ipass_serve::{parse_request, Request};

    fn flows() -> Vec<FlowSlots> {
        flow_slots(&registry().expect("the paper solutions build"))
    }

    fn mc(seed: u64) -> Vec<String> {
        let registry = registry().expect("the paper solutions build");
        mc_stream(&registry.names(), seed)
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        let flows = flows();
        assert_eq!(query_stream(&flows, 7), query_stream(&flows, 7));
        assert_eq!(mc(7), mc(7));
        assert_eq!(explore_grid(7), explore_grid(7));
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        let flows = flows();
        assert_ne!(query_stream(&flows, 7), query_stream(&flows, 8));
        assert_ne!(mc(7), mc(8));
        assert_ne!(explore_grid(7), explore_grid(8));
    }

    #[test]
    fn every_seed_gets_the_same_mix() {
        let stream = query_stream(&flows(), 3);
        let patches = stream.iter().filter(|l| l.contains(r#""patch""#)).count();
        assert_eq!(patches, QUERY_STREAM_LEN / 2);
        let mc = mc(3);
        for units in MC_UNIT_SET {
            let count = mc
                .iter()
                .filter(|l| l.contains(&format!(r#""units":{units},"#)))
                .count();
            assert_eq!(count, MC_STREAM_LEN / MC_UNIT_SET.len());
        }
    }

    #[test]
    fn every_generated_directive_is_accepted_by_flow_patch() {
        let registry = registry().expect("the paper solutions build");
        for seed in [1, 2, 3] {
            for line in query_stream(&flow_slots(&registry), seed) {
                match parse_request(&line).expect("generated lines parse") {
                    Request::Analyze { .. } => {}
                    Request::Patch {
                        flow,
                        directives,
                        volume,
                    } => {
                        let compiled = registry.compiled(&flow).expect("registered");
                        let mut patch = compiled.patch();
                        for d in &directives {
                            patch.apply(d).unwrap_or_else(|e| panic!("{line}: {e}"));
                        }
                        if let Some(v) = volume {
                            patch.set_volume(v);
                        }
                        patch.analyze().unwrap_or_else(|e| panic!("{line}: {e}"));
                        assert!(patch.duplicate_slots().is_empty(), "{line}");
                    }
                    other => panic!("unexpected verb in the query stream: {other:?}"),
                }
            }
        }
    }
}
