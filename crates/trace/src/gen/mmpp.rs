//! Markov-modulated workload generator.
//!
//! A two-state (ON/OFF) Markov-modulated process drives the allocation
//! rate: in the ON state allocations arrive back to back, in the OFF state
//! the application computes. This is the classical traffic model for the
//! bursty wireless workloads the paper targets, exposed directly so
//! sensitivity studies can sweep burstiness without touching the
//! application-specific generators.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::event::{BlockId, TraceEvent};
use crate::gen::dist::{LifetimeDist, SizeDist};
use crate::gen::TraceGenerator;
use crate::trace::Trace;

/// Configuration of the Markov-modulated generator.
#[derive(Debug, Clone, PartialEq)]
pub struct MmppConfig {
    /// Total allocations to produce.
    pub allocs: usize,
    /// Probability of leaving the ON state after each allocation.
    pub p_on_to_off: f64,
    /// Probability of leaving the OFF state after each idle tick.
    pub p_off_to_on: f64,
    /// Compute cycles per OFF-state tick.
    pub off_tick_cycles: u32,
    /// Requested-size distribution.
    pub sizes: SizeDist,
    /// Lifetime distribution, in allocation steps.
    pub lifetimes: LifetimeDist,
    /// Application accesses per allocated word.
    pub accesses_per_word: f64,
}

impl MmppConfig {
    /// A bursty default: mean burst length 20 allocations, mean idle
    /// period 8 ticks, bimodal sizes.
    pub fn bursty(allocs: usize) -> Self {
        MmppConfig {
            allocs,
            p_on_to_off: 0.05,
            p_off_to_on: 0.125,
            off_tick_cycles: 500,
            sizes: SizeDist::Choice(vec![(74, 0.6), (1500, 0.25), (256, 0.15)]),
            lifetimes: LifetimeDist::Geometric { mean: 24.0 },
            accesses_per_word: 1.0,
        }
    }
}

impl TraceGenerator for MmppConfig {
    fn generate(&self, seed: u64) -> Trace {
        assert!(
            (0.0..=1.0).contains(&self.p_on_to_off) && (0.0..=1.0).contains(&self.p_off_to_on),
            "transition probabilities must be in [0, 1]"
        );
        assert!(self.p_off_to_on > 0.0, "OFF state must be leavable");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x3A5C_0FF1);
        let mut trace = Trace::new("mmpp");
        let push = |t: &mut Trace, ev: TraceEvent| {
            t.push(ev).expect("generator emits well-formed traces");
        };

        let mut on = true;
        let mut produced = 0usize;
        // (death_step, id, size) min-heap.
        let mut deaths: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u64, u32)>> =
            std::collections::BinaryHeap::new();

        while produced < self.allocs {
            if on {
                let step = produced as u64;
                while let Some(std::cmp::Reverse((when, id, size))) = deaths.peek().copied() {
                    if when > step {
                        break;
                    }
                    deaths.pop();
                    emit_final_access(&mut trace, BlockId(id), size, self.accesses_per_word, push);
                    push(
                        &mut trace,
                        TraceEvent::Free {
                            tid: crate::event::ThreadId::MAIN,
                            id: BlockId(id),
                        },
                    );
                }
                let id = BlockId(step + 1);
                let size = self.sizes.sample(&mut rng);
                push(
                    &mut trace,
                    TraceEvent::Alloc {
                        tid: crate::event::ThreadId::MAIN,
                        id,
                        size,
                    },
                );
                if self.accesses_per_word > 0.0 {
                    let words = u64::from(size / 4 + 1);
                    let writes = (words as f64 * self.accesses_per_word * 0.5) as u32;
                    if writes > 0 {
                        push(
                            &mut trace,
                            TraceEvent::Access {
                                tid: crate::event::ThreadId::MAIN,
                                id,
                                reads: writes,
                                writes,
                            },
                        );
                    }
                }
                let life = self.lifetimes.sample(&mut rng);
                deaths.push(std::cmp::Reverse((step + life, id.0, size)));
                produced += 1;
                if rng.gen::<f64>() < self.p_on_to_off {
                    on = false;
                }
            } else {
                push(
                    &mut trace,
                    TraceEvent::Tick {
                        cycles: self.off_tick_cycles,
                    },
                );
                if rng.gen::<f64>() < self.p_off_to_on {
                    on = true;
                }
            }
        }
        while let Some(std::cmp::Reverse((_, id, size))) = deaths.pop() {
            emit_final_access(&mut trace, BlockId(id), size, self.accesses_per_word, push);
            push(
                &mut trace,
                TraceEvent::Free {
                    tid: crate::event::ThreadId::MAIN,
                    id: BlockId(id),
                },
            );
        }
        trace
    }
}

fn emit_final_access(
    trace: &mut Trace,
    id: BlockId,
    size: u32,
    accesses_per_word: f64,
    push: impl Fn(&mut Trace, TraceEvent),
) {
    if accesses_per_word > 0.0 {
        let reads = (f64::from(size / 4 + 1) * accesses_per_word * 0.25) as u32;
        if reads > 0 {
            push(
                trace,
                TraceEvent::Access {
                    tid: crate::event::ThreadId::MAIN,
                    id,
                    reads,
                    writes: 0,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraceStats;

    #[test]
    fn produces_requested_allocs_and_frees_all() {
        let t = MmppConfig::bursty(1_000).generate(1);
        let s = TraceStats::compute(&t);
        assert_eq!(s.allocs, 1_000);
        assert_eq!(s.frees, 1_000);
        assert_eq!(t.final_live_bytes(), 0);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = MmppConfig::bursty(300).generate(5);
        let b = MmppConfig::bursty(300).generate(5);
        assert_eq!(a.events(), b.events());
    }

    #[test]
    fn burstier_configs_have_more_idle_ticks() {
        let calm = MmppConfig {
            p_on_to_off: 0.01,
            ..MmppConfig::bursty(800)
        };
        let bursty = MmppConfig {
            p_on_to_off: 0.2,
            ..MmppConfig::bursty(800)
        };
        let ticks = |cfg: &MmppConfig| TraceStats::compute(&cfg.generate(3)).tick_cycles;
        assert!(
            ticks(&bursty) > ticks(&calm),
            "more ON→OFF transitions must mean more idle time"
        );
    }

    /// The bursty preset's documented means hold in the generated trace:
    /// ~20 allocations per burst (1 / `p_on_to_off`) and ~8 ticks per
    /// idle period (1 / `p_off_to_on`).
    #[test]
    fn mean_lengths() {
        let cfg = MmppConfig::bursty(20_000);
        let (mut idle_periods, mut ticks, mut in_idle) = (0u32, 0u32, false);
        for ev in cfg.generate(1).events() {
            match ev {
                TraceEvent::Tick { .. } => {
                    ticks += 1;
                    idle_periods += u32::from(!in_idle);
                    in_idle = true;
                }
                TraceEvent::Alloc { .. } => in_idle = false,
                _ => {}
            }
        }
        let mean_burst = cfg.allocs as f64 / f64::from(idle_periods + 1);
        let mean_idle = f64::from(ticks) / f64::from(idle_periods);
        assert!((mean_burst / 20.0 - 1.0).abs() < 0.15, "burst {mean_burst}");
        assert!((mean_idle / 8.0 - 1.0).abs() < 0.15, "idle {mean_idle}");
    }

    #[test]
    #[should_panic(expected = "leavable")]
    fn stuck_off_state_rejected() {
        let cfg = MmppConfig {
            p_off_to_on: 0.0,
            ..MmppConfig::bursty(10)
        };
        let _ = cfg.generate(0);
    }
}
