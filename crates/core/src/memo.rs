//! Exact per-pose memoization of CECDU answers within one trace replay.
//!
//! A CECDU answers a pose query as a pure function of (pose, octree,
//! configuration) — [`CecduSim::check_pose`] takes `&self` — and MPNet's
//! replanning, final feasibility checks and shortcutting re-validate the
//! same edges, so a replayed trace asks for many poses more than once.
//! `MemoCecdu` returns the recorded `(colliding, latency, ops)` for a
//! repeated pose instead of re-running FK, quantization and the OOCD walks.
//! SAS still dispatches and bills every query, so every modeled number is
//! bit-identical to an unmemoized replay.
//!
//! The key is the pose's exact `f32` bit patterns in a fixed-width array
//! ([`PoseKey`]), hashed with [`FnvHasher`]; both are shared with the bench
//! crate's cross-configuration replay memo.

use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use mp_robot::JointConfig;
use mp_sim::OpCounter;

use crate::cecdu::CecduSim;
use crate::sas::{CduModel, CduResponse};

/// Widest pose a [`PoseKey`] holds (Baxter has 7 joints). Wider poses are
/// not memoized.
pub const MAX_KEY_DOF: usize = 8;

/// A pose's DOF and exact joint bit patterns, padded to a fixed width so
/// building and hashing a key allocates nothing. Two poses share a key
/// exactly when they have the same DOF and bit-identical joint values.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PoseKey {
    dof: u8,
    bits: [u32; MAX_KEY_DOF],
}

impl PoseKey {
    /// The key of `pose`, or `None` if it has more than [`MAX_KEY_DOF`]
    /// joints.
    pub fn of(pose: &JointConfig) -> Option<PoseKey> {
        let joints = pose.as_slice();
        if joints.len() > MAX_KEY_DOF {
            return None;
        }
        let mut bits = [0u32; MAX_KEY_DOF];
        for (b, v) in bits.iter_mut().zip(joints) {
            *b = v.to_bits();
        }
        Some(PoseKey {
            dof: joints.len() as u8,
            bits,
        })
    }
}

/// FNV-1a over the key bytes. The keys are short fixed-size integer tuples
/// queried millions of times; FNV beats the default SipHash severalfold
/// there. It does not resist crafted collisions: a trace built to collide
/// can slow its own replay, never change its answers.
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> FnvHasher {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        self.0 = h;
    }
}

/// `BuildHasher` for maps keyed on [`PoseKey`].
pub type FnvBuildHasher = BuildHasherDefault<FnvHasher>;

/// A [`CduResponse`] of one CECDU pose query, packed into 16 bytes.
///
/// A CECDU query's ops are its multiplications, node reads and box tests,
/// one big-SRAM read per link checked and one completed query; every other
/// op class is zero. [`Packed::pack`] refuses any response outside that
/// shape or range, so [`Packed::unpack`] always rebuilds it exactly.
#[derive(Clone, Copy, Debug)]
struct Packed {
    mults: u32,
    sram_reads: u32,
    box_tests: u32,
    latency: u16,
    links: u8,
    colliding: bool,
}

impl Packed {
    fn pack(r: &CduResponse) -> Option<Packed> {
        let o = &r.ops;
        if o.cd_queries != 1 || o.adds != 0 || o.dram_bytes != 0 || o.mlp_macs != 0 {
            return None;
        }
        Some(Packed {
            mults: o.mults.try_into().ok()?,
            sram_reads: o.sram_reads.try_into().ok()?,
            box_tests: o.box_tests.try_into().ok()?,
            latency: r.latency.try_into().ok()?,
            links: o.big_sram_reads.try_into().ok()?,
            colliding: r.colliding,
        })
    }

    fn unpack(self) -> CduResponse {
        CduResponse {
            colliding: self.colliding,
            latency: u64::from(self.latency),
            ops: OpCounter {
                mults: u64::from(self.mults),
                sram_reads: u64::from(self.sram_reads),
                box_tests: u64::from(self.box_tests),
                big_sram_reads: u64::from(self.links),
                cd_queries: 1,
                ..OpCounter::default()
            },
        }
    }
}

type PoseMap = HashMap<PoseKey, Packed, FnvBuildHasher>;

thread_local! {
    // The replay memo's map, kept per thread so its capacity is reused
    // across replays (like the CECDU's `FK_SCRATCH`); entries never
    // outlive one `MemoCecdu`.
    static REPLAY_MEMO: Cell<PoseMap> = Cell::default();
}

/// A CECDU as a [`CduModel`] that answers each repeated pose from a memo.
///
/// Each `MemoCecdu` starts empty, so no answer survives from one replay to
/// the next; only the map's capacity is reused. A hit still records the
/// process-wide `mp_collision::metrics` pose counters the CECDU would have
/// recorded, so those totals match an unmemoized replay too.
pub(crate) struct MemoCecdu<'a> {
    sim: &'a CecduSim,
    map: PoseMap,
    hits: u64,
}

impl<'a> MemoCecdu<'a> {
    /// An empty memo over `sim`, reusing this thread's map capacity.
    pub(crate) fn new(sim: &'a CecduSim) -> MemoCecdu<'a> {
        let mut map = REPLAY_MEMO.with(Cell::take);
        map.clear();
        MemoCecdu { sim, map, hits: 0 }
    }

    /// Queries answered from the memo so far.
    pub(crate) fn hits(&self) -> u64 {
        self.hits
    }
}

impl Drop for MemoCecdu<'_> {
    fn drop(&mut self) {
        // Hand the capacity back for the next replay on this thread; during
        // thread teardown the map is simply freed.
        let map = std::mem::take(&mut self.map);
        let _ = REPLAY_MEMO.try_with(|m| m.set(map));
    }
}

impl CduModel for MemoCecdu<'_> {
    fn query(&mut self, pose: &JointConfig) -> CduResponse {
        let key = PoseKey::of(pose);
        if let Some(p) = key.and_then(|k| self.map.get(&k)) {
            let r = p.unpack();
            self.hits += 1;
            crate::cecdu::record_pose_metrics(&r.ops);
            return r;
        }
        let out = self.sim.check_pose(pose);
        let r = CduResponse {
            colliding: out.colliding,
            latency: out.cycles,
            ops: out.ops,
        };
        if let (Some(k), Some(p)) = (key, Packed::pack(&r)) {
            self.map.insert(k, p);
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_compare_exact_bits() {
        let a = PoseKey::of(&JointConfig::new(vec![0.0, 1.0])).unwrap();
        let b = PoseKey::of(&JointConfig::new(vec![-0.0, 1.0])).unwrap();
        let c = PoseKey::of(&JointConfig::new(vec![0.0, 1.0, 0.0])).unwrap();
        assert_ne!(a, b, "-0.0 and 0.0 differ in bits");
        assert_ne!(a, c, "zero padding must not alias a wider pose");
        assert_eq!(a, PoseKey::of(&JointConfig::new(vec![0.0, 1.0])).unwrap());
        assert!(PoseKey::of(&JointConfig::zeros(MAX_KEY_DOF + 1)).is_none());
    }

    #[test]
    fn packing_round_trips_or_refuses() {
        let r = CduResponse {
            colliding: true,
            latency: 77,
            ops: OpCounter {
                mults: 1234,
                sram_reads: 56,
                box_tests: 78,
                big_sram_reads: 3,
                cd_queries: 1,
                ..OpCounter::default()
            },
        };
        assert_eq!(Packed::pack(&r).unwrap().unpack(), r);
        let wide = CduResponse {
            latency: u64::from(u16::MAX) + 1,
            ..r
        };
        assert!(Packed::pack(&wide).is_none());
        let mut odd = r;
        odd.ops.adds = 1;
        assert!(Packed::pack(&odd).is_none());
    }
}
