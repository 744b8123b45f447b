//! `schedstore` — persistent store of v2-tuned fused schedules.
//!
//! The two-tier autotuner (`bench`'s `tune` binary) is the expensive way to
//! find a schedule: Tier 2 searches the emitter-parameter grid and Tier 1
//! runs island-model annealing on each survivor. Its winners are worth
//! keeping — a serve-time [`crate::plan::Planner`] should *replay* them,
//! not re-search. This module is the handoff point: the tuner
//! [`ScheduleStore::save`]s one [`StoredSchedule`] per
//! `(device, FusedConfig)` into any [`PlanStorage`] backend, and plan
//! building [`ScheduleStore::load`]s it back, digest-verified.
//!
//! **Keying.** [`ScheduleStore::key`] content-addresses an entry by the
//! timing-model version, the device, and the *complete* `FusedConfig`
//! (including the Tier-2 knobs `bk`, `filter_ldg`, `pipeline_depth`), so a
//! schedule tuned for one emitted module can never be replayed against a
//! different one. Plans fold [`ScheduleStore::fingerprint`] — a digest of
//! the stored entries a build would consult — into their own plan key, so
//! publishing a new tuned schedule automatically invalidates every cached
//! plan that should now pick it up.
//!
//! Entries use the same exact line-based text convention as
//! `plan`: integers in decimal, the cubin as hex, round-trip byte-exact.

use gpusim::digest::module_hex;
use gpusim::{DeviceSpec, Digest};
use kernels::FusedConfig;
use sass::Module;

use crate::plan::PlanStorage;

/// Bumped whenever the entry text format changes.
pub const SCHED_FORMAT_VERSION: u32 = 1;

/// One persisted autotuner result: the tuned module plus the provenance a
/// replayer needs to verify and report it.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredSchedule {
    /// Winning Tier-2 emitter point, `EmitterParams::label` form
    /// (e.g. `bk64-bn32-bc8-w64-p2`).
    pub params: String,
    /// `module_digest` of the tuned module; checked on every load.
    pub schedule_digest: String,
    /// The assembled tuned module (`Module::to_cubin`).
    pub cubin: Vec<u8>,
    /// Device-model cycles of the hand schedule at this shape.
    pub hand_cycles: u64,
    /// Device-model cycles of the tuned schedule.
    pub tuned_cycles: u64,
    /// Objective evaluations the search spent end to end.
    pub evals: u64,
}

impl StoredSchedule {
    /// Serialize to the line-based text format.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("sched v{SCHED_FORMAT_VERSION}\n"));
        s.push_str(&format!("params {}\n", self.params));
        s.push_str(&format!("digest {}\n", self.schedule_digest));
        s.push_str(&format!("hand_cycles {}\n", self.hand_cycles));
        s.push_str(&format!("tuned_cycles {}\n", self.tuned_cycles));
        s.push_str(&format!("evals {}\n", self.evals));
        s.push_str(&format!("cubin {}\n", crate::hex::encode(&self.cubin)));
        s
    }

    /// Parse [`StoredSchedule::to_text`] output; `None` on any malformation
    /// or version mismatch (callers treat that as a store miss).
    pub fn from_text(text: &str) -> Option<StoredSchedule> {
        let mut lines = text.lines();
        let version: u32 = lines.next()?.strip_prefix("sched v")?.parse().ok()?;
        if version != SCHED_FORMAT_VERSION {
            return None;
        }
        let mut sched = StoredSchedule {
            params: String::new(),
            schedule_digest: String::new(),
            cubin: Vec::new(),
            hand_cycles: 0,
            tuned_cycles: 0,
            evals: 0,
        };
        for line in lines {
            let (key, rest) = line.split_once(' ')?;
            match key {
                "params" => sched.params = rest.to_string(),
                "digest" => sched.schedule_digest = rest.to_string(),
                "hand_cycles" => sched.hand_cycles = rest.parse().ok()?,
                "tuned_cycles" => sched.tuned_cycles = rest.parse().ok()?,
                "evals" => sched.evals = rest.parse().ok()?,
                "cubin" => sched.cubin = crate::hex::decode(rest)?,
                _ => return None,
            }
        }
        if sched.schedule_digest.is_empty() || sched.cubin.is_empty() {
            return None;
        }
        Some(sched)
    }

    /// Decode the cubin and check it against the recorded digest.
    pub fn module(&self) -> Option<Module> {
        let m = Module::from_cubin(&self.cubin).ok()?;
        (module_hex(&m) == self.schedule_digest).then_some(m)
    }
}

/// Digest-keyed view of tuned schedules over any [`PlanStorage`].
pub struct ScheduleStore<'a> {
    storage: &'a dyn PlanStorage,
}

impl<'a> ScheduleStore<'a> {
    pub fn new(storage: &'a dyn PlanStorage) -> Self {
        ScheduleStore { storage }
    }

    /// Content address of the schedule for `cfg` on `device`.
    ///
    /// The full config is digested through its `Debug` form so *every*
    /// emitter knob participates — adding a knob to `FusedConfig` moves all
    /// addresses, which is exactly the staleness behavior we want.
    pub fn key(device: &DeviceSpec, cfg: &FusedConfig) -> String {
        let mut d = Digest::new();
        d.str("tune/sched/v2").u32(gpusim::TIMING_MODEL_VERSION);
        device.digest_into(&mut d);
        d.str(&format!("{cfg:?}"));
        d.hex()
    }

    /// Load and verify the entry for `(device, cfg)`. A present-but-corrupt
    /// entry (bad text, digest mismatch) is dropped and reported as absent.
    pub fn load(&self, device: &DeviceSpec, cfg: &FusedConfig) -> Option<StoredSchedule> {
        let key = Self::key(device, cfg);
        let sched = self
            .storage
            .load(&key)
            .as_deref()
            .and_then(StoredSchedule::from_text);
        match sched {
            Some(s) if s.module().is_some() => Some(s),
            Some(_) => {
                self.storage.remove(&key);
                None
            }
            None => None,
        }
    }

    /// Persist `sched` as the tuned schedule for `(device, cfg)`.
    pub fn save(&self, device: &DeviceSpec, cfg: &FusedConfig, sched: &StoredSchedule) {
        self.storage
            .store(&Self::key(device, cfg), &sched.to_text());
    }

    /// Fingerprint of the store contents a plan build over `cfgs` would
    /// consult: the digest of each entry's text (or `none`), in order.
    /// Folding this into a plan key makes cached plans rebuild whenever a
    /// relevant tuned schedule appears, changes, or disappears.
    pub fn fingerprint(&self, device: &DeviceSpec, cfgs: &[FusedConfig]) -> String {
        let mut d = Digest::new();
        d.str("tune/sched-fp/v1");
        for cfg in cfgs {
            match self.storage.load(&Self::key(device, cfg)) {
                Some(text) => d.str(&text),
                None => d.str("none"),
            };
        }
        d.hex()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::MemStorage;
    use kernels::FusedKernel;

    fn entry() -> (FusedConfig, StoredSchedule) {
        let cfg = FusedConfig::ours(32, 8, 8, 32, 64);
        let kern = FusedKernel::emit(cfg);
        let sched = StoredSchedule {
            params: "bk64-bn32-bc8-w64-p2".into(),
            schedule_digest: module_hex(&kern.module),
            cubin: kern.module.to_cubin(),
            hand_cycles: 31018,
            tuned_cycles: 30269,
            evals: 400,
        };
        (cfg, sched)
    }

    #[test]
    fn text_round_trip_and_verify() {
        let (_, sched) = entry();
        let t = sched.to_text();
        let rt = StoredSchedule::from_text(&t).unwrap();
        assert_eq!(rt, sched);
        assert_eq!(rt.to_text(), t);
        assert!(rt.module().is_some());
        let mut bad = sched.clone();
        bad.schedule_digest = format!("{:032x}", 0);
        assert!(bad.module().is_none());
    }

    #[test]
    fn store_load_and_corruption() {
        let mem = MemStorage::new();
        let dev = gpusim::DeviceSpec::v100();
        let (cfg, sched) = entry();
        let store = ScheduleStore::new(&mem);
        assert!(store.load(&dev, &cfg).is_none());
        store.save(&dev, &cfg, &sched);
        assert_eq!(store.load(&dev, &cfg).unwrap(), sched);
        // A different config is a different address.
        let mut other = cfg;
        other.pipeline_depth = 1;
        assert!(store.load(&dev, &other).is_none());
        // Tampered digest: entry is dropped on load.
        let mut bad = sched.clone();
        bad.schedule_digest = format!("{:032x}", 0);
        mem.store(&ScheduleStore::key(&dev, &cfg), &bad.to_text());
        assert!(store.load(&dev, &cfg).is_none());
        assert!(mem.load(&ScheduleStore::key(&dev, &cfg)).is_none());
    }

    /// A cubin line holding a multi-byte character (or any non-hex text)
    /// reads as a miss, never a panic on a split character.
    #[test]
    fn non_hex_cubin_line_is_a_miss() {
        let mem = MemStorage::new();
        let dev = gpusim::DeviceSpec::v100();
        let (cfg, sched) = entry();
        let t = sched.to_text();
        let hex = crate::hex::encode(&sched.cubin);
        for bad in ["é", "aé", "+f"] {
            let corrupt = t.replacen(&hex[..bad.len()], bad, 1);
            assert_ne!(corrupt, t);
            assert!(StoredSchedule::from_text(&corrupt).is_none(), "{bad:?}");
            mem.store(&ScheduleStore::key(&dev, &cfg), &corrupt);
            assert!(ScheduleStore::new(&mem).load(&dev, &cfg).is_none());
        }
    }

    #[test]
    fn fingerprint_tracks_store_contents() {
        let mem = MemStorage::new();
        let dev = gpusim::DeviceSpec::v100();
        let (cfg, sched) = entry();
        let store = ScheduleStore::new(&mem);
        let empty = store.fingerprint(&dev, &[cfg]);
        store.save(&dev, &cfg, &sched);
        let full = store.fingerprint(&dev, &[cfg]);
        assert_ne!(empty, full);
        // Deterministic for fixed contents.
        assert_eq!(store.fingerprint(&dev, &[cfg]), full);
    }
}
