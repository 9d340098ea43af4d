//! Fleet-scale tuning: which of the three fleet configurations a proxy
//! runs in.
//!
//! A fleet cloning run pushes hundreds of near-simultaneous clone
//! requests through a sharded proxy tree (origin → per-site shard
//! proxies → per-host client proxies). Three pressure points appear that
//! the single-user scenarios never exercise:
//!
//! * **Upstream round-trips.** Under bursty arrivals a shard proxy sees
//!   many concurrent `FETCH_BLOBS` misses for *different* digests of the
//!   same golden image within a few milliseconds. The per-digest
//!   single-flight already collapses duplicate digests; batching
//!   additionally coalesces *adjacent distinct* digests into one
//!   `FETCH_BLOBS_BATCH` envelope, paying one WAN round-trip (and one
//!   SSH-tunnel per-message cost) for a whole round of chunks.
//! * **Write-back queue growth.** Divergent clone writes that fail
//!   upstream park on the proxy's retry queue; with hundreds of writers
//!   and a saturated WAN the queue is unbounded. A batching proxy caps
//!   it with a deterministic shed-oldest policy surfaced via telemetry.
//! * **One WAN crossing per site.** Sibling shards of a region exchange
//!   digest inventories (gossip) and serve each other's blob misses over
//!   the LAN, so a cold golden image crosses the WAN once per *region*.
//!
//! Every call site picks one of three presets and sets nothing
//! individually, so that is all there is to pick: [`FleetTuning::off`],
//! [`FleetTuning::shard`], [`FleetTuning::region`]. The sizes behind
//! them (envelope size, collection window, queue cap, gossip message
//! size) each have one value in use and are constants next to the code
//! that applies them, in `proxy.rs`; the gossip period is the scenario
//! driver's (`gvfs-bench`). Batching and gossip both need dedup — the
//! digest-keyed reply cache is how batch members receive their payloads,
//! the inventory gossip advertises and the store peer fetches are served
//! from — and are inert without it.
//!
//! Ablation discipline (same contract as
//! [`DedupTuning::off`](crate::cas::DedupTuning::off)): with
//! [`FleetTuning::off`] every data path behaves exactly as before this
//! module existed — byte-for-byte identical reports, identical telemetry
//! registrations.

/// The fleet configuration of one proxy, set by middleware: shard
/// proxies batch toward the origin (and gossip within a region); client
/// proxies usually stay [`FleetTuning::off`] because their upstream hop
/// is a LAN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetTuning {
    batching: bool,
    gossip: bool,
}

impl FleetTuning {
    /// Fleet features fully disabled — no batching, unbounded write-back
    /// retry queue, no gossip: the pre-fleet data paths, byte-for-byte.
    /// This is the default.
    pub fn off() -> Self {
        FleetTuning::default()
    }

    /// A shard proxy in a fleet run: concurrent blob misses coalesce
    /// into `FETCH_BLOBS_BATCH` envelopes and the write-back retry queue
    /// is capped. Gossip stays off — this is the PR 8/9 configuration,
    /// kept byte-for-byte so the committed fleet reports do not move.
    pub fn shard() -> Self {
        FleetTuning {
            batching: true,
            gossip: false,
        }
    }

    /// [`FleetTuning::shard`] plus intra-region digest gossip and peer
    /// serving.
    pub fn region() -> Self {
        FleetTuning {
            batching: true,
            gossip: true,
        }
    }

    /// Whether blob misses are batched upstream (and, with that, the
    /// write-back retry queue capped).
    pub fn batching(&self) -> bool {
        self.batching
    }

    /// Whether sibling shards gossip digests and serve each other.
    pub fn gossip(&self) -> bool {
        self.gossip
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_off() {
        assert_eq!(FleetTuning::default(), FleetTuning::off());
        assert!(!FleetTuning::off().batching());
        assert!(!FleetTuning::off().gossip());
    }

    #[test]
    fn shard_preset_batches_without_gossip() {
        let t = FleetTuning::shard();
        assert!(t.batching());
        assert_ne!(t, FleetTuning::off());
        // The committed PR 8/9 fleet reports were produced under this
        // preset; gossip must stay out of it.
        assert!(!t.gossip());
    }

    #[test]
    fn region_preset_is_shard_plus_gossip() {
        let r = FleetTuning::region();
        assert!(r.gossip());
        // Everything that is not gossip matches the shard preset, so a
        // gossip-ablation diff isolates exactly the gossip effect.
        assert_eq!(r.batching(), FleetTuning::shard().batching());
        assert_ne!(r, FleetTuning::shard());
    }
}
