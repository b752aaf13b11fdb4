//! Content-addressed parameter signatures.
//!
//! Several layers of the workspace need to answer the same question: *is
//! this (network, latch split, solver configuration) triple the one whose
//! result I already have?* The batch engine asks it on `--resume` (may a
//! journal record be replayed?), and the serve layer asks it on every
//! request (may the cache answer instead of a solver?). Both must agree
//! **exactly** — a signature scheme that differed between them would let a
//! server replay a result the batch layer would re-solve, or vice versa —
//! so the derivation lives here and is reused verbatim by both.
//!
//! A signature is a single line of `key=value;` fields:
//!
//! ```text
//! net=8f3a09c1d2e4b567/1/1/2;split=[1];flow=partitioned;trim=true;
//! nl=None;tl=None;ms=Some(2000000)
//! ```
//!
//! The `net=` field is **content-addressed**: a 64-bit FNV-1a hash of the
//! network's canonical BLIF serialization (with the model name blanked), so
//! two files with identical logic hash identically no matter what they are
//! called, while a single edited gate changes the signature. The remaining
//! fields capture the latch split and the full solver configuration — every
//! parameter that can change the solve's result.

use langeq_logic::Network;

use crate::batch::{ConfigSpec, InstanceSpec};

/// 64-bit FNV-1a — tiny, dependency-free, and stable across platforms. Not
/// cryptographic: signatures guard caches against *accidental* staleness,
/// not against adversarial collisions.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The content fingerprint of a network: FNV-1a over its canonical BLIF
/// text with the model name blanked, as 16 hex digits.
///
/// Name-independence is what makes the serve cache *content*-addressed: a
/// benchmark submitted under two different instance names (or file names)
/// still hits the same cache entry.
pub fn network_fingerprint(net: &Network) -> String {
    let mut canonical = net.clone();
    canonical.set_name("-");
    let blif = langeq_logic::blif::write(&canonical);
    format!("{:016x}", fnv1a64(blif.as_bytes()))
}

/// The deterministic signature of one solve: everything that defines its
/// result — the network's content fingerprint and shape, the latch split,
/// and the full solver configuration.
///
/// This is the key of the batch journal's resume guard
/// ([`Cell::signature`](crate::batch::Cell::signature) delegates here) and
/// of the serve layer's result cache.
pub fn cell_signature(instance: &InstanceSpec, config: &ConfigSpec) -> String {
    cell_signature_with(&network_fingerprint(&instance.network), instance, config)
}

/// [`cell_signature`] with the network fingerprint supplied by the caller.
///
/// The fingerprint is the expensive part (a clone + BLIF serialization of
/// the network), and it only depends on the instance — batch execution
/// computes it once per instance and reuses it across that instance's
/// cells instead of re-serializing per (instance × config) pair.
pub fn cell_signature_with(
    fingerprint: &str,
    instance: &InstanceSpec,
    config: &ConfigSpec,
) -> String {
    let net = &instance.network;
    // `reorder=` uses the Debug form so every policy parameter
    // (threshold, growth bound) lands in the signature: a sweep rerun with
    // a different sifting threshold is a different experiment, and the
    // serve cache / batch resume must treat it as one.
    format!(
        "net={}/{}/{}/{};split={:?};flow={};trim={};reorder={:?};nl={:?};tl={:?};ms={:?}",
        fingerprint,
        net.num_inputs(),
        net.num_outputs(),
        net.num_latches(),
        instance.unknown_latches,
        config.kind,
        config.trim_dcn,
        config.reorder,
        config.limits.node_limit,
        config.limits.time_limit,
        config.limits.max_states,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{SolverKind, SolverLimits};
    use langeq_logic::gen;
    use std::time::Duration;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fingerprint_ignores_the_network_name() {
        let a = gen::counter("left", 4);
        let b = gen::counter("right", 4);
        assert_eq!(network_fingerprint(&a), network_fingerprint(&b));
        let c = gen::counter("c", 5);
        assert_ne!(network_fingerprint(&a), network_fingerprint(&c));
    }

    #[test]
    fn signature_tracks_every_result_defining_parameter() {
        let base = || {
            (
                InstanceSpec::new("i", gen::figure3(), vec![1]),
                ConfigSpec::new("c", SolverKind::Partitioned),
            )
        };
        let (i0, c0) = base();
        let sig0 = cell_signature(&i0, &c0);

        // Instance / config *names* do not matter…
        let (mut i1, mut c1) = base();
        i1.name = "other".into();
        c1.name = "other".into();
        assert_eq!(cell_signature(&i1, &c1), sig0);

        // …but the split, flow, trimming, and limits all do.
        let (mut i2, c2) = base();
        i2.unknown_latches = vec![0];
        assert_ne!(cell_signature(&i2, &c2), sig0);

        let (i3, mut c3) = base();
        c3.kind = SolverKind::Monolithic;
        assert_ne!(cell_signature(&i3, &c3), sig0);

        let (i4, c4) = base();
        let c4 = c4.trim_dcn(false);
        assert_ne!(cell_signature(&i4, &c4), sig0);

        let (i5, c5) = base();
        let c5 = c5.limits(SolverLimits {
            time_limit: Some(Duration::from_secs(60)),
            ..SolverLimits::default()
        });
        assert_ne!(cell_signature(&i5, &c5), sig0);

        // Reorder-on and reorder-off must never share a signature (the
        // serve cache and `--resume` would otherwise conflate them), and
        // different sifting thresholds are distinct experiments too.
        let (i7, c7) = base();
        let c7 = c7.reorder(langeq_bdd::ReorderPolicy::sifting());
        let sig7 = cell_signature(&i7, &c7);
        assert_ne!(sig7, sig0);
        let (i8, c8) = base();
        let c8 = c8.reorder(langeq_bdd::ReorderPolicy::Sifting {
            auto_threshold: 1234,
            max_growth: 1.2,
        });
        assert_ne!(cell_signature(&i8, &c8), sig7);

        // And the network content, independent of its name.
        let (mut i6, c6) = base();
        i6.network = gen::counter("fig3", 4);
        assert_ne!(cell_signature(&i6, &c6), sig0);
    }

    /// Purely-performance knobs must NEVER enter the signature: a fleet
    /// cache or journal keyed on an evaluation-strategy setting would miss
    /// on every request whose tuning — not whose *experiment* — differs.
    /// This is the regression guard for that contract: every
    /// [`ImageOptions`] field produces byte-identical signatures.
    #[test]
    fn signature_excludes_performance_knobs() {
        let base = || {
            (
                InstanceSpec::new("i", gen::figure3(), vec![1]),
                ConfigSpec::new("c", SolverKind::Partitioned),
            )
        };
        let (i0, c0) = base();
        let sig0 = cell_signature(&i0, &c0);

        // cluster_threshold and the quantification schedule change the
        // *evaluation order*, never the computed result — the signature
        // deliberately excludes ImageOptions wholesale.
        let (i, mut c) = base();
        c.image.cluster_threshold = 7;
        c.image.schedule = langeq_image::QuantSchedule::Late;
        assert_eq!(cell_signature(&i, &c), sig0);
    }
}
