//! Binary **automaton snapshots**: the structure of an [`Automaton`]
//! (states, names, acceptance, initial state, transition endpoints)
//! together with all of its transition-label BDDs serialized through
//! [`langeq_bdd::snapshot`] — the form in which a solved *strategy* (the
//! CSF automaton of a language-equation solution) ships between fleet
//! daemons.
//!
//! ## Wire format (version 1, all integers little-endian)
//!
//! ```text
//! magic     4 bytes  b"LQAS"
//! version   u32      1
//! alphabet  u32 count, then count × u32 variable ids
//! nstates   u32
//! initial   u32      u32::MAX when unset
//! states    nstates × (accepting u8, name-len u32, name bytes)
//! ntrans    u32
//! trans     ntrans × (from u32, to u32)
//! blob      u64 byte length, then a [`langeq_bdd::snapshot`] byte string
//!           whose roots are the transition labels, in transition order
//! checksum  u64      FNV-1a over every preceding byte
//! ```
//!
//! Loading builds a **fresh manager** by default ([`load`]), or re-interns
//! into a caller-provided one ([`load_into`]) — variable ids are preserved,
//! so labels land on the same [`VarId`]s they were saved under. All
//! validation (checksum, id ranges, UTF-8 names) happens before the
//! automaton is assembled; a corrupt snapshot is an error, never a wrong
//! automaton.

use langeq_bdd::{snapshot as bdd_snapshot, BddManager, VarId};

pub use langeq_bdd::snapshot::SnapshotError;

use crate::{Automaton, StateId};

/// Magic prefix of an automaton snapshot.
pub const MAGIC: [u8; 4] = *b"LQAS";

/// Automaton snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// 64-bit FNV-1a (same derivation as the BDD snapshot checksum).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Serializes `aut` into a snapshot byte string.
pub fn save(aut: &Automaton) -> Vec<u8> {
    let mut labels = Vec::new();
    let mut endpoints: Vec<(u32, u32)> = Vec::new();
    for from in 0..aut.num_states() as u32 {
        for (label, to) in aut.transitions_from(StateId(from)) {
            labels.push(label.clone());
            endpoints.push((from, to.0));
        }
    }
    let blob = bdd_snapshot::save(aut.manager(), &labels);

    let mut out = Vec::with_capacity(64 + blob.len());
    out.extend_from_slice(&MAGIC);
    push_u32(&mut out, SNAPSHOT_VERSION);
    push_u32(&mut out, aut.alphabet().len() as u32);
    for v in aut.alphabet() {
        push_u32(&mut out, v.0);
    }
    push_u32(&mut out, aut.num_states() as u32);
    push_u32(&mut out, aut.initial().map_or(u32::MAX, |s| s.0));
    for s in 0..aut.num_states() as u32 {
        out.push(aut.is_accepting(StateId(s)) as u8);
        let name = aut.state_name(StateId(s)).as_bytes();
        push_u32(&mut out, name.len() as u32);
        out.extend_from_slice(name);
    }
    push_u32(&mut out, endpoints.len() as u32);
    for (from, to) in &endpoints {
        push_u32(&mut out, *from);
        push_u32(&mut out, *to);
    }
    out.extend_from_slice(&(blob.len() as u64).to_le_bytes());
    out.extend_from_slice(&blob);
    let checksum = fnv1a64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(SnapshotError::Truncated)?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self
            .take(4)?
            .try_into()
            .map_err(|_| SnapshotError::Truncated)?;
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self
            .take(8)?
            .try_into()
            .map_err(|_| SnapshotError::Truncated)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Fails unless `count` records of at least `min_bytes` each can still
    /// follow: a count read from the input bounds an allocation only after
    /// this check.
    fn fits(&self, count: usize, min_bytes: usize) -> Result<(), SnapshotError> {
        match count.checked_mul(min_bytes) {
            Some(n) if n <= self.bytes.len() - self.pos => Ok(()),
            _ => Err(SnapshotError::Truncated),
        }
    }
}

/// Loads a snapshot into a fresh [`BddManager`] (which the returned
/// automaton keeps alive).
pub fn load(bytes: &[u8]) -> Result<Automaton, SnapshotError> {
    load_into(&BddManager::new(), bytes)
}

/// Loads a snapshot into `mgr`, preserving the saved variable ids (missing
/// variables are created, exactly like [`langeq_bdd::snapshot::load`]).
pub fn load_into(mgr: &BddManager, bytes: &[u8]) -> Result<Automaton, SnapshotError> {
    if bytes.len() < 8 + 8 {
        return Err(SnapshotError::Truncated);
    }
    if bytes[..4] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let stored = u64::from_le_bytes(
        bytes[bytes.len() - 8..]
            .try_into()
            .map_err(|_| SnapshotError::Truncated)?,
    );
    if fnv1a64(&bytes[..bytes.len() - 8]) != stored {
        return Err(SnapshotError::Checksum);
    }
    let mut c = Cursor {
        bytes: &bytes[..bytes.len() - 8],
        pos: 4,
    };
    let version = c.u32()?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    let nalpha = c.u32()? as usize;
    c.fits(nalpha, 4)?;
    let mut alphabet = Vec::with_capacity(nalpha);
    for _ in 0..nalpha {
        alphabet.push(VarId(c.u32()?));
    }
    let nstates = c.u32()? as usize;
    let initial = match c.u32()? {
        u32::MAX => None,
        s if (s as usize) < nstates => Some(StateId(s)),
        s => {
            return Err(SnapshotError::Malformed(format!(
                "initial state {s} out of range ({nstates} states)"
            )))
        }
    };
    c.fits(nstates, 5)?;
    let mut states = Vec::with_capacity(nstates);
    for k in 0..nstates {
        let accepting = c.take(1)?[0] != 0;
        let name_len = c.u32()? as usize;
        let name = std::str::from_utf8(c.take(name_len)?)
            .map_err(|_| SnapshotError::Malformed(format!("state {k} name is not UTF-8")))?
            .to_string();
        states.push((accepting, name));
    }
    let ntrans = c.u32()? as usize;
    c.fits(ntrans, 8)?;
    let mut endpoints = Vec::with_capacity(ntrans);
    for k in 0..ntrans {
        let (from, to) = (c.u32()?, c.u32()?);
        if from as usize >= nstates || to as usize >= nstates {
            return Err(SnapshotError::Malformed(format!(
                "transition {k} endpoint out of range"
            )));
        }
        endpoints.push((StateId(from), StateId(to)));
    }
    let blob_len = c.u64()? as usize;
    let blob = c.take(blob_len)?;
    if c.pos != c.bytes.len() {
        return Err(SnapshotError::Malformed(format!(
            "{} trailing bytes",
            c.bytes.len() - c.pos
        )));
    }
    // `save` writes the saving manager's whole level map, so every alphabet
    // variable is below the blob's `nvars` — and loading the blob creates
    // exactly those variables in `mgr`.
    let nvars = bdd_snapshot::peek(blob)?.nvars;
    if let Some(v) = alphabet.iter().find(|v| v.0 as usize >= nvars) {
        return Err(SnapshotError::Malformed(format!(
            "alphabet variable {} out of range ({nvars} variables)",
            v.0
        )));
    }
    let labels = bdd_snapshot::load(mgr, blob)?;
    if labels.len() != ntrans {
        return Err(SnapshotError::Malformed(format!(
            "blob carries {} labels for {ntrans} transitions",
            labels.len()
        )));
    }

    let mut aut = Automaton::new(mgr, &alphabet);
    for (accepting, name) in states {
        let s = aut.add_state(accepting);
        aut.set_state_name(s, name);
    }
    if let Some(s) = initial {
        aut.set_initial(s);
    }
    for ((from, to), label) in endpoints.into_iter().zip(labels) {
        aut.add_transition(from, label, to);
    }
    Ok(aut)
}

#[cfg(test)]
mod tests {
    use super::*;
    use langeq_bdd::Bdd;

    /// A 3-state automaton with complemented and shared labels.
    fn sample() -> (BddManager, Automaton, Vec<VarId>, Bdd) {
        let mgr = BddManager::new();
        let a = mgr.new_var();
        let b = mgr.new_var();
        let vars: Vec<VarId> = vec![a.support()[0], b.support()[0]];
        let mut aut = Automaton::new(&mgr, &vars);
        let s0 = aut.add_state(true);
        let s1 = aut.add_state(true);
        let s2 = aut.add_state(false);
        aut.set_state_name(s2, "trap");
        aut.set_initial(s0);
        let ab = a.and(&b);
        aut.add_transition(s0, ab.clone(), s1);
        aut.add_transition(s0, ab.not(), s2);
        aut.add_transition(s1, b.clone(), s1);
        aut.add_transition(s2, mgr.one(), s2);
        (mgr, aut, vars, ab)
    }

    #[test]
    fn automaton_round_trips_into_a_fresh_manager() {
        let (_mgr, aut, _vars, _ab) = sample();
        let bytes = save(&aut);
        let back = load(&bytes).unwrap();
        assert_eq!(back.num_states(), aut.num_states());
        assert_eq!(back.num_transitions(), aut.num_transitions());
        assert_eq!(back.initial(), aut.initial());
        assert_eq!(back.state_name(StateId(2)), "trap");
        for s in 0..aut.num_states() as u32 {
            assert_eq!(back.is_accepting(StateId(s)), aut.is_accepting(StateId(s)));
        }
        // Language equality checked by running sample words through both.
        let words: &[&[(bool, bool)]] = &[
            &[],
            &[(true, true)],
            &[(false, true)],
            &[(true, true), (false, true)],
            &[(true, true), (true, false)],
            &[(false, false), (true, true)],
        ];
        for word in words {
            let w: Vec<Vec<bool>> = word.iter().map(|&(x, y)| vec![x, y]).collect();
            assert_eq!(back.accepts(&w), aut.accepts(&w), "word {word:?}");
        }
        back.manager().verify_cache_integrity().unwrap();
    }

    #[test]
    fn load_into_the_source_manager_is_equivalent() {
        let (mgr, aut, _vars, _ab) = sample();
        let bytes = save(&aut);
        let back = load_into(&mgr, &bytes).unwrap();
        assert!(back.equivalent(&aut));
    }

    #[test]
    fn corruption_is_rejected() {
        let (_mgr, aut, _vars, _ab) = sample();
        let bytes = save(&aut);
        assert_eq!(load(&bytes[..10]).unwrap_err(), SnapshotError::Truncated);
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        assert_eq!(load(&flipped).unwrap_err(), SnapshotError::Checksum);
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        // Magic damage also trips the checksum-before-parse order is magic
        // first: the error names the real problem.
        assert_eq!(load(&wrong_magic).unwrap_err(), SnapshotError::BadMagic);
    }

    /// Header counts and alphabet ids are checked against the input before
    /// anything is allocated for them; the checksum is no guard, since
    /// anyone can compute it.
    #[test]
    fn crafted_counts_are_rejected_before_allocating() {
        fn sealed(words: &[u32], tail: &[u8]) -> Vec<u8> {
            let mut out = MAGIC.to_vec();
            push_u32(&mut out, SNAPSHOT_VERSION);
            for &w in words {
                push_u32(&mut out, w);
            }
            out.extend_from_slice(tail);
            let checksum = fnv1a64(&out);
            out.extend_from_slice(&checksum.to_le_bytes());
            out
        }
        let empty_blob = bdd_snapshot::save(&BddManager::new(), &[]);
        let mut blob_tail = (empty_blob.len() as u64).to_le_bytes().to_vec();
        blob_tail.extend_from_slice(&empty_blob);
        let unset = u32::MAX;
        let crafted = [
            // 4 Gi alphabet entries.
            sealed(&[u32::MAX], &[]),
            // 4 Gi states.
            sealed(&[0, u32::MAX, unset], &[]),
            // 4 Gi transitions.
            sealed(&[0, 0, unset, u32::MAX], &[]),
            // An alphabet variable far beyond the blob's (empty) level map.
            sealed(&[1, 50_000_000, 0, unset, 0], &blob_tail),
        ];
        for bytes in &crafted {
            let mgr = BddManager::new();
            assert!(load_into(&mgr, bytes).is_err(), "{} bytes", bytes.len());
            assert_eq!(mgr.num_vars(), 0, "no variables created");
        }
    }
}
