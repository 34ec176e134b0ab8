//! The keyed (locked/camouflaged) netlist model.

use crate::error::CamoError;
use gshe_logic::{Bf1, Bf2, ErrorProfile, Netlist, NodeId, NodeKind};

/// Candidate function set of one cloaked cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Candidates {
    /// Two-input candidates (most schemes).
    TwoInput(Vec<Bf2>),
    /// One-input candidates (the INV/BUF scheme).
    OneInput(Vec<Bf1>),
}

impl Candidates {
    /// Number of candidate functions.
    pub fn len(&self) -> usize {
        match self {
            Candidates::TwoInput(v) => v.len(),
            Candidates::OneInput(v) => v.len(),
        }
    }

    /// `true` if the set is empty (never produced by the transforms).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Key bits needed: ⌈log₂ len⌉ (minimum 1).
    pub fn key_bits(&self) -> usize {
        let n = self.len().max(2);
        usize::BITS as usize - (n - 1).leading_zeros() as usize
    }
}

/// One cloaked cell inside a [`KeyedNetlist`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CamoGate {
    /// The netlist node occupied by the cell.
    pub node: NodeId,
    /// The functions the cell hides among.
    pub candidates: Candidates,
    /// Index of the first key bit controlling this cell.
    pub key_offset: usize,
    /// Index (within `candidates`) of the true function — the secret.
    pub correct_index: usize,
}

impl CamoGate {
    /// Key bits consumed by this cell.
    pub fn key_bits(&self) -> usize {
        self.candidates.key_bits()
    }

    /// Decodes this cell's candidate index from a full key.
    ///
    /// Returns `None` when the key bits encode an invalid (≥ len) index.
    pub fn decode(&self, key: &[bool]) -> Option<usize> {
        let mut idx = 0usize;
        for b in 0..self.key_bits() {
            if key[self.key_offset + b] {
                idx |= 1 << b;
            }
        }
        (idx < self.candidates.len()).then_some(idx)
    }

    /// Encodes candidate `index` into `key` at this cell's offset.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn encode(&self, index: usize, key: &mut [bool]) {
        assert!(
            index < self.candidates.len(),
            "candidate index out of range"
        );
        for b in 0..self.key_bits() {
            key[self.key_offset + b] = (index >> b) & 1 == 1;
        }
    }
}

/// A camouflaged netlist with key-controlled cloaked cells.
///
/// The embedded [`Netlist`] holds the *correct* functions at the cloaked
/// nodes (so the defender can simulate the real chip); an attacker is given
/// only the structure plus each cell's candidate set — which is what the
/// SAT encoding in `gshe-attacks` consumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyedNetlist {
    netlist: Netlist,
    camo_gates: Vec<CamoGate>,
    key_len: usize,
}

impl KeyedNetlist {
    /// Assembles a keyed netlist (used by [`crate::transform::camouflage`]).
    ///
    /// # Panics
    ///
    /// Panics if key offsets are inconsistent with `key_len`.
    pub fn new(netlist: Netlist, camo_gates: Vec<CamoGate>, key_len: usize) -> Self {
        let total: usize = camo_gates.iter().map(|g| g.key_bits()).sum();
        assert_eq!(total, key_len, "key offsets inconsistent with key length");
        KeyedNetlist {
            netlist,
            camo_gates,
            key_len,
        }
    }

    /// The underlying structure **with correct functions installed**
    /// (defender's view).
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The cloaked cells.
    pub fn camo_gates(&self) -> &[CamoGate] {
        &self.camo_gates
    }

    /// Total key bits.
    pub fn key_len(&self) -> usize {
        self.key_len
    }

    /// The correct key (defender's secret).
    pub fn correct_key(&self) -> Vec<bool> {
        let mut key = vec![false; self.key_len];
        for g in &self.camo_gates {
            g.encode(g.correct_index, &mut key);
        }
        key
    }

    /// The stochastic chip's uniform noise placement (Sec. V-B): `rate` at
    /// every cloaked cell, 0 elsewhere, as a dense per-node profile.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    pub fn uniform_error_profile(&self, rate: f64) -> ErrorProfile {
        let cells: Vec<NodeId> = self.camo_gates.iter().map(|g| g.node).collect();
        ErrorProfile::uniform_at(self.netlist.len(), &cells, rate)
    }

    /// Resolves the design under `key` into a plain netlist.
    ///
    /// Invalid key codes (possible when a cell's candidate count is not a
    /// power of two) select candidate `code mod len`, mirroring a chip whose
    /// undocumented configurations alias onto documented ones.
    ///
    /// # Errors
    ///
    /// Returns [`CamoError::KeyLengthMismatch`] on key-length mismatch.
    pub fn resolve(&self, key: &[bool]) -> Result<Netlist, CamoError> {
        if key.len() != self.key_len {
            return Err(CamoError::KeyLengthMismatch {
                expected: self.key_len,
                got: key.len(),
            });
        }
        let mut nl = self.netlist.clone();
        for g in &self.camo_gates {
            let idx = match g.decode(key) {
                Some(i) => i,
                None => {
                    let mut raw = 0usize;
                    for b in 0..g.key_bits() {
                        if key[g.key_offset + b] {
                            raw |= 1 << b;
                        }
                    }
                    raw % g.candidates.len()
                }
            };
            match &g.candidates {
                Candidates::TwoInput(fs) => {
                    nl.set_gate2_function(g.node, fs[idx])
                        .map_err(|_| CamoError::NotAGate(g.node))?;
                }
                Candidates::OneInput(fs) => {
                    set_gate1_function(&mut nl, g.node, fs[idx])?;
                }
            }
        }
        Ok(nl)
    }

    /// Evaluates the design on `inputs` under `key`.
    ///
    /// # Errors
    ///
    /// Returns [`CamoError::KeyLengthMismatch`] or
    /// [`CamoError::InputCountMismatch`].
    pub fn evaluate_with_key(&self, inputs: &[bool], key: &[bool]) -> Result<Vec<bool>, CamoError> {
        let resolved = self.resolve(key)?;
        resolved
            .try_evaluate(inputs)
            .map_err(|_| CamoError::InputCountMismatch {
                expected: self.netlist.inputs().len(),
                got: inputs.len(),
            })
    }

    /// `true` if `key` selects the correct function at every cell
    /// (*structurally* correct; functionally equivalent wrong keys can
    /// exist and are exactly what SAT attacks may legitimately return).
    pub fn key_is_structurally_correct(&self, key: &[bool]) -> bool {
        key.len() == self.key_len
            && self
                .camo_gates
                .iter()
                .all(|g| g.decode(key) == Some(g.correct_index))
    }
}

fn set_gate1_function(nl: &mut Netlist, node: NodeId, f: Bf1) -> Result<(), CamoError> {
    // Netlist has no public Gate1 mutator; emulate via kind inspection and
    // a rebuild-free in-place update through set_gate2_function's sibling.
    // We rely on the transform having installed a Gate1 at `node`.
    match nl.node(node).kind {
        NodeKind::Gate1 { a, .. } => {
            // Replace by rebuilding just this node's kind.
            nl.set_gate1_function(node, f, a)
                .map_err(|_| CamoError::NotAGate(node))
        }
        _ => Err(CamoError::NotAGate(node)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gshe_logic::{Bf2, NetlistBuilder};

    fn tiny_keyed() -> KeyedNetlist {
        // y = AND(a, b), camouflaged among all 16.
        let mut b = NetlistBuilder::new("tiny");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.gate2("y", Bf2::AND, a, c);
        b.output(y);
        let nl = b.finish().unwrap();
        let gate = CamoGate {
            node: y,
            candidates: Candidates::TwoInput(Bf2::ALL.to_vec()),
            key_offset: 0,
            correct_index: Bf2::AND.truth_table() as usize,
        };
        KeyedNetlist::new(nl, vec![gate], 4)
    }

    #[test]
    fn correct_key_round_trips() {
        let k = tiny_keyed();
        let key = k.correct_key();
        assert!(k.key_is_structurally_correct(&key));
        assert_eq!(
            k.evaluate_with_key(&[true, true], &key).unwrap(),
            vec![true]
        );
        assert_eq!(
            k.evaluate_with_key(&[true, false], &key).unwrap(),
            vec![false]
        );
    }

    #[test]
    fn wrong_key_changes_function() {
        let k = tiny_keyed();
        let mut key = k.correct_key();
        // Select OR instead of AND.
        key.copy_from_slice(&[false, true, true, true]);
        assert_eq!(
            k.evaluate_with_key(&[true, false], &key).unwrap(),
            vec![true]
        );
        assert!(!k.key_is_structurally_correct(&key));
    }

    #[test]
    fn key_length_is_enforced() {
        let k = tiny_keyed();
        assert!(matches!(
            k.evaluate_with_key(&[true, true], &[true]),
            Err(CamoError::KeyLengthMismatch {
                expected: 4,
                got: 1
            })
        ));
    }

    #[test]
    fn decode_encode_round_trip() {
        let k = tiny_keyed();
        let g = &k.camo_gates()[0];
        let mut key = vec![false; 4];
        for idx in 0..16 {
            g.encode(idx, &mut key);
            assert_eq!(g.decode(&key), Some(idx));
        }
    }

    #[test]
    fn invalid_code_aliases_modulo() {
        // 3 candidates on 2 key bits: code 3 aliases onto candidate 0.
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.gate2("y", Bf2::NAND, a, c);
        b.output(y);
        let nl = b.finish().unwrap();
        let gate = CamoGate {
            node: y,
            candidates: Candidates::TwoInput(vec![Bf2::NAND, Bf2::NOR, Bf2::XOR]),
            key_offset: 0,
            correct_index: 0,
        };
        let k = KeyedNetlist::new(nl, vec![gate], 2);
        let out = k.evaluate_with_key(&[true, true], &[true, true]).unwrap();
        // code 3 % 3 = 0 → NAND(1,1) = 0.
        assert_eq!(out, vec![false]);
    }
}
