//! Answer checking by order-independent fingerprints: a result's column
//! names plus the multiset of its rows, each row hashed on its own and
//! the hashes summed, so two results agree when they hold the same rows
//! in any order.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use sparql_hsp::extended::ExtendedOutput;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub rows: usize,
    head: u64,
    sum: u64,
    mixed: u64,
}

/// SplitMix64's finaliser: a second, independent function of the row hash.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn hash_of(value: impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

impl Fingerprint {
    fn new(head: u64) -> Fingerprint {
        Fingerprint {
            rows: 0,
            head,
            sum: 0,
            mixed: 0,
        }
    }

    fn add_row(&mut self, h: u64) {
        self.rows += 1;
        self.sum = self.sum.wrapping_add(h);
        self.mixed = self.mixed.wrapping_add(mix(h));
    }

    /// Of an in-process result.
    pub fn of_output(out: &ExtendedOutput) -> Fingerprint {
        let mut fp = Fingerprint::new(hash_of(&out.columns));
        for row in &out.rows {
            fp.add_row(hash_of(row));
        }
        fp
    }

    /// Of a SPARQL-JSON results document (what the server sends), from its
    /// `vars` list and its binding objects taken as raw text.
    pub fn of_json(body: &str) -> Option<Fingerprint> {
        let vars_start = body.find("\"vars\":[")? + "\"vars\":[".len();
        let vars_end = vars_start + body[vars_start..].find(']')?;
        let mut fp = Fingerprint::new(hash_of(&body[vars_start..vars_end]));
        let start = body.find("\"bindings\":[")? + "\"bindings\":[".len();
        let bindings = &body[start..];
        let (mut depth, mut in_string, mut escaped, mut object_start) = (0usize, false, false, 0);
        for (i, c) in bindings.char_indices() {
            if in_string {
                match c {
                    _ if escaped => escaped = false,
                    '\\' => escaped = true,
                    '"' => in_string = false,
                    _ => {}
                }
                continue;
            }
            match c {
                '"' => in_string = true,
                '{' => {
                    if depth == 0 {
                        object_start = i;
                    }
                    depth += 1;
                }
                '}' => {
                    depth = depth.checked_sub(1)?;
                    if depth == 0 {
                        fp.add_row(hash_of(&bindings[object_start..=i]));
                    }
                }
                ']' if depth == 0 => return Some(fp),
                _ => {}
            }
        }
        None
    }

    /// A copy that no real answer matches, for the self-test's planted
    /// wrong expectation.
    pub fn corrupted(self) -> Fingerprint {
        Fingerprint {
            rows: self.rows + 1,
            ..self
        }
    }
}

/// The body of an `OK` query response, or `None` for any other response.
pub fn ok_body(response: &str) -> Option<&str> {
    let (header, body) = response.split_once('\n')?;
    header.starts_with("OK ").then_some(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparql_hsp::rdf::Term;
    use sparql_hsp::results::to_sparql_json;

    fn output(rows: &[(&str, Option<&str>)]) -> ExtendedOutput {
        ExtendedOutput {
            columns: vec!["a".into(), "b".into()],
            rows: rows
                .iter()
                .map(|(a, b)| vec![Some(Term::iri(*a)), b.map(Term::literal)])
                .collect(),
        }
    }

    #[test]
    fn row_order_does_not_matter_but_content_does() {
        let one = output(&[("http://e/1", Some("x {y}")), ("http://e/2", None)]);
        let swapped = output(&[("http://e/2", None), ("http://e/1", Some("x {y}"))]);
        let other = output(&[("http://e/1", Some("x {y}")), ("http://e/3", None)]);
        let fp = |o: &ExtendedOutput| Fingerprint::of_json(&to_sparql_json(o)).unwrap();
        assert_eq!(fp(&one), fp(&swapped));
        assert_ne!(fp(&one), fp(&other));
        assert_eq!(fp(&one).rows, 2);
        assert_eq!(
            Fingerprint::of_output(&one),
            Fingerprint::of_output(&swapped)
        );
        assert_ne!(Fingerprint::of_output(&one), Fingerprint::of_output(&other));
    }

    #[test]
    fn duplicate_rows_count() {
        let once = output(&[("http://e/1", None)]);
        let twice = output(&[("http://e/1", None), ("http://e/1", None)]);
        assert_ne!(
            Fingerprint::of_output(&once),
            Fingerprint::of_output(&twice)
        );
    }
}
