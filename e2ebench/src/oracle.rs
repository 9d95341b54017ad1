//! Inputs and expected results. Documents come from the seed alone; the
//! expected answers are computed by walking the generated document's DOM,
//! independently of every query engine (a second engine cannot serve as
//! the oracle: M3 needs about 99 s for eff3 at this scale).

use std::collections::HashMap;
use xmldb_datagen::{generate_dblp, DblpConfig};
use xmldb_obs::fnv1a;
use xmldb_xml::{serialize_subtree, Document, NodeId, NodeKind};

/// A DBLP-like document at `scale` (1.0 ≈ 150 KB of XML).
pub fn dblp(scale: f64, seed: u64) -> String {
    generate_dblp(&DblpConfig {
        seed,
        ..DblpConfig::scaled(scale)
    })
}

/// Item count and FNV-1a digest of a result's `to_xml` serialization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    pub count: u64,
    pub digest: u64,
}

impl Expected {
    fn of(items: &[String]) -> Expected {
        Expected {
            count: items.len() as u64,
            digest: fnv1a(items.concat().as_bytes()),
        }
    }
}

fn is_element(doc: &Document, id: NodeId, name: &str) -> bool {
    doc.kind(id) == NodeKind::Element && doc.name(id) == name
}

fn has_child(doc: &Document, id: NodeId, name: &str) -> bool {
    doc.children(id).iter().any(|&c| is_element(doc, c, name))
}

/// Publications (children of `<dblp>`) of kind `name`, in document order.
fn publications<'a>(doc: &'a Document, name: &'a str) -> impl Iterator<Item = NodeId> + 'a {
    let root = doc
        .root_element()
        .expect("generated DBLP has a root element");
    doc.children(root)
        .iter()
        .copied()
        .filter(move |&p| is_element(doc, p, name))
}

/// Every title's text node as (text, serialized node). The generator
/// suffixes each title with its publication index, so no other text node
/// has the same value.
pub fn titles(doc: &Document) -> Vec<(String, String)> {
    doc.descendants(doc.root())
        .filter(|&n| is_element(doc, n, "title"))
        .flat_map(|n| doc.children(n).iter().copied())
        .filter(|&t| doc.kind(t) == NodeKind::Text)
        .map(|t| (doc.value(t).to_string(), serialize_subtree(doc, t)))
        .collect()
}

/// The expected answer of efficiency test `name` (see
/// `xmldb_testbed::corpus::efficiency_queries`); `None` for a test this
/// oracle does not know.
pub fn efficiency(doc: &Document, name: &str) -> Option<Expected> {
    let volumed_authors = || -> Vec<String> {
        publications(doc, "article")
            .filter(|&a| has_child(doc, a, "volume"))
            .flat_map(|a| doc.descendants(a).filter(|&n| is_element(doc, n, "author")))
            .map(|n| serialize_subtree(doc, n))
            .collect()
    };
    let items = match name.split('-').next()? {
        // eff1 and eff5 are the same answer through different join orders.
        "eff1" | "eff5" => volumed_authors(),
        "eff2" => publications(doc, "inproceedings")
            .filter(|&p| has_child(doc, p, "cite"))
            .flat_map(|p| doc.children(p).iter().copied())
            .filter(|&c| is_element(doc, c, "title"))
            .map(|n| serialize_subtree(doc, n))
            .collect(),
        "eff3" => {
            let mut by_value: HashMap<&str, u64> = HashMap::new();
            for n in doc.descendants(doc.root()) {
                if doc.kind(n) == NodeKind::Text {
                    *by_value.entry(doc.value(n)).or_default() += 1;
                }
            }
            let matches: u64 = doc
                .descendants(doc.root())
                .filter(|&n| is_element(doc, n, "author"))
                .flat_map(|a| doc.children(a).iter().copied())
                .filter(|&t| doc.kind(t) == NodeKind::Text)
                .map(|t| by_value[doc.value(t)])
                .sum();
            vec!["<match/>".to_string(); matches as usize]
        }
        "eff4" => Vec::new(),
        _ => return None,
    };
    Some(Expected::of(&items))
}
