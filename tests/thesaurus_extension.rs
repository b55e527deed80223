//! Integration tests for thesaurus-based keyword relaxation (the paper's
//! Section 3.4: "replacing keywords with more general ones"), wired through
//! the facade's query builder.

use flexpath::{FleXPath, Thesaurus};

const SHOP: &str = r#"<shop>
  <item id="i1"><name>ring</name><desc>solid gold ring</desc></item>
  <item id="i2"><name>ring</name><desc>golden band</desc></item>
  <item id="i3"><name>ring</name><desc>gilded hoop</desc></item>
  <item id="i4"><name>ring</name><desc>silver band</desc></item>
</shop>"#;

fn gems() -> Thesaurus {
    let mut t = Thesaurus::new();
    t.add_ring(&["gold", "golden", "gilded"]);
    t
}

fn label(flex: &FleXPath, node: flexpath::NodeId) -> String {
    let id = flex.document().unwrap().symbols().lookup("id").unwrap();
    flex.document()
        .unwrap()
        .attribute(node, id)
        .unwrap_or("?")
        .to_string()
}

#[test]
fn without_thesaurus_only_literal_matches() {
    let flex = FleXPath::from_xml(SHOP).unwrap();
    let r = flex
        .query("//item[.contains(\"gold\")]")
        .unwrap()
        .top(10)
        .execute()
        .unwrap();
    let labels: Vec<String> = r.hits.iter().map(|h| label(&flex, h.node)).collect();
    assert_eq!(labels, ["i1"]);
}

#[test]
fn thesaurus_expands_to_the_synonym_ring() {
    let flex = FleXPath::from_xml(SHOP).unwrap();
    let r = flex
        .query("//item[.contains(\"gold\")]")
        .unwrap()
        .top(10)
        .thesaurus(gems())
        .execute()
        .unwrap();
    let mut labels: Vec<String> = r.hits.iter().map(|h| label(&flex, h.node)).collect();
    labels.sort();
    assert_eq!(labels, ["i1", "i2", "i3"]);
    // Silver never sneaks in.
    assert!(!labels.contains(&"i4".to_string()));
}

#[test]
fn expansion_composes_with_structural_relaxation() {
    // contains on desc + thesaurus: the structure relaxes AND the keyword
    // relaxes, independently.
    let xml = r#"<shop>
      <item id="exact"><desc>gold coin</desc></item>
      <item id="syn"><desc>golden coin</desc></item>
      <item id="deep"><wrap><desc>gilded coin</desc></wrap></item>
    </shop>"#;
    let flex = FleXPath::from_xml(xml).unwrap();
    let r = flex
        .query("//item[./desc[.contains(\"gold\" and \"coin\")]]")
        .unwrap()
        .top(10)
        .thesaurus(gems())
        .execute()
        .unwrap();
    let labels: Vec<String> = r.hits.iter().map(|h| label(&flex, h.node)).collect();
    assert_eq!(labels.len(), 3, "{labels:?}");
    assert_eq!(labels[0], "exact");
    // The synonym-only match keeps full structure → outranks the one that
    // also needed a structural relaxation.
    assert_eq!(labels[1], "syn");
    assert_eq!(labels[2], "deep");
}

#[test]
fn thesaurus_is_monotone_under_evaluation() {
    let flex = FleXPath::from_xml(SHOP).unwrap();
    let strict = flex
        .query("//item[.contains(\"gold\")]")
        .unwrap()
        .top(10)
        .execute()
        .unwrap();
    let expanded = flex
        .query("//item[.contains(\"gold\")]")
        .unwrap()
        .top(10)
        .thesaurus(gems())
        .execute()
        .unwrap();
    for n in strict.nodes() {
        assert!(expanded.nodes().contains(&n), "expansion lost an answer");
    }
    assert!(expanded.hits.len() >= strict.hits.len());
}
