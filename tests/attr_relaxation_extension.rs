//! Integration tests for value-predicate relaxation (paper Section 3.4:
//! "`$i.price ≤ 98` with `$i.price ≤ 100`"), wired through the facade.

use flexpath::{Algorithm, AttrRelaxation, FleXPath};

const SHOP: &str = r#"<shop>
  <item id="cheap" price="80"><desc>gold ring</desc></item>
  <item id="edge" price="98"><desc>gold band</desc></item>
  <item id="near" price="105"><desc>gold hoop</desc></item>
  <item id="far" price="500"><desc>gold crown</desc></item>
</shop>"#;

const QUERY: &str = "//item[@price <= 98 and .contains(\"gold\")]";

fn label(flex: &FleXPath, node: flexpath::NodeId) -> String {
    let id = flex.document().unwrap().symbols().lookup("id").unwrap();
    flex.document()
        .unwrap()
        .attribute(node, id)
        .unwrap_or("?")
        .to_string()
}

#[test]
fn strict_bounds_by_default() {
    let flex = FleXPath::from_xml(SHOP).unwrap();
    let r = flex.query(QUERY).unwrap().top(10).execute().unwrap();
    let mut labels: Vec<String> = r.hits.iter().map(|h| label(&flex, h.node)).collect();
    labels.sort();
    assert_eq!(labels, ["cheap", "edge"]);
}

#[test]
fn slack_admits_near_misses_at_a_penalty() {
    let flex = FleXPath::from_xml(SHOP).unwrap();
    let r = flex
        .query(QUERY)
        .unwrap()
        .top(10)
        .attr_relaxation(AttrRelaxation {
            slack: 0.1,
            weight: 1.0,
        })
        .execute()
        .unwrap();
    let labels: Vec<String> = r.hits.iter().map(|h| label(&flex, h.node)).collect();
    // 98 × 1.1 ≈ 107.8: the 105 item enters, the 500 item stays out.
    assert_eq!(labels.len(), 3, "{labels:?}");
    assert!(labels.contains(&"near".to_string()));
    assert!(!labels.contains(&"far".to_string()));
    // Strict-bound answers outrank the slackened one.
    let near = r
        .hits
        .iter()
        .find(|h| label(&flex, h.node) == "near")
        .unwrap();
    for h in &r.hits {
        if label(&flex, h.node) != "near" {
            assert!(h.score.ss > near.score.ss, "strict matches must outrank");
        }
    }
    // Penalty is the strict/relaxed fraction: 2 strict of 3 relaxed → 2/3.
    let strictest = r.hits[0].score.ss;
    assert!((strictest - near.score.ss - 2.0 / 3.0).abs() < 1e-9);
}

#[test]
fn string_attributes_are_never_slackened() {
    let xml = r#"<shop>
      <item id="t" cat="tools"><desc>gold</desc></item>
      <item id="z" cat="toolz"><desc>gold</desc></item>
    </shop>"#;
    let flex = FleXPath::from_xml(xml).unwrap();
    let r = flex
        .query("//item[@cat = \"tools\" and .contains(\"gold\")]")
        .unwrap()
        .top(10)
        .attr_relaxation(AttrRelaxation::default())
        .execute()
        .unwrap();
    let labels: Vec<String> = r.hits.iter().map(|h| label(&flex, h.node)).collect();
    assert_eq!(labels, ["t"]);
}

#[test]
fn composes_across_algorithms() {
    let flex = FleXPath::from_xml(SHOP).unwrap();
    let mut expected: Option<Vec<flexpath::NodeId>> = None;
    for alg in [Algorithm::Dpo, Algorithm::Sso, Algorithm::Hybrid] {
        let r = flex
            .query(QUERY)
            .unwrap()
            .top(10)
            .algorithm(alg)
            .attr_relaxation(AttrRelaxation::default())
            .execute()
            .unwrap();
        let mut nodes = r.nodes();
        nodes.sort();
        match &expected {
            None => expected = Some(nodes),
            Some(e) => assert_eq!(&nodes, e, "{alg} disagrees"),
        }
    }
}

#[test]
fn composes_with_structural_relaxation() {
    let xml = r#"<shop>
      <item id="deep" price="105"><wrap><desc>gold ring</desc></wrap></item>
      <item id="flat" price="80"><desc>gold ring</desc></item>
    </shop>"#;
    let flex = FleXPath::from_xml(xml).unwrap();
    let r = flex
        .query("//item[@price <= 98 and ./desc[.contains(\"gold\")]]")
        .unwrap()
        .top(10)
        .attr_relaxation(AttrRelaxation {
            slack: 0.1,
            weight: 1.0,
        })
        .execute()
        .unwrap();
    let labels: Vec<String> = r.hits.iter().map(|h| label(&flex, h.node)).collect();
    assert_eq!(labels, ["flat", "deep"], "both relaxation kinds stack");
}
