//! XML serialization (the inverse of [`crate::parse`]).

use crate::document::{Document, NodeId, NodeKind};
use std::fmt::Write as _;

/// Serializes the whole document to a string.
pub fn to_xml_string(doc: &Document) -> String {
    let mut out = String::with_capacity(doc.node_count() * 16);
    write_xml(doc, doc.root_element(), &mut out);
    out
}

/// Serializes the subtree rooted at `node` into `out`.
pub fn write_xml(doc: &Document, node: NodeId, out: &mut String) {
    match doc.kind(node) {
        NodeKind::Text { .. } => {
            escape_text(doc.text_content(node).unwrap_or_default(), out);
        }
        NodeKind::Element { tag } => {
            let name = doc.symbols().name(tag);
            out.push('<');
            out.push_str(name);
            for (attr, value) in doc.attributes(node) {
                let _ = write!(out, " {}=\"", doc.symbols().name(*attr));
                escape_attr(value, out);
                out.push('"');
            }
            if doc.first_child(node).is_none() {
                out.push_str("/>");
                return;
            }
            out.push('>');
            for child in doc.children(node) {
                write_xml(doc, child, out);
            }
            out.push_str("</");
            out.push_str(name);
            out.push('>');
        }
    }
}

fn escape_text(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            _ => out.push(c),
        }
    }
}

fn escape_attr(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            _ => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn round_trips_structure() {
        let src = "<a x=\"1\"><b>hi</b><c/></a>";
        let doc = parse(src).unwrap();
        assert_eq!(to_xml_string(&doc), src);
    }

    #[test]
    fn escapes_special_characters() {
        let doc = parse("<a t=\"&quot;&amp;\">&lt;&amp;&gt;</a>").unwrap();
        let xml = to_xml_string(&doc);
        assert_eq!(xml, "<a t=\"&quot;&amp;\">&lt;&amp;&gt;</a>");
        // Re-parsing the output yields the same text.
        let doc2 = parse(&xml).unwrap();
        assert_eq!(doc2.subtree_text(doc2.root_element()), "<&>");
    }

    #[test]
    fn empty_elements_self_close() {
        let doc = parse("<a><b></b></a>").unwrap();
        assert_eq!(to_xml_string(&doc), "<a><b/></a>");
    }

    #[test]
    fn parse_serialize_parse_is_stable() {
        let src = "<r><x a=\"v\">t1<y/>t2</x><x>A&amp;B</x></r>";
        let once = to_xml_string(&parse(src).unwrap());
        let twice = to_xml_string(&parse(&once).unwrap());
        assert_eq!(once, twice);
    }
}
