//! The document generator.
//!
//! Produces an XMark-style auction document of approximately
//! [`XmarkConfig::target_bytes`] serialized bytes, deterministically from
//! [`XmarkConfig::seed`]. Structure probabilities are configurable so the
//! ablation benchmarks can vary relaxation opportunity density.

use crate::rng::{Rng, SeedableRng, StdRng};
use crate::schema::*;
use crate::vocab::Vocabulary;
use flexpath_xmldom::{Document, DocumentBuilder};

/// Generator parameters. `Default` matches the distributions used by the
/// paper-reproduction benchmarks.
#[derive(Debug, Clone)]
pub struct XmarkConfig {
    /// Approximate serialized size to aim for, in bytes.
    pub target_bytes: usize,
    /// RNG seed; equal configs generate identical documents.
    pub seed: u64,
    /// Probability that an item description holds a `parlist` (vs plain `text`).
    pub parlist_prob: f64,
    /// Probability that a `listitem` nests another `parlist` (recursion).
    pub nested_parlist_prob: f64,
    /// Maximum `parlist` nesting depth.
    pub max_parlist_depth: u32,
    /// Probability that an item has **no** `incategory` child (optionality).
    pub incategory_zero_prob: f64,
    /// Maximum number of `incategory` children.
    pub max_incategory: u32,
    /// Maximum number of `mail` children per `mailbox`.
    pub max_mail: u32,
    /// Independent probability that each of `bold`/`keyword`/`emph` appears
    /// inside a `text` block.
    pub inline_prob: f64,
    /// Zipf exponent for word frequencies.
    pub zipf_exponent: f64,
}

impl Default for XmarkConfig {
    fn default() -> Self {
        XmarkConfig {
            target_bytes: 1 << 20,
            seed: 0x000F_1EE7,
            parlist_prob: 0.55,
            nested_parlist_prob: 0.25,
            max_parlist_depth: 3,
            incategory_zero_prob: 0.3,
            max_incategory: 3,
            max_mail: 4,
            inline_prob: 0.5,
            zipf_exponent: 1.0,
        }
    }
}

impl XmarkConfig {
    /// Convenience constructor for the common (size, seed) case.
    pub fn sized(target_bytes: usize, seed: u64) -> Self {
        XmarkConfig {
            target_bytes,
            seed,
            ..Default::default()
        }
    }
}

/// Generates a document.
pub fn generate(config: &XmarkConfig) -> Document {
    let mut gen = Generator {
        rng: StdRng::seed_from_u64(config.seed),
        vocab: Vocabulary::new(config.zipf_exponent),
        builder: DocumentBuilder::new(),
        bytes: 0,
        config,
        scratch: String::new(),
        item_seq: 0,
    };
    gen.run();
    gen.builder
        .finish()
        .expect("generator emits balanced events")
}

struct Generator<'c> {
    rng: StdRng,
    vocab: Vocabulary,
    builder: DocumentBuilder,
    bytes: usize,
    config: &'c XmarkConfig,
    scratch: String,
    item_seq: u64,
}

impl Generator<'_> {
    fn open(&mut self, tag: &str) {
        self.builder.start_element(tag);
        self.bytes += tag.len() * 2 + 5;
    }

    fn close(&mut self) {
        self.builder.end_element();
    }

    fn attr(&mut self, name: &str, value: &str) {
        self.builder.attribute(name, value);
        self.bytes += name.len() + value.len() + 4;
    }

    fn emit_text(&mut self, words: usize) {
        self.scratch.clear();
        let len = words.max(1);
        let mut sentence = std::mem::take(&mut self.scratch);
        self.vocab.sentence(&mut self.rng, len, &mut sentence);
        self.builder.text(&sentence);
        self.bytes += sentence.len();
        self.scratch = sentence;
    }

    fn leaf(&mut self, tag: &str, words: usize) {
        self.open(tag);
        self.emit_text(words);
        self.close();
    }

    fn run(&mut self) {
        self.open(SITE);

        // Categories: a small, size-proportional catalogue.
        let category_count = (self.config.target_bytes / 40_000).clamp(2, 400);
        self.open(CATEGORIES);
        for i in 0..category_count {
            self.open(CATEGORY);
            self.attr("id", &format!("category{i}"));
            self.leaf(NAME, 2);
            self.open(DESCRIPTION);
            self.text_block();
            self.close();
            self.close();
        }
        self.close();

        // Regions with items: the bulk of the document. Items are generated
        // until the byte budget is met, cycling through the six regions.
        self.open(REGIONS);
        let item_budget = self.config.target_bytes * 4 / 5;
        for (ri, region) in REGION_NAMES.iter().enumerate() {
            self.open(region);
            let region_budget = item_budget * (ri + 1) / REGION_NAMES.len();
            while self.bytes < region_budget || (ri == 0 && self.item_seq == 0) {
                self.item();
            }
            self.close();
        }
        self.close();

        // People: fills the remaining budget with non-item content so the
        // corpus is heterogeneous (items are ~80% of bytes).
        self.open(PEOPLE);
        let mut person = 0u64;
        while self.bytes < self.config.target_bytes {
            self.open(PERSON);
            self.attr("id", &format!("person{person}"));
            person += 1;
            self.leaf(NAME, 2);
            self.leaf(EMAILADDRESS, 1);
            if self.rng.gen_bool(0.6) {
                self.leaf(PHONE, 1);
            }
            self.close();
            if person > 10_000_000 {
                break; // safety net against a degenerate budget
            }
        }
        self.close();

        self.close(); // site
    }

    fn item(&mut self) {
        self.open(ITEM);
        let id = self.item_seq;
        self.item_seq += 1;
        self.attr("id", &format!("item{id}"));
        if self.rng.gen_bool(0.2) {
            self.attr("featured", "yes");
        }
        self.leaf(LOCATION, 1);
        self.leaf(QUANTITY, 1);
        let name_words = self.rng.gen_range(2..=4);
        self.leaf(NAME, name_words);
        let payment_words = self.rng.gen_range(1..=3);
        self.leaf(PAYMENT, payment_words);

        self.open(DESCRIPTION);
        if self.rng.gen_bool(self.config.parlist_prob) {
            self.parlist(1);
        } else {
            self.text_block();
        }
        self.close();

        let shipping_words = self.rng.gen_range(2..=5);
        self.leaf(SHIPPING, shipping_words);

        let incats = if self.rng.gen_bool(self.config.incategory_zero_prob) {
            0
        } else {
            self.rng.gen_range(1..=self.config.max_incategory.max(1))
        };
        for _ in 0..incats {
            self.open(INCATEGORY);
            let cat = self.rng.gen_range(0..64);
            self.attr("category", &format!("category{cat}"));
            self.close();
        }

        self.open(MAILBOX);
        let mails = self.rng.gen_range(0..=self.config.max_mail);
        for m in 0..mails {
            self.open(MAIL);
            self.leaf(FROM, 1);
            self.leaf(TO, 1);
            self.open(DATE);
            let day = self.rng.gen_range(1..=28);
            let month = self.rng.gen_range(1..=12);
            let date = format!("{:02}/{:02}/2003", month, day);
            self.builder.text(&date);
            self.bytes += date.len();
            self.close();
            let _ = m;
            self.text_block();
            self.close();
        }
        self.close();

        self.close(); // item
    }

    /// A recursive `parlist` of `listitem`s (XMark's recursion point).
    fn parlist(&mut self, depth: u32) {
        self.open(PARLIST);
        let items = self.rng.gen_range(1..=3);
        for _ in 0..items {
            self.open(LISTITEM);
            if depth < self.config.max_parlist_depth
                && self.rng.gen_bool(self.config.nested_parlist_prob)
            {
                self.parlist(depth + 1);
            } else {
                self.text_block();
            }
            self.close();
        }
        self.close();
    }

    /// A `text` mixed-content block with optional `bold`/`keyword`/`emph`
    /// inline children.
    fn text_block(&mut self) {
        self.open(TEXT);
        let lead_words = self.rng.gen_range(4..=12);
        self.emit_text(lead_words);
        for inline in [BOLD, KEYWORD, EMPH] {
            if self.rng.gen_bool(self.config.inline_prob) {
                let inline_words = self.rng.gen_range(1..=3);
                self.leaf(inline, inline_words);
                let trail_words = self.rng.gen_range(2..=8);
                self.emit_text(trail_words);
            }
        }
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexpath_xmldom::to_xml_string;

    #[test]
    fn generation_is_deterministic() {
        let cfg = XmarkConfig::sized(32 * 1024, 11);
        let a = to_xml_string(&generate(&cfg));
        let b = to_xml_string(&generate(&cfg));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = to_xml_string(&generate(&XmarkConfig::sized(16 * 1024, 1)));
        let b = to_xml_string(&generate(&XmarkConfig::sized(16 * 1024, 2)));
        assert_ne!(a, b);
    }

    #[test]
    fn size_tracks_target_within_tolerance() {
        for target in [64 * 1024, 256 * 1024] {
            let doc = generate(&XmarkConfig::sized(target, 5));
            let actual = to_xml_string(&doc).len();
            let ratio = actual as f64 / target as f64;
            assert!(
                (0.5..2.0).contains(&ratio),
                "target {target} produced {actual} bytes (ratio {ratio:.2})"
            );
        }
    }

    #[test]
    fn schema_features_for_relaxation_are_present() {
        let doc = generate(&XmarkConfig::sized(256 * 1024, 3));
        // Recursive parlist: some parlist strictly inside another.
        let parlists = doc.nodes_with_tag_name("parlist");
        assert!(!parlists.is_empty());
        let nested = parlists
            .iter()
            .any(|&p| parlists.iter().any(|&q| doc.is_ancestor(p, q)));
        assert!(nested, "expected nested parlists for axis generalization");
        // Optional incategory: some items with, some without.
        let incat_items: Vec<bool> = doc
            .nodes_with_tag_name("item")
            .iter()
            .map(|&item| {
                doc.children(item)
                    .any(|c| doc.tag_name(c) == Some("incategory"))
            })
            .collect();
        assert!(incat_items.iter().any(|&b| b));
        assert!(incat_items.iter().any(|&b| !b));
        // Shared text: under both listitem and mail.
        let texts = doc.nodes_with_tag_name("text");
        let under = |name: &str| {
            texts.iter().any(|&t| {
                doc.parent(t)
                    .and_then(|p| doc.tag_name(p))
                    .map(|n| n == name)
                    .unwrap_or(false)
            })
        };
        assert!(under("listitem"), "text under listitem");
        assert!(under("mail"), "text under mail");
        assert!(under("description"), "text directly under description");
    }

    #[test]
    fn generated_document_round_trips_through_parser() {
        let doc = generate(&XmarkConfig::sized(32 * 1024, 8));
        let xml = to_xml_string(&doc);
        let reparsed = flexpath_xmldom::parse(&xml).unwrap();
        assert_eq!(reparsed.node_count(), doc.node_count());
        assert_eq!(to_xml_string(&reparsed), xml);
    }

    #[test]
    fn every_region_gets_items() {
        let doc = generate(&XmarkConfig::sized(512 * 1024, 4));
        for region in REGION_NAMES {
            let r = doc.nodes_with_tag_name(region)[0];
            let has_item = doc.children(r).any(|c| doc.tag_name(c) == Some("item"));
            assert!(has_item, "region {region} has no items");
        }
    }

    #[test]
    fn tiny_budget_still_yields_valid_document() {
        let doc = generate(&XmarkConfig::sized(1, 1));
        assert_eq!(doc.tag_name(doc.root_element()), Some("site"));
        assert!(!doc.nodes_with_tag_name("item").is_empty());
    }
}
