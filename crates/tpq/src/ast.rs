//! The tree pattern query model `(T, F)` (paper Section 2.1).
//!
//! A [`Tpq`] is a rooted tree whose nodes are *variables* (`$1`, `$2`, …)
//! connected by parent-child or ancestor-descendant edges, annotated with
//! value-based predicates: tag equality, attribute comparisons, and
//! `contains` full-text predicates. One node is *distinguished* — matches
//! of that node are the query answers.
//!
//! Variables ([`Var`]) are stable identities: relaxation operators produce
//! new `Tpq` values but preserve the variable numbers of surviving nodes,
//! which is what lets dropped-predicate sets from successive relaxations be
//! compared against the original query's closure.

use flexpath_ftsearch::FtExpr;
use std::fmt;

/// A query variable (`$i` in the paper). Stable across relaxations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "${}", self.0)
    }
}

/// Edge axis between a node and its query parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Axis {
    /// Parent-child containment (single edge in Figure 1).
    Child,
    /// Ancestor-descendant containment (double edge in Figure 1).
    Descendant,
}

/// Comparison operator in an attribute predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AttrOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl fmt::Display for AttrOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AttrOp::Eq => "=",
            AttrOp::Ne => "!=",
            AttrOp::Lt => "<",
            AttrOp::Le => "<=",
            AttrOp::Gt => ">",
            AttrOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// A value-based predicate `$i.attr relOp value` (paper Section 2.1).
///
/// Comparisons are numeric when both sides parse as numbers, string
/// (lexicographic) otherwise.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrPred {
    /// Attribute name.
    pub name: Box<str>,
    /// Comparison operator.
    pub op: AttrOp,
    /// Right-hand literal (as written).
    pub value: Box<str>,
}

impl AttrPred {
    /// Evaluates the predicate against an attribute value (`None` when the
    /// attribute is absent — predicate fails).
    pub fn eval(&self, actual: Option<&str>) -> bool {
        let Some(actual) = actual else { return false };
        match (actual.parse::<f64>(), self.value.parse::<f64>()) {
            (Ok(a), Ok(b)) => match self.op {
                AttrOp::Eq => a == b,
                AttrOp::Ne => a != b,
                AttrOp::Lt => a < b,
                AttrOp::Le => a <= b,
                AttrOp::Gt => a > b,
                AttrOp::Ge => a >= b,
            },
            _ => match self.op {
                AttrOp::Eq => actual == &*self.value,
                AttrOp::Ne => actual != &*self.value,
                AttrOp::Lt => actual < &*self.value,
                AttrOp::Le => actual <= &*self.value,
                AttrOp::Gt => actual > &*self.value,
                AttrOp::Ge => actual >= &*self.value,
            },
        }
    }
}

impl fmt::Display for AttrPred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{} {} {:?}", self.name, self.op, &*self.value)
    }
}

/// One node of a [`Tpq`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TpqNode {
    /// Stable variable identity.
    pub var: Var,
    /// Tag-equality predicate (`None` = wildcard).
    pub tag: Option<Box<str>>,
    /// Index of the parent node (`None` for the root).
    pub parent: Option<usize>,
    /// Axis of the edge to the parent (meaningless for the root).
    pub axis: Axis,
    /// `contains($var, expr)` predicates attached to this node.
    pub contains: Vec<FtExpr>,
    /// Attribute predicates attached to this node.
    pub attrs: Vec<AttrPred>,
}

/// A tree pattern query.
///
/// Immutable; relaxation operators build new values. Node storage is in
/// pre-order (the root is index 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tpq {
    pub(crate) nodes: Vec<TpqNode>,
    pub(crate) distinguished: usize,
}

impl Tpq {
    /// Number of query nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Node index of the root (always `0`).
    pub fn root(&self) -> usize {
        0
    }

    /// The distinguished node's index.
    pub fn distinguished(&self) -> usize {
        self.distinguished
    }

    /// The distinguished node's variable.
    pub fn distinguished_var(&self) -> Var {
        self.nodes[self.distinguished].var
    }

    /// Node data by index.
    pub fn node(&self, idx: usize) -> &TpqNode {
        &self.nodes[idx]
    }

    /// All nodes in pre-order.
    pub fn nodes(&self) -> &[TpqNode] {
        &self.nodes
    }

    /// Index of the node carrying variable `v`, if present.
    pub fn index_of(&self, v: Var) -> Option<usize> {
        self.nodes.iter().position(|n| n.var == v)
    }

    /// Child node indices of `idx`.
    pub fn children(&self, idx: usize) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].parent == Some(idx))
            .collect()
    }

    /// Whether node `idx` is a leaf.
    pub fn is_leaf(&self, idx: usize) -> bool {
        self.nodes.iter().all(|n| n.parent != Some(idx))
    }

    /// Indices of all leaves.
    pub fn leaves(&self) -> Vec<usize> {
        (0..self.nodes.len()).filter(|&i| self.is_leaf(i)).collect()
    }

    /// Strict ancestor indices of `idx`, nearest first.
    pub fn ancestors(&self, idx: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut cur = self.nodes[idx].parent;
        while let Some(p) = cur {
            out.push(p);
            cur = self.nodes[p].parent;
        }
        out
    }

    /// Total number of `contains` predicates (the `m` of the Combined-scheme
    /// pruning bound in Section 5.1).
    pub fn contains_count(&self) -> usize {
        self.nodes.iter().map(|n| n.contains.len()).sum()
    }

    /// Returns a copy with every `contains` expression rewritten by `f`
    /// (used e.g. for thesaurus expansion, paper Section 3.4).
    pub fn map_contains(&self, mut f: impl FnMut(&FtExpr) -> FtExpr) -> Tpq {
        let mut out = self.clone();
        for node in &mut out.nodes {
            for expr in &mut node.contains {
                *expr = f(expr);
            }
        }
        out
    }

    /// Renders the query in the paper's XPath-ish syntax (best effort; the
    /// output re-parses to an equivalent query for parser-expressible
    /// shapes).
    pub fn to_xpath(&self) -> String {
        let mut out = String::from("//");
        self.render_node(0, &mut out);
        out
    }

    fn render_node(&self, idx: usize, out: &mut String) {
        let n = &self.nodes[idx];
        out.push_str(n.tag.as_deref().unwrap_or("*"));
        let mut preds: Vec<String> = Vec::new();
        for a in &n.attrs {
            preds.push(format!("@{} {} \"{}\"", a.name, a.op, a.value));
        }
        for c in &n.contains {
            preds.push(format!(".contains({c})"));
        }
        for child in self.children(idx) {
            let axis = match self.nodes[child].axis {
                Axis::Child => "./",
                Axis::Descendant => ".//",
            };
            let mut sub = String::from(axis);
            self.render_node(child, &mut sub);
            preds.push(sub);
        }
        if !preds.is_empty() {
            out.push('[');
            out.push_str(&preds.join(" and "));
            out.push(']');
        }
    }
}

impl fmt::Display for Tpq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (answers: {})",
            self.to_xpath(),
            self.distinguished_var()
        )
    }
}

/// Builder for [`Tpq`] values.
///
/// ```
/// use flexpath_tpq::{TpqBuilder, Axis};
/// use flexpath_ftsearch::FtExpr;
///
/// let mut b = TpqBuilder::new("article");
/// let section = b.child(b.root(), "section");
/// let para = b.child(section, "paragraph");
/// b.add_contains(para, FtExpr::all_of(&["XML", "streaming"]));
/// let q = b.build();
/// assert_eq!(q.node_count(), 3);
/// assert_eq!(q.distinguished(), q.root()); // default
/// ```
#[derive(Debug, Clone)]
pub struct TpqBuilder {
    nodes: Vec<TpqNode>,
    distinguished: usize,
    next_var: u32,
}

impl TpqBuilder {
    /// Starts a query whose root has tag `tag` (variable `$1`). The root is
    /// the distinguished node until [`set_distinguished`](Self::set_distinguished).
    pub fn new(tag: &str) -> Self {
        TpqBuilder {
            nodes: vec![TpqNode {
                var: Var(1),
                tag: Some(tag.into()),
                parent: None,
                axis: Axis::Child,
                contains: Vec::new(),
                attrs: Vec::new(),
            }],
            distinguished: 0,
            next_var: 2,
        }
    }

    /// Root node index (always 0).
    pub fn root(&self) -> usize {
        0
    }

    /// Adds a child-axis node under `parent`; returns its index.
    pub fn child(&mut self, parent: usize, tag: &str) -> usize {
        self.add(parent, Some(tag), Axis::Child)
    }

    /// Adds a descendant-axis node under `parent`; returns its index.
    pub fn descendant(&mut self, parent: usize, tag: &str) -> usize {
        self.add(parent, Some(tag), Axis::Descendant)
    }

    /// Adds a wildcard (untagged) node.
    pub fn wildcard(&mut self, parent: usize, axis: Axis) -> usize {
        self.add(parent, None, axis)
    }

    fn add(&mut self, parent: usize, tag: Option<&str>, axis: Axis) -> usize {
        assert!(parent < self.nodes.len(), "parent index out of range");
        let idx = self.nodes.len();
        self.nodes.push(TpqNode {
            var: Var(self.next_var),
            tag: tag.map(Into::into),
            parent: Some(parent),
            axis,
            contains: Vec::new(),
            attrs: Vec::new(),
        });
        self.next_var += 1;
        idx
    }

    /// Attaches a `contains` predicate to node `idx`.
    pub fn add_contains(&mut self, idx: usize, expr: FtExpr) {
        self.nodes[idx].contains.push(expr);
    }

    /// Marks node `idx` as the distinguished node.
    pub fn set_distinguished(&mut self, idx: usize) {
        assert!(idx < self.nodes.len(), "node index out of range");
        self.distinguished = idx;
    }

    /// Finalizes the query.
    pub fn build(self) -> Tpq {
        Tpq {
            nodes: self.nodes,
            distinguished: self.distinguished,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_q1() -> Tpq {
        // Q1 of Figure 1: //article[./section[./algorithm and ./paragraph[
        //   .contains("XML" and "streaming")]]]
        let mut b = TpqBuilder::new("article");
        let s = b.child(0, "section");
        let _a = b.child(s, "algorithm");
        let p = b.child(s, "paragraph");
        b.add_contains(p, FtExpr::all_of(&["XML", "streaming"]));
        b.build()
    }

    #[test]
    fn builder_assigns_sequential_vars() {
        let q = paper_q1();
        let vars: Vec<u32> = q.nodes().iter().map(|n| n.var.0).collect();
        assert_eq!(vars, [1, 2, 3, 4]);
    }

    #[test]
    fn structure_accessors() {
        let q = paper_q1();
        assert_eq!(q.node_count(), 4);
        assert_eq!(q.children(0), vec![1]);
        assert_eq!(q.children(1), vec![2, 3]);
        assert!(q.is_leaf(2) && q.is_leaf(3));
        assert!(!q.is_leaf(0));
        assert_eq!(q.leaves(), vec![2, 3]);
        assert_eq!(q.ancestors(3), vec![1, 0]);
        assert_eq!(q.contains_count(), 1);
        assert_eq!(q.distinguished_var(), Var(1));
    }

    #[test]
    fn index_of_finds_vars() {
        let q = paper_q1();
        assert_eq!(q.index_of(Var(3)), Some(2));
        assert_eq!(q.index_of(Var(9)), None);
    }

    #[test]
    fn to_xpath_renders_structure() {
        let q = paper_q1();
        let s = q.to_xpath();
        assert!(s.starts_with("//article["), "{s}");
        assert!(s.contains("./section"), "{s}");
        assert!(s.contains(".contains("), "{s}");
    }

    #[test]
    fn attr_pred_numeric_and_string_eval() {
        let lt = AttrPred {
            name: "price".into(),
            op: AttrOp::Lt,
            value: "100".into(),
        };
        assert!(lt.eval(Some("99.5")));
        assert!(!lt.eval(Some("100")));
        assert!(!lt.eval(None));
        let eq = AttrPred {
            name: "id".into(),
            op: AttrOp::Eq,
            value: "item3".into(),
        };
        assert!(eq.eval(Some("item3")));
        assert!(!eq.eval(Some("item30")));
        let ge = AttrPred {
            name: "q".into(),
            op: AttrOp::Ge,
            value: "10".into(),
        };
        assert!(!ge.eval(Some("9")), "9 >= 10 is numerically false");
        assert!(ge.eval(Some("10")));
        assert!(ge.eval(Some("25")));
    }

    #[test]
    fn numeric_comparison_is_numeric_not_lexicographic() {
        let lt = AttrPred {
            name: "n".into(),
            op: AttrOp::Lt,
            value: "10".into(),
        };
        assert!(lt.eval(Some("9")), "9 < 10 numerically");
        let string_lt = AttrPred {
            name: "n".into(),
            op: AttrOp::Lt,
            value: "b".into(),
        };
        assert!(string_lt.eval(Some("a")));
    }

    #[test]
    fn wildcard_nodes_have_no_tag() {
        let mut b = TpqBuilder::new("a");
        let w = b.wildcard(0, Axis::Descendant);
        let q = b.build();
        assert!(q.node(w).tag.is_none());
        assert!(q.to_xpath().contains('*'));
    }

    #[test]
    fn distinguished_can_be_inner_node() {
        let mut b = TpqBuilder::new("a");
        let c = b.child(0, "b");
        b.set_distinguished(c);
        let q = b.build();
        assert_eq!(q.distinguished(), c);
        assert_eq!(q.distinguished_var(), Var(2));
    }
}
