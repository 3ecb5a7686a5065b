//! The property–structure view `M(D)` of an RDF graph (Section 2.1).
//!
//! `M(D)` is an `|S(D)| × |P(D)|` 0/1 matrix: `M[s][p] = 1` iff subject `s`
//! has property `p` in `D`. It deliberately discards object values — the
//! structuredness framework only looks at which properties are *set*.
//!
//! Both constructors read the rows straight off the graph's subject index
//! through a predicate-id → column table: one pass over the triples of the
//! subjects in the view. For a sort `t`, [`PropertyStructureView::from_sort`]
//! costs O(|D_t|) plus two zeroed id-indexed tables, and never copies the
//! typed subgraph `D_t`.

use std::collections::{BTreeMap, BTreeSet};

use crate::bitset::BitSet;
use crate::error::ModelError;
use crate::graph::Graph;
use crate::term::{IriId, Object};
use crate::vocab::RDF_TYPE;

/// The property–structure view of an RDF graph: a dense 0/1 matrix with
/// labelled rows (subjects) and columns (properties).
///
/// Rows are stored as [`BitSet`]s over the property columns, so a 790 703 ×
/// 8 matrix (DBpedia Persons) occupies roughly one machine word per subject.
#[derive(Clone, Debug)]
pub struct PropertyStructureView {
    properties: Vec<String>,
    property_index: BTreeMap<String, usize>,
    subjects: Vec<String>,
    rows: Vec<BitSet>,
}

impl PropertyStructureView {
    /// Builds the view from a graph: one row per subject, in id order.
    ///
    /// When `exclude_rdf_type` is true the `rdf:type` property is dropped
    /// from the columns, matching the paper's dataset descriptions
    /// ("8 properties, excluding the type property").
    pub fn from_graph(graph: &Graph, exclude_rdf_type: bool) -> Self {
        Self::from_subjects(graph, graph.subjects(), exclude_rdf_type)
    }

    /// Builds the view of the typed subgraph `D_t` for the given sort IRI,
    /// straight from `graph`'s subject index.
    ///
    /// The result equals `from_graph(&graph.typed_subgraph(sort), ..)`
    /// field by field, rows in the same order, without copying `D_t`.
    pub fn from_sort(
        graph: &Graph,
        sort: &str,
        exclude_rdf_type: bool,
    ) -> Result<Self, ModelError> {
        let members = graph
            .sort_members(sort)
            .ok_or_else(|| ModelError::EmptySort(sort.to_owned()))?;
        let subjects = first_mention_order(graph, members);
        Ok(Self::from_subjects(graph, subjects, exclude_rdf_type))
    }

    /// The row builder behind both constructors: one row per subject, in the
    /// given order, over the sorted labels of every property those subjects
    /// have.
    fn from_subjects(graph: &Graph, subjects: Vec<IriId>, exclude_rdf_type: bool) -> Self {
        // Predicate id → column + 1; 0 marks an IRI that is not a column.
        let mut column = vec![0u32; graph.dictionary().iri_count()];
        let mut predicates = Vec::new();
        for &subject in &subjects {
            for triple in graph.subject_triples(subject) {
                let slot = &mut column[triple.predicate.index()];
                if *slot == 0 {
                    *slot = 1;
                    predicates.push(triple.predicate);
                }
            }
        }
        predicates.sort_unstable_by_key(|&p| graph.iri(p));
        let mut properties = Vec::with_capacity(predicates.len());
        for p in predicates {
            let label = graph.iri(p);
            column[p.index()] = if exclude_rdf_type && label == RDF_TYPE {
                0
            } else {
                properties.push(label.to_owned());
                properties.len() as u32
            };
        }

        let mut labels = Vec::with_capacity(subjects.len());
        let mut rows = Vec::with_capacity(subjects.len());
        for subject in subjects {
            let mut row = BitSet::new(properties.len());
            for triple in graph.subject_triples(subject) {
                // Subjects that only have excluded properties (e.g. only an
                // rdf:type triple) still count as subjects; their row is
                // all-zero, as in the paper's matrix definition restricted
                // to the retained columns.
                if let Some(col) = column[triple.predicate.index()].checked_sub(1) {
                    row.insert(col as usize);
                }
            }
            labels.push(graph.iri(subject).to_owned());
            rows.push(row);
        }
        let property_index = properties
            .iter()
            .enumerate()
            .map(|(i, p)| (p.clone(), i))
            .collect();
        PropertyStructureView {
            properties,
            property_index,
            subjects: labels,
            rows,
        }
    }

    /// Builds a view directly from labelled rows. Intended for synthetic data
    /// and tests. All rows must have capacity equal to `properties.len()`.
    pub fn from_rows(
        properties: Vec<String>,
        subjects: Vec<String>,
        rows: Vec<BitSet>,
    ) -> Result<Self, ModelError> {
        if subjects.len() != rows.len() {
            return Err(ModelError::DimensionMismatch {
                context: "property-structure view rows",
                expected: subjects.len(),
                actual: rows.len(),
            });
        }
        for row in &rows {
            if row.capacity() != properties.len() {
                return Err(ModelError::DimensionMismatch {
                    context: "property-structure view row capacity",
                    expected: properties.len(),
                    actual: row.capacity(),
                });
            }
        }
        let property_index = properties
            .iter()
            .enumerate()
            .map(|(i, p)| (p.clone(), i))
            .collect();
        Ok(PropertyStructureView {
            properties,
            property_index,
            subjects,
            rows,
        })
    }

    /// Number of subjects (rows), `|S(D)|`.
    pub fn subject_count(&self) -> usize {
        self.subjects.len()
    }

    /// Number of properties (columns), `|P(D)|`.
    pub fn property_count(&self) -> usize {
        self.properties.len()
    }

    /// The property labels in column order.
    pub fn properties(&self) -> &[String] {
        &self.properties
    }

    /// The subject labels in row order.
    pub fn subjects(&self) -> &[String] {
        &self.subjects
    }

    /// The column index of a property label, if present.
    pub fn property_index(&self, property: &str) -> Option<usize> {
        self.property_index.get(property).copied()
    }

    /// The matrix cell `M[row][col]`.
    pub fn value(&self, row: usize, col: usize) -> bool {
        self.rows[row].contains(col)
    }

    /// The row bit set of a subject.
    pub fn row(&self, row: usize) -> &BitSet {
        &self.rows[row]
    }

    /// Total number of 1-cells in the matrix (`Σ_{s,p} M[s][p]`).
    pub fn ones(&self) -> usize {
        self.rows.iter().map(BitSet::len).sum()
    }

    /// Number of subjects that have the property in column `col`.
    pub fn column_count(&self, col: usize) -> usize {
        self.rows.iter().filter(|row| row.contains(col)).count()
    }
}

/// The members of a sort in the order [`Graph::typed_subgraph`] interns
/// them, which is the subject order of the subgraph's view.
///
/// The subgraph is built member by member in id order; each triple interns
/// its subject, predicate and IRI object, and the first triple is followed
/// by `rdf:type`. A member mentioned by an earlier member's triple (say as
/// its object) therefore comes before its own turn.
fn first_mention_order(graph: &Graph, members: &BTreeSet<IriId>) -> Vec<IriId> {
    const MEMBER: u8 = 1;
    const PLACED: u8 = 2;
    let mut state = vec![0u8; graph.dictionary().iri_count()];
    for member in members {
        state[member.index()] = MEMBER;
    }
    let mut order = Vec::with_capacity(members.len());
    let mut mention = |id: IriId| {
        let slot = &mut state[id.index()];
        if *slot == MEMBER {
            *slot = PLACED;
            order.push(id);
        }
    };
    let rdf_type = graph.dictionary().iri_id(RDF_TYPE);
    let mut first = true;
    for &member in members {
        for triple in graph.subject_triples(member) {
            mention(triple.subject);
            mention(triple.predicate);
            if let Object::Iri(object) = triple.object {
                mention(object);
            }
            if std::mem::take(&mut first) {
                if let Some(rdf_type) = rdf_type {
                    mention(rdf_type);
                }
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Literal;

    fn example_graph() -> Graph {
        let mut g = Graph::new();
        for (subject, props) in [
            ("http://ex/s1", vec!["name", "birthDate", "deathDate"]),
            ("http://ex/s2", vec!["name", "birthDate"]),
            ("http://ex/s3", vec!["name"]),
        ] {
            g.insert_type(subject, "http://ex/Person");
            for p in props {
                g.insert_literal_triple(subject, &format!("http://ex/{p}"), Literal::simple("v"));
            }
        }
        g
    }

    #[test]
    fn from_graph_excluding_type() {
        let g = example_graph();
        let view = PropertyStructureView::from_graph(&g, true);
        assert_eq!(view.subject_count(), 3);
        assert_eq!(view.property_count(), 3);
        assert!(!view.properties().iter().any(|p| p == RDF_TYPE));
        assert_eq!(view.ones(), 6);
    }

    #[test]
    fn from_graph_including_type() {
        let g = example_graph();
        let view = PropertyStructureView::from_graph(&g, false);
        assert_eq!(view.property_count(), 4);
        assert_eq!(view.ones(), 9);
    }

    #[test]
    fn from_sort_errors_on_unknown_sort() {
        let g = example_graph();
        let err = PropertyStructureView::from_sort(&g, "http://ex/Nope", true).unwrap_err();
        assert!(matches!(err, ModelError::EmptySort(_)));
    }

    #[test]
    fn cell_values_match_graph() {
        let g = example_graph();
        let view = PropertyStructureView::from_graph(&g, true);
        let name = view.property_index("http://ex/name").unwrap();
        let death = view.property_index("http://ex/deathDate").unwrap();
        let s1 = view
            .subjects()
            .iter()
            .position(|s| s == "http://ex/s1")
            .unwrap();
        let s3 = view
            .subjects()
            .iter()
            .position(|s| s == "http://ex/s3")
            .unwrap();
        assert!(view.value(s1, name));
        assert!(view.value(s1, death));
        assert!(view.value(s3, name));
        assert!(!view.value(s3, death));
        assert_eq!(view.column_count(name), 3);
        assert_eq!(view.column_count(death), 1);
    }

    #[test]
    fn from_rows_validates_dimensions() {
        let err = PropertyStructureView::from_rows(
            vec!["p".into()],
            vec!["s".into()],
            vec![BitSet::new(2)],
        )
        .unwrap_err();
        assert!(matches!(err, ModelError::DimensionMismatch { .. }));

        let err = PropertyStructureView::from_rows(
            vec!["p".into()],
            vec!["s".into(), "t".into()],
            vec![BitSet::new(1)],
        )
        .unwrap_err();
        assert!(matches!(err, ModelError::DimensionMismatch { .. }));

        let view = PropertyStructureView::from_rows(
            vec!["p".into(), "q".into()],
            vec!["s".into()],
            vec![BitSet::from_indexes(2, &[1])],
        )
        .unwrap();
        assert!(view.value(0, 1));
        assert!(!view.value(0, 0));
    }
}
