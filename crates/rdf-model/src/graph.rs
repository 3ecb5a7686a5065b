//! The in-memory RDF graph: a set of triples plus an interning dictionary and
//! the indexes needed to answer the structural queries the paper relies on
//! (`S(D)`, `P(D)`, "s has property p in D", and the typed subgraph `D_t`).

use std::collections::{BTreeMap, BTreeSet, HashSet};

use crate::term::{Dictionary, IriId, Literal, Object};
use crate::vocab::RDF_TYPE;

/// An RDF triple with interned components.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Triple {
    /// Subject (always an IRI, as in the paper's definition).
    pub subject: IriId,
    /// Predicate / property (always an IRI).
    pub predicate: IriId,
    /// Object: IRI or literal.
    pub object: Object,
}

/// A finite set of RDF triples (the paper's RDF graph `D`) with its dictionary.
///
/// The graph deduplicates triples on insertion and maintains:
/// * a subject index (`subject → triple positions`) used to enumerate the
///   entity of a subject,
/// * a predicate index used to compute `P(D)` and per-property statistics,
/// * a type index (`sort → subjects`) used to extract the typed subgraph
///   `D_t = {(s,p,o) ∈ D | (s, rdf:type, t) ∈ D}`.
#[derive(Clone, Default, Debug)]
pub struct Graph {
    dictionary: Dictionary,
    triples: Vec<Triple>,
    seen: HashSet<Triple>,
    by_subject: BTreeMap<IriId, Vec<usize>>,
    by_predicate: BTreeMap<IriId, Vec<usize>>,
    by_type: BTreeMap<IriId, BTreeSet<IriId>>,
    rdf_type: Option<IriId>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Shared access to the interning dictionary.
    pub fn dictionary(&self) -> &Dictionary {
        &self.dictionary
    }

    /// Mutable access to the interning dictionary (for pre-interning terms).
    pub fn dictionary_mut(&mut self) -> &mut Dictionary {
        &mut self.dictionary
    }

    /// Number of distinct triples in the graph.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// Whether the graph contains no triples.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// Iterates over all triples in insertion order.
    pub fn triples(&self) -> impl Iterator<Item = &Triple> {
        self.triples.iter()
    }

    /// Interns an IRI in this graph's dictionary.
    pub fn intern_iri(&mut self, iri: &str) -> IriId {
        self.dictionary.intern_iri(iri)
    }

    /// Returns the string form of an interned IRI.
    pub fn iri(&self, id: IriId) -> &str {
        self.dictionary.iri(id)
    }

    /// Inserts a triple given interned components. Returns `true` if the
    /// triple was not already present.
    pub fn insert(&mut self, subject: IriId, predicate: IriId, object: Object) -> bool {
        let triple = Triple {
            subject,
            predicate,
            object,
        };
        if !self.seen.insert(triple) {
            return false;
        }
        let pos = self.triples.len();
        self.triples.push(triple);
        self.by_subject.entry(subject).or_default().push(pos);
        self.by_predicate.entry(predicate).or_default().push(pos);

        let rdf_type = *self
            .rdf_type
            .get_or_insert_with(|| self.dictionary.intern_iri(RDF_TYPE));
        if predicate == rdf_type {
            if let Object::Iri(sort) = object {
                self.by_type.entry(sort).or_default().insert(subject);
            }
        }
        true
    }

    /// Convenience: inserts a triple with an IRI object, interning all strings.
    pub fn insert_iri_triple(&mut self, subject: &str, predicate: &str, object: &str) -> bool {
        let s = self.dictionary.intern_iri(subject);
        let p = self.dictionary.intern_iri(predicate);
        let o = self.dictionary.intern_iri(object);
        self.insert(s, p, Object::Iri(o))
    }

    /// Convenience: inserts a triple with a literal object, interning all strings.
    pub fn insert_literal_triple(
        &mut self,
        subject: &str,
        predicate: &str,
        literal: Literal,
    ) -> bool {
        let s = self.dictionary.intern_iri(subject);
        let p = self.dictionary.intern_iri(predicate);
        let o = self.dictionary.intern_literal(literal);
        self.insert(s, p, Object::Literal(o))
    }

    /// Convenience: declares `subject rdf:type sort`.
    pub fn insert_type(&mut self, subject: &str, sort: &str) -> bool {
        self.insert_iri_triple(subject, RDF_TYPE, sort)
    }

    /// The set of subjects `S(D)` in id order.
    pub fn subjects(&self) -> Vec<IriId> {
        self.by_subject.keys().copied().collect()
    }

    /// The set of properties `P(D)` in id order.
    pub fn properties(&self) -> Vec<IriId> {
        self.by_predicate.keys().copied().collect()
    }

    /// Number of distinct subjects.
    pub fn subject_count(&self) -> usize {
        self.by_subject.len()
    }

    /// Number of distinct properties.
    pub fn property_count(&self) -> usize {
        self.by_predicate.len()
    }

    /// Returns whether `s` has property `p` in this graph (the paper's
    /// "s has property p in D": ∃o. (s,p,o) ∈ D).
    pub fn has_property(&self, subject: IriId, property: IriId) -> bool {
        self.by_subject
            .get(&subject)
            .map(|positions| {
                positions
                    .iter()
                    .any(|&pos| self.triples[pos].predicate == property)
            })
            .unwrap_or(false)
    }

    /// All triples whose subject is `subject` (the *entity* of the subject).
    pub fn entity(&self, subject: IriId) -> Vec<Triple> {
        self.subject_triples(subject).copied().collect()
    }

    /// The triples whose subject is `subject`, in insertion order, borrowed
    /// from the graph (the copy-free form of [`Graph::entity`]).
    pub(crate) fn subject_triples(&self, subject: IriId) -> impl Iterator<Item = &Triple> {
        self.by_subject
            .get(&subject)
            .into_iter()
            .flatten()
            .map(|&pos| &self.triples[pos])
    }

    /// The subjects declared to be of the sort named `sort`, in id order, or
    /// `None` if no subject is.
    pub(crate) fn sort_members(&self, sort: &str) -> Option<&BTreeSet<IriId>> {
        self.by_type.get(&self.dictionary.iri_id(sort)?)
    }

    /// The sorts (IRIs `t`) for which some `(s, rdf:type, t)` triple exists.
    pub fn sorts(&self) -> Vec<IriId> {
        self.by_type.keys().copied().collect()
    }

    /// The subjects explicitly declared to be of sort `sort`.
    pub fn subjects_of_sort(&self, sort: IriId) -> Vec<IriId> {
        self.by_type
            .get(&sort)
            .map(|set| set.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Looks up a sort by IRI string and returns its declared subjects.
    pub fn subjects_of_sort_named(&self, sort: &str) -> Vec<IriId> {
        match self.dictionary.iri_id(sort) {
            Some(id) => self.subjects_of_sort(id),
            None => Vec::new(),
        }
    }

    /// Extracts the typed subgraph `D_t`: all triples whose subject is
    /// declared (via `rdf:type`) to be of sort `sort`. The returned graph
    /// shares no storage with `self` but re-interns the same strings, so ids
    /// are *not* comparable across the two graphs.
    pub fn typed_subgraph(&self, sort: &str) -> Graph {
        let mut result = Graph::new();
        let Some(members) = self.sort_members(sort) else {
            return result;
        };
        for &subject in members {
            for triple in self.entity(subject) {
                let s = result
                    .dictionary
                    .intern_iri(self.dictionary.iri(triple.subject));
                let p = result
                    .dictionary
                    .intern_iri(self.dictionary.iri(triple.predicate));
                let o = match triple.object {
                    Object::Iri(id) => {
                        Object::Iri(result.dictionary.intern_iri(self.dictionary.iri(id)))
                    }
                    Object::Literal(id) => Object::Literal(
                        result
                            .dictionary
                            .intern_literal(self.dictionary.literal(id).clone()),
                    ),
                };
                result.insert(s, p, o);
            }
        }
        result
    }

    /// Per-property subject counts: for each property `p`, the number of
    /// distinct subjects that have `p`.
    pub fn property_subject_counts(&self) -> BTreeMap<IriId, usize> {
        let mut counts = BTreeMap::new();
        for (&p, positions) in &self.by_predicate {
            let distinct: BTreeSet<IriId> = positions
                .iter()
                .map(|&pos| self.triples[pos].subject)
                .collect();
            counts.insert(p, distinct.len());
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn person_graph() -> Graph {
        let mut g = Graph::new();
        g.insert_type("http://ex/alice", "http://ex/Person");
        g.insert_literal_triple(
            "http://ex/alice",
            "http://ex/name",
            Literal::simple("Alice"),
        );
        g.insert_literal_triple(
            "http://ex/alice",
            "http://ex/birthDate",
            Literal::simple("1980-01-01"),
        );
        g.insert_type("http://ex/bob", "http://ex/Person");
        g.insert_literal_triple("http://ex/bob", "http://ex/name", Literal::simple("Bob"));
        g.insert_iri_triple("http://ex/acme", "http://ex/industry", "http://ex/Pharma");
        g.insert_type("http://ex/acme", "http://ex/Company");
        g
    }

    #[test]
    fn duplicate_triples_are_ignored() {
        let mut g = Graph::new();
        assert!(g.insert_iri_triple("http://s", "http://p", "http://o"));
        assert!(!g.insert_iri_triple("http://s", "http://p", "http://o"));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn subjects_and_properties_are_reported() {
        let g = person_graph();
        assert_eq!(g.subject_count(), 3);
        // rdf:type, name, birthDate, industry.
        assert_eq!(g.property_count(), 4);
        let alice = g.dictionary().iri_id("http://ex/alice").unwrap();
        let name = g.dictionary().iri_id("http://ex/name").unwrap();
        let birth = g.dictionary().iri_id("http://ex/birthDate").unwrap();
        assert!(g.has_property(alice, name));
        assert!(g.has_property(alice, birth));
        let bob = g.dictionary().iri_id("http://ex/bob").unwrap();
        assert!(!g.has_property(bob, birth));
    }

    #[test]
    fn typed_subgraph_keeps_whole_entities() {
        let g = person_graph();
        let persons = g.typed_subgraph("http://ex/Person");
        assert_eq!(persons.subject_count(), 2);
        // Alice's entity: type, name, birthDate; Bob's: type, name.
        assert_eq!(persons.len(), 5);
        let companies = g.typed_subgraph("http://ex/Company");
        assert_eq!(companies.subject_count(), 1);
        assert_eq!(companies.len(), 2);
        let nothing = g.typed_subgraph("http://ex/DoesNotExist");
        assert!(nothing.is_empty());
    }

    #[test]
    fn sorts_and_membership() {
        let g = person_graph();
        let sorts: Vec<&str> = g.sorts().iter().map(|&id| g.iri(id)).collect();
        assert!(sorts.contains(&"http://ex/Person"));
        assert!(sorts.contains(&"http://ex/Company"));
        assert_eq!(g.subjects_of_sort_named("http://ex/Person").len(), 2);
        assert_eq!(g.subjects_of_sort_named("http://ex/Nope").len(), 0);
    }

    #[test]
    fn entity_returns_all_triples_of_subject() {
        let g = person_graph();
        let alice = g.dictionary().iri_id("http://ex/alice").unwrap();
        assert_eq!(g.entity(alice).len(), 3);
    }

    #[test]
    fn property_subject_counts_are_distinct_subject_counts() {
        let mut g = person_graph();
        // Add a second name triple for alice; the count for `name` must not
        // double-count her.
        g.insert_literal_triple("http://ex/alice", "http://ex/name", Literal::simple("Ali"));
        let name = g.dictionary().iri_id("http://ex/name").unwrap();
        let counts = g.property_subject_counts();
        assert_eq!(counts[&name], 2);
    }
}
