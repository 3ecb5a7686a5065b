//! Property tests for the RDF model crate: N-Triples round trips over
//! hostile text, signature-view conservation, the matrix against
//! `has_property`, and `from_sort` against the typed-subgraph copy it
//! replaces.
//!
//! Uses the workspace's seeded xoshiro generator (`strudel_rdf::rng`), so
//! it runs in offline builds. Case `i` of a property runs on seed
//! `base + i`; a failing case prints its seed, and `STRUDEL_SEED=<seed>`
//! replays exactly that case.

use std::panic::{self, AssertUnwindSafe};

use strudel_rdf::prelude::*;
use strudel_rdf::rng::StdRng;

/// Runs `cases` seeded cases of a property, or only the `STRUDEL_SEED` one.
fn check(name: &str, base: u64, cases: u64, property: impl Fn(&mut StdRng)) {
    let seeds: Vec<u64> = match std::env::var("STRUDEL_SEED") {
        Ok(seed) => vec![seed.trim().parse().expect("STRUDEL_SEED is a u64")],
        Err(_) => (0..cases).map(|case| base + case).collect(),
    };
    for seed in seeds {
        let mut rng = StdRng::seed_from_u64(seed);
        if let Err(panic) = panic::catch_unwind(AssertUnwindSafe(|| property(&mut rng))) {
            eprintln!("{name} failed on seed {seed}; replay with STRUDEL_SEED={seed}");
            panic::resume_unwind(panic);
        }
    }
}

fn pick<'a, T>(rng: &mut StdRng, items: &'a [T]) -> &'a T {
    &items[rng.gen_range(0..items.len())]
}

/// Characters that are valid inside an IRI, including the two the
/// serializer must escape and multi-byte ones of every UTF-8 width.
const IRI_CHARS: &str =
    "az0/:#.-_>\\<\"éπß中€😀𝄞\u{7f}\u{80}\u{7ff}\u{800}\u{ffff}\u{10000}\u{10ffff}";

/// Characters for literal bodies: every escaped character, whitespace of
/// all kinds, and the same multi-byte set.
const LITERAL_CHARS: &str = "aZ .@^<>#\"\\\n\r\t\u{b}\u{c}\u{85}\u{a0}\u{2003}\u{2028}éπ中😀𝄞\
                             \u{0}\u{1f}\u{7f}\u{ffff}\u{10ffff}";

fn random_text(rng: &mut StdRng, alphabet: &str, max: usize) -> String {
    let alphabet: Vec<char> = alphabet.chars().collect();
    let len = rng.gen_range(0..max + 1);
    (0..len).map(|_| *pick(rng, &alphabet)).collect()
}

fn random_iri(rng: &mut StdRng) -> String {
    format!("http://ex/{}", random_text(rng, IRI_CHARS, 6))
}

fn random_literal(rng: &mut StdRng) -> Literal {
    let lexical = random_text(rng, LITERAL_CHARS, 12);
    match rng.gen_range(0usize..3) {
        0 => Literal::simple(lexical),
        1 => Literal::typed(lexical, random_iri(rng)),
        _ => Literal::lang(lexical, *pick(rng, &["en", "de-CH", "x-1"])),
    }
}

/// Writes `text` as an N-Triples term body. Characters in `must` are always
/// escaped with `short`; any character may also be written as a `\u` or
/// `\U` escape instead of itself.
fn escape_randomly(rng: &mut StdRng, text: &str, must: &[(char, &str)]) -> String {
    let mut out = String::new();
    for ch in text.chars() {
        let code = ch as u32;
        match rng.gen_range(0usize..4) {
            0 if code <= 0xffff => out.push_str(&format!("\\u{code:04X}")),
            1 => out.push_str(&format!("\\U{code:08x}")),
            _ => match must.iter().find(|(c, _)| *c == ch) {
                Some((_, short)) => out.push_str(short),
                None => out.push(ch),
            },
        }
    }
    out
}

fn write_iri(rng: &mut StdRng, iri: &str) -> String {
    format!(
        "<{}>",
        escape_randomly(rng, iri, &[('>', "\\>"), ('\\', "\\\\")])
    )
}

fn write_literal(rng: &mut StdRng, literal: &Literal) -> String {
    let must = [
        ('"', "\\\""),
        ('\\', "\\\\"),
        ('\n', "\\n"),
        ('\r', "\\r"),
        ('\t', "\\t"),
    ];
    let mut out = format!("\"{}\"", escape_randomly(rng, &literal.lexical, &must));
    if let Some(lang) = &literal.language {
        out.push('@');
        out.push_str(lang);
    } else if let Some(datatype) = &literal.datatype {
        out.push_str("^^");
        out.push_str(&write_iri(rng, datatype));
    }
    out
}

fn sorted_lines(text: &str) -> Vec<&str> {
    let mut lines: Vec<&str> = text.lines().collect();
    lines.sort_unstable();
    lines
}

/// Serialize → parse is the identity on the triple set, and so is parsing a
/// hand-written document that escapes characters at random.
#[test]
fn ntriples_round_trip() {
    check("ntriples_round_trip", 1_000, 200, |rng| {
        let mut graph = Graph::new();
        let mut document = String::new();
        for _ in 0..rng.gen_range(0usize..30) {
            let (s, p) = (random_iri(rng), random_iri(rng));
            document.push_str(&write_iri(rng, &s));
            document.push(' ');
            document.push_str(&write_iri(rng, &p));
            document.push(' ');
            if rng.gen_bool(0.4) {
                let o = random_iri(rng);
                document.push_str(&write_iri(rng, &o));
                graph.insert_iri_triple(&s, &p, &o);
            } else {
                let o = random_literal(rng);
                document.push_str(&write_literal(rng, &o));
                graph.insert_literal_triple(&s, &p, o);
            }
            document.push_str(" .\n");
        }
        let text = write_ntriples(&graph);
        let reparsed = parse_ntriples(&text).expect("serializer output must parse");
        assert_eq!(reparsed.len(), graph.len());
        assert_eq!(reparsed.subject_count(), graph.subject_count());
        assert_eq!(reparsed.property_count(), graph.property_count());
        assert_eq!(
            sorted_lines(&write_ntriples(&reparsed)),
            sorted_lines(&text)
        );

        let parsed = parse_ntriples(&document)
            .unwrap_or_else(|err| panic!("escaped document must parse: {err}\n{document}"));
        assert_eq!(sorted_lines(&write_ntriples(&parsed)), sorted_lines(&text));
    });
}

/// The signature view always conserves subjects, ones and column counts.
#[test]
fn signature_view_conserves_counts() {
    check("signature_view_conserves_counts", 2_000, 200, |rng| {
        let properties: Vec<String> = (0..6).map(|i| format!("http://example.org/p{i}")).collect();
        let n = rng.gen_range(1usize..60);
        let subjects: Vec<String> = (0..n).map(|i| format!("http://example.org/s{i}")).collect();
        let rows: Vec<BitSet> = (0..n)
            .map(|_| {
                let idx: Vec<usize> = (0..6).filter(|_| rng.gen_bool(0.5)).collect();
                BitSet::from_indexes(6, &idx)
            })
            .collect();
        let matrix = PropertyStructureView::from_rows(properties, subjects, rows).unwrap();
        let view = SignatureView::from_matrix(&matrix);

        assert_eq!(view.subject_count(), matrix.subject_count());
        assert_eq!(view.ones(), matrix.ones());
        for col in 0..matrix.property_count() {
            assert_eq!(view.property_subject_count(col), matrix.column_count(col));
        }
        // Entries are sorted by descending count.
        let counts: Vec<usize> = view.entries().iter().map(|e| e.count).collect();
        assert!(counts.windows(2).all(|w| w[0] >= w[1]), "{counts:?}");
        // Round trip through the expanded matrix preserves the signature multiset.
        let back = SignatureView::from_matrix(&view.to_matrix());
        assert_eq!(back.signature_count(), view.signature_count());
        assert_eq!(back.subject_count(), view.subject_count());
    });
}

/// Graph membership queries agree with the matrix view.
#[test]
fn matrix_agrees_with_graph() {
    check("matrix_agrees_with_graph", 3_000, 200, |rng| {
        let mut graph = Graph::new();
        for _ in 0..rng.gen_range(1usize..50) {
            graph.insert_literal_triple(
                &format!("http://example.org/s{}", rng.gen_range(0usize..8)),
                &format!("http://example.org/p{}", rng.gen_range(0usize..5)),
                Literal::simple("v"),
            );
        }
        let matrix = PropertyStructureView::from_graph(&graph, true);
        assert_eq!(matrix.subject_count(), graph.subject_count());
        for (row, subject) in matrix.subjects().iter().enumerate() {
            for (col, property) in matrix.properties().iter().enumerate() {
                let sid = graph.dictionary().iri_id(subject).unwrap();
                let pid = graph.dictionary().iri_id(property).unwrap();
                assert_eq!(matrix.value(row, col), graph.has_property(sid, pid));
            }
        }
    });
}

/// A graph whose sorts overlap and whose members point at each other: some
/// members are objects (or predicates) of earlier members, some subjects
/// have several sorts, some have only `rdf:type`, and `rdf:type` itself can
/// be a member.
fn tangled_graph(rng: &mut StdRng) -> Graph {
    let subjects: Vec<String> = (0..12).map(|i| format!("http://ex/s{i}")).collect();
    let sorts: Vec<String> = (0..3).map(|i| format!("http://ex/T{i}")).collect();
    let predicates: Vec<String> = (0..4).map(|i| format!("http://ex/p{i}")).collect();
    let mut triples: Vec<(String, String, Result<String, Literal>)> = Vec::new();
    for subject in &subjects {
        for sort in &sorts {
            if rng.gen_bool(0.4) {
                triples.push((subject.clone(), RDF_TYPE.to_owned(), Ok(sort.clone())));
            }
        }
        if rng.gen_bool(0.2) {
            // Only rdf:type (if anything).
            continue;
        }
        for _ in 0..rng.gen_range(0usize..5) {
            let predicate = if rng.gen_bool(0.1) {
                pick(rng, &subjects).clone()
            } else {
                pick(rng, &predicates).clone()
            };
            let object = match rng.gen_range(0usize..3) {
                0 => Ok(pick(rng, &subjects).clone()),
                1 => Ok(pick(rng, &sorts).clone()),
                _ => Err(Literal::simple("v")),
            };
            triples.push((subject.clone(), predicate, object));
        }
    }
    if rng.gen_bool(0.2) {
        triples.push((
            RDF_TYPE.to_owned(),
            RDF_TYPE.to_owned(),
            Ok(sorts[0].clone()),
        ));
    }
    // Insertion order decides the ids, and with them the view's row order.
    rng.shuffle(&mut triples);
    let mut graph = Graph::new();
    for (s, p, o) in triples {
        match o {
            Ok(iri) => graph.insert_iri_triple(&s, &p, &iri),
            Err(literal) => graph.insert_literal_triple(&s, &p, literal),
        };
    }
    graph
}

/// `from_sort` is `from_graph` over the typed-subgraph copy, field by field.
#[test]
fn from_sort_matches_typed_subgraph() {
    check("from_sort_matches_typed_subgraph", 4_000, 300, |rng| {
        let graph = tangled_graph(rng);
        for sort in graph.sorts() {
            let sort = graph.iri(sort);
            let subgraph = graph.typed_subgraph(sort);
            for exclude_rdf_type in [true, false] {
                let direct = PropertyStructureView::from_sort(&graph, sort, exclude_rdf_type)
                    .expect("a sort with members");
                let copied = PropertyStructureView::from_graph(&subgraph, exclude_rdf_type);
                assert_eq!(direct.properties(), copied.properties(), "<{sort}>");
                assert_eq!(direct.subjects(), copied.subjects(), "<{sort}>");
                for row in 0..copied.subject_count() {
                    assert_eq!(direct.row(row), copied.row(row), "<{sort}> row {row}");
                }
            }
        }
        // An IRI the graph never saw, and one it knows (every insert
        // interns rdf:type) that no subject is declared to have as its sort.
        assert!(graph.dictionary().iri_id("http://ex/Unknown").is_none());
        assert!(graph.is_empty() || graph.dictionary().iri_id(RDF_TYPE).is_some());
        for sort in ["http://ex/Unknown", RDF_TYPE] {
            let err = PropertyStructureView::from_sort(&graph, sort, true).unwrap_err();
            assert_eq!(err, ModelError::EmptySort(sort.to_owned()));
        }
    });
}
