//! A pragmatic Turtle-subset parser.
//!
//! Real-world RDF dumps (DBpedia, WordNet) are commonly distributed as Turtle.
//! This module supports the subset needed to load such data comfortably:
//!
//! * `@prefix pre: <iri> .` declarations and `PREFIX` (SPARQL style),
//! * `@base <iri> .` declarations (prepended to relative IRI references),
//! * prefixed names (`foaf:name`) and full IRI references (`<...>`),
//! * the `a` keyword for `rdf:type`,
//! * predicate lists (`;`) and object lists (`,`),
//! * string literals with the same escapes as the N-Triples parser, plus
//!   language tags and datatypes,
//! * integer/decimal/boolean shorthand literals,
//! * `#` comments.
//!
//! Blank nodes and collections are rejected, consistent with the paper's
//! URI-subject data model.

use crate::error::ParseError;
use crate::graph::Graph;
use crate::ntriples::scan_run;
use crate::term::{Literal, Object};
use crate::vocab::RDF_TYPE;
use std::collections::HashMap;

/// XSD namespace used by the numeric/boolean shorthand literal forms.
const XSD: &str = "http://www.w3.org/2001/XMLSchema#";

/// Parses a Turtle document into a fresh [`Graph`].
pub fn parse_turtle(input: &str) -> Result<Graph, ParseError> {
    let mut graph = Graph::new();
    parse_turtle_into(input, &mut graph)?;
    Ok(graph)
}

/// Parses a Turtle document, adding its triples to an existing graph.
pub fn parse_turtle_into(input: &str, graph: &mut Graph) -> Result<(), ParseError> {
    let mut parser = TurtleParser::new(input);
    parser.parse_document(graph)
}

struct TurtleParser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    prefixes: HashMap<String, String>,
    base: String,
}

impl<'a> TurtleParser<'a> {
    fn new(text: &'a str) -> Self {
        TurtleParser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            prefixes: HashMap::new(),
            base: String::new(),
        }
    }

    fn line_col(&self) -> (usize, usize) {
        let consumed = &self.text[..self.pos];
        let line = consumed.matches('\n').count() + 1;
        let column = consumed
            .rfind('\n')
            .map(|idx| self.pos - idx)
            .unwrap_or(self.pos + 1);
        (line, column)
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        let (line, column) = self.line_col();
        ParseError::new(line, column, message)
    }

    fn skip_ws_and_comments(&mut self) {
        loop {
            while self.pos < self.bytes.len() && (self.bytes[self.pos] as char).is_whitespace() {
                self.pos += 1;
            }
            if self.pos < self.bytes.len() && self.bytes[self.pos] == b'#' {
                while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
                    self.pos += 1;
                }
            } else {
                return;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn starts_with_keyword(&self, keyword: &str) -> bool {
        let upper = keyword.to_ascii_uppercase();
        let rest = &self.text[self.pos..];
        rest.len() >= keyword.len() && rest[..keyword.len()].eq_ignore_ascii_case(&upper)
    }

    fn expect_char(&mut self, expected: char) -> Result<(), ParseError> {
        self.skip_ws_and_comments();
        if self.peek() == Some(expected as u8) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!(
                "expected '{expected}', found {:?}",
                self.peek().map(|b| b as char)
            )))
        }
    }

    fn parse_document(&mut self, graph: &mut Graph) -> Result<(), ParseError> {
        loop {
            self.skip_ws_and_comments();
            if self.pos >= self.bytes.len() {
                return Ok(());
            }
            if self.peek() == Some(b'@')
                || self.starts_with_keyword("PREFIX")
                || self.starts_with_keyword("BASE")
            {
                self.parse_directive()?;
            } else {
                self.parse_triples_block(graph)?;
            }
        }
    }

    fn parse_directive(&mut self) -> Result<(), ParseError> {
        let at_form = self.peek() == Some(b'@');
        if at_form {
            self.pos += 1;
        }
        let word = self.parse_bare_word()?;
        match word.to_ascii_lowercase().as_str() {
            "prefix" => {
                self.skip_ws_and_comments();
                let prefix = self.parse_prefix_label()?;
                self.skip_ws_and_comments();
                let iri = self.parse_iri_ref_string()?;
                self.prefixes.insert(prefix, iri);
            }
            "base" => {
                self.skip_ws_and_comments();
                let iri = self.parse_iri_ref_string()?;
                self.base = iri;
            }
            other => return Err(self.error(format!("unknown directive '@{other}'"))),
        }
        // '@prefix' requires a trailing dot; SPARQL-style PREFIX/BASE does not.
        self.skip_ws_and_comments();
        if at_form {
            self.expect_char('.')?;
        } else if self.peek() == Some(b'.') {
            self.pos += 1;
        }
        Ok(())
    }

    fn parse_bare_word(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphabetic() {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.error("expected a keyword"));
        }
        Ok(self.text[start..self.pos].to_owned())
    }

    fn parse_prefix_label(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b':' {
                let label = self.text[start..self.pos].to_owned();
                self.pos += 1;
                return Ok(label);
            }
            if b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.' {
                self.pos += 1;
            } else {
                break;
            }
        }
        Err(self.error("expected prefix label ending in ':'"))
    }

    fn parse_iri_ref_string(&mut self) -> Result<String, ParseError> {
        if self.peek() != Some(b'<') {
            return Err(self.error("expected IRI reference starting with '<'"));
        }
        self.pos += 1;
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b'>' {
                let raw = &self.text[start..self.pos];
                self.pos += 1;
                let resolved = if raw.contains(':') || self.base.is_empty() {
                    raw.to_owned()
                } else {
                    format!("{}{}", self.base, raw)
                };
                return Ok(resolved);
            }
            self.pos += 1;
        }
        Err(self.error("unterminated IRI reference"))
    }

    fn parse_triples_block(&mut self, graph: &mut Graph) -> Result<(), ParseError> {
        let subject = self.parse_resource()?;
        loop {
            self.skip_ws_and_comments();
            let predicate = self.parse_predicate()?;
            loop {
                self.skip_ws_and_comments();
                let object = self.parse_object_term()?;
                let s = graph.intern_iri(&subject);
                let p = graph.intern_iri(&predicate);
                let o = match object {
                    TurtleObject::Iri(iri) => Object::Iri(graph.intern_iri(&iri)),
                    TurtleObject::Literal(lit) => {
                        Object::Literal(graph.dictionary_mut().intern_literal(lit))
                    }
                };
                graph.insert(s, p, o);
                self.skip_ws_and_comments();
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                        continue;
                    }
                    _ => break,
                }
            }
            self.skip_ws_and_comments();
            match self.peek() {
                Some(b';') => {
                    self.pos += 1;
                    self.skip_ws_and_comments();
                    // A ';' may be followed directly by '.' (trailing semicolon).
                    if self.peek() == Some(b'.') {
                        self.pos += 1;
                        return Ok(());
                    }
                    continue;
                }
                Some(b'.') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.error("expected ';', ',' or '.' after object")),
            }
        }
    }

    fn parse_predicate(&mut self) -> Result<String, ParseError> {
        // The keyword 'a' abbreviates rdf:type.
        if self.peek() == Some(b'a') {
            let next = self.bytes.get(self.pos + 1).copied();
            if next.is_none() || next.map(|b| (b as char).is_whitespace()) == Some(true) {
                self.pos += 1;
                return Ok(RDF_TYPE.to_owned());
            }
        }
        self.parse_resource()
    }

    fn parse_resource(&mut self) -> Result<String, ParseError> {
        self.skip_ws_and_comments();
        match self.peek() {
            Some(b'<') => self.parse_iri_ref_string(),
            Some(b'_') => Err(self.error(
                "blank nodes are not supported: the structuredness framework assumes URI subjects",
            )),
            Some(b) if b.is_ascii_alphabetic() || b == b':' => self.parse_prefixed_name(),
            _ => Err(self.error("expected IRI or prefixed name")),
        }
    }

    fn parse_prefixed_name(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b':' {
                break;
            }
            if b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.' {
                self.pos += 1;
            } else {
                return Err(self.error("expected prefixed name"));
            }
        }
        if self.peek() != Some(b':') {
            return Err(self.error("expected ':' in prefixed name"));
        }
        let prefix = self.text[start..self.pos].to_owned();
        self.pos += 1;
        let local_start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.' {
                self.pos += 1;
            } else {
                break;
            }
        }
        // A trailing '.' terminates the statement, not the local name.
        let mut local_end = self.pos;
        while local_end > local_start && self.bytes[local_end - 1] == b'.' {
            local_end -= 1;
        }
        self.pos = local_end;
        let local = &self.text[local_start..local_end];
        let namespace = self
            .prefixes
            .get(&prefix)
            .ok_or_else(|| self.error(format!("undeclared prefix '{prefix}:'")))?;
        Ok(format!("{namespace}{local}"))
    }

    fn parse_object_term(&mut self) -> Result<TurtleObject, ParseError> {
        self.skip_ws_and_comments();
        match self.peek() {
            Some(b'<') => Ok(TurtleObject::Iri(self.parse_iri_ref_string()?)),
            Some(b'"') => self.parse_string_literal().map(TurtleObject::Literal),
            Some(b'_') => Err(self.error(
                "blank nodes are not supported: the structuredness framework assumes URI subjects",
            )),
            Some(b'(') | Some(b'[') => {
                Err(self.error("collections and anonymous nodes are not supported"))
            }
            Some(b) if b.is_ascii_digit() || b == b'-' || b == b'+' => {
                self.parse_numeric_literal().map(TurtleObject::Literal)
            }
            Some(b't') | Some(b'f')
                if self.starts_with_keyword("true") || self.starts_with_keyword("false") =>
            {
                let word = self.parse_bare_word()?;
                Ok(TurtleObject::Literal(Literal::typed(
                    word.to_ascii_lowercase(),
                    format!("{XSD}boolean"),
                )))
            }
            Some(b) if b.is_ascii_alphabetic() || b == b':' => {
                Ok(TurtleObject::Iri(self.parse_prefixed_name()?))
            }
            _ => Err(self.error("expected object term")),
        }
    }

    fn parse_numeric_literal(&mut self) -> Result<Literal, ParseError> {
        let start = self.pos;
        if matches!(self.peek(), Some(b'-') | Some(b'+')) {
            self.pos += 1;
        }
        let mut saw_dot = false;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() {
                self.pos += 1;
            } else if b == b'.' && !saw_dot {
                // Only treat '.' as a decimal point when followed by a digit;
                // otherwise it terminates the statement.
                if self
                    .bytes
                    .get(self.pos + 1)
                    .map(|b| b.is_ascii_digit())
                    .unwrap_or(false)
                {
                    saw_dot = true;
                    self.pos += 1;
                } else {
                    break;
                }
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.error("expected numeric literal"));
        }
        let lexical = self.text[start..self.pos].to_owned();
        let datatype = if saw_dot {
            format!("{XSD}decimal")
        } else {
            format!("{XSD}integer")
        };
        Ok(Literal::typed(lexical, datatype))
    }

    fn parse_string_literal(&mut self) -> Result<Literal, ParseError> {
        // The same run scanner and escapes as the N-Triples lexer.
        self.expect_char('"')?;
        let mut lexical = String::new();
        loop {
            let run = scan_run(self.text, self.pos, b'"', b'\\')
                .ok_or_else(|| self.error("literal does not start on a character boundary"))?;
            lexical.push_str(run);
            self.pos += run.len();
            match self.peek() {
                None => return Err(self.error("unterminated string literal")),
                Some(b'"') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    self.pos += 1;
                    let escaped = self.peek().ok_or_else(|| self.error("dangling escape"))?;
                    match escaped {
                        b'"' => lexical.push('"'),
                        b'\\' => lexical.push('\\'),
                        b'n' => lexical.push('\n'),
                        b'r' => lexical.push('\r'),
                        b't' => lexical.push('\t'),
                        b'u' | b'U' => {
                            let long = escaped == b'U';
                            self.pos += 1;
                            let len = if long { 8 } else { 4 };
                            if self.pos + len > self.bytes.len() {
                                return Err(self.error("truncated unicode escape"));
                            }
                            // `None` when the digits end inside a multi-byte character.
                            let hex = self
                                .text
                                .get(self.pos..self.pos + len)
                                .ok_or_else(|| self.error("invalid unicode escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("invalid unicode escape"))?;
                            lexical.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid code point"))?,
                            );
                            self.pos += len - 1;
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.pos += 1;
                }
            }
        }
        match self.peek() {
            Some(b'@') => {
                self.pos += 1;
                let start = self.pos;
                while let Some(b) = self.peek() {
                    if b.is_ascii_alphanumeric() || b == b'-' {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                if start == self.pos {
                    return Err(self.error("empty language tag"));
                }
                Ok(Literal::lang(
                    lexical,
                    self.text[start..self.pos].to_owned(),
                ))
            }
            Some(b'^') => {
                self.pos += 1;
                self.expect_char('^')?;
                self.skip_ws_and_comments();
                let datatype = match self.peek() {
                    Some(b'<') => self.parse_iri_ref_string()?,
                    _ => self.parse_prefixed_name()?,
                };
                Ok(Literal::typed(lexical, datatype))
            }
            _ => Ok(Literal::simple(lexical)),
        }
    }
}

enum TurtleObject {
    Iri(String),
    Literal(Literal),
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"
@prefix foaf: <http://xmlns.com/foaf/0.1/> .
@prefix ex:   <http://example.org/> .
@prefix xsd:  <http://www.w3.org/2001/XMLSchema#> .

ex:alice a foaf:Person ;
    foaf:name "Alice" , "Alicia"@es ;
    ex:birthDate "1980-01-01"^^xsd:date ;
    ex:age 44 ;
    ex:height 1.70 ;
    ex:alive true .

ex:bob a foaf:Person ;
    foaf:name "Bob" .
"#;

    #[test]
    fn parses_prefixed_document() {
        let graph = parse_turtle(DOC).expect("document parses");
        assert_eq!(graph.subject_count(), 2);
        assert_eq!(
            graph
                .subjects_of_sort_named("http://xmlns.com/foaf/0.1/Person")
                .len(),
            2
        );
        // alice: type, name x2, birthDate, age, height, alive = 7; bob: type, name = 2.
        assert_eq!(graph.len(), 9);
    }

    #[test]
    fn numeric_and_boolean_literals_get_xsd_datatypes() {
        let graph = parse_turtle(DOC).expect("parses");
        let mut datatypes: Vec<String> = graph
            .triples()
            .filter_map(|t| match t.object {
                Object::Literal(id) => graph.dictionary().literal(id).datatype.clone(),
                Object::Iri(_) => None,
            })
            .collect();
        datatypes.sort();
        datatypes.dedup();
        assert!(datatypes.contains(&format!("{XSD}integer")));
        assert!(datatypes.contains(&format!("{XSD}decimal")));
        assert!(datatypes.contains(&format!("{XSD}boolean")));
        assert!(datatypes.contains(&format!("{XSD}date")));
    }

    #[test]
    fn base_resolution_applies_to_relative_iris() {
        let doc = "@base <http://example.org/> .\n<alice> <knows> <bob> .\n";
        let graph = parse_turtle(doc).expect("parses");
        let triple = graph.triples().next().unwrap();
        assert_eq!(graph.iri(triple.subject), "http://example.org/alice");
        assert_eq!(graph.iri(triple.predicate), "http://example.org/knows");
    }

    #[test]
    fn sparql_style_prefix_is_accepted() {
        let doc = "PREFIX ex: <http://example.org/>\nex:a ex:p ex:b .\n";
        let graph = parse_turtle(doc).expect("parses");
        assert_eq!(graph.len(), 1);
    }

    #[test]
    fn undeclared_prefix_is_an_error() {
        let err = parse_turtle("ex:a ex:p ex:b .\n").unwrap_err();
        assert!(err.message.contains("undeclared prefix"));
    }

    #[test]
    fn blank_nodes_are_rejected() {
        let err = parse_turtle("@prefix ex: <http://e/> .\n_:b ex:p ex:o .\n").unwrap_err();
        assert!(err.message.contains("blank nodes"));
    }

    #[test]
    fn error_positions_are_line_accurate() {
        let doc = "@prefix ex: <http://e/> .\nex:a ex:p ??? .\n";
        let err = parse_turtle(doc).unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn string_literals_scan_runs_between_escapes() {
        let doc = r#"<http://e/s> <http://e/p> "中\"é\\😀\u00E9€" ."#;
        let graph = parse_turtle(doc).expect("parses");
        let triple = graph.triples().next().unwrap();
        let Object::Literal(id) = triple.object else {
            panic!("expected literal")
        };
        assert_eq!(graph.dictionary().literal(id).lexical, "中\"é\\😀é€");
        // Hex digits that end inside a multi-byte character are an error.
        let err = parse_turtle("<http://e/s> <http://e/p> \"\\u000é\" .").unwrap_err();
        assert_eq!(err.message, "invalid unicode escape");
    }
}
