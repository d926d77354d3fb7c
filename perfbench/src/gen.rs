//! Seeded inputs: the generated N-Triples documents and every request
//! text the benchmark sends. The program under test receives only these
//! strings; the same seed gives the same strings.

use std::collections::{BTreeSet, HashSet};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparql_hsp::datagen::{
    generate_sp2bench, generate_yago, workload, Sp2BenchConfig, WorkloadQuery, YagoConfig,
};

/// Shuffle `items` in place (Fisher-Yates).
fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

/// Uniform in `[0, 1)`.
fn unit(rng: &mut StdRng) -> f64 {
    rng.random_range(0..1u64 << 53) as f64 / (1u64 << 53) as f64
}

/// Zipf-distributed ranks `0..n` with exponent `s` (rank 0 most likely).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut total = 0.0;
        let cdf = (1..=n.max(1))
            .map(|k| {
                total += 1.0 / (k as f64).powf(s);
                total
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u = unit(rng) * self.cdf[self.cdf.len() - 1];
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Dataset sizes, as generator targets.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub sp2b: usize,
    pub yago: usize,
}

impl Sizes {
    /// The `repro` harness defaults (about 862k and 416k triples).
    pub const FULL: Sizes = Sizes {
        sp2b: 1_000_000,
        yago: 500_000,
    };
}

/// The SP2Bench-like data for `seed`, as an N-Triples document.
pub fn sp2b_document(sizes: Sizes, seed: u64) -> String {
    generate_sp2bench(Sp2BenchConfig {
        target_triples: sizes.sp2b,
        seed,
    })
    .to_ntriples()
}

/// The YAGO-like data for `seed`, as an N-Triples document.
pub fn yago_document(sizes: Sizes, seed: u64) -> String {
    generate_yago(YagoConfig {
        target_triples: sizes.yago,
        seed: seed ^ 0x9A60,
    })
    .to_ntriples()
}

const PREFIXES: &str = "\
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX bench: <http://localhost/vocabulary/bench/>
PREFIX dc: <http://purl.org/dc/elements/1.1/>
PREFIX dcterms: <http://purl.org/dc/terms/>
PREFIX swrc: <http://swrc.ontoware.org/ontology#>
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
";

const RDF_TYPE: &str = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>";
const DC_TITLE: &str = "<http://purl.org/dc/elements/1.1/title>";
const DC_CREATOR: &str = "<http://purl.org/dc/elements/1.1/creator>";
const JOURNAL: &str = "<http://localhost/vocabulary/bench/Journal>";
const ARTICLE: &str = "<http://localhost/vocabulary/bench/Article>";

/// The paper's SP4a with the FILTER equality unified by hand (`?hp2`
/// renamed to `?hp1`), the form the paper fed RDF-3X: CDP refuses the
/// original's cross product.
pub const SP4A_UNIFIED: &str = "\
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX bench: <http://localhost/vocabulary/bench/>
PREFIX dc: <http://purl.org/dc/elements/1.1/>
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?au1 ?au2 WHERE {
  ?a1 rdf:type bench:Article .
  ?a1 dc:creator ?au1 .
  ?au1 foaf:homepage ?hp1 .
  ?a2 rdf:type bench:Article .
  ?a2 dc:creator ?au2 .
  ?au2 foaf:homepage ?hp1 .
}";

/// The paper workload: `(query, text sent to HSP, text sent to CDP)`.
pub fn paper_queries() -> Vec<(WorkloadQuery, &'static str, &'static str)> {
    workload()
        .into_iter()
        .map(|q| {
            let cdp = if q.id == "SP4a" { SP4A_UNIFIED } else { q.text };
            let hsp = q.text;
            (q, hsp, cdp)
        })
        .collect()
}

/// The read shapes of the serving workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Shape {
    /// SP1-style: a journal by its exact title.
    JournalByTitle,
    /// An article's subject star, bound to its IRI through a FILTER.
    ArticleStar,
    /// The titles of one author's documents.
    AuthorTitles,
    /// Like `AuthorTitles` plus an OPTIONAL month: the extended path.
    AuthorOptional,
    /// The paper's SP2b, verbatim.
    Sp2b,
    /// The paper's SP4b, verbatim.
    Sp4b,
}

impl Shape {
    pub fn name(self) -> &'static str {
        match self {
            Shape::JournalByTitle => "journal_by_title",
            Shape::ArticleStar => "article_star",
            Shape::AuthorTitles => "author_titles",
            Shape::AuthorOptional => "author_optional",
            Shape::Sp2b => "SP2b",
            Shape::Sp4b => "SP4b",
        }
    }

    /// Shapes CDP can plan (the others are a FILTER-bound star, which CDP
    /// refuses as a cross product, or leave the join fragment).
    pub fn cdp_plannable(self) -> bool {
        !matches!(self, Shape::ArticleStar | Shape::AuthorOptional)
    }

    fn text(self, constant: &str) -> String {
        let body = match self {
            Shape::JournalByTitle => format!(
                "SELECT ?yr ?jrnl WHERE {{ ?jrnl rdf:type bench:Journal . \
                 ?jrnl dc:title {constant} . ?jrnl dcterms:issued ?yr . }}"
            ),
            Shape::ArticleStar => format!(
                "SELECT ?title ?yr ?pages ?au WHERE {{ ?a rdf:type bench:Article . \
                 ?a dc:title ?title . ?a dcterms:issued ?yr . ?a swrc:pages ?pages . \
                 ?a dc:creator ?au . FILTER (?a = {constant}) }}"
            ),
            Shape::AuthorTitles => format!(
                "SELECT ?doc ?title WHERE {{ ?doc dc:creator {constant} . \
                 ?doc dc:title ?title . }}"
            ),
            Shape::AuthorOptional => format!(
                "SELECT ?doc ?title ?month WHERE {{ ?doc dc:creator {constant} . \
                 ?doc dc:title ?title . OPTIONAL {{ ?doc swrc:month ?month . }} }}"
            ),
            Shape::Sp2b | Shape::Sp4b => {
                let id = self.name();
                return workload()
                    .into_iter()
                    .find(|q| q.id == id)
                    .map(|q| q.text.to_string())
                    .expect("SP2b and SP4b are workload queries");
            }
        };
        format!("{PREFIXES}{body}")
    }
}

/// Constants per shape, drawn from the generated data: each candidate
/// set in the document's order, then shuffled by the seed so the Zipf
/// head differs per seed.
struct Candidates {
    journal_titles: Vec<String>,
    articles: Vec<String>,
    authors: Vec<String>,
}

/// Split an N-Triples line as `Dataset::to_ntriples` writes it.
fn split_line(line: &str) -> Option<(&str, &str, &str)> {
    let (s, rest) = line.split_once(' ')?;
    let (p, rest) = rest.split_once(' ')?;
    Some((s, p, rest.strip_suffix(" .")?))
}

fn candidates(doc: &str, rng: &mut StdRng) -> Candidates {
    let mut journals = HashSet::new();
    let mut titles = Vec::new();
    let mut articles = Vec::new();
    let mut authors = BTreeSet::new();
    for (s, p, o) in doc.lines().filter_map(split_line) {
        match p {
            RDF_TYPE if o == JOURNAL => {
                journals.insert(s);
            }
            RDF_TYPE if o == ARTICLE => articles.push(s.to_string()),
            DC_TITLE => titles.push((s, o)),
            DC_CREATOR => {
                authors.insert(o);
            }
            _ => {}
        }
    }
    let mut journal_titles: Vec<String> = titles
        .into_iter()
        .filter(|(s, _)| journals.contains(s))
        .map(|(_, o)| o.to_string())
        .collect();
    let mut authors: Vec<String> = authors.into_iter().map(str::to_string).collect();
    shuffle(rng, &mut journal_titles);
    shuffle(rng, &mut articles);
    shuffle(rng, &mut authors);
    Candidates {
        journal_titles,
        articles,
        authors,
    }
}

// The pool size, the Zipf exponent and the shape mixes below are
// synthetic choices, not fitted to any published SPARQL query log. What
// defines the traffic they make is what a run measures and prints: the
// share of reads repeated word for word and the result-cache hit ratio.
// A claim about the serving workloads names those two, not these numbers.

/// Distinct constants per shape the Zipf draw ranges over.
const POOL: usize = 2500;

/// Zipf exponent of the constant draw.
const ZIPF_S: f64 = 0.7;

/// Requests each connection's pre-drawn sequence holds; a connection that
/// gets through it starts over.
const SEQUENCE_LEN: usize = 200_000;

/// The serving workloads' read traffic: every distinct request text, and
/// per connection a seeded sequence of indices into it.
pub struct ReadMix {
    pub texts: Vec<String>,
    pub shapes: Vec<Shape>,
    pub sequences: Vec<Vec<u32>>,
}

impl ReadMix {
    /// `weights` gives each shape's share of requests; constants are
    /// Zipf-skewed over at most [`POOL`] candidates per shape.
    pub fn new(doc: &str, weights: &[(Shape, f64)], connections: usize, seed: u64) -> ReadMix {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1009);
        let cands = candidates(doc, &mut rng);
        let mut texts = Vec::new();
        let mut shapes = Vec::new();
        // Per shape: the index of its first text and its pool size.
        let mut slots = Vec::new();
        for &(shape, _) in weights {
            let pool: &[String] = match shape {
                Shape::JournalByTitle => &cands.journal_titles,
                Shape::ArticleStar => &cands.articles,
                Shape::AuthorTitles | Shape::AuthorOptional => &cands.authors,
                Shape::Sp2b | Shape::Sp4b => &[],
            };
            let first = texts.len();
            if pool.is_empty() {
                texts.push(shape.text(""));
                shapes.push(shape);
            } else {
                for constant in pool.iter().take(POOL) {
                    texts.push(shape.text(constant));
                    shapes.push(shape);
                }
            }
            slots.push((first, texts.len() - first));
        }
        let total: f64 = weights.iter().map(|(_, w)| w).sum();
        let zipfs: Vec<Zipf> = slots.iter().map(|&(_, n)| Zipf::new(n, ZIPF_S)).collect();
        let sequences = (0..connections)
            .map(|_| {
                (0..SEQUENCE_LEN)
                    .map(|_| {
                        let mut u = unit(&mut rng) * total;
                        let mut k = 0;
                        while k + 1 < weights.len() && u >= weights[k].1 {
                            u -= weights[k].1;
                            k += 1;
                        }
                        (slots[k].0 + zipfs[k].sample(&mut rng)) as u32
                    })
                    .collect()
            })
            .collect();
        ReadMix {
            texts,
            shapes,
            sequences,
        }
    }

    /// Indices of the texts any sequence uses.
    pub fn used(&self) -> Vec<u32> {
        let set: BTreeSet<u32> = self.sequences.iter().flatten().copied().collect();
        set.into_iter().collect()
    }

    /// `samples` requests for each CDP-plannable shape, cycling through
    /// up to `samples` of its texts (a shape with one text repeats it).
    pub fn cdp_probe(&self, samples: usize) -> Vec<u32> {
        let mut out = Vec::new();
        let mut first = 0;
        while first < self.shapes.len() {
            let shape = self.shapes[first];
            let n = self.shapes[first..]
                .iter()
                .take_while(|&&s| s == shape)
                .count();
            if shape.cdp_plannable() {
                out.extend((0..samples).map(|k| (first + k % n.min(samples)) as u32));
            }
            first += n;
        }
        out
    }
}

/// The `lookup` read mix (a synthetic choice, see `POOL`).
pub const LOOKUP_MIX: &[(Shape, f64)] = &[
    (Shape::JournalByTitle, 0.30),
    (Shape::ArticleStar, 0.30),
    (Shape::AuthorTitles, 0.25),
    (Shape::AuthorOptional, 0.15),
];

/// The `mixed_write` reader's mix: the lookup shapes plus SP2b and SP4b
/// (a synthetic choice, see `POOL`).
pub const MIXED_MIX: &[(Shape, f64)] = &[
    (Shape::JournalByTitle, 0.28),
    (Shape::ArticleStar, 0.28),
    (Shape::AuthorTitles, 0.24),
    (Shape::AuthorOptional, 0.15),
    (Shape::Sp2b, 0.025),
    (Shape::Sp4b, 0.025),
];

/// A writer's request stream. Request `i` inserts batch `i % batches`
/// (`subjects` fresh subjects, two triples each), then deletes batch
/// `(i - lag) % batches` when `i >= lag`. With `batches` above the request
/// count every batch is new; with `batches = lag + 1` the same few batches
/// cycle, so neither the store delta nor the dictionary grows. The
/// subjects are of a class no read asks for and their
/// titles match no read's constant, so no read's answer changes; the
/// predicates (`rdf:type`, `dc:title`) are ones the reads use, so cached
/// results are invalidated.
#[derive(Debug, Clone, Copy)]
pub struct Writes {
    pub seed: u64,
    pub subjects: usize,
    pub lag: usize,
    pub batches: usize,
}

impl Writes {
    /// Request `i`'s text and the triples it must insert and delete.
    pub fn request(&self, i: usize) -> (String, usize, usize) {
        let batch = |b: usize, out: &mut String| {
            for k in 0..self.subjects {
                let s = format!(
                    "<http://localhost/perfbench/scratch/s{}b{b}k{k}>",
                    self.seed
                );
                out.push_str(&format!(
                    "{s} {RDF_TYPE} <http://localhost/perfbench/Scratch> .\n\
                     {s} {DC_TITLE} \"scratch {} {b} {k}\" .\n",
                    self.seed
                ));
            }
        };
        let mut text = String::from("INSERT DATA {\n");
        batch(i % self.batches, &mut text);
        text.push('}');
        let mut deleted = 0;
        if i >= self.lag {
            text.push_str(" ;\nDELETE DATA {\n");
            batch((i - self.lag) % self.batches, &mut text);
            text.push('}');
            deleted = 2 * self.subjects;
        }
        (text, 2 * self.subjects, deleted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(100, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let draws: Vec<usize> = (0..10_000).map(|_| z.sample(&mut rng)).collect();
        let head = draws.iter().filter(|&&r| r == 0).count();
        let tail = draws.iter().filter(|&&r| r == 99).count();
        assert!(draws.iter().all(|&r| r < 100));
        assert!(head > 10 * tail.max(1), "{head} vs {tail}");
    }

    #[test]
    fn write_requests_insert_then_delete() {
        let writes = Writes {
            seed: 7,
            subjects: 3,
            lag: 4,
            batches: usize::MAX,
        };
        let (first, inserted, deleted) = writes.request(0);
        assert!(first.starts_with("INSERT DATA") && !first.contains("DELETE"));
        assert_eq!((inserted, deleted), (6, 0));
        let (later, _, deleted) = writes.request(5);
        assert!(later.contains("s7b5k2") && later.contains("DELETE DATA"));
        assert!(later.contains("s7b1k0") && !later.contains("k3>"));
        assert_eq!(deleted, 6);
        let cycling = Writes {
            batches: 2,
            lag: 1,
            ..writes
        };
        let (third, _, _) = cycling.request(2);
        assert!(third.contains("s7b0k0") && third.contains("s7b1k0") && !third.contains("b2k"));
    }
}
