//! Result reads: a seeded pool of point and range queries over a
//! store, answered either in-process by a `StoreIndex` or by a live
//! daemon over its TCP protocol, and checked against the store itself.

use harness::json::Json;
use harness::serve::index::{IndexHit, StoreIndex};
use harness::ResultStore;
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Cells of this scenario are never read: the submit phases write new
/// cells of it, so a read of it would have no single right answer.
pub const SUBMIT_SCENARIO: &str = "bus-arbitration";

/// A deterministic 64-bit generator (SplitMix64).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One answered cell, in a form both answer paths reduce to: axis
/// assignment and metrics sorted by name, so ordering choices of the
/// index or the wire format never make equal answers differ.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub params: Vec<(String, String)>,
    pub seed: u64,
    pub metrics: Vec<(String, f64)>,
}

impl Row {
    fn new(mut params: Vec<(String, String)>, seed: u64, mut metrics: Vec<(String, f64)>) -> Row {
        params.sort();
        metrics.sort_by(|a, b| a.0.cmp(&b.0));
        Row {
            params,
            seed,
            metrics,
        }
    }

    fn of_hit(index: &StoreIndex, hit: &IndexHit<'_>) -> Row {
        Row::new(
            hit.params
                .iter()
                .map(|(a, v)| (a.to_string(), v.to_string()))
                .collect(),
            hit.cell.seed,
            hit.cell
                .metrics
                .iter()
                .map(|&(sym, value)| (index.metric_name(sym).to_string(), value))
                .collect(),
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Point,
    Range,
}

pub struct Query {
    pub kind: Kind,
    scenario: String,
    /// Point: the full assignment. Range: one value per fixed axis.
    clauses: Vec<(String, String)>,
    /// The protocol request line (newline included).
    line: String,
    /// The store's answer, rows sorted.
    expect: Vec<Row>,
}

pub fn split_params(key: &str) -> Vec<(String, String)> {
    key.split(',')
        .filter(|p| !p.is_empty())
        .map(|p| {
            let (a, v) = p.split_once('=').unwrap_or((p, ""));
            (a.to_string(), v.to_string())
        })
        .collect()
}

/// Every point query (one per readable cell) and every range query
/// that fixes all but one non-replicate axis of some cell, with the
/// answers computed from the store directly.
pub fn pool(store: &ResultStore) -> Vec<Query> {
    let mut cells: Vec<(&str, Row)> = Vec::new();
    for (_, cell) in store.iter() {
        if cell.scenario == SUBMIT_SCENARIO {
            continue;
        }
        let metrics = cell
            .result
            .metrics
            .iter()
            .map(|(name, value)| (name.clone(), *value))
            .collect();
        cells.push((
            cell.scenario.as_str(),
            Row::new(split_params(&cell.params_key), cell.seed, metrics),
        ));
    }
    let mut queries = Vec::new();
    let mut ranges: BTreeSet<(&str, Vec<(String, String)>)> = BTreeSet::new();
    for (scenario, row) in &cells {
        let body = Json::Obj(
            row.params
                .iter()
                .map(|(a, v)| (a.clone(), Json::str(v)))
                .collect(),
        );
        queries.push(Query {
            kind: Kind::Point,
            scenario: scenario.to_string(),
            clauses: row.params.clone(),
            line: request("query", scenario, "params", body),
            expect: vec![row.clone()],
        });
        let axes: Vec<&(String, String)> = row.params.iter().filter(|(a, _)| a != "rep").collect();
        for free in 0..axes.len() {
            let fixed = axes
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != free)
                .map(|(_, &pair)| pair.clone())
                .collect();
            ranges.insert((scenario, fixed));
        }
    }
    for (scenario, fixed) in ranges {
        let mut expect: Vec<Row> = cells
            .iter()
            .filter(|(s, row)| *s == scenario && fixed.iter().all(|c| row.params.contains(c)))
            .map(|(_, row)| row.clone())
            .collect();
        expect.sort_by(row_order);
        let body = Json::Obj(
            fixed
                .iter()
                .map(|(a, v)| (a.clone(), Json::str(v)))
                .collect(),
        );
        queries.push(Query {
            kind: Kind::Range,
            scenario: scenario.to_string(),
            line: request("query_range", scenario, "where", body),
            clauses: fixed,
            expect,
        });
    }
    queries
}

fn row_order(a: &Row, b: &Row) -> std::cmp::Ordering {
    a.params.cmp(&b.params).then(a.seed.cmp(&b.seed))
}

fn request(op: &str, scenario: &str, key: &str, body: Json) -> String {
    let mut line = Json::Obj(vec![
        ("op".into(), Json::str(op)),
        ("scenario".into(), Json::str(scenario)),
        (key.into(), body),
    ])
    .compact();
    line.push('\n');
    line
}

/// A seeded 4:1 mix of point and range reads drawn from a pool.
pub struct Mix<'a> {
    points: Vec<&'a Query>,
    ranges: Vec<&'a Query>,
    rng: Rng,
}

impl<'a> Mix<'a> {
    pub fn new(pool: &'a [Query], seed: u64) -> Mix<'a> {
        Mix {
            points: pool.iter().filter(|q| q.kind == Kind::Point).collect(),
            ranges: pool.iter().filter(|q| q.kind == Kind::Range).collect(),
            rng: Rng::new(seed),
        }
    }

    pub fn next(&mut self) -> &'a Query {
        let side = if self.rng.below(5) == 0 {
            &self.ranges
        } else {
            &self.points
        };
        side[self.rng.below(side.len())]
    }
}

/// Answers a query from an in-process index, as the rows a caller gets.
pub fn ask_index(index: &StoreIndex, query: &Query) -> Vec<Row> {
    match query.kind {
        Kind::Point => index
            .query_point(&query.scenario, &query.clauses)
            .unwrap_or_default()
            .iter()
            .map(|hit| Row::of_hit(index, hit))
            .collect(),
        Kind::Range => {
            let clauses: Vec<(String, Vec<String>)> = query
                .clauses
                .iter()
                .map(|(a, v)| (a.clone(), vec![v.clone()]))
                .collect();
            index
                .query_range(&query.scenario, &clauses)
                .unwrap_or_default()
                .iter()
                .map(|hit| Row::of_hit(index, hit))
                .collect()
        }
    }
}

/// True when `rows` is exactly the store's answer to `query`.
pub fn answer_is_right(query: &Query, mut rows: Vec<Row>) -> bool {
    rows.sort_by(row_order);
    rows == query.expect
}

/// Reduces a daemon reply to rows; `None` for an error reply or a
/// malformed one.
pub fn rows_of_reply(kind: Kind, reply: &Json) -> Option<Vec<Row>> {
    if reply.get("ok") != Some(&Json::Bool(true)) {
        return None;
    }
    let seed_of = |j: &Json| u64::from_str_radix(j.as_str()?, 16).ok();
    match kind {
        Kind::Point => reply
            .get("cells")?
            .as_arr()?
            .iter()
            .map(|cell| {
                let Json::Obj(params) = cell.get("params")? else {
                    return None;
                };
                let Json::Obj(metrics) = cell.get("metrics")? else {
                    return None;
                };
                Some(Row::new(
                    params
                        .iter()
                        .map(|(a, v)| Some((a.clone(), v.as_str()?.to_string())))
                        .collect::<Option<_>>()?,
                    seed_of(cell.get("seed")?)?,
                    metrics
                        .iter()
                        .map(|(m, v)| Some((m.clone(), v.as_f64()?)))
                        .collect::<Option<_>>()?,
                ))
            })
            .collect(),
        Kind::Range => {
            let Json::Obj(columns) = reply.get("columns")? else {
                return None;
            };
            let column = |name: &str| {
                columns
                    .iter()
                    .find(|(k, _)| k == name)
                    .and_then(|(_, v)| v.as_arr())
            };
            let (params, seeds) = (column("params")?, column("seed")?);
            let metrics: Vec<(&String, &[Json])> = columns
                .iter()
                .filter(|(k, _)| k != "params" && k != "seed")
                .map(|(k, v)| Some((k, v.as_arr()?)))
                .collect::<Option<_>>()?;
            (0..params.len())
                .map(|i| {
                    Some(Row::new(
                        split_params(params[i].as_str()?),
                        seed_of(seeds.get(i)?)?,
                        metrics
                            .iter()
                            .filter_map(|(m, values)| match values.get(i) {
                                Some(Json::Null) => None,
                                Some(v) => Some(v.as_f64().map(|x| ((*m).clone(), x))),
                                None => Some(None),
                            })
                            .collect::<Option<_>>()?,
                    ))
                })
                .collect()
        }
    }
}

/// One JSON-lines protocol connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

/// Longest wait for one reply before it counts as timed out.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: String::new(),
        })
    }

    /// Sends one request line and returns the raw reply line.
    pub fn send(&mut self, line: &str) -> std::io::Result<&str> {
        self.writer.write_all(line.as_bytes())?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.line.trim_end())
    }

    pub fn call(&mut self, doc: &Json) -> std::io::Result<Json> {
        let mut line = doc.compact();
        line.push('\n');
        let reply = self.send(&line)?;
        Json::parse(reply).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

impl Query {
    pub fn line(&self) -> &str {
        &self.line
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harness::{CellResult, Params};

    fn store() -> ResultStore {
        let mut store = ResultStore::new();
        for (a, b, seed) in [("1", "x", 7), ("1", "y", 8), ("2", "x", 9)] {
            let params = Params::new(vec![("a".into(), a.into()), ("b".into(), b.into())]);
            let result = CellResult::new(vec![("m", seed as f64 / 2.0)]);
            store.insert("s", 1, &params, seed, result);
        }
        let params = Params::new(vec![("arbiter".into(), "tdma".into())]);
        store.insert(SUBMIT_SCENARIO, 1, &params, 1, CellResult::new(vec![]));
        store
    }

    #[test]
    fn the_index_answers_every_pooled_query_like_the_store() {
        let store = store();
        let pool = pool(&store);
        // Three points; ranges fix a (2 values) or b (2 values).
        assert_eq!(pool.iter().filter(|q| q.kind == Kind::Point).count(), 3);
        assert_eq!(pool.iter().filter(|q| q.kind == Kind::Range).count(), 4);
        assert!(pool.iter().all(|q| q.scenario != SUBMIT_SCENARIO));
        let index = StoreIndex::build(&store);
        for query in &pool {
            assert!(answer_is_right(query, ask_index(&index, query)));
        }
        let wrong = pool.iter().find(|q| q.kind == Kind::Point).unwrap();
        let mut rows = ask_index(&index, wrong);
        rows[0].metrics[0].1 += 1.0;
        assert!(!answer_is_right(wrong, rows));
    }

    #[test]
    fn replies_reduce_to_the_same_rows() {
        let point = Json::parse(
            r#"{"ok":true,"scenario":"s","cells":[{"params":{"b":"x","a":"1"},
            "seed":"0000000000000007","version":1,"fingerprint":"f","metrics":{"m":3.5}}]}"#,
        )
        .unwrap();
        let rows = rows_of_reply(Kind::Point, &point).unwrap();
        assert_eq!(
            rows,
            vec![Row::new(
                vec![("a".into(), "1".into()), ("b".into(), "x".into())],
                7,
                vec![("m".into(), 3.5)]
            )]
        );
        let range = Json::parse(
            r#"{"ok":true,"scenario":"s","count":2,"columns":{"params":["a=1,b=x","a=1,b=y"],
            "seed":["0000000000000007","0000000000000008"],"m":[3.5,null]}}"#,
        )
        .unwrap();
        let rows = rows_of_reply(Kind::Range, &range).unwrap();
        assert_eq!(rows[1].metrics, vec![]);
        assert_eq!(rows[1].seed, 8);
        let refused = Json::parse(r#"{"ok":false,"error":"no"}"#).unwrap();
        assert!(rows_of_reply(Kind::Range, &refused).is_none());
    }
}
