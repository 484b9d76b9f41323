//! Commit-order checker: every answer a reader gets while another client
//! writes is a view as it stood after some commit of the writer. That
//! commit is no older than the writes the reader saw acknowledged before
//! it asked, no newer than the writes sent before its answer came, and no
//! reader goes back in commits.
//!
//! Each seed drives one tenant over [`Server::connect`] with one writing
//! client and [`READERS`] reading clients at once. The writer runs a
//! seeded script of single-row `update` statements and `Apply` batches
//! against `R` and `M`, with one `change delete-relation R` that rewrites
//! `V` over `M`. The readers ask for `V` or `W`, as `Query` requests or
//! as `query` statements. With one writer the commits happen in the
//! writer's program order, so a plain [`Shell`] fed the same script gives
//! every view after every commit. The oracle renders a view's extent with
//! `distinct().to_string()`, not through the text the server's relations
//! keep and patch between writes.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use eve_relational::{tup, Tuple};
use eve_server::protocol::{RequestBody, ResponseBody};
use eve_server::{Client, Server, ServerConfig, Warehouse};
use eve_sync::EvolutionOp;
use eve_system::{Command, Shell};

/// Seeds checked, one tenant each.
const SEEDS: u64 = 200;

/// Seeds the nightly run checks.
const NIGHTLY_SEEDS: u64 = 2_000;

/// Reading clients per tenant, beside the one writer.
const READERS: usize = 3;

/// Reads each reader sends at least; it keeps reading until the writer
/// is done.
const MIN_READS: usize = 8;

/// Rows seeded into `R` (and `M`): enough that `V`'s answer spans two
/// chunks of kept text and a write is patched into it, not dropped.
const ROWS: i64 = 300;

/// Writes in a script after its setup.
const WRITES: usize = 14;

const VIEWS: [&str; 2] = ["V", "W"];

/// One request the writer sends.
#[derive(Debug, Clone)]
enum Write {
    Line(String),
    Apply(Vec<EvolutionOp>),
}

impl Write {
    fn request(&self) -> RequestBody {
        match self {
            Write::Line(line) => RequestBody::Statement { esql: line.clone() },
            Write::Apply(ops) => RequestBody::Apply { ops: ops.clone() },
        }
    }

    fn replay(&self, shell: &mut Shell) {
        match self {
            Write::Line(line) => shell.execute(line).map(drop),
            Write::Apply(ops) => shell.run(Command::Apply(ops.clone())).map(drop),
        }
        .unwrap_or_else(|e| panic!("oracle: {self:?}: {e}"));
    }
}

/// A random `(K, P)` row: keys repeat, so `W` (the keys of `M`) holds
/// fewer lines than `M` rows and `R` holds duplicate rows. Now and then a
/// key sorts below or above every seeded one.
fn row(rng: &mut StdRng) -> (i64, i64) {
    let k = match rng.gen_range(0..10) {
        0 => -rng.gen_range(1..20i64),
        1 => ROWS + rng.gen_range(0..20i64),
        _ => rng.gen_range(0..ROWS),
    };
    (k, rng.gen_range(0..3))
}

fn line(relation: &str, kind: &str, (k, p): (i64, i64)) -> Write {
    Write::Line(format!("update {relation} {kind} ({k}, {p})"))
}

/// A stored row of `bag` taken out of it, or `None` when it is empty.
fn take(rng: &mut StdRng, bag: &mut Vec<(i64, i64)>) -> Option<(i64, i64)> {
    (!bag.is_empty()).then(|| bag.swap_remove(rng.gen_range(0..bag.len())))
}

fn tuples(rows: &[(i64, i64)]) -> Vec<Tuple> {
    rows.iter().map(|&(k, p)| tup![k, p]).collect()
}

/// The setup a tenant runs before any reader starts, then the writes the
/// writer sends while the readers read.
fn script(seed: u64) -> (Vec<Write>, Vec<Write>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut r: Vec<(i64, i64)> = (0..ROWS)
        .map(|_| (rng.gen_range(0..ROWS), rng.gen_range(0..3)))
        .collect();
    // `M` holds a row `R` lacks, so deleting `R` re-evaluates `V` over `M`.
    let mut m = r.clone();
    m.push((ROWS, 9));
    let setup = vec![
        Write::Line("site 1 tokyo".into()),
        Write::Line("site 2 osaka".into()),
        Write::Line("relation R @1 (K:int, P:int)".into()),
        Write::Line("relation M @2 (K:int, P:int)".into()),
        Write::Apply(vec![
            EvolutionOp::insert("R", tuples(&r)),
            EvolutionOp::insert("M", tuples(&m)),
        ]),
        Write::Line("pc R (K, P) = M (K, P)".into()),
        Write::Line(
            "view CREATE VIEW V (VE = '~') AS SELECT X.K, X.P AS XP FROM R X (RR = true)".into(),
        ),
        Write::Line("view CREATE VIEW W (VE = '~') AS SELECT Y.K FROM M Y (RR = true)".into()),
    ];
    let change_at = rng.gen_range(3..WRITES - 3);
    let mut writes = Vec::with_capacity(WRITES);
    for i in 0..WRITES {
        if i == change_at {
            writes.push(Write::Line("change delete-relation R".into()));
            continue;
        }
        let (name, bag) = if i < change_at && rng.gen_bool(0.5) {
            ("R", &mut r)
        } else {
            ("M", &mut m)
        };
        let write = match rng.gen_range(0..5) {
            0 | 1 => {
                let new = row(&mut rng);
                bag.push(new);
                line(name, "insert", new)
            }
            // A copy of a stored row, so a later delete may leave others.
            2 => {
                let copy = bag[rng.gen_range(0..bag.len())];
                bag.push(copy);
                line(name, "insert", copy)
            }
            3 => match take(&mut rng, bag) {
                Some(gone) => line(name, "delete", gone),
                None => line(name, "delete", (-100, 0)),
            },
            _ => {
                let new: Vec<_> = (0..rng.gen_range(1..4)).map(|_| row(&mut rng)).collect();
                bag.extend(&new);
                let gone: Vec<_> = (0..2).filter_map(|_| take(&mut rng, bag)).collect();
                Write::Apply(vec![
                    EvolutionOp::insert(name, tuples(&new)),
                    EvolutionOp::delete(name, tuples(&gone)),
                ])
            }
        };
        writes.push(write);
    }
    (setup, writes)
}

/// Every view after every commit: `answers[k][v]` is `VIEWS[v]` once the
/// first `k` writes have committed.
fn oracle(setup: &[Write], writes: &[Write]) -> Vec<Vec<String>> {
    let mut shell = Shell::new();
    for write in setup {
        write.replay(&mut shell);
    }
    let render = |shell: &Shell| -> Vec<String> {
        VIEWS
            .iter()
            .map(|v| {
                shell
                    .engine()
                    .view(v)
                    .unwrap()
                    .extent
                    .distinct()
                    .to_string()
            })
            .collect()
    };
    let mut answers = vec![render(&shell)];
    for write in writes {
        write.replay(&mut shell);
        answers.push(render(&shell));
    }
    answers
}

/// What a reader saw: per read, the view, the writes acknowledged before
/// it was sent, the writes sent before its answer came, and the answer.
type Reads = Vec<(usize, usize, usize, String)>;

fn send(client: &mut Client, body: RequestBody) -> String {
    match client.request(body) {
        Ok(ResponseBody::Output { text }) => text,
        other => panic!("{other:?}"),
    }
}

fn read_until(
    client: &mut Client,
    seed: u64,
    done: &AtomicBool,
    sent: &AtomicUsize,
    acked: &AtomicUsize,
) -> Reads {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut reads = Vec::new();
    while reads.len() < MIN_READS || !done.load(Ordering::SeqCst) {
        let view = rng.gen_range(0..VIEWS.len());
        let body = if rng.gen_bool(0.5) {
            RequestBody::Query {
                view: VIEWS[view].to_owned(),
            }
        } else {
            RequestBody::Statement {
                esql: format!("query {}", VIEWS[view]),
            }
        };
        let lo = acked.load(Ordering::SeqCst);
        let text = send(client, body);
        let hi = sent.load(Ordering::SeqCst);
        reads.push((view, lo, hi, text));
    }
    reads
}

/// The violations in one reader's `reads`: each must equal the oracle
/// after some commit in its bounds, at or after the commit its previous
/// read was matched to.
fn violations(answers: &[Vec<String>], reads: &Reads) -> Vec<String> {
    let mut at = 0;
    let mut found = Vec::new();
    for (n, (view, lo, hi, text)) in reads.iter().enumerate() {
        match (at.max(*lo)..=*hi).find(|&k| answers[k][*view] == *text) {
            Some(k) => at = k,
            None => found.push(format!(
                "read {n} of {} (commits {lo}..={hi}, none before {at}) matches no commit: {text}",
                VIEWS[*view]
            )),
        }
    }
    found
}

#[test]
fn every_concurrent_read_matches_a_commit_in_its_bounds() {
    check_seeds("tier1", SEEDS);
}

#[test]
#[ignore = "nightly: ten times the seeds"]
fn every_concurrent_read_matches_a_commit_in_its_bounds_over_2000_seeds() {
    check_seeds("nightly", NIGHTLY_SEEDS);
}

/// Runs seeds `0..seeds`, one tenant each, on one server over a fresh
/// warehouse named by `run`.
fn check_seeds(run: &str, seeds: u64) {
    let root = std::env::temp_dir().join(format!("eve-commit-order-{run}-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let server = Server::start(
        Arc::new(Warehouse::open(&root).unwrap()),
        ServerConfig::default(),
    );
    for seed in 0..seeds {
        let (setup, writes) = script(seed);
        let answers = oracle(&setup, &writes);
        let tenant = format!("t{seed}");
        let mut writer = server.connect().unwrap();
        writer.open_session(&tenant).unwrap();
        for write in &setup {
            send(&mut writer, write.request());
        }
        let (done, sent, acked) = (
            AtomicBool::new(false),
            AtomicUsize::new(0),
            AtomicUsize::new(0),
        );
        let seen: Vec<Reads> = std::thread::scope(|s| {
            let readers: Vec<_> = (0..READERS)
                .map(|r| {
                    let mut client = server.connect().unwrap();
                    client.open_session(&tenant).unwrap();
                    let (done, sent, acked) = (&done, &sent, &acked);
                    let seed = seed * READERS as u64 + r as u64;
                    s.spawn(move || read_until(&mut client, seed, done, sent, acked))
                })
                .collect();
            for write in &writes {
                sent.fetch_add(1, Ordering::SeqCst);
                send(&mut writer, write.request());
                acked.fetch_add(1, Ordering::SeqCst);
            }
            done.store(true, Ordering::SeqCst);
            readers.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for reads in &seen {
            let found = violations(&answers, reads);
            assert!(found.is_empty(), "seed {seed}: {}", found.join("\n"));
        }
    }
    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}
