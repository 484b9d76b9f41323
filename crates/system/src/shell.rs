//! A line-oriented command interpreter over [`EveEngine`] — the interactive
//! front-end used by `examples/eve_shell.rs`, and a convenient scripting
//! surface for demos and tests. A line is handled in two steps:
//! [`Shell::parse`] lowers it to a [`Command`] with no engine in reach,
//! then [`Shell::run`] executes the command. A command that only reads
//! (`help query show costs stats metrics log-stats travel`, a bare
//! `exec`, blank and `#` lines) parses to a [`ReadCommand`], which
//! [`Shell::answer`] answers on `&self` — so a host can run it under a
//! shared lock. Each mutating command (`site relation insert pc jc view
//! update change index`) parses to the [`LogRecord`] it applies — a data
//! update is an [`EvolutionOp::Data`] inside a [`LogRecord::Batch`] — so
//! an in-memory shell and one over an open store run the same engine
//! path and print the same text.
//!
//! ```text
//! site 1 customers
//! relation Customer @1 (Name:text, City:text)
//! insert Customer ('ann', 'Boston')
//! pc Customer (Name, City) = Mirror (FullName, Town)
//! view CREATE VIEW V (VE = '~') AS SELECT C.Name FROM Customer C (RR = true)
//! update Customer insert ('bob', 'Worcester')
//! change delete-relation Customer
//! show views
//! query V
//! costs
//! rebalance
//! ```

use eve_misd::{AttributeInfo, RelationInfo, SchemaChange, SiteId};
use eve_relational::{
    ColumnDef, ColumnRef, DataType, IndexKind, IndexStats, Relation, Schema, Tuple, Value,
};
use eve_store::LogRecord;
use eve_sync::EvolutionOp;

use crate::durable::DurableEngine;
use crate::engine::{BatchOutcome, EveEngine, IndexHint};
use crate::error::{Error, Result};

/// The engine the shell drives: in-memory only, or durably backed by an
/// evolution store (after `open <dir>`).
#[derive(Debug)]
// One Host lives per Shell, so the size spread between the variants is
// irrelevant — boxing would only add a pointer chase to every command.
#[allow(clippy::large_enum_variant)]
enum Host {
    Plain(EveEngine),
    Durable(DurableEngine),
}

/// One shell line, lowered by [`Shell::parse`] before anything runs. A
/// command that only reads is a [`ReadCommand`], answered on `&Shell`; a
/// mutating command is the [`LogRecord`] it applies (and, with a store
/// open, logs); every other session control has a variant of its own.
#[derive(Debug)]
pub enum Command {
    /// A command that only reads: [`Shell::answer`] answers it.
    Read(ReadCommand),
    /// `site`, `relation`, `insert`, `pc`, `jc`, `view`, `update`,
    /// `change` or `index`: the record the command applies.
    Log(LogRecord),
    /// An op batch sent as one request: applied as [`LogRecord::Batch`]
    /// and answered with its counts rather than line by line.
    Apply(Vec<EvolutionOp>),
    /// `exec <parallelism> [<morsel-rows>]`: a missing morsel size keeps
    /// the current one.
    Exec((usize, Option<usize>)),
    /// `metrics reset`.
    MetricsReset,
    /// `trace on` (`true`) or `trace off`.
    Trace(bool),
    /// `trace clear`.
    TraceClear,
    /// `trace json`.
    TraceJson,
    /// `rebalance`.
    Rebalance,
    /// `open <dir>`.
    Open(String),
    /// `checkpoint`.
    Checkpoint,
    /// `compact`.
    Compact,
}

/// A command that only reads the shell's engine or store. Its type is
/// the proof: [`Shell::answer`] takes `&self`, so a host may answer it
/// under a shared lock, ungated and uncharged.
#[derive(Debug)]
pub enum ReadCommand {
    /// A blank line or a `#` comment.
    Nothing,
    /// `help`.
    Help,
    /// `query <view>`.
    Query(String),
    /// `show views`.
    ShowViews,
    /// `show relations`.
    ShowRelations,
    /// `show constraints`.
    ShowConstraints,
    /// `costs`.
    Costs,
    /// `stats`.
    Stats,
    /// `metrics`, or `metrics prom` for Prometheus text.
    Metrics {
        /// Render as Prometheus text exposition.
        prometheus: bool,
    },
    /// A bare `exec`: the intra-query execution knobs.
    Exec,
    /// `log-stats`.
    LogStats,
    /// `travel <generation> [<view>]`.
    Travel {
        /// The generation to reconstruct.
        generation: u64,
        /// The view whose extent to print, if any.
        view: Option<String>,
    },
}

/// The interactive shell: an [`EveEngine`] plus a command interpreter.
#[derive(Debug)]
pub struct Shell {
    host: Host,
}

impl Default for Shell {
    fn default() -> Shell {
        Shell::new()
    }
}

impl Shell {
    /// A shell over a fresh (in-memory) engine.
    #[must_use]
    pub fn new() -> Shell {
        Shell {
            host: Host::Plain(EveEngine::new()),
        }
    }

    /// A shell directly over a durable engine — the server's per-tenant
    /// host, where every session must hit the evolution log without an
    /// interactive `open` first.
    #[must_use]
    pub fn with_durable(durable: DurableEngine) -> Shell {
        Shell {
            host: Host::Durable(durable),
        }
    }

    /// The wrapped engine.
    #[must_use]
    pub fn engine(&self) -> &EveEngine {
        match &self.host {
            Host::Plain(e) => e,
            Host::Durable(d) => d.engine(),
        }
    }

    /// Mutable engine access. With an open store this bypasses the
    /// evolution log — prefer the shell commands, which log what they
    /// apply.
    pub fn engine_mut(&mut self) -> &mut EveEngine {
        match &mut self.host {
            Host::Plain(e) => e,
            Host::Durable(d) => d.engine_mut(),
        }
    }

    /// The open durable engine, if `open <dir>` was executed.
    #[must_use]
    pub fn durable(&self) -> Option<&DurableEngine> {
        match &self.host {
            Host::Plain(_) => None,
            Host::Durable(d) => Some(d),
        }
    }

    /// The open durable engine, mutably — the shell's `checkpoint` and
    /// `compact` run through this, and so can a caller that applies a
    /// batch to the store directly.
    ///
    /// # Errors
    ///
    /// [`Error::State`] when no store is open.
    pub fn durable_mut(&mut self) -> Result<&mut DurableEngine> {
        match &mut self.host {
            Host::Durable(d) => Ok(d),
            Host::Plain(_) => Err(no_store()),
        }
    }

    /// Runs one record on the host: [`DurableEngine::apply`] when a store
    /// is open (it fails closed while poisoned), else [`EveEngine::apply`],
    /// which the durable entry calls too — the only `Host` match on the
    /// logged-mutation path.
    fn apply(&mut self, record: LogRecord) -> Result<BatchOutcome> {
        match &mut self.host {
            Host::Plain(e) => e.apply(record),
            Host::Durable(d) => d.apply(record),
        }
    }

    /// Executes one command line, returning the text to display:
    /// [`Shell::run`] of [`Shell::parse`].
    ///
    /// # Errors
    ///
    /// As for [`Shell::parse`], then as for [`Shell::run`].
    pub fn execute(&mut self, line: &str) -> Result<String> {
        Ok(self.run(Shell::parse(line)?)?.0)
    }

    /// Lowers one command line to a [`Command`]. No engine is in reach, so
    /// a caller can admit, queue or refuse the command before it locks
    /// anything.
    ///
    /// # Errors
    ///
    /// Unknown commands, malformed arguments and trailing words surface as
    /// [`Error::State`] with a usage hint; a view definition that does not
    /// parse, as its E-SQL error.
    pub fn parse(line: &str) -> Result<Command> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(Command::Read(ReadCommand::Nothing));
        }
        let (cmd, rest) = match line.split_once(char::is_whitespace) {
            Some((c, r)) => (c, r.trim()),
            None => (line, ""),
        };
        let cmd = cmd.to_ascii_lowercase();
        // A command that takes no argument refuses one.
        let bare = |command| match rest {
            "" => Ok(command),
            _ => Err(usage(&cmd)),
        };
        let read = Command::Read;
        Ok(match cmd.as_str() {
            "help" => bare(read(ReadCommand::Help))?,
            "site" => Command::Log(parse_site(rest)?),
            "relation" => Command::Log(parse_relation(rest)?),
            "insert" => Command::Log(parse_seed(rest)?),
            "pc" => Command::Log(parse_pc(rest)?),
            "jc" => Command::Log(parse_jc(rest)?),
            "view" => Command::Log(LogRecord::DefineView(eve_esql::parse_view(rest)?)),
            "update" => Command::Log(parse_update(rest)?),
            "change" => Command::Log(parse_change(rest)?),
            "index" => Command::Log(parse_index(rest)?),
            "exec" => parse_exec(rest)?.map_or(read(ReadCommand::Exec), Command::Exec),
            "query" if !rest.is_empty() && !rest.contains(char::is_whitespace) => {
                read(ReadCommand::Query(rest.to_owned()))
            }
            "query" => return Err(usage("query <view>")),
            "show" => read(match rest.to_ascii_lowercase().as_str() {
                "views" => ReadCommand::ShowViews,
                "relations" => ReadCommand::ShowRelations,
                "constraints" => ReadCommand::ShowConstraints,
                other => {
                    return Err(usage(&format!(
                        "show views|relations|constraints (got `{other}`)"
                    )))
                }
            }),
            "costs" => bare(read(ReadCommand::Costs))?,
            "stats" => bare(read(ReadCommand::Stats))?,
            "metrics" => match rest {
                "" => read(ReadCommand::Metrics { prometheus: false }),
                "prom" => read(ReadCommand::Metrics { prometheus: true }),
                "reset" => Command::MetricsReset,
                other => return Err(usage(&format!("metrics [prom|reset] (got `{other}`)"))),
            },
            "trace" => match rest {
                "on" => Command::Trace(true),
                "off" => Command::Trace(false),
                "clear" => Command::TraceClear,
                "json" => Command::TraceJson,
                _ => return Err(usage("trace on|off|json|clear")),
            },
            "rebalance" => bare(Command::Rebalance)?,
            "open" if rest.is_empty() => return Err(usage("open <store-directory>")),
            "open" => Command::Open(rest.to_owned()),
            "checkpoint" => bare(Command::Checkpoint)?,
            "log-stats" => bare(read(ReadCommand::LogStats))?,
            "travel" => read(parse_travel(rest)?),
            "compact" => bare(Command::Compact)?,
            other => return Err(usage(&format!("unknown command `{other}` — try `help`"))),
        })
    }

    /// Runs one parsed command, returning the text to display and the
    /// rewrite-search candidates the command generated — the meter
    /// admission control charges. A [`Command::Read`] is
    /// [`Shell::answer`]ed and generates none.
    ///
    /// # Errors
    ///
    /// Any engine or store error.
    pub fn run(&mut self, command: Command) -> Result<(String, u64)> {
        let text = match command {
            Command::Read(read) => self.answer(&read)?,
            Command::Log(record) => return self.run_record(record),
            Command::Apply(ops) => {
                let outcome = self.apply(LogRecord::Batch(ops))?;
                let spent = candidates(&outcome);
                let text = format!(
                    "applied batch: {} traces, {} reports, {spent} candidates",
                    outcome.traces.len(),
                    outcome.reports.len()
                );
                return Ok((text, spent));
            }
            Command::Exec((parallelism, morsel_rows)) => {
                let o = &mut self.engine_mut().exec_options;
                o.morsel_rows = morsel_rows.unwrap_or_else(|| o.morsel_rows());
                o.parallelism = parallelism;
                self.answer(&ReadCommand::Exec)?
            }
            Command::MetricsReset => {
                eve_trace::global().reset();
                self.engine().telemetry_registry().reset();
                "metrics reset".to_owned()
            }
            Command::Trace(on) => {
                eve_trace::set_enabled(on);
                format!("tracing {}", if on { "on" } else { "off" })
            }
            Command::TraceClear => {
                eve_trace::clear_spans();
                "trace buffer cleared".to_owned()
            }
            Command::TraceJson => eve_trace::chrome_json(),
            Command::Rebalance => self.rebalance()?,
            Command::Open(dir) => self.open(&dir)?,
            Command::Checkpoint => {
                let d = self.durable_mut()?;
                let seq = d.checkpoint()?;
                let generation = d.engine().mkb().generation();
                format!("snapshot written at seq {seq} (generation {generation})")
            }
            Command::Compact => {
                let (segs, snaps) = self.durable_mut()?.compact()?;
                format!(
                    "compacted: {segs} segments and {snaps} snapshots dropped \
                     (time travel now starts at the newest snapshot)"
                )
            }
        };
        Ok((text, 0))
    }

    /// Appends the answer of `query <view>` to `out` as UTF-8 bytes, the
    /// same text [`Shell::answer`] returns for it, copied once from the
    /// view's kept text ([`eve_relational::Relation::write_distinct`]).
    /// A host writes it straight into the frame it sends. On an error
    /// `out` is left as it was.
    ///
    /// # Errors
    ///
    /// An unknown view.
    pub fn write_query(&self, view: &str, out: &mut Vec<u8>) -> Result<()> {
        self.engine().view(view)?.extent.write_distinct(out);
        Ok(())
    }

    /// Answers a command that only reads. It takes `&self`, so a host may
    /// answer it under a shared lock while other readers run.
    ///
    /// # Errors
    ///
    /// An unknown view, a store command with no store open, or a store
    /// read failure.
    pub fn answer(&self, read: &ReadCommand) -> Result<String> {
        Ok(match read {
            ReadCommand::Nothing => String::new(),
            ReadCommand::Help => HELP.trim().to_owned(),
            ReadCommand::Query(view) => self.engine().view(view)?.extent.distinct_to_string(),
            ReadCommand::ShowViews => {
                let views = self.engine().views().map(|mv| {
                    let rows = mv.extent.cardinality();
                    format!("{} [{rows} rows]\n{}\n", mv.def.name, mv.def)
                });
                listing(views, "(no views)")
            }
            ReadCommand::ShowRelations => {
                let relations = self.engine().mkb().relations();
                listing(relations.map(|r| format!("{r}\n")), "(no relations)")
            }
            ReadCommand::ShowConstraints => {
                let mkb = self.engine().mkb();
                let pcs = mkb.pc_constraints().iter().map(|pc| format!("{pc}\n"));
                let jcs = mkb.join_constraints().iter().map(|jc| format!("{jc}\n"));
                listing(pcs.chain(jcs), "(no constraints)")
            }
            ReadCommand::Costs => listing(
                self.engine().cost_report()?.into_iter().map(|report| {
                    let mut out = format!("{}: total {:.1}\n", report.view_name, report.total_cost);
                    for (origin, f) in report.per_origin {
                        out.push_str(&format!(
                            "  origin {origin}: CF_M {:.0}, CF_T {:.0}, CF_IO {:.0}\n",
                            f.messages, f.transfer, f.io
                        ));
                    }
                    out
                }),
                "(no views)",
            ),
            ReadCommand::Stats => self.stats(),
            ReadCommand::Metrics { prometheus } => {
                let m = self.engine().metrics_snapshot();
                let text = if *prometheus {
                    m.prometheus()
                } else {
                    m.render_text()
                };
                text.trim_end().to_owned()
            }
            ReadCommand::Exec => {
                let o = &self.engine().exec_options;
                let (workers, rows) = (o.parallelism.max(1), o.morsel_rows());
                format!("exec: {workers} worker(s), {rows} rows/morsel")
            }
            ReadCommand::LogStats => self.log_stats()?,
            ReadCommand::Travel { generation, view } => self.travel(*generation, view)?,
        })
    }

    /// Applies a mutating command's record and renders its answer: the
    /// command's own line, then one line per view the record maintained
    /// (`update`) or affected (`change`).
    fn run_record(&mut self, record: LogRecord) -> Result<(String, u64)> {
        // The first line names what the record carries, so it is written
        // before the record moves into the engine.
        let mut out = match &record {
            LogRecord::AddSite { id, name } => format!("registered site {id} ({name})"),
            LogRecord::RegisterRelation { info, .. } => {
                format!("registered relation {} @ site {}", info.name, info.site.0)
            }
            LogRecord::SeedTuples { relation, tuples } => {
                format!("seeded {} tuple into {relation}", tuples.len())
            }
            LogRecord::AddPcConstraint(_) => "registered PC constraint".to_owned(),
            LogRecord::AddJoinConstraint(_) => "registered join constraint".to_owned(),
            // Completed below, once the view is materialized.
            LogRecord::DefineView(def) => def.name.clone(),
            LogRecord::Batch(ops) => ops
                .iter()
                .map(|op| match op {
                    EvolutionOp::Data(update) => format!("update applied to {}", update.relation),
                    EvolutionOp::Capability { change, .. } => format!("applied {change}"),
                })
                .collect::<Vec<_>>()
                .join("\n"),
            LogRecord::DeclareIndex(hint) => {
                let shape = if hint.kind == IndexKind::Hash {
                    "hash"
                } else {
                    "sorted"
                };
                let on = format!("{}.{}", hint.relation, hint.column);
                if self.engine().index_hints().contains(hint) {
                    format!("{shape} index on {on} already declared (re-warmed)")
                } else {
                    format!("declared {shape} index on {on}")
                }
            }
            _ => String::new(),
        };
        let defines_view = matches!(record, LogRecord::DefineView(_));
        let outcome = self.apply(record)?;
        if defines_view {
            let rows = self.engine().view(&out)?.extent.cardinality();
            out = format!("materialized view {out} with {rows} rows");
        }
        for (view, t) in &outcome.traces {
            out.push_str(&format!(
                "\n  {view}: {} msgs, {} bytes, {} I/Os, +{} −{} rows",
                t.messages, t.bytes, t.ios, t.view_inserts, t.view_deletes
            ));
        }
        for r in outcome.reports.iter().filter(|r| r.affected) {
            let view = &r.view_name;
            out.push_str(&match &r.adopted {
                Some(adopted) => format!(
                    "\n  {view}: adopted rewriting (QC {:.4}, DD {:.4}) — {}",
                    adopted.qc, adopted.divergence.dd, adopted.rewriting.provenance
                ),
                None => format!("\n  {view}: no legal rewriting — dropped"),
            });
        }
        Ok((out, candidates(&outcome)))
    }

    /// `stats` — measured resource accounting since the last reset, plus
    /// the cache/index counters of the rewrite-search machinery and (with
    /// an open store) the evolution-log I/O counters. Counters come from
    /// the engine's merged metrics snapshot; the per-extent columnar and
    /// index state is summed over [`EveEngine::extents`].
    fn stats(&self) -> String {
        let engine = self.engine();
        let m = engine.metrics_snapshot();
        let (mut extents, mut columnar) = (0, 0);
        let mut index = IndexStats::default();
        for rel in engine.extents() {
            extents += 1;
            columnar += usize::from(rel.columnar_built());
            index = index.merged(rel.index_stats());
        }
        let mut out = format!(
            "total I/O: {} blocks\n\
             total messages: {}\n\
             partner cache: {} hits, {} misses\n\
             mkb index: {} hits, {} misses\n\
             columnar: {columnar}/{extents} extents materialized\n\
             indexes: {} hash, {} sorted ({} builds, {} hits, {} maintenance ops)\n\
             interned: {} symbols ({} hits, {} misses)\n\
             exec: {} workers, {} morsels ({} steals), {} partitions, \
             {} parallel ops, {} declined",
            engine.total_io(),
            engine.total_messages(),
            m.counter("cache.partner_hits"),
            m.counter("cache.partner_misses"),
            m.counter("mkb.index_hits"),
            m.counter("mkb.index_misses"),
            index.hash_indexes,
            index.sorted_indexes,
            index.builds,
            index.hits,
            index.maintenance_ops,
            eve_relational::intern::symbols(),
            m.counter_sum("intern.", ".hits"),
            m.counter_sum("intern.", ".misses"),
            engine.exec_options.parallelism.max(1),
            m.counter("exec.morsels"),
            m.counter("exec.steals"),
            m.counter("exec.partitions"),
            m.counter("exec.parallel_ops"),
            m.counter("exec.serial_fallbacks")
        );
        if let Some(d) = self.durable() {
            let s = d.store_stats();
            out.push_str(&format!(
                "\nstore: {} records, {} log bytes, {} fsyncs, {} snapshots \
                 ({} bytes), {} replayed, {} torn bytes truncated",
                s.records_appended,
                s.log_bytes_appended,
                s.fsyncs,
                s.snapshots_written,
                s.snapshot_bytes_written,
                s.records_replayed,
                s.torn_bytes_truncated
            ));
        }
        out
    }

    /// `open <dir>` — attach an evolution store: recover from it when it
    /// exists, otherwise create it around the shell's current engine state.
    fn open(&mut self, dir: &str) -> Result<String> {
        if self.durable().is_some() {
            return Err(Error::State {
                detail: "a store is already open in this shell".into(),
            });
        }
        let path = std::path::Path::new(dir);
        if eve_store::EvolutionStore::exists(path)? {
            let (durable, report) = DurableEngine::open(path)?;
            let msg = format!(
                "recovered store {dir}: snapshot seq {:?}, {} records replayed, \
                 {} torn bytes truncated, generation {}",
                report.snapshot_seq,
                report.replayed_records,
                report.torn_bytes_truncated,
                report.generation
            );
            self.host = Host::Durable(durable);
            Ok(msg)
        } else {
            // Bootstrap the store with the current in-memory state. Clone
            // rather than move: a failing creation (bad path, full disk)
            // must leave the session's engine untouched.
            let durable = DurableEngine::create_with(path, self.engine().clone())?;
            self.host = Host::Durable(durable);
            Ok(format!("created store {dir} (bootstrap snapshot written)"))
        }
    }

    /// `log-stats` — the store's layout and I/O counters.
    fn log_stats(&self) -> Result<String> {
        let d = self.durable().ok_or_else(no_store)?;
        let s = d.store_stats();
        let snapshots = d.snapshot_index()?;
        let segments = d.segment_count()?;
        let mut out = format!(
            "store {}\nnext seq: {}\nsegments: {segments}\nsnapshots: {}\n",
            d.dir().display(),
            d.next_seq(),
            snapshots.len()
        );
        for meta in snapshots {
            let kind = match meta.kind {
                eve_store::SnapshotKind::Full => "full",
                eve_store::SnapshotKind::Delta => "delta",
            };
            out.push_str(&format!(
                "  snap seq {} @ generation {} [{kind}]\n",
                meta.seq, meta.generation
            ));
        }
        out.push_str(&format!(
            "appended: {} records, {} bytes, {} fsyncs\n\
             snapshots written: {} ({} bytes, {} deltas)\n\
             replayed: {} records; torn: {} bytes / {} records truncated",
            s.records_appended,
            s.log_bytes_appended,
            s.fsyncs,
            s.snapshots_written,
            s.snapshot_bytes_written,
            s.delta_snapshots_written,
            s.records_replayed,
            s.torn_bytes_truncated,
            s.torn_records_truncated
        ));
        Ok(out)
    }

    /// `travel <generation> [<view>]` — reconstruct a historical state;
    /// with a view name, print that view's extent as of the generation.
    fn travel(&self, generation: u64, view: &Option<String>) -> Result<String> {
        let past = DurableEngine::open_at(self.durable().ok_or_else(no_store)?.dir(), generation)?;
        let actual = past.mkb().generation();
        if let Some(name) = view {
            let extent = past.view(name)?.extent.distinct_to_string();
            return Ok(format!(
                "{name} @ generation {generation} (actual {actual}):\n{extent}"
            ));
        }
        let relations: Vec<&str> = past.mkb().relations().map(|r| r.name.as_str()).collect();
        let mut out = format!(
            "state @ generation {generation} (actual {actual}):\n  relations: {}\n",
            relations.join(", ")
        );
        for mv in past.views() {
            let rows = mv.extent.cardinality();
            out.push_str(&format!("  view {} [{rows} rows]\n", mv.def.name));
        }
        Ok(out)
    }

    /// `rebalance` — migrate views to cheaper equivalent replicas.
    fn rebalance(&mut self) -> Result<String> {
        let reports = match &mut self.host {
            Host::Plain(e) => e.rebalance_views()?,
            Host::Durable(d) => d.rebalance_views()?,
        };
        let lines = reports.into_iter().map(|r| {
            if r.migrated {
                format!(
                    "{}: migrated {} → {} (cost {:.1} → {:.1})\n",
                    r.view_name,
                    r.from_relation.unwrap_or_default(),
                    r.to_relation.unwrap_or_default(),
                    r.old_cost,
                    r.new_cost
                )
            } else {
                format!("{}: no cheaper equivalent source\n", r.view_name)
            }
        });
        Ok(listing(lines, "(no views)"))
    }
}

fn usage(msg: &str) -> Error {
    Error::State {
        detail: format!("usage: {msg}"),
    }
}

fn no_store() -> Error {
    Error::State {
        detail: "no store is open — run `open <dir>` first".into(),
    }
}

/// The whitespace-separated words of a command's arguments.
fn words(rest: &str) -> Vec<&str> {
    rest.split_whitespace().collect()
}

/// Σ [`EvolutionReport::candidates`](crate::EvolutionReport) of one
/// outcome: the rewrite-search work a command generated.
fn candidates(outcome: &BatchOutcome) -> u64 {
    let candidates: usize = outcome.reports.iter().map(|r| r.candidates).sum();
    u64::try_from(candidates).unwrap_or(u64::MAX)
}

/// The lines, concatenated — or `empty` when there are none.
fn listing(lines: impl Iterator<Item = String>, empty: &str) -> String {
    let out: String = lines.collect();
    if out.is_empty() {
        empty.to_owned()
    } else {
        out
    }
}

fn parse_site(rest: &str) -> Result<LogRecord> {
    let bad = || usage("site <id> <name>");
    let [id, name] = words(rest)[..] else {
        return Err(bad());
    };
    Ok(LogRecord::AddSite {
        id: id.parse().map_err(|_| bad())?,
        name: name.to_owned(),
    })
}

/// `relation Name @site (attr:type[:bytes], …) [sel=σ] [bfr=n]`
fn parse_relation(rest: &str) -> Result<LogRecord> {
    const USAGE: &str = "relation <Name> @<site> (<attr>:<type>[:bytes], ...) [sel=σ] [bfr=n]";
    let (head, attrs_and_opts) = rest.split_once('(').ok_or_else(|| usage(USAGE))?;
    let mut head_parts = head.split_whitespace();
    let name = head_parts.next().ok_or_else(|| usage(USAGE))?.to_owned();
    let site: u32 = head_parts
        .next()
        .and_then(|s| s.strip_prefix('@'))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| usage(USAGE))?;
    let (attr_list, opts) = attrs_and_opts.split_once(')').ok_or_else(|| usage(USAGE))?;

    let mut attributes = Vec::new();
    for spec in attr_list.split(',') {
        let mut f = spec.trim().split(':');
        let attr_name = f
            .next()
            .filter(|s| !s.is_empty())
            .ok_or_else(|| usage(USAGE))?;
        let ty = match f.next().map(str::to_ascii_lowercase).as_deref() {
            Some("int") | None => DataType::Int,
            Some("float") => DataType::Float,
            Some("bool") => DataType::Bool,
            Some("text") => DataType::Text,
            Some(other) => return Err(usage(&format!("unknown type `{other}`"))),
        };
        let attr = match f.next() {
            Some(bytes) => AttributeInfo::sized(
                attr_name,
                ty,
                bytes.trim().parse().map_err(|_| usage(USAGE))?,
            ),
            None => AttributeInfo::new(attr_name, ty),
        };
        attributes.push(attr);
    }

    let mut info = RelationInfo::new(name.clone(), SiteId(site), attributes, 0);
    for opt in opts.split_whitespace() {
        if let Some(v) = opt.strip_prefix("sel=") {
            info.selectivity = v.parse().map_err(|_| usage(USAGE))?;
        } else if let Some(v) = opt.strip_prefix("bfr=") {
            info.blocking_factor = v.parse().map_err(|_| usage(USAGE))?;
        } else if !opt.is_empty() {
            return Err(usage(USAGE));
        }
    }

    let schema = Schema::new(
        info.attributes
            .iter()
            .map(|a| ColumnDef::sized(ColumnRef::bare(a.name.clone()), a.ty, a.byte_size))
            .collect(),
    )?;
    let extent = Relation::empty(name.clone(), schema);
    Ok(LogRecord::RegisterRelation { info, extent })
}

/// Parses `('ann', 3, true)` into a tuple (types checked on insert).
fn parse_tuple(text: &str) -> Result<Tuple> {
    let inner = text
        .trim()
        .strip_prefix('(')
        .and_then(|s| s.strip_suffix(')'))
        .ok_or_else(|| usage("tuple must be parenthesized: (v1, v2, ...)"))?;
    let mut values = Vec::new();
    for field in split_top_level(inner) {
        let f = field.trim();
        let value = if let Some(s) = f.strip_prefix('\'').and_then(|s| s.strip_suffix('\'')) {
            Value::Text(s.to_owned())
        } else if f.eq_ignore_ascii_case("true") {
            Value::Bool(true)
        } else if f.eq_ignore_ascii_case("false") {
            Value::Bool(false)
        } else if let Ok(i) = f.parse::<i64>() {
            Value::Int(i)
        } else if let Ok(x) = f.parse::<f64>() {
            Value::float(x)?
        } else {
            return Err(usage(&format!("cannot parse value `{f}`")));
        };
        values.push(value);
    }
    Ok(Tuple::new(values))
}

/// `insert <Relation> (v1, v2, …)` — seeds base data *without* view
/// maintenance (initial loading).
fn parse_seed(rest: &str) -> Result<LogRecord> {
    let (rel, tuple_text) = rest
        .split_once(char::is_whitespace)
        .ok_or_else(|| usage("insert <Relation> (v1, v2, ...)"))?;
    Ok(LogRecord::SeedTuples {
        relation: rel.to_owned(),
        tuples: vec![parse_tuple(tuple_text)?],
    })
}

/// `pc A (x, y) <=|=|>= B (u, v)` — containment constraint.
fn parse_pc(rest: &str) -> Result<LogRecord> {
    const USAGE: &str = "pc <A> (attrs) <= | = | >= <B> (attrs)";
    let (left, op, right) = split_constraint(rest).ok_or_else(|| usage(USAGE))?;
    let parse_side = |s: &str| -> Result<eve_misd::PcSide> {
        let (rel, attrs) = s.split_once('(').ok_or_else(|| usage(USAGE))?;
        let attrs = attrs.trim().strip_suffix(')').ok_or_else(|| usage(USAGE))?;
        let names: Vec<&str> = attrs.split(',').map(str::trim).collect();
        Ok(eve_misd::PcSide::projection(rel.trim(), &names))
    };
    let relationship = match op {
        "<=" => eve_misd::PcRelationship::Subset,
        "=" => eve_misd::PcRelationship::Equivalent,
        ">=" => eve_misd::PcRelationship::Superset,
        _ => return Err(usage(USAGE)),
    };
    let pc = eve_misd::PcConstraint::new(parse_side(left)?, relationship, parse_side(right)?);
    Ok(LogRecord::AddPcConstraint(pc))
}

/// `jc A.x = B.y`
fn parse_jc(rest: &str) -> Result<LogRecord> {
    const USAGE: &str = "jc <A>.<x> = <B>.<y>";
    let (l, r) = rest.split_once('=').ok_or_else(|| usage(USAGE))?;
    let lref = ColumnRef::parse(l.trim());
    let rref = ColumnRef::parse(r.trim());
    let (Some(lq), Some(rq)) = (lref.qualifier.clone(), rref.qualifier.clone()) else {
        return Err(usage(USAGE));
    };
    let jc = eve_misd::JoinConstraint::new(
        lq,
        rq,
        vec![eve_relational::PrimitiveClause::eq(lref, rref)],
    );
    Ok(LogRecord::AddJoinConstraint(jc))
}

/// `update <Relation> insert|delete (v1, …)`
fn parse_update(rest: &str) -> Result<LogRecord> {
    const USAGE: &str = "update <Relation> insert|delete (v1, v2, ...)";
    let mut parts = rest.splitn(3, char::is_whitespace);
    let rel = parts.next().ok_or_else(|| usage(USAGE))?;
    let kind = parts.next().ok_or_else(|| usage(USAGE))?;
    let tuple = parse_tuple(parts.next().ok_or_else(|| usage(USAGE))?)?;
    let update = match kind.to_ascii_lowercase().as_str() {
        "insert" => EvolutionOp::insert(rel, vec![tuple]),
        "delete" => EvolutionOp::delete(rel, vec![tuple]),
        _ => return Err(usage(USAGE)),
    };
    Ok(LogRecord::Batch(vec![update]))
}

/// `change delete-relation R | delete-attribute R.A |
///  rename-relation A B | rename-attribute R.A B`
fn parse_change(rest: &str) -> Result<LogRecord> {
    const USAGE: &str = "change delete-relation <R> | delete-attribute <R>.<A> | \
         rename-relation <A> <B> | rename-attribute <R>.<A> <B>";
    let words = words(rest);
    let (kind, args) = words.split_first().ok_or_else(|| usage(USAGE))?;
    let change = match (kind.to_ascii_lowercase().as_str(), args) {
        ("delete-relation", [relation]) => SchemaChange::DeleteRelation {
            relation: (*relation).to_owned(),
        },
        ("delete-attribute", [attribute]) => {
            let c = ColumnRef::parse(attribute);
            SchemaChange::DeleteAttribute {
                relation: c.qualifier.ok_or_else(|| usage(USAGE))?,
                attribute: c.name,
            }
        }
        ("rename-relation", [from, to]) => SchemaChange::RenameRelation {
            from: (*from).to_owned(),
            to: (*to).to_owned(),
        },
        ("rename-attribute", [attribute, to]) => {
            let c = ColumnRef::parse(attribute);
            SchemaChange::RenameAttribute {
                relation: c.qualifier.ok_or_else(|| usage(USAGE))?,
                from: c.name,
                to: (*to).to_owned(),
            }
        }
        _ => return Err(usage(USAGE)),
    };
    Ok(LogRecord::Batch(vec![EvolutionOp::change(change)]))
}

/// `index <Relation> <column> [hash|sorted]` — declare (and warm) a
/// secondary index on a hosted base relation. Durable hosts log the
/// declaration so it survives recovery.
fn parse_index(rest: &str) -> Result<LogRecord> {
    const USAGE: &str = "index <Relation> <column> [hash|sorted]";
    let (relation, column, kind) = match words(rest)[..] {
        [relation, column] => (relation, column, "hash"),
        [relation, column, kind] => (relation, column, kind),
        _ => return Err(usage(USAGE)),
    };
    let kind = match kind.to_ascii_lowercase().as_str() {
        "hash" => IndexKind::Hash,
        "sorted" => IndexKind::Sorted,
        other => return Err(usage(&format!("unknown index kind `{other}`"))),
    };
    Ok(LogRecord::DeclareIndex(IndexHint {
        relation: relation.to_owned(),
        column: column.to_owned(),
        kind,
    }))
}

/// `exec [<parallelism> [<morsel-rows>]]`: `None` for a bare `exec`.
fn parse_exec(rest: &str) -> Result<Option<(usize, Option<usize>)>> {
    const USAGE: &str = "exec [<parallelism> [<morsel-rows>]]";
    let (par, morsel_rows) = match words(rest)[..] {
        [] => return Ok(None),
        [par] => (par, None),
        [par, m] => (par, Some(m)),
        _ => return Err(usage(USAGE)),
    };
    let parallelism: usize = par.parse().map_err(|_| usage(USAGE))?;
    if parallelism == 0 || parallelism > 256 {
        return Err(usage("parallelism must be in 1..=256"));
    }
    let morsel_rows = match morsel_rows.map(str::parse) {
        None => None,
        Some(Ok(0)) => return Err(usage("morsel-rows must be at least 1")),
        Some(Ok(m)) => Some(m),
        Some(Err(_)) => return Err(usage(USAGE)),
    };
    Ok(Some((parallelism, morsel_rows)))
}

/// `travel <generation> [<view>]`
fn parse_travel(rest: &str) -> Result<ReadCommand> {
    let bad = || usage("travel <generation> [<view>]");
    let (generation, view) = match words(rest)[..] {
        [generation] => (generation, None),
        [generation, view] => (generation, Some(view.to_owned())),
        _ => return Err(bad()),
    };
    Ok(ReadCommand::Travel {
        generation: generation.parse().map_err(|_| bad())?,
        view,
    })
}

/// Splits on commas that are not inside single quotes.
fn split_top_level(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    for c in s.chars() {
        match c {
            '\'' => {
                in_str = !in_str;
                cur.push(c);
            }
            ',' if !in_str => {
                out.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() || !out.is_empty() {
        out.push(cur);
    }
    out
}

/// Splits `A (…) OP B (…)` on the constraint operator outside parentheses.
fn split_constraint(s: &str) -> Option<(&str, &str, &str)> {
    let mut depth = 0i32;
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'(' => depth += 1,
            b')' => depth -= 1,
            b'<' | b'>' if depth == 0 && i + 1 < bytes.len() && bytes[i + 1] == b'=' => {
                return Some((&s[..i], &s[i..i + 2], &s[i + 2..]));
            }
            b'=' if depth == 0 => {
                return Some((&s[..i], "=", &s[i + 1..]));
            }
            _ => {}
        }
        i += 1;
    }
    None
}

const HELP: &str = "
EVE shell commands:
  site <id> <name>                         register an information source
  relation <N> @<site> (a:type[:bytes], …) register a relation (empty extent)
  insert <N> (v1, v2, …)                   seed base data (no maintenance)
  pc <A> (attrs) <=|=|>= <B> (attrs)       containment constraint
  jc <A>.<x> = <B>.<y>                     join constraint
  view CREATE VIEW …                       define an E-SQL view
  update <N> insert|delete (v1, …)         data update + view maintenance
  change delete-relation <R> | delete-attribute <R>.<A>
         | rename-relation <A> <B> | rename-attribute <R>.<A> <B>
  index <R> <column> [hash|sorted]         declare a secondary index (durable hint)
  exec [<parallelism> [<morsel-rows>]]     set/show intra-query morsel parallelism
  query <View>                             print a view's extent
  show views|relations|constraints         inspect the warehouse / MKB
  costs                                    per-view analytic maintenance cost
  stats                                    measured I/O + messages, cache/index counters
  metrics [prom|reset]                     metrics-registry snapshot (text or Prometheus)
  trace on|off|json|clear                  span recording + chrome://tracing dump
  rebalance                                migrate views to cheaper replicas
  open <dir>                               attach a durable evolution store (recover or create)
  checkpoint                               write a snapshot, rotate the log segment
  log-stats                                store layout + I/O counters
  travel <generation> [<view>]             reconstruct a past state (optionally query a view)
  compact                                  drop history before the newest snapshot
  help                                     this text
";

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded_shell() -> Shell {
        let mut sh = Shell::new();
        for cmd in [
            "site 1 customers",
            "site 2 flights",
            "relation Customer @1 (Name:text, City:text)",
            "relation FlightRes @2 (PName:text, Dest:text)",
            "insert Customer ('ann', 'Boston')",
            "insert Customer ('bob', 'Worcester')",
            "insert FlightRes ('ann', 'Asia')",
            "view CREATE VIEW V (VE = '~') AS SELECT C.Name FROM Customer C (RR = true), \
             FlightRes F WHERE (C.Name = F.PName) AND (F.Dest = 'Asia')",
        ] {
            sh.execute(cmd).unwrap_or_else(|e| panic!("{cmd}: {e}"));
        }
        sh
    }

    #[test]
    fn full_session_flows() {
        let mut sh = seeded_shell();
        let out = sh.execute("query V").unwrap();
        assert!(out.contains("'ann'"), "{out}");
        assert!(!out.contains("'bob'"));

        let out = sh
            .execute("update FlightRes insert ('bob', 'Asia')")
            .unwrap();
        assert!(out.contains("+1"), "{out}");
        assert!(sh.execute("query V").unwrap().contains("'bob'"));

        let out = sh.execute("show views").unwrap();
        assert!(out.contains("CREATE VIEW V"));
        let out = sh.execute("show relations").unwrap();
        assert!(out.contains("Customer"));
        let out = sh.execute("costs").unwrap();
        assert!(out.contains("V: total"));
        let out = sh.execute("stats").unwrap();
        assert!(out.contains("total I/O"), "{out}");
        assert!(out.contains("total messages"), "{out}");
        assert!(out.contains("partner cache"), "{out}");
        assert!(out.contains("mkb index"), "{out}");
        assert!(out.contains("columnar:"), "{out}");
        assert!(out.contains("indexes:"), "{out}");
        assert!(out.contains("interned:"), "{out}");
    }

    #[test]
    fn metrics_and_trace_commands() {
        let mut sh = seeded_shell();
        sh.execute("update FlightRes insert ('cal', 'Asia')")
            .unwrap();
        let out = sh.execute("metrics").unwrap();
        assert!(out.contains("mkb.index_hits"), "{out}");
        assert!(out.contains("cache.partner_hits"), "{out}");
        assert!(out.contains("engine.data_updates"), "{out}");
        let out = sh.execute("metrics prom").unwrap();
        assert!(out.contains("engine_data_updates"), "{out}");
        assert!(sh.execute("metrics bogus").is_err());

        sh.execute("trace on").unwrap();
        sh.execute("update FlightRes insert ('dee', 'Asia')")
            .unwrap();
        let json = sh.execute("trace json").unwrap();
        assert!(json.contains("engine.data_update"), "{json}");
        sh.execute("trace off").unwrap();
        sh.execute("trace clear").unwrap();
        assert!(sh.execute("trace bogus").is_err());
    }

    #[test]
    fn index_command_declares_warms_and_reports() {
        let mut sh = seeded_shell();
        let out = sh.execute("index Customer Name").unwrap();
        assert!(
            out.contains("declared hash index on Customer.Name"),
            "{out}"
        );
        let out = sh.execute("index Customer Name hash").unwrap();
        assert!(out.contains("already declared"), "{out}");
        let out = sh.execute("index FlightRes Dest sorted").unwrap();
        assert!(
            out.contains("declared sorted index on FlightRes.Dest"),
            "{out}"
        );
        assert!(sh.execute("index Customer Ghost").is_err());
        assert!(sh.execute("index Customer Name btree").is_err());
        let stats = sh.execute("stats").unwrap();
        assert!(stats.contains("1 hash, 1 sorted"), "{stats}");
    }

    #[test]
    fn capability_change_through_shell() {
        let mut sh = seeded_shell();
        for cmd in [
            "site 3 mirror",
            "relation Members @3 (FullName:text, Town:text)",
            "insert Members ('ann', 'Boston')",
            "insert Members ('bob', 'Worcester')",
            "pc Customer (Name, City) = Members (FullName, Town)",
        ] {
            sh.execute(cmd).unwrap();
        }
        let out = sh.execute("change delete-relation Customer").unwrap();
        assert!(out.contains("adopted rewriting"), "{out}");
        let out = sh.execute("query V").unwrap();
        assert!(out.contains("'ann'"), "{out}");
        let out = sh.execute("show constraints").unwrap();
        assert!(!out.contains("Customer"), "constraints evolved: {out}");
    }

    #[test]
    fn rename_and_delete_attribute_commands() {
        let mut sh = seeded_shell();
        let out = sh
            .execute("change rename-attribute FlightRes.Dest Target")
            .unwrap();
        assert!(out.contains("change-attribute-name"), "{out}");
        assert!(sh.execute("query V").unwrap().contains("'ann'"));
        sh.execute("change rename-relation FlightRes Bookings")
            .unwrap();
        assert!(sh.engine().mkb().has_relation("Bookings"));
    }

    #[test]
    fn tuple_parsing_accepts_all_types() {
        let t = parse_tuple("( 'a, b' , 7, -3, 2.5, true, false )").unwrap();
        assert_eq!(t.arity(), 6);
        assert_eq!(t.get(0), &Value::Text("a, b".into()));
        assert_eq!(t.get(1), &Value::Int(7));
        assert_eq!(t.get(2), &Value::Int(-3));
        assert_eq!(t.get(3), &Value::Float(2.5));
        assert_eq!(t.get(4), &Value::Bool(true));
    }

    #[test]
    fn errors_carry_usage_hints() {
        let mut sh = Shell::new();
        for bad in [
            "frobnicate",
            "site one two",
            "relation Broken",
            "pc A B",
            "update X teleport (1)",
            "change explode R",
            "show everything",
        ] {
            let err = sh.execute(bad).unwrap_err().to_string();
            assert!(
                err.contains("usage:") || err.contains("unknown"),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn trailing_words_answer_the_usage_error() {
        for line in [
            "site 1 a b",
            "travel 3 V W",
            "rebalance junk",
            "help me",
            "costs x",
            "stats please",
            "checkpoint now",
            "log-stats x",
            "compact x",
            "index R K hash x",
            "change delete-relation R x",
            "change rename-relation A B C",
            "exec 2 64 x",
            "query V W",
            "query",
        ] {
            let err = Shell::parse(line).map(drop).unwrap_err().to_string();
            let name = line.split_whitespace().next().unwrap();
            assert!(err.contains(&format!("usage: {name}")), "`{line}`: {err}");
        }
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let mut sh = Shell::new();
        assert_eq!(sh.execute("").unwrap(), "");
        assert_eq!(sh.execute("   # a comment").unwrap(), "");
    }

    #[test]
    fn help_lists_commands() {
        let mut sh = Shell::new();
        let help = sh.execute("help").unwrap();
        for kw in ["site", "relation", "view", "update", "change", "rebalance"] {
            assert!(help.contains(kw));
        }
    }

    #[test]
    fn durable_session_checkpoint_travel_and_recover() {
        let dir =
            std::env::temp_dir().join(format!("eve-shell-durable-{}-session", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let dir_str = dir.to_string_lossy().to_string();

        let mut sh = seeded_shell();
        let out = sh.execute(&format!("open {dir_str}")).unwrap();
        assert!(out.contains("created store"), "{out}");
        let g0 = sh.engine().mkb().generation();

        // Durable mutations flow through the log.
        sh.execute("update FlightRes insert ('bob', 'Asia')")
            .unwrap();
        let out = sh.execute("checkpoint").unwrap();
        assert!(out.contains("snapshot written"), "{out}");
        sh.execute("site 3 mirror").unwrap();
        sh.execute("relation Members @3 (FullName:text, Town:text)")
            .unwrap();
        sh.execute("insert Members ('ann', 'Boston')").unwrap();
        sh.execute("insert Members ('bob', 'Worcester')").unwrap();
        sh.execute("pc Customer (Name, City) = Members (FullName, Town)")
            .unwrap();
        sh.execute("change delete-relation Customer").unwrap();
        assert!(sh.engine().mkb().generation() > g0);

        let out = sh.execute("log-stats").unwrap();
        assert!(out.contains("segments:"), "{out}");
        assert!(out.contains("appended:"), "{out}");
        let out = sh.execute("stats").unwrap();
        assert!(out.contains("store:"), "store counters in stats: {out}");

        // Time travel: before the capability change, Customer still exists.
        let out = sh.execute(&format!("travel {g0}")).unwrap();
        assert!(out.contains("Customer"), "{out}");
        let out = sh.execute(&format!("travel {g0} V")).unwrap();
        assert!(out.contains("'ann'"), "{out}");

        // While this session holds the store, a second opener is refused —
        // two live writers would interleave appends.
        let mut sh2 = Shell::new();
        let err = sh2.execute(&format!("open {dir_str}")).unwrap_err();
        assert!(err.to_string().contains("already open"), "{err}");

        // After the first session ends, a second shell recovers the state.
        let expected = sh.engine().snapshot_state().to_bytes();
        drop(sh);
        let out = sh2.execute(&format!("open {dir_str}")).unwrap();
        assert!(out.contains("recovered store"), "{out}");
        assert_eq!(
            sh2.engine().snapshot_state().to_bytes(),
            expected,
            "recovered shell state is byte-identical"
        );
        assert!(sh2.execute("query V").unwrap().contains("'bob'"));

        // Compact bounds the horizon.
        sh2.execute("checkpoint").unwrap();
        let out = sh2.execute("compact").unwrap();
        assert!(out.contains("compacted"), "{out}");
        let err = sh2.execute(&format!("travel {g0}")).unwrap_err();
        assert!(err.to_string().contains("horizon"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn plain_and_durable_hosts_print_and_reach_the_same() {
        // Pins the drift fix: the two hosts used to run different engine
        // paths per command (the plain `update` printed a zero-trace line
        // for every untouched view, the durable one did not). One script —
        // every mutating command, an `update` that touches one view of two,
        // an adopted and a dropped `change` — must now read the same on
        // both, line for line, and leave byte-identical engines.
        let dir =
            std::env::temp_dir().join(format!("eve-shell-durable-{}-twin", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut plain = Shell::new();
        let mut durable = Shell::new();
        durable.execute(&format!("open {}", dir.display())).unwrap();
        for cmd in [
            "site 1 tokyo",
            "site 2 osaka",
            "relation R @1 (K:int, P:int)",
            "relation M @2 (K:int, P:int)",
            "relation L @2 (A:int)",
            "insert R (1, 10)",
            "insert M (1, 10)",
            "insert L (7)",
            "pc R (K, P) = M (K, P)",
            "jc R.K = M.K",
            "index R K",
            "index R K",
            "view CREATE VIEW V (VE = '~') AS SELECT X.K FROM R X (RR = true)",
            "view CREATE VIEW W (VE = '~') AS SELECT A FROM L",
            "update R insert (2, 20)",
            "update M insert (2, 20)",
            "update L delete (7)",
            "update Ghost insert (1)",
            "change delete-relation R",
            "change delete-relation L",
            "rebalance",
            "query V",
            "show views",
            "show constraints",
        ] {
            let render = |r: Result<String>| r.unwrap_or_else(|e| format!("error: {e}"));
            let on_plain = render(plain.execute(cmd));
            assert_eq!(on_plain, render(durable.execute(cmd)), "`{cmd}`");
            if cmd == "update R insert (2, 20)" {
                assert!(on_plain.contains("\n  V: "), "{on_plain}");
                assert!(!on_plain.contains("W: "), "W was not touched: {on_plain}");
            }
        }
        assert_eq!(
            plain.engine().snapshot_state().to_bytes(),
            durable.engine().snapshot_state().to_bytes()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_commands_error_cleanly_instead_of_panicking() {
        let mut sh = Shell::new();
        // Store commands without an open store.
        for cmd in ["checkpoint", "log-stats", "travel 3", "compact"] {
            let err = sh.execute(cmd).unwrap_err().to_string();
            assert!(err.contains("no store is open"), "{cmd}: {err}");
        }
        // A bad filename must not panic the shell: /dev/null is not a
        // directory, so store creation fails with a proper error — and the
        // session's in-memory engine must survive the failure.
        sh.execute("site 9 survivor").unwrap();
        let err = sh.execute("open /dev/null/not-a-dir").unwrap_err();
        assert!(err.to_string().contains("store"), "{err}");
        assert!(
            sh.engine().mkb().sites().any(|(id, _)| id.0 == 9),
            "failed open must not destroy the in-memory engine"
        );
        // Missing operand.
        let err = sh.execute("open").unwrap_err().to_string();
        assert!(err.contains("usage"), "{err}");
        // Malformed generation.
        let dir =
            std::env::temp_dir().join(format!("eve-shell-durable-{}-badgen", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        sh.execute(&format!("open {}", dir.display())).unwrap();
        let err = sh.execute("travel eleventy").unwrap_err().to_string();
        assert!(err.contains("usage"), "{err}");
        // Opening twice is rejected, not silently re-bootstrapped.
        let err = sh.execute("open /tmp/somewhere-else").unwrap_err();
        assert!(err.to_string().contains("already open"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shell_open_on_locked_store_reports_busy_with_lock_path() {
        // Pins the satellite bugfix: `open` on a directory whose store
        // lock another live session holds must surface the typed "store
        // busy" error naming the lock file — not a raw flock failure, and
        // never a panic.
        let dir =
            std::env::temp_dir().join(format!("eve-shell-durable-{}-locked", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let dir_str = dir.to_string_lossy().to_string();

        let mut holder = Shell::new();
        holder.execute(&format!("open {dir_str}")).unwrap();

        let mut sh = Shell::new();
        sh.execute("site 4 survivor").unwrap();
        let err = sh.execute(&format!("open {dir_str}")).unwrap_err();
        assert!(
            matches!(err, Error::Busy { .. }),
            "expected Error::Busy, got {err:?}"
        );
        let msg = err.to_string();
        assert!(msg.contains("store busy"), "{msg}");
        assert!(msg.contains("store.lock"), "lock path named: {msg}");
        assert!(msg.contains("already open"), "{msg}");
        // The refused open leaves the in-memory session intact.
        assert!(sh.engine().mkb().sites().any(|(id, _)| id.0 == 4));
        // Once the holder closes, the same open succeeds.
        drop(holder);
        let out = sh.execute(&format!("open {dir_str}")).unwrap();
        assert!(out.contains("recovered store"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn poisoned_durable_host_fails_closed() {
        // Pins the satellite bugfix: when a failed mutation's re-anchoring
        // snapshot ALSO fails, the store is behind the live engine. The
        // shell must refuse further mutations (fail closed, engine
        // untouched) instead of operating on a half-applied engine — and a
        // successful explicit checkpoint must heal the host.
        let dir =
            std::env::temp_dir().join(format!("eve-shell-durable-{}-poison", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut sh = seeded_shell();
        sh.execute(&format!("open {}", dir.display())).unwrap();

        // Yank the store directory out from under the session, then apply
        // an op the engine rejects: the failed batch triggers the
        // re-anchoring snapshot, which cannot be written any more.
        std::fs::remove_dir_all(&dir).unwrap();
        let err = sh.execute("update Ghost insert ('x')").unwrap_err();
        assert!(
            matches!(err, Error::Poisoned { .. }),
            "expected Error::Poisoned, got {err:?}"
        );

        // Every mutating command now fails closed *before* the engine.
        let err = sh.execute("site 9 late").unwrap_err();
        assert!(matches!(err, Error::Poisoned { .. }), "{err:?}");
        assert!(
            err.to_string().contains("checkpoint"),
            "remedy named: {err}"
        );
        assert!(
            !sh.engine().mkb().sites().any(|(id, _)| id.0 == 9),
            "fail closed means the engine was never touched"
        );
        for cmd in [
            "relation Late @1 (X:int)",
            "insert Customer ('eve', 'Salem')",
            "update FlightRes insert ('eve', 'Asia')",
            "change delete-relation FlightRes",
            "rebalance",
            "compact",
        ] {
            let err = sh.execute(cmd).unwrap_err();
            assert!(matches!(err, Error::Poisoned { .. }), "{cmd}: {err:?}");
        }
        // Reads stay available on the live engine.
        assert!(sh.execute("query V").unwrap().contains("'ann'"));

        // `checkpoint` is the remedy and stays allowed: restore the
        // directory, re-anchor, and the host is live again.
        std::fs::create_dir_all(&dir).unwrap();
        sh.execute("checkpoint").unwrap();
        sh.execute("site 9 late").unwrap();
        assert!(sh.engine().mkb().sites().any(|(id, _)| id.0 == 9));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn relation_options_parse() {
        let mut sh = Shell::new();
        sh.execute("site 1 s").unwrap();
        sh.execute("relation R @1 (K:int:50, P:float) sel=0.25 bfr=20")
            .unwrap();
        let info = sh.engine().mkb().relation("R").unwrap();
        assert_eq!(info.attributes[0].byte_size, 50);
        assert_eq!(info.attributes[1].ty, DataType::Float);
        assert!((info.selectivity - 0.25).abs() < 1e-12);
        assert_eq!(info.blocking_factor, 20);
    }
}
