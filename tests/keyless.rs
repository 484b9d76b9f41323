//! Keyless maintenance visits: a delta that reaches a relation `R` before
//! any join clause to `R` resolves carries `R` as a deferred factor, and
//! the next relation keyed to both the delta and `R` joins all three
//! without materialising `Δ × R` (`exec::join_through_product`). Every
//! other case materialises the product, as before.
//!
//! Each case checks the `engine.products_deferred` / `exec.product_rows`
//! deltas, that every view is the bag a fresh evaluation yields, and the
//! `MaintenanceTrace` of every update against the figures the build before
//! deferral (which materialised every product) printed for the same script.
//!
//! The counters are process-wide, so the cases run one at a time, and no
//! other suite shares this binary.

use std::sync::Mutex;

use eve::misd::{AttributeInfo, RelationInfo, SiteId};
use eve::relational::{tup, DataType, Relation, Schema, Tuple};
use eve::system::{DataUpdate, EveEngine, MaintenanceTrace};

static COUNTERS: Mutex<()> = Mutex::new(());

/// `(products deferred, product rows)` so far in this process.
fn counters() -> [u64; 2] {
    let registry = eve_trace::global();
    ["engine.products_deferred", "exec.product_rows"].map(|name| registry.counter(name).get())
}

/// An engine with every `(name, site, rows)` registered as `(K:int, J:int)`
/// at blocking factor 2, and the view `sql` defined.
fn engine(relations: &[(&str, u32, Vec<Tuple>)], sql: &str) -> EveEngine {
    let mut e = EveEngine::new();
    let mut sites = Vec::new();
    for (name, site, rows) in relations {
        if !sites.contains(site) {
            sites.push(*site);
            e.add_site(SiteId(*site), format!("IS{site}")).unwrap();
        }
        let schema = Schema::of(&[("K", DataType::Int), ("J", DataType::Int)]).unwrap();
        let mut info = RelationInfo::new(
            *name,
            SiteId(*site),
            vec![
                AttributeInfo::new("K", DataType::Int),
                AttributeInfo::new("J", DataType::Int),
            ],
            rows.len() as u64,
        );
        info.blocking_factor = 2;
        e.register_relation(
            info,
            Relation::with_tuples(*name, schema, rows.clone()).unwrap(),
        )
        .unwrap();
    }
    e.define_view_sql(sql).unwrap();
    e
}

fn rows(pairs: &[(i64, i64)]) -> Vec<Tuple> {
    pairs.iter().map(|&(k, j)| tup![k, j]).collect()
}

/// `n` rows `(i mod k, i mod j)`: large enough at blocking factor 2 that a
/// probe charge stays under the full-scan cap.
fn spread(n: i64, k: i64, j: i64) -> Vec<Tuple> {
    (0..n).map(|i| tup![i % k, i % j]).collect()
}

/// Runs `updates` one by one and checks the counter deltas, every view
/// against a fresh evaluation after every update, and the traces.
fn run(
    e: &mut EveEngine,
    updates: &[DataUpdate],
    deferred: u64,
    product_rows: u64,
    traces: &[MaintenanceTrace],
) {
    let start = counters();
    let mut got = Vec::new();
    for update in updates {
        for (_, trace) in e.notify_data_update(update).unwrap() {
            got.push(trace);
        }
        for mv in e.views() {
            let fresh = e.evaluate(&mv.def).unwrap();
            assert_eq!(mv.extent.schema(), fresh.schema());
            let mut held = mv.extent.tuples().to_vec();
            let mut want = fresh.tuples().to_vec();
            held.sort();
            want.sort();
            assert_eq!(held, want, "extent of {} after {update:?}", mv.def.name);
        }
    }
    let end = counters();
    assert_eq!(
        [end[0] - start[0], end[1] - start[1]],
        [deferred, product_rows],
        "products deferred, product rows"
    );
    assert_eq!(got, traces, "maintenance traces");
}

fn trace(messages: u64, bytes: u64, ios: u64, inserts: usize, deletes: usize) -> MaintenanceTrace {
    MaintenanceTrace {
        messages,
        bytes,
        ios,
        view_inserts: inserts,
        view_deletes: deletes,
    }
}

/// `X.J = Y.K AND Y.J = Z.K`, updated at `Z`: the visit to `X` has no
/// clause, `Y` is keyed to both `Z` and `X`.
#[test]
fn a_chain_joins_through_the_product_at_the_next_keyed_site() {
    let _serial = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let mut e = engine(
        &[
            ("X", 1, rows(&[(0, 0), (1, 1), (2, 1), (3, 2), (4, 0)])),
            ("Y", 2, spread(40, 10, 4)),
            ("Z", 3, rows(&[(1, 5), (2, 6)])),
        ],
        "CREATE VIEW V (VE = '~') AS SELECT X.K, Y.K AS YK, Z.J AS ZJ \
         FROM X X, Y Y, Z Z WHERE X.J = Y.K AND Y.J = Z.K",
    );
    run(
        &mut e,
        &[
            DataUpdate::insert("Z", rows(&[(1, 7), (2, 8), (9, 9)])),
            DataUpdate::delete("Z", rows(&[(1, 5), (9, 9)])),
        ],
        2,
        0,
        &[trace(5, 1536, 18, 10, 0), trace(5, 896, 13, 0, 4)],
    );
}

/// `X` and `W` both come before the relation that links them to the
/// delta: `Δ × X` materialises when `W` is deferred, and `Y` joins through
/// `(Δ × X) × W`.
#[test]
fn two_consecutive_keyless_visits_defer_the_second() {
    let _serial = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let mut e = engine(
        &[
            ("X", 1, rows(&[(0, 0), (1, 1), (1, 3)])),
            ("W", 2, rows(&[(0, 1), (5, 1), (6, 2)])),
            ("Y", 3, spread(40, 4, 3)),
            ("Z", 4, rows(&[(1, 1)])),
        ],
        "CREATE VIEW V (VE = '~') AS SELECT X.J, W.K AS WK, Z.J AS ZJ \
         FROM X X, W W, Y Y, Z Z WHERE X.K = Y.K AND W.J = Y.J AND Z.K = Y.K",
    );
    let product = 3; // |Δ| · |X| on the insert of one tuple
    run(
        &mut e,
        &[
            DataUpdate::insert("Z", rows(&[(1, 4)])),
            DataUpdate::delete("Z", rows(&[(1, 1)])),
        ],
        2,
        2 * product,
        &[trace(7, 2496, 19, 22, 0), trace(7, 2496, 19, 0, 22)],
    );
}

/// `W` is keyed to the deferred `X` only, so `Δ × X` materialises there;
/// `Y` is keyed to the delta.
#[test]
fn a_relation_keyed_only_to_the_deferred_factor_materialises_the_product() {
    let _serial = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let mut e = engine(
        &[
            ("X", 1, rows(&[(0, 0), (1, 1), (2, 1)])),
            ("W", 2, rows(&[(0, 1), (1, 1), (1, 2)])),
            ("Y", 3, rows(&[(1, 0), (2, 0), (2, 1)])),
            ("Z", 4, rows(&[(1, 1)])),
        ],
        "CREATE VIEW V (VE = '~') AS SELECT X.K, W.J AS WJ, Y.J AS YJ \
         FROM X X, W W, Y Y, Z Z WHERE X.J = W.K AND Z.K = Y.K",
    );
    run(
        &mut e,
        &[DataUpdate::insert("Z", rows(&[(1, 3), (2, 4)]))],
        0,
        2 * 3,
        &[trace(7, 2368, 6, 15, 0)],
    );
}

/// `A` and `C` are one stored relation under two bindings: joining
/// through `Δ × A` at `C` would take one index lock twice, so the product
/// materialises instead.
#[test]
fn a_self_join_through_shared_storage_materialises_and_terminates() {
    let _serial = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let mut e = engine(
        &[
            ("S", 1, rows(&[(1, 0)])),
            ("R", 2, rows(&[(0, 1), (1, 2), (2, 1), (1, 1)])),
        ],
        "CREATE VIEW V (VE = '~') AS SELECT D.J, A.K AS AK, C.K AS CK \
         FROM S D, R A, R C WHERE A.J = C.K AND C.J = D.K",
    );
    run(
        &mut e,
        &[
            DataUpdate::insert("S", rows(&[(1, 3), (2, 4)])),
            DataUpdate::delete("S", rows(&[(1, 0)])),
        ],
        0,
        (2 + 1) * 4,
        &[trace(3, 400, 4, 7, 0), trace(3, 224, 4, 0, 4)],
    );
}
