//! Batched multi-query mining: one shared pass answers a fleet of
//! (ξ, constraint) queries.
//!
//! The paper's motivation (§2) is a *multi-user* mining system where one
//! user's work pays for another's query. [`QueryBatch`] is the
//! synchronous form of that bargain: k queries on the same dataset —
//! each with its own minimum support ξᵢ and [`ConstraintSet`] — are
//! coalesced into **one** mining pass at ξ_min = minᵢ ξᵢ, and the
//! emitted stream is demultiplexed through per-query filters (support
//! ≥ ξᵢ plus the query's residual constraints) so every member's output
//! stream is **byte-identical** to running it alone.
//!
//! Why the demuxed stream matches a solo run, byte for byte: raw engine
//! emission order is *not* threshold-stable (FP-growth's single-path
//! subset shortcut fires at tree shapes that depend on ξ), so the
//! demultiplexer normalizes — each member's accepted patterns are
//! delivered in canonical (lexicographic item) order, the same order
//! pattern files use. The solo reference ([`QueryBatch::run_solo`])
//! flows through the identical normalization, so member streams are
//! byte-identical by construction, and *content* exactness reduces to
//! anti-monotonicity of support: the ξ_min pass emits every pattern any
//! member could want, and the filter keeps exactly support ≥ ξᵢ plus
//! the member's residual constraints.
//!
//! Three design rules keep the pass exact and deterministic:
//!
//! * **Pushdown split.** Only the batch-common anti-monotone envelope is
//!   pushed into the shared pass: when *every* admitted query carries a
//!   [`Constraint::SubsetOf`], the union of their allowed sets is
//!   materialized as an item-filtered database (empty rows kept, so
//!   lengths and thresholds are unchanged). Everything else — per-query
//!   support, lengths, sums, the individual subset constraints — is
//!   checked at demux time.
//! * **Bound-driven admission.** Widening the shared pass for a query
//!   must not cost more than answering it alone. [`QueryBatch::plan`]
//!   prices a pass with the level-1 touch count plus the Kruskal–Katona
//!   level-2 candidate bound ([`gogreen_miners::bound`]) and admits a
//!   query only when the *marginal* shared cost is at most its solo
//!   cost; the rest run solo inside the same call (`batch.rejected`).
//! * **Determinism.** The shared pass runs through each engine's
//!   `mine_into_par` fan-out (`fan_out_ordered` replay), so the stream
//!   reaching the demultiplexer — and therefore every member stream and
//!   every `batch.*` metric — is identical at any `--threads N`.
//!
//! When no envelope was pushed, the shared stream is the complete
//! frequent set at ξ_min; [`QueryBatch::run_with_store`] tees it into a
//! [`PatternStore`] so every member's threshold (and any future query
//! at ξ ≥ ξ_min) is answerable by filtering.

use crate::store::PatternStore;
use crate::CompressedDb;
use gogreen_constraints::{Constraint, ConstraintSet, ItemAttributes};
use gogreen_data::{
    CollectSink, CsrTuples, Item, MinSupport, PatternSet, PatternSink, TransactionDb,
};
use gogreen_miners::bound::candidate_bound;
use gogreen_miners::{Family, Miner};
use gogreen_obs::{histogram, metrics, span};
use gogreen_util::pool::Parallelism;

/// One member of a batch: a label (used by front ends to name output
/// streams) and the query's full constraint set.
#[derive(Debug, Clone)]
pub struct BatchQuery {
    label: String,
    constraints: ConstraintSet,
}

impl BatchQuery {
    /// A labelled query.
    pub fn new(label: impl Into<String>, constraints: ConstraintSet) -> Self {
        BatchQuery { label: label.into(), constraints }
    }

    /// The query's label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The query's constraints (minimum support + residuals).
    pub fn constraints(&self) -> &ConstraintSet {
        &self.constraints
    }

    /// The intersection of this query's `SubsetOf` item sets, sorted
    /// ascending — its own anti-monotone item envelope. `None` when the
    /// query has no subset constraint (every item allowed).
    fn allowed_items(&self) -> Option<Vec<Item>> {
        let mut acc: Option<Vec<Item>> = None;
        for c in self.constraints.others() {
            if let Constraint::SubsetOf(s) = c {
                acc = Some(match acc {
                    None => s.clone(),
                    Some(prev) => intersect_sorted(&prev, s),
                });
            }
        }
        acc
    }
}

/// The admission decision for one batch on one substrate.
#[derive(Debug, Clone)]
pub struct BatchPlan {
    /// Per-query absolute threshold (index-aligned with the batch).
    pub xi_abs: Vec<u64>,
    /// The coalesced threshold of the shared pass: minᵢ ξᵢ over the
    /// admitted queries.
    pub xi_min: u64,
    /// Indices answered by the shared pass, ascending.
    pub admitted: Vec<usize>,
    /// Indices the admission bound priced out, ascending. They are
    /// answered by solo passes inside the same run.
    pub rejected: Vec<usize>,
    /// The pushed item envelope (union of the admitted queries' allowed
    /// sets, sorted), when every admitted query has one.
    pub envelope: Option<Vec<Item>>,
}

/// What one batch run did.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// The admission plan the run executed.
    pub plan: BatchPlan,
    /// Patterns in the shared stream seen by the demultiplexer.
    pub shared_patterns: u64,
    /// The threshold published into the [`PatternStore`], when a store
    /// was attached and the shared pass was complete (no envelope).
    pub published_at: Option<u64>,
}

/// A batch run's collected per-query results plus its report.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Result set per query, index-aligned with the batch.
    pub results: Vec<PatternSet>,
    /// The run report.
    pub report: BatchReport,
}

/// A fleet of queries coalesced into one mining pass. See the module
/// docs for the coalescing, pushdown, and admission rules.
///
/// ```
/// use gogreen_core::batch::{BatchQuery, QueryBatch};
/// use gogreen_constraints::ConstraintSet;
/// use gogreen_data::{MinSupport, TransactionDb};
/// use gogreen_miners::Family;
///
/// let mut batch = QueryBatch::new();
/// batch.push(BatchQuery::new("a", ConstraintSet::support_only(MinSupport::Absolute(3))));
/// batch.push(BatchQuery::new("b", ConstraintSet::support_only(MinSupport::Absolute(2))));
/// let out = batch.run(&TransactionDb::paper_example(), Family::Hm).unwrap();
/// assert_eq!(out.results.len(), 2);
/// assert_eq!(out.report.plan.xi_min, 2);
/// ```
#[derive(Debug, Default)]
pub struct QueryBatch {
    queries: Vec<BatchQuery>,
    attrs: ItemAttributes,
    par: Parallelism,
}

impl QueryBatch {
    /// An empty batch (serial, no attributes).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a query.
    pub fn push(&mut self, q: BatchQuery) {
        self.queries.push(q);
    }

    /// Attaches item attributes for aggregate residual constraints.
    pub fn with_attributes(mut self, attrs: ItemAttributes) -> Self {
        self.attrs = attrs;
        self
    }

    /// Sets the worker-thread budget of the shared pass. Streams and
    /// `batch.*` metrics are identical for every setting.
    pub fn with_parallelism(mut self, par: Parallelism) -> Self {
        self.par = par;
        self
    }

    /// Queries in the batch.
    pub fn queries(&self) -> &[BatchQuery] {
        &self.queries
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the batch has no queries.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Prices the shared pass and decides admission. `counts` are the
    /// substrate's per-item supports, `db_len` its tuple count (for
    /// relative-threshold conversion); `allow_envelope` is false on
    /// substrates without an item-filter path (the compressed database),
    /// which also makes admission purely support-driven.
    ///
    /// Greedy and deterministic: queries are considered by descending
    /// ξᵢ (ties by index); the first seeds the pass, and each next query
    /// joins iff the marginal pass cost `Δ = cost(ξ_min∪i) − cost(ξ_min)`
    /// is at most its solo cost. A pass at (ξ, envelope) is priced as
    /// the encoded level-1 touches plus the Kruskal–Katona level-2
    /// candidate bound.
    pub fn plan(&self, counts: &[u64], db_len: usize, allow_envelope: bool) -> BatchPlan {
        assert!(!self.queries.is_empty(), "cannot plan an empty batch");
        let k = self.queries.len();
        let xi_abs: Vec<u64> =
            self.queries.iter().map(|q| q.constraints.min_support().to_absolute(db_len)).collect();
        let allowed: Vec<Option<Vec<Item>>> = if allow_envelope {
            self.queries.iter().map(|q| q.allowed_items()).collect()
        } else {
            vec![None; k]
        };
        let mut order: Vec<usize> = (0..k).collect();
        order.sort_by(|&a, &b| xi_abs[b].cmp(&xi_abs[a]).then(a.cmp(&b)));

        let seed = order[0];
        let mut admitted = vec![seed];
        let mut rejected = Vec::new();
        let mut xi_cur = xi_abs[seed];
        let mut allowed_cur = allowed[seed].clone();
        let mut cost_cur = pass_cost(counts, xi_cur, allowed_cur.as_deref());
        for &i in &order[1..] {
            let xi_new = xi_cur.min(xi_abs[i]);
            let allowed_new = union_opt(allowed_cur.as_deref(), allowed[i].as_deref());
            let cost_new = pass_cost(counts, xi_new, allowed_new.as_deref());
            let solo = pass_cost(counts, xi_abs[i], allowed[i].as_deref());
            if cost_new.saturating_sub(cost_cur) <= solo {
                admitted.push(i);
                xi_cur = xi_new;
                allowed_cur = allowed_new;
                cost_cur = cost_new;
            } else {
                rejected.push(i);
            }
        }
        admitted.sort_unstable();
        rejected.sort_unstable();
        BatchPlan { xi_abs, xi_min: xi_cur, admitted, rejected, envelope: allowed_cur }
    }

    /// Runs the batch on a raw database, streaming each query's result
    /// into its sink (`sinks` is index-aligned with the batch). Every
    /// member stream is byte-identical to [`Self::run_solo`] on the same
    /// engine.
    pub fn run_into(
        &self,
        db: &TransactionDb,
        family: Family,
        sinks: &mut [&mut dyn PatternSink],
    ) -> Result<BatchReport, String> {
        self.run_raw_impl(db, family, sinks, None)
    }

    /// Like [`Self::run_into`], collecting per-query [`PatternSet`]s.
    pub fn run(&self, db: &TransactionDb, family: Family) -> Result<BatchOutcome, String> {
        self.collect(|sinks| self.run_raw_impl(db, family, sinks, None))
    }

    /// Like [`Self::run`], additionally publishing the shared-pass
    /// result (the complete frequent set at ξ_min) into `store` under
    /// `dataset`, when the pass was complete (no pushed envelope).
    pub fn run_with_store(
        &self,
        db: &TransactionDb,
        family: Family,
        store: &PatternStore,
        dataset: &str,
    ) -> Result<BatchOutcome, String> {
        self.collect(|sinks| self.run_raw_impl(db, family, sinks, Some((store, dataset))))
    }

    /// Runs the batch on a compressed (recycled) substrate. No item
    /// envelope is pushed — admission is purely support-driven — but
    /// coalescing, demux, and determinism guarantees are identical.
    pub fn run_recycled_into(
        &self,
        cdb: &CompressedDb,
        family: Family,
        sinks: &mut [&mut dyn PatternSink],
    ) -> Result<BatchReport, String> {
        self.run_recycled_impl(cdb, family, sinks, None)
    }

    /// Like [`Self::run_recycled_into`], collecting per-query sets.
    pub fn run_recycled(&self, cdb: &CompressedDb, family: Family) -> Result<BatchOutcome, String> {
        self.collect(|sinks| self.run_recycled_impl(cdb, family, sinks, None))
    }

    /// Like [`Self::run_recycled`], publishing the ξ_min set into
    /// `store`.
    pub fn run_recycled_with_store(
        &self,
        cdb: &CompressedDb,
        family: Family,
        store: &PatternStore,
        dataset: &str,
    ) -> Result<BatchOutcome, String> {
        self.collect(|sinks| self.run_recycled_impl(cdb, family, sinks, Some((store, dataset))))
    }

    /// The solo reference: answers query `idx` alone — one pass at ξᵢ
    /// through the same per-query filter the demultiplexer applies.
    /// This is the stream batched runs are byte-compared against.
    pub fn run_solo(
        &self,
        idx: usize,
        db: &TransactionDb,
        family: Family,
        sink: &mut dyn PatternSink,
    ) -> Result<(), String> {
        let q = self.queries.get(idx).ok_or_else(|| format!("no query #{idx} in the batch"))?;
        let xi = q.constraints.min_support().to_absolute(db.len());
        let mut demux = self.demux_for(&[idx], &[xi], sink, None, false);
        family.mine_into_par(db, MinSupport::Absolute(xi), self.par, &mut demux);
        demux.flush();
        Ok(())
    }

    /// [`Self::run_solo`] on the compressed substrate.
    pub fn run_solo_recycled(
        &self,
        idx: usize,
        cdb: &CompressedDb,
        family: Family,
        sink: &mut dyn PatternSink,
    ) -> Result<(), String> {
        let q = self.queries.get(idx).ok_or_else(|| format!("no query #{idx} in the batch"))?;
        let xi = q.constraints.min_support().to_absolute(cdb.num_tuples());
        let mut demux = self.demux_for(&[idx], &[xi], sink, None, false);
        family.mine_into_par(cdb, MinSupport::Absolute(xi), self.par, &mut demux);
        demux.flush();
        Ok(())
    }

    fn run_raw_impl(
        &self,
        db: &TransactionDb,
        family: Family,
        sinks: &mut [&mut dyn PatternSink],
        store: Option<(&PatternStore, &str)>,
    ) -> Result<BatchReport, String> {
        self.validate(sinks.len())?;
        let counts = db.item_supports();
        let plan = self.plan(&counts, db.len(), true);
        let mut sp = span("batch");
        self.count_plan(&plan, &mut sp);

        let mut tee = (store.is_some() && plan.envelope.is_none()).then(CollectSink::new);
        let shared_patterns = {
            let mut demux = self.demux_members(&plan, sinks, tee.as_mut());
            let xi = MinSupport::Absolute(plan.xi_min);
            match &plan.envelope {
                Some(env) => {
                    let restricted = restrict_db(db, env);
                    family.mine_into_par(&restricted, xi, self.par, &mut demux);
                }
                None => family.mine_into_par(db, xi, self.par, &mut demux),
            }
            demux.flush()
        };
        metrics::add("batch.demux_patterns", shared_patterns);

        // Queries priced out of the shared pass are answered solo, with
        // the same filter machinery (and therefore identical streams).
        for &i in &plan.rejected {
            let mut demux = self.demux_for(&[i], &[plan.xi_abs[i]], &mut *sinks[i], None, false);
            family.mine_into_par(db, MinSupport::Absolute(plan.xi_abs[i]), self.par, &mut demux);
            demux.flush();
        }

        let published_at = match (store, tee) {
            (Some((store, dataset)), Some(t)) => {
                store.publish(dataset, plan.xi_min, t.into_set());
                Some(plan.xi_min)
            }
            _ => None,
        };
        sp.field("shared_patterns", shared_patterns);
        Ok(BatchReport { plan, shared_patterns, published_at })
    }

    fn run_recycled_impl(
        &self,
        cdb: &CompressedDb,
        family: Family,
        sinks: &mut [&mut dyn PatternSink],
        store: Option<(&PatternStore, &str)>,
    ) -> Result<BatchReport, String> {
        self.validate(sinks.len())?;
        let counts = cdb.item_supports();
        let plan = self.plan(&counts, cdb.num_tuples(), false);
        let mut sp = span("batch");
        self.count_plan(&plan, &mut sp);

        let mut tee = store.is_some().then(CollectSink::new);
        let shared_patterns = {
            let mut demux = self.demux_members(&plan, sinks, tee.as_mut());
            family.mine_into_par(cdb, MinSupport::Absolute(plan.xi_min), self.par, &mut demux);
            demux.flush()
        };
        metrics::add("batch.demux_patterns", shared_patterns);

        for &i in &plan.rejected {
            let mut demux = self.demux_for(&[i], &[plan.xi_abs[i]], &mut *sinks[i], None, false);
            family.mine_into_par(cdb, MinSupport::Absolute(plan.xi_abs[i]), self.par, &mut demux);
            demux.flush();
        }

        let published_at = match (store, tee) {
            (Some((store, dataset)), Some(t)) => {
                store.publish(dataset, plan.xi_min, t.into_set());
                Some(plan.xi_min)
            }
            _ => None,
        };
        sp.field("shared_patterns", shared_patterns);
        Ok(BatchReport { plan, shared_patterns, published_at })
    }

    fn validate(&self, num_sinks: usize) -> Result<(), String> {
        if self.queries.is_empty() {
            return Err("batch has no queries".into());
        }
        if num_sinks != self.queries.len() {
            return Err(format!(
                "batch has {} queries but {} sinks were supplied",
                self.queries.len(),
                num_sinks
            ));
        }
        Ok(())
    }

    fn count_plan(&self, plan: &BatchPlan, sp: &mut gogreen_obs::Span) {
        metrics::add("batch.queries", self.queries.len() as u64);
        metrics::add("batch.rejected", plan.rejected.len() as u64);
        metrics::add("batch.shared_passes", 1);
        sp.field("queries", self.queries.len())
            .field("admitted", plan.admitted.len())
            .field("rejected", plan.rejected.len())
            .field("xi_min", plan.xi_min);
    }

    fn demux_members<'a, 'b>(
        &'a self,
        plan: &BatchPlan,
        sinks: &'a mut [&'b mut dyn PatternSink],
        tee: Option<&'a mut CollectSink>,
    ) -> DemuxSink<'a, 'b> {
        let members = plan
            .admitted
            .iter()
            .map(|&i| MemberFilter {
                sink_idx: i,
                xi: plan.xi_abs[i],
                residual: self.queries[i].constraints.others().to_vec(),
                buffer: Vec::new(),
            })
            .collect();
        DemuxSink {
            members,
            sinks: Fan::Many(sinks),
            attrs: &self.attrs,
            scratch: Vec::new(),
            tee,
            record: true,
            emitted: 0,
        }
    }

    fn demux_for<'a, 'b>(
        &'a self,
        indices: &[usize],
        xis: &[u64],
        sink: &'a mut (dyn PatternSink + 'b),
        tee: Option<&'a mut CollectSink>,
        record: bool,
    ) -> DemuxSink<'a, 'b> {
        let members = indices
            .iter()
            .zip(xis)
            .map(|(&i, &xi)| MemberFilter {
                sink_idx: 0,
                xi,
                residual: self.queries[i].constraints.others().to_vec(),
                buffer: Vec::new(),
            })
            .collect();
        DemuxSink {
            members,
            sinks: Fan::One(sink),
            attrs: &self.attrs,
            scratch: Vec::new(),
            tee,
            record,
            emitted: 0,
        }
    }

    fn collect(
        &self,
        run: impl FnOnce(&mut [&mut dyn PatternSink]) -> Result<BatchReport, String>,
    ) -> Result<BatchOutcome, String> {
        let mut collectors: Vec<CollectSink> =
            (0..self.queries.len()).map(|_| CollectSink::new()).collect();
        let mut refs: Vec<&mut dyn PatternSink> =
            collectors.iter_mut().map(|c| c as &mut dyn PatternSink).collect();
        let report = run(&mut refs)?;
        drop(refs);
        let results = collectors.into_iter().map(CollectSink::into_set).collect();
        Ok(BatchOutcome { results, report })
    }
}

/// One admitted query's demux filter plus its accepted-pattern buffer
/// (delivered in canonical order at flush time).
struct MemberFilter {
    sink_idx: usize,
    xi: u64,
    residual: Vec<Constraint>,
    buffer: Vec<(Vec<Item>, u64)>,
}

/// The demux target: the full per-query sink array for a shared pass,
/// or a single sink for solo passes.
enum Fan<'a, 'b> {
    Many(&'a mut [&'b mut dyn PatternSink]),
    One(&'a mut (dyn PatternSink + 'b)),
}

impl Fan<'_, '_> {
    fn get(&mut self, idx: usize) -> &mut dyn PatternSink {
        match self {
            Fan::Many(sinks) => &mut *sinks[idx],
            Fan::One(sink) => &mut **sink,
        }
    }
}

/// Replays the (rank-ordered, thread-invariant) shared stream through
/// every member filter, buffering accepts; [`DemuxSink::flush`] then
/// delivers each member's patterns in canonical (lexicographic item)
/// order. Runs single-threaded after `fan_out_ordered` replay, so all
/// `batch.*` observations are thread-invariant.
struct DemuxSink<'a, 'b> {
    members: Vec<MemberFilter>,
    sinks: Fan<'a, 'b>,
    attrs: &'a ItemAttributes,
    /// Filters and buffers need sorted items; miners emit DFS push
    /// order. Sorted once per emission.
    scratch: Vec<Item>,
    tee: Option<&'a mut CollectSink>,
    record: bool,
    emitted: u64,
}

impl DemuxSink<'_, '_> {
    /// Delivers every member's buffered patterns in canonical order and
    /// returns the shared-stream emission count.
    fn flush(mut self) -> u64 {
        for m in &mut self.members {
            m.buffer.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            let sink = self.sinks.get(m.sink_idx);
            for (items, support) in &m.buffer {
                sink.emit(items, *support);
            }
        }
        self.emitted
    }
}

impl PatternSink for DemuxSink<'_, '_> {
    fn emit(&mut self, items: &[Item], support: u64) {
        self.emitted += 1;
        if let Some(tee) = self.tee.as_deref_mut() {
            tee.emit(items, support);
        }
        self.scratch.clear();
        self.scratch.extend_from_slice(items);
        self.scratch.sort_unstable();
        let mut accepted = 0u64;
        for m in &mut self.members {
            if support < m.xi {
                continue;
            }
            if !m.residual.iter().all(|c| c.satisfied(&self.scratch, self.attrs)) {
                continue;
            }
            m.buffer.push((self.scratch.clone(), support));
            accepted += 1;
        }
        if self.record {
            histogram::observe("batch.fanout", accepted);
        }
    }
}

/// Prices one pass at (ξ, envelope): total level-1 touches of the
/// surviving items plus the Kruskal–Katona bound on level-2 candidates.
fn pass_cost(counts: &[u64], xi: u64, allowed: Option<&[Item]>) -> u64 {
    let mut touches = 0u64;
    let mut n1 = 0u64;
    for (idx, &c) in counts.iter().enumerate() {
        if c >= xi && allowed.is_none_or(|a| a.binary_search(&Item(idx as u32)).is_ok()) {
            touches = touches.saturating_add(c);
            n1 += 1;
        }
    }
    touches.saturating_add(candidate_bound(n1, 1))
}

/// Union of two optional sorted item sets; `None` (everything allowed)
/// absorbs.
fn union_opt(a: Option<&[Item]>, b: Option<&[Item]>) -> Option<Vec<Item>> {
    let (a, b) = (a?, b?);
    let mut out = Vec::with_capacity(a.len() + b.len());
    out.extend_from_slice(a);
    out.extend_from_slice(b);
    out.sort_unstable();
    out.dedup();
    Some(out)
}

fn intersect_sorted(a: &[Item], b: &[Item]) -> Vec<Item> {
    a.iter().copied().filter(|it| b.binary_search(it).is_ok()).collect()
}

/// Materializes the pushed envelope: every row keeps only allowed items.
/// Rows that empty out are *kept*, so the tuple count — and with it
/// every relative-threshold conversion — is unchanged.
fn restrict_db(db: &TransactionDb, envelope: &[Item]) -> TransactionDb {
    let mut tuples = CsrTuples::with_capacity(db.len(), 0);
    let mut row = Vec::new();
    for t in db.iter() {
        row.clear();
        row.extend(t.iter().copied().filter(|it| envelope.binary_search(it).is_ok()));
        tuples.push_row(&row);
    }
    TransactionDb::from_csr(tuples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gogreen_data::FnSink;
    use gogreen_miners::mine_apriori;

    fn q(label: &str, minsup: u64) -> BatchQuery {
        BatchQuery::new(label, ConstraintSet::support_only(MinSupport::Absolute(minsup)))
    }

    fn stream(run: impl FnOnce(&mut dyn PatternSink)) -> Vec<(Vec<Item>, u64)> {
        let mut out = Vec::new();
        let mut sink = FnSink(|items: &[Item], support| out.push((items.to_vec(), support)));
        run(&mut sink);
        out
    }

    #[test]
    fn pure_support_batch_matches_oracle_per_query() {
        let db = TransactionDb::paper_example();
        let mut batch = QueryBatch::new();
        for (label, xi) in [("a", 4), ("b", 2), ("c", 3)] {
            batch.push(q(label, xi));
        }
        let out = batch.run(&db, Family::Hm).unwrap();
        assert_eq!(out.report.plan.xi_min, 2);
        assert!(out.report.plan.rejected.is_empty());
        for (i, xi) in [4u64, 2, 3].into_iter().enumerate() {
            let oracle = mine_apriori(&db, MinSupport::Absolute(xi));
            assert!(out.results[i].same_patterns_as(&oracle), "query {i} at xi={xi}");
        }
    }

    #[test]
    fn batched_streams_are_byte_identical_to_solo() {
        let db = TransactionDb::paper_example();
        let mut batch = QueryBatch::new();
        batch.push(q("a", 3));
        batch.push(BatchQuery::new(
            "b",
            ConstraintSet::support_only(MinSupport::Absolute(2)).with(Constraint::MaxLength(2)),
        ));
        for family in Family::ALL {
            let mut out0 = Vec::new();
            let mut out1 = Vec::new();
            {
                let mut s0 =
                    FnSink(|items: &[Item], support: u64| out0.push((items.to_vec(), support)));
                let mut s1 =
                    FnSink(|items: &[Item], support: u64| out1.push((items.to_vec(), support)));
                let mut sinks: [&mut dyn PatternSink; 2] = [&mut s0, &mut s1];
                batch.run_into(&db, family, &mut sinks).unwrap();
            }
            let solo0 = stream(|sink| batch.run_solo(0, &db, family, sink).unwrap());
            let solo1 = stream(|sink| batch.run_solo(1, &db, family, sink).unwrap());
            assert_eq!(out0, solo0, "{family:?} query 0");
            assert_eq!(out1, solo1, "{family:?} query 1");
        }
    }

    #[test]
    fn residual_constraints_filter_at_demux() {
        let db = TransactionDb::paper_example();
        let mut batch = QueryBatch::new();
        batch.push(BatchQuery::new(
            "short",
            ConstraintSet::support_only(MinSupport::Absolute(2)).with(Constraint::MaxLength(1)),
        ));
        batch.push(BatchQuery::new(
            "sub",
            ConstraintSet::support_only(MinSupport::Absolute(2)).with(Constraint::SubsetOf(vec![
                Item(0),
                Item(2),
                Item(4),
            ])),
        ));
        let out = batch.run(&db, Family::Fp).unwrap();
        assert!(out.results[0].iter().all(|p| p.len() == 1));
        assert!(out.results[1].iter().all(|p| p.items().iter().all(|it| [
            Item(0),
            Item(2),
            Item(4)
        ]
        .contains(it))));
        let oracle = mine_apriori(&db, MinSupport::Absolute(2));
        assert!(out.results[0].same_patterns_as(&oracle.filter(|p| p.len() == 1)));
    }

    #[test]
    fn envelope_is_pushed_only_when_every_query_has_one() {
        let db = TransactionDb::paper_example();
        let sub = |items: Vec<Item>, xi| {
            ConstraintSet::support_only(MinSupport::Absolute(xi)).with(Constraint::SubsetOf(items))
        };
        let mut all_sub = QueryBatch::new();
        all_sub.push(BatchQuery::new("a", sub(vec![Item(0), Item(2)], 2)));
        all_sub.push(BatchQuery::new("b", sub(vec![Item(2), Item(4)], 3)));
        let out = all_sub.run(&db, Family::Hm).unwrap();
        assert_eq!(out.report.plan.envelope.as_deref(), Some(&[Item(0), Item(2), Item(4)][..]));
        // Results under the pushed envelope are still exact per query.
        let attrs = ItemAttributes::new();
        for idx in 0..2 {
            let cs = all_sub.queries[idx].constraints();
            let oracle =
                mine_apriori(&db, MinSupport::Absolute(cs.min_support().to_absolute(db.len())));
            let want =
                oracle.filter(|p| cs.others().iter().all(|c| c.satisfied(p.items(), &attrs)));
            assert!(out.results[idx].same_patterns_as(&want), "query {idx}");
        }

        let mut mixed = QueryBatch::new();
        mixed.push(BatchQuery::new("a", sub(vec![Item(0), Item(2)], 2)));
        mixed.push(q("plain", 3));
        let out = mixed.run(&db, Family::Hm).unwrap();
        assert!(out.report.plan.envelope.is_none());
    }

    #[test]
    fn admission_rejects_an_envelope_destroying_query() {
        // Synthetic supports: ten heavy items and two rare ones. A wide
        // high-ξ seed prices cheaply; adding a narrow very-low-ξ query
        // would drag the whole alphabet down to ξ=2, costing far more
        // than its tiny solo pass.
        let counts = vec![10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 2, 2];
        let mut batch = QueryBatch::new();
        batch.push(q("wide", 10));
        batch.push(BatchQuery::new(
            "narrow",
            ConstraintSet::support_only(MinSupport::Absolute(2))
                .with(Constraint::SubsetOf(vec![Item(10), Item(11)])),
        ));
        let plan = batch.plan(&counts, 100, true);
        assert_eq!(plan.admitted, vec![0]);
        assert_eq!(plan.rejected, vec![1]);
        assert_eq!(plan.xi_min, 10);

        // Without the envelope (support-only planning) nothing rejects.
        let plan = batch.plan(&counts, 100, false);
        assert!(plan.rejected.is_empty());
        assert_eq!(plan.xi_min, 2);
    }

    #[test]
    fn rejected_queries_still_get_exact_answers() {
        let db = TransactionDb::paper_example();
        // Force a rejection-shaped batch on the real database by
        // pairing a full-alphabet query with a narrow one; whether the
        // bound rejects depends on counts, so assert exactness either
        // way and verify the solo fallback path via a synthetic plan.
        let mut batch = QueryBatch::new();
        batch.push(q("wide", 4));
        batch.push(BatchQuery::new(
            "narrow",
            ConstraintSet::support_only(MinSupport::Absolute(2))
                .with(Constraint::SubsetOf(vec![Item(3), Item(5)])),
        ));
        let out = batch.run(&db, Family::Hm).unwrap();
        let oracle4 = mine_apriori(&db, MinSupport::Absolute(4));
        assert!(out.results[0].same_patterns_as(&oracle4));
        let want = mine_apriori(&db, MinSupport::Absolute(2))
            .filter(|p| p.items().iter().all(|it| [Item(3), Item(5)].contains(it)));
        assert!(out.results[1].same_patterns_as(&want));
    }

    #[test]
    fn recycled_batch_matches_raw_batch() {
        let db = TransactionDb::paper_example();
        let fp_old = mine_apriori(&db, MinSupport::Absolute(3));
        let cdb = crate::Compressor::new(crate::Strategy::Mcp).compress(&db, &fp_old);
        let mut batch = QueryBatch::new();
        batch.push(q("a", 2));
        batch.push(q("b", 4));
        let raw = batch.run(&db, Family::Hm).unwrap();
        let rec = batch.run_recycled(&cdb, Family::Hm).unwrap();
        for idx in 0..2 {
            assert!(raw.results[idx].same_patterns_as(&rec.results[idx]), "query {idx}");
        }
    }

    #[test]
    fn store_receives_the_shared_result_once() {
        let db = TransactionDb::paper_example();
        let store = PatternStore::new();
        let mut batch = QueryBatch::new();
        batch.push(q("a", 3));
        batch.push(q("b", 2));
        let out = batch.run_with_store(&db, Family::Hm, &store, "paper").unwrap();
        assert_eq!(out.report.published_at, Some(2));
        let published = store.get("paper", 2).expect("published at xi_min");
        assert!(published.same_patterns_as(&mine_apriori(&db, MinSupport::Absolute(2))));
        assert_eq!(store.thresholds("paper"), vec![2]);
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        let db = TransactionDb::paper_example();
        let empty = QueryBatch::new();
        assert!(empty.run(&db, Family::Hm).is_err());
        let mut batch = QueryBatch::new();
        batch.push(q("a", 2));
        let mut one_sink = CollectSink::new();
        let mut sinks: [&mut dyn PatternSink; 1] = [&mut one_sink];
        batch.push(q("b", 3));
        assert!(batch.run_into(&db, Family::Hm, &mut sinks).is_err());
    }
}
