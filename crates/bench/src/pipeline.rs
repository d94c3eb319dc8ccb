//! The paper's pipeline as data: one [`PipelineSpec`] per experiment
//! row, one [`Runner`] that executes it.
//!
//! The whole evaluation (§5) runs one pipeline: mine at `ξ_old`,
//! compress, re-mine at `ξ_new`, and compare with mining from scratch.
//! A spec names one run of it. The runner builds the spec's inputs
//! (generate the dataset, mine the recycled set, compress), caching
//! them per dataset so a spec list shares its setup, then measures the
//! spec's last step under `gogreen_obs` and returns a [`Run`]: the spec,
//! its deterministic columns, its counters and phase profile, and its
//! wall time.
//!
//! Every `repro` results file is an [`Experiment`]: a spec list plus a
//! projection of its runs onto the file's archived JSON columns.

use crate::batchwork;
use gogreen_core::{CompressedDb, CompressionStats, Compressor, Strategy};
use gogreen_data::{CountSink, DbStats, MinSupport, PatternSet, TransactionDb};
use gogreen_datagen::{DatasetPreset, PresetKind};
use gogreen_miners::{Family, Miner};
use gogreen_obs::profile::Profile;
use gogreen_obs::MetricsSnapshot;
use gogreen_storage::{LimitedHMine, LimitedRecycleHm, MemoryBudget};
use gogreen_util::pool::Parallelism;
use gogreen_util::Json;
use std::rc::Rc;
use std::time::Instant;

/// One run of the pipeline. The recycled set is always mined with
/// H-Mine; `family` is the engine of the measured mining step.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineSpec {
    /// Dataset analog and scale.
    pub preset: DatasetPreset,
    /// Engine family of the mining step.
    pub family: Family,
    /// Compression strategy; `None` mines the raw database (the
    /// from-scratch baseline).
    pub strategy: Option<Strategy>,
    /// Threshold the recycled patterns are mined at.
    pub xi_old: MinSupport,
    /// Threshold of the mining step; `None` ends the pipeline at the
    /// compression, which is then the measured step.
    pub xi_new: Option<MinSupport>,
    /// Resident budget in bytes: mine with the spilling H-Mine pair of
    /// Figures 21–24.
    pub budget: Option<usize>,
    /// Worker threads of the measured step.
    pub threads: usize,
    /// A batch ladder: one shared pass on the raw database answers one
    /// query per rung.
    pub batch: Option<Vec<MinSupport>>,
    /// Compress with the seed's linear scan instead of the indexed
    /// kernel (E4).
    pub linear: bool,
    /// Time the compression as Table 3's I/O column does: read the
    /// database from a text file, compress, write the result out.
    pub io: bool,
}

impl PipelineSpec {
    /// Serial from-scratch H-Mine at the preset's sweep floor, with the
    /// preset's own `ξ_old`.
    pub fn new(kind: PresetKind, scale: f64) -> Self {
        let preset = DatasetPreset::new(kind, scale);
        PipelineSpec {
            preset,
            family: Family::Hm,
            strategy: None,
            xi_old: preset.xi_old(),
            xi_new: preset.sweep().last().copied(),
            budget: None,
            threads: 1,
            batch: None,
            linear: false,
            io: false,
        }
    }

    /// This spec mining with `family` on the database compressed with
    /// `strategy` (`None`: the raw database).
    pub fn mining(&self, family: Family, strategy: Option<Strategy>) -> Self {
        PipelineSpec { family, strategy, ..self.clone() }
    }

    /// This spec ending at a compression with `strategy`.
    pub fn compressing(&self, strategy: Strategy) -> Self {
        PipelineSpec { strategy: Some(strategy), xi_new: None, ..self.clone() }
    }
}

/// Dataset and recycled-set facts of a run's setup.
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    /// The generated database's statistics.
    pub db: DbStats,
    /// Patterns mined at `ξ_old` (0 for a raw spec).
    pub recycled: usize,
    /// Longest of them.
    pub max_len: usize,
    /// Seconds that pre-mining took.
    pub prep_s: f64,
}

/// One measured spec.
#[derive(Debug, Clone)]
pub struct Run {
    /// What ran.
    pub spec: PipelineSpec,
    /// Its setup.
    pub setup: Setup,
    /// Statistics of the compression the mining step read, or the one
    /// the compression step measured (none for the linear kernel).
    pub compression: Option<CompressionStats>,
    /// What a compression step produced.
    pub cdb: Option<Rc<CompressedDb>>,
    /// Patterns emitted (a batch: summed over its queries).
    pub patterns: u64,
    /// Disk spills of a budgeted mining step.
    pub spills: usize,
    /// Counters and histograms of the measured step.
    pub snap: MetricsSnapshot,
    /// Its span profile.
    pub profile: Profile,
    /// Its wall time in seconds.
    pub secs: f64,
}

impl Run {
    /// A run of `spec` that did no work: every column zero. Projecting
    /// such runs yields an experiment's record shape without mining.
    pub fn dry(spec: PipelineSpec) -> Run {
        Run {
            spec,
            setup: Setup::default(),
            compression: None,
            cdb: None,
            patterns: 0,
            spills: 0,
            snap: MetricsSnapshot::default(),
            profile: Profile::default(),
            secs: 0.0,
        }
    }

    /// A counter of the measured step (0 when it recorded none).
    pub fn counter(&self, name: &str) -> u64 {
        self.snap.value(name).unwrap_or(0)
    }
}

/// A compressed database and the statistics of the compression that
/// built it.
pub type Compressed = Rc<(CompressedDb, CompressionStats)>;

/// What a spec's measured step reads, built by [`Runner::prepare`].
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The generated database.
    pub db: Rc<TransactionDb>,
    /// The recycled set, when the spec compresses.
    pub fp: Option<Rc<PatternSet>>,
    /// The compressed database a recycled mining step reads.
    pub cdb: Option<Compressed>,
    /// Setup facts.
    pub setup: Setup,
}

/// Builds and caches spec inputs for one dataset at a time: a spec on
/// another dataset drops the cache.
#[derive(Default)]
pub struct Runner {
    preset: Option<DatasetPreset>,
    db: Option<(Rc<TransactionDb>, Setup)>,
    fps: Vec<(MinSupport, Rc<PatternSet>, f64)>,
    cdbs: Vec<(MinSupport, Strategy, Compressed)>,
}

impl Runner {
    /// Generates, pre-mines and compresses what `spec`'s measured step
    /// reads, reusing whatever an earlier spec on the dataset built.
    pub fn prepare(&mut self, spec: &PipelineSpec) -> Inputs {
        if self.preset != Some(spec.preset) {
            *self = Runner { preset: Some(spec.preset), ..Runner::default() };
        }
        let (db, mut setup) = self
            .db
            .get_or_insert_with(|| {
                let db = spec.preset.generate();
                let setup = Setup { db: db.stats(), ..Setup::default() };
                (Rc::new(db), setup)
            })
            .clone();
        let Some(strategy) = spec.strategy else {
            return Inputs { db, fp: None, cdb: None, setup };
        };
        let fp = match self.fps.iter().find(|(xi, ..)| *xi == spec.xi_old) {
            Some((_, fp, prep_s)) => {
                setup.prep_s = *prep_s;
                Rc::clone(fp)
            }
            None => {
                let start = Instant::now();
                let fp = Rc::new(Family::Hm.mine(&*db, spec.xi_old));
                setup.prep_s = start.elapsed().as_secs_f64();
                self.fps.push((spec.xi_old, Rc::clone(&fp), setup.prep_s));
                fp
            }
        };
        setup.recycled = fp.len();
        setup.max_len = fp.max_len();
        let cached = self.cdbs.iter().find(|(xi, s, _)| *xi == spec.xi_old && *s == strategy);
        let cdb = match (spec.xi_new, cached) {
            (None, _) => None,
            (Some(_), Some((.., cdb))) => Some(Rc::clone(cdb)),
            (Some(_), None) => {
                let cdb = Rc::new(Compressor::new(strategy).compress_with_stats(&db, &fp));
                self.cdbs.push((spec.xi_old, strategy, Rc::clone(&cdb)));
                Some(cdb)
            }
        };
        Inputs { db, fp: Some(fp), cdb, setup }
    }

    /// Prepares `spec` and measures its last step.
    pub fn run(&mut self, spec: &PipelineSpec) -> Run {
        let inputs = self.prepare(spec);
        let (mut run, snap, profile) = gogreen_obs::measure_profiled(|| step(spec, &inputs));
        run.snap = snap;
        run.profile = profile;
        run
    }
}

/// Runs `spec`'s last step on prepared inputs, unmeasured: the body a
/// bench times.
pub fn step(spec: &PipelineSpec, inputs: &Inputs) -> Run {
    let mut run = Run::dry(spec.clone());
    run.setup = inputs.setup;
    let Some(xi_new) = spec.xi_new else {
        let strategy = spec.strategy.expect("a compression step needs a strategy");
        let fp = inputs.fp.as_deref().expect("prepared recycled set");
        let compressor = Compressor::new(strategy).with_threads(spec.threads);
        let start = Instant::now();
        let cdb = if spec.linear {
            compressor.compress_reference(&inputs.db, fp)
        } else if spec.io {
            let (secs, stats) = compress_via_files(&compressor, &inputs.db, fp);
            run.compression = Some(stats);
            run.secs = secs;
            return run;
        } else {
            let (cdb, stats) = compressor.compress_with_stats(&inputs.db, fp);
            run.compression = Some(stats);
            cdb
        };
        run.secs = start.elapsed().as_secs_f64();
        run.cdb = Some(Rc::new(cdb));
        return run;
    };
    let par = Parallelism::threads(spec.threads);
    let mut sink = CountSink::new();
    let _sp = gogreen_obs::span("mine");
    let start = Instant::now();
    match (&spec.batch, spec.budget, &inputs.cdb) {
        (Some(ladder), ..) => {
            run.patterns = batchwork::run_batched(&inputs.db, spec.family, ladder, par)
        }
        (None, Some(bytes), None) => {
            let miner = LimitedHMine::new(MemoryBudget::bytes(bytes));
            run.spills = miner.mine_into(&inputs.db, xi_new, &mut sink).expect("spill i/o").spills;
        }
        (None, Some(bytes), Some(cdb)) => {
            let miner = LimitedRecycleHm::new(MemoryBudget::bytes(bytes));
            run.spills = miner.mine_into(&cdb.0, xi_new, &mut sink).expect("spill i/o").spills;
        }
        (None, None, None) => spec.family.mine_into_par(&*inputs.db, xi_new, par, &mut sink),
        (None, None, Some(cdb)) => spec.family.mine_into_par(&cdb.0, xi_new, par, &mut sink),
    }
    run.secs = start.elapsed().as_secs_f64();
    run.patterns += sink.count();
    run.compression = inputs.cdb.as_ref().map(|cdb| cdb.1);
    run
}

/// Table 3's I/O timing: the seconds to read `db` back from a text
/// file, compress it and save the compressed database.
fn compress_via_files(
    compressor: &Compressor,
    db: &TransactionDb,
    fp: &PatternSet,
) -> (f64, CompressionStats) {
    let dir = std::env::temp_dir().join(format!("gogreen-io-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    gogreen_data::io::write_file(db, dir.join("db.txt")).expect("write dataset");
    let start = Instant::now();
    let loaded = gogreen_data::io::read_file(dir.join("db.txt")).expect("read dataset");
    let (cdb, stats) = compressor.compress_with_stats(&loaded, fp);
    gogreen_storage::version::save(&dir.join("cdb.state"), &cdb).expect("save compressed db");
    let secs = start.elapsed().as_secs_f64();
    std::fs::remove_dir_all(&dir).ok();
    (secs, stats)
}

/// Maps an experiment's runs onto its records.
pub type Projection = Box<dyn Fn(&[Run]) -> Vec<Json>>;

/// One results file: the specs behind it and how their runs project
/// onto its archived JSON columns.
pub struct Experiment {
    /// Results file stem: records append to `<file>.jsonl`.
    pub file: String,
    /// Console heading.
    pub title: String,
    /// The runs, in order.
    pub specs: Vec<PipelineSpec>,
    /// Maps the runs of `specs` onto the file's records, asserting
    /// whatever the runs must agree on.
    pub project: Projection,
}

impl Experiment {
    /// Runs every spec on one [`Runner`] and projects the runs.
    pub fn run(&self) -> Vec<Json> {
        let mut runner = Runner::default();
        let runs: Vec<Run> = self.specs.iter().map(|spec| runner.run(spec)).collect();
        (self.project)(&runs)
    }

    /// The projection of [`Run::dry`] runs: the record shape, mining
    /// nothing.
    pub fn dry(&self) -> Vec<Json> {
        (self.project)(&self.specs.iter().cloned().map(Run::dry).collect::<Vec<_>>())
    }
}

/// `ms` as a percentage, with binary-float noise rounded away
/// (0.9 · 100 = 90.000…01).
pub fn pct(ms: MinSupport) -> f64 {
    match ms {
        MinSupport::Relative(f) => (f * 100.0 * 1e6).round() / 1e6,
        MinSupport::Absolute(n) => n as f64,
    }
}
