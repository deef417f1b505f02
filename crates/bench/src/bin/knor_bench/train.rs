//! The three training workloads, end to end: the shipped `knor` binary is
//! spawned with a fixed amount of work per rep, full reps interleaved
//! one-for-one with `--iters 1` reps so both sample the same machine
//! weather, and every rep's printed result is checked.

use crate::calib::Weather;
use crate::catalog::{IM_DENSE, IM_PRUNED, SEM_STREAM};
use crate::child::{self, parse_train_output, sse_text, TrainOutput};
use crate::inputs::{self, Data};
use crate::json::{count, num, string};
use crate::report::Report;
use crate::stats::{max, median, Summary};
use crate::Params;
use knor_core::{InitMethod, KmeansConfig, Pruning};
use knor_sem::SemConfig;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// knor's own default `--seed`: the commands pass none.
pub const KNOR_SEED: u64 = 1;

/// Cache budgets of `sem_stream` in MB: together a fifth of the file.
const SEM_CACHE_MB: u64 = 8;

/// Fewest timed pairs of a window, however slow the machine is.
const MIN_PAIRS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    Im,
    Sem,
}

/// Full-size inputs, or the twentieth of them `--smoke` uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// One training workload: its command and the same run through the
/// library. Sizes are calibrated so a rep takes 1.5-2 s at T = 2 on the
/// reference box (see the README) and are then frozen.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub engine: Engine,
    pub data: Data,
    pub n: usize,
    pub d: usize,
    pub k: usize,
    pub iters: usize,
    pub pruning: Pruning,
    pub init: InitMethod,
}

pub fn workload(name: &str, scale: Scale) -> Option<Workload> {
    let rows = |full: usize| if scale == Scale::Full { full } else { full / 20 };
    let clustered = |name, engine, iters| Workload {
        name,
        engine,
        data: Data::Clustered,
        n: rows(300_000),
        d: 32,
        k: 32,
        iters,
        pruning: Pruning::Mti,
        init: InitMethod::PlusPlus,
    };
    match name {
        IM_DENSE => Some(Workload {
            name: IM_DENSE,
            engine: Engine::Im,
            data: Data::Dense,
            n: rows(480_000),
            d: 32,
            k: 64,
            iters: 16,
            pruning: Pruning::None,
            init: InitMethod::Forgy,
        }),
        IM_PRUNED => Some(clustered(IM_PRUNED, Engine::Im, 40)),
        SEM_STREAM => Some(clustered(SEM_STREAM, Engine::Sem, 12)),
        _ => None,
    }
}

impl Workload {
    pub fn input(&self, seed: u64) -> io::Result<PathBuf> {
        inputs::ensure(self.data, self.n, self.d, seed)
    }

    pub fn input_bytes(&self) -> u64 {
        (self.n * self.d * 8) as u64
    }

    /// The workload's command line with `iters` iterations.
    pub fn command(&self, file: &Path, iters: usize, threads: usize) -> Vec<String> {
        let mut args: Vec<String> = vec![
            if self.engine == Engine::Im { "im" } else { "sem" }.into(),
            file.display().to_string(),
            "-k".into(),
            self.k.to_string(),
            "-i".into(),
            iters.to_string(),
            "-t".into(),
            threads.to_string(),
        ];
        let mut push = |words: &[&str]| args.extend(words.iter().map(|w| w.to_string()));
        match self.name {
            IM_DENSE => push(&["--pruning", "none", "--init", "forgy"]),
            SEM_STREAM => {
                let mb = SEM_CACHE_MB.to_string();
                push(&["--row-cache", &mb, "--page-cache", &mb]);
            }
            // im_pruned runs the CLI defaults.
            _ => {}
        }
        args
    }

    /// What `knor im` builds from the command above.
    pub fn im_config(&self, threads: usize) -> KmeansConfig {
        KmeansConfig::new(self.k)
            .with_init(self.init.clone())
            .with_seed(KNOR_SEED)
            .with_pruning(self.pruning)
            .with_max_iters(self.iters)
            .with_threads(threads)
    }

    /// What `knor sem` builds from the command above.
    pub fn sem_config(&self, threads: usize) -> SemConfig {
        SemConfig::new(self.k)
            .with_seed(KNOR_SEED)
            .with_pruning(self.pruning)
            .with_row_cache_bytes(SEM_CACHE_MB << 20)
            .with_page_cache_bytes(SEM_CACHE_MB << 20)
            .with_max_iters(self.iters)
            .with_sse(true)
            .with_threads(threads)
    }

    /// The workload through the library, as the CLI would print it.
    pub fn fit_in_process(&self, file: &Path, threads: usize) -> io::Result<TrainOutput> {
        Ok(match self.engine {
            Engine::Im => {
                let data = knor_matrix::io::read_matrix(file)?;
                let r = knor_core::Kmeans::new(self.im_config(threads)).fit(&data);
                TrainOutput { iters: r.niters, sse: sse_text(r.sse), device_mb: None }
            }
            Engine::Sem => {
                let r = knor_sem::SemKmeans::new(self.sem_config(threads)).fit(file)?;
                let read: u64 = r.io.iter().map(|i| i.bytes_read).sum();
                TrainOutput {
                    iters: r.kmeans.niters,
                    sse: sse_text(r.kmeans.sse),
                    device_mb: Some(read as f64 / 1e6),
                }
            }
        })
    }
}

/// Same iteration count and SSE text; device bytes within 1 % (which
/// page a racing worker finds cached moves them: 0.25 % was seen once in
/// 900 reps) or within the one decimal the CLI prints them to.
pub fn same_result(a: &TrainOutput, b: &TrainOutput) -> bool {
    let device = match (a.device_mb, b.device_mb) {
        (Some(x), Some(y)) => (x - y).abs() <= (0.01 * x.abs().max(y.abs())).max(0.051),
        (None, None) => true,
        _ => false,
    };
    a.iters == b.iters && a.sse == b.sse && device
}

/// One command's reps: what each good one measured, and the tally.
#[derive(Default)]
pub struct Reps {
    /// Calibrated seconds of each kept rep (`calib`), spawn -> exit.
    pub wall_s: Vec<f64>,
    /// The same reps as the clock read them.
    pub raw_wall_s: Vec<f64>,
    pub peak_rss_mb: Vec<f64>,
    pub read_mb: Vec<f64>,
    /// `device bytes read` of each kept rep (`knor sem` only).
    pub device_mb: Vec<f64>,
    pub printed: Option<TrainOutput>,
    pub attempted: u64,
    pub failed: u64,
}

impl Reps {
    /// Run the command once. A rep that exits non-zero, prints something
    /// unparseable or prints a different result from the first good rep
    /// is a failure and contributes no timing. A timed rep starts at the
    /// weather's latest probe point and is followed by the next; without
    /// `weather` the rep is a warm-up: checked, not timed. Returns the
    /// seconds the rep took with everything around it.
    pub fn rep(
        &mut self,
        knor: &Path,
        args: &[String],
        weather: Option<&mut Weather>,
    ) -> io::Result<f64> {
        let t0 = Instant::now();
        let done = child::run(knor, args)?;
        let calibrated_s = weather.map(|w| w.calibrate(done.wall_s)).transpose()?;
        self.attempted += 1;
        let printed = parse_train_output(&done.stdout).filter(|_| done.success);
        let agrees = match (&printed, &self.printed) {
            (Some(new), Some(first)) => same_result(new, first),
            (Some(_), None) => true,
            (None, _) => false,
        };
        if !agrees {
            self.failed += 1;
            eprintln!("knor_bench: rep failed: knor {}\n{}", args.join(" "), done.stdout);
        } else {
            if let Some(calibrated_s) = calibrated_s {
                self.device_mb.extend(printed.as_ref().and_then(|p| p.device_mb));
                self.wall_s.push(calibrated_s);
                self.raw_wall_s.push(done.wall_s);
                self.peak_rss_mb.push(done.peak_rss_mb);
                self.read_mb.push(done.read_mb);
            }
            self.printed = self.printed.take().or(printed);
        }
        Ok(t0.elapsed().as_secs_f64())
    }
}

/// Run one training workload for `seconds` and report its end-to-end
/// metrics. The window holds everything: one discarded warm-up rep per
/// command, the interleaved timed pairs, and the in-process fit the
/// printed results are checked against.
pub fn run(w: &Workload, p: Params) -> io::Result<Report> {
    let (seconds, threads) = (p.seconds, p.threads);
    let t0 = Instant::now();
    let knor = child::knor_bin()?;
    let file = w.input(p.seed)?;
    let full_args = w.command(&file, w.iters, threads);
    let first_args = w.command(&file, 1, threads);
    let (mut full, mut first) = (Reps::default(), Reps::default());

    let mut pair_s = full.rep(&knor, &full_args, None)? + first.rep(&knor, &first_args, None)?;
    // The in-process check costs about one full rep; leave room for it.
    let reserve_s = pair_s;
    let mut weather = Weather::start(threads)?;
    let mut pairs = 0;
    while pairs < MIN_PAIRS || t0.elapsed().as_secs_f64() + pair_s + reserve_s < seconds {
        pair_s = full.rep(&knor, &full_args, Some(&mut weather))?
            + first.rep(&knor, &first_args, Some(&mut weather))?;
        pairs += 1;
    }

    let mut r = Report::new(w.name, false);
    r.attempted = full.attempted + first.attempted;
    r.failed = full.failed + first.failed;
    r.check(
        "cli.every_rep_prints_the_same_iterations_and_sse",
        r.failed == 0,
        format!("{} reps of 2 commands, {} failed", r.attempted, r.failed),
    );
    let library = w.fit_in_process(&file, threads)?;
    let agrees = full.printed.as_ref().is_some_and(|cli| same_result(cli, &library));
    r.check(
        "lib.fit_prints_what_the_cli_prints",
        agrees,
        format!("cli {:?}, library {library:?}", full.printed),
    );
    if full.wall_s.is_empty() || first.wall_s.is_empty() {
        return Ok(r);
    }

    let wall_s = median(&full.wall_s);
    r.sampled("wall_s", wall_s, &full.wall_s);
    r.sampled("setup_s", median(&first.wall_s), &first.wall_s);
    r.sampled("peak_rss_mb", max(&full.peak_rss_mb), &full.peak_rss_mb);
    if full.device_mb.is_empty() {
        r.sampled("io_read_mb", max(&full.read_mb), &full.read_mb);
    } else {
        // knors' product is the bytes it did not read: gate the count the
        // CLI prints, and hold the process-level count against it.
        let device_mb = max(&full.device_mb);
        r.sampled("io_read_mb", device_mb, &full.device_mb);
        let rchar = max(&full.read_mb);
        let file_mb = w.input_bytes() as f64 / 1e6;
        r.check(
            "cli.device_bytes_read_is_what_the_process_read",
            rchar >= device_mb && rchar <= device_mb + 1.5 * file_mb,
            format!("CLI says {device_mb} MB; rchar {rchar} MB adds the init and SSE passes"),
        );
    }
    r.value("small_p01_us", wall_s / w.iters as f64 * 1e6);
    r.value("bulk_rows_per_s", (w.n * w.iters) as f64 / wall_s);
    r.note("raw_wall_s", Summary::of(&full.raw_wall_s).to_json());
    r.note("raw_setup_s", Summary::of(&first.raw_wall_s).to_json());
    r.note("probe_point_s", Summary::of(weather.points()).to_json());
    r.note("command", string(format!("knor {}", full_args.join(" "))));
    r.note("input_bytes", count(w.input_bytes()));
    r.note("rows", count(w.n as u64));
    r.note("iterations_per_rep", count(w.iters as u64));
    r.note("timed_pairs", count(pairs as u64));
    r.note("window_s", num(t0.elapsed().as_secs_f64()));
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commands_are_the_ones_the_issue_names() {
        let file = Path::new("f.knor");
        let dense = workload(IM_DENSE, Scale::Full).expect("im_dense");
        assert_eq!(
            dense.command(file, 16, 2).join(" "),
            "im f.knor -k 64 -i 16 -t 2 --pruning none --init forgy"
        );
        let pruned = workload(IM_PRUNED, Scale::Full).expect("im_pruned");
        assert_eq!(pruned.command(file, 1, 4).join(" "), "im f.knor -k 32 -i 1 -t 4");
        let sem = workload(SEM_STREAM, Scale::Full).expect("sem_stream");
        assert_eq!(
            sem.command(file, 12, 2).join(" "),
            "sem f.knor -k 32 -i 12 -t 2 --row-cache 8 --page-cache 8"
        );
        assert_eq!((pruned.n, pruned.data), (sem.n, sem.data), "the same file");
        assert_eq!(workload(IM_DENSE, Scale::Smoke).expect("smoke").n, 24_000);
        assert!(workload("serve_mix", Scale::Full).is_none());
    }

    #[test]
    fn results_agree_on_iterations_sse_text_and_device_bytes() {
        let a = TrainOutput { iters: 12, sse: "1.0000".into(), device_mb: Some(1000.0) };
        assert!(same_result(&a, &TrainOutput { device_mb: Some(1002.5), ..a.clone() }));
        assert!(!same_result(&a, &TrainOutput { device_mb: Some(1020.0), ..a.clone() }));
        let small = TrainOutput { device_mb: Some(3.8), ..a.clone() };
        assert!(same_result(&small, &TrainOutput { device_mb: Some(3.825664), ..a.clone() }));
        assert!(!same_result(&a, &TrainOutput { device_mb: None, ..a.clone() }));
        assert!(!same_result(&a, &TrainOutput { sse: "1.0001".into(), ..a.clone() }));
        assert!(!same_result(&a, &TrainOutput { iters: 11, ..a.clone() }));
    }
}
