//! One way in: hand a description, an engine and a source to [`launch`].
//!
//! The `knor` CLI and serve's `TRAIN` jobs both start runs from text; this
//! is where the text's [`RunSpec`] meets the three engines, in the lowest
//! crate that sees all of them.

use std::io;
use std::path::Path;

use knor_core::spec::{DistExt, Engine, RankPlane, RunSpec, Source};
use knor_core::{Kmeans, KmeansResult};
use knor_mpi::ReduceAlgo;
use knor_sem::{SemKmeans, SemResult};

use crate::{DistKmeans, DistResult};

/// What [`launch`] ran, with the engine's own record inside.
#[derive(Debug, Clone)]
pub enum Fitted {
    /// knori's result.
    Im(KmeansResult),
    /// knors' result.
    Sem(SemResult),
    /// knord's result.
    Dist(DistResult),
}

impl Fitted {
    /// The record every engine reports: the clustering, its iterations,
    /// counters, costs and trace fold.
    pub fn kmeans(&self) -> &KmeansResult {
        match self {
            Fitted::Im(r) | Fitted::Sem(SemResult { kmeans: r, .. }) => r,
            Fitted::Dist(r) => &r.kmeans,
        }
    }
}

/// Run `run` on `engine` over `source`. A SEM plane streams from a file, so
/// knors and knord over SEM ranks refuse a matrix source; knord's workers
/// default to 2 per rank; everything else is the description's.
pub fn launch<X>(engine: &Engine, run: &RunSpec<X>, source: &Source) -> io::Result<Fitted> {
    let file = |who: &str| -> io::Result<&Path> {
        match source {
            Source::File(p) => Ok(p),
            Source::Matrix(_) => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("{who} trains from a file source"),
            )),
        }
    };
    Ok(match engine {
        Engine::Im => Fitted::Im(match source {
            // Loaded straight into the placed layout: held once.
            Source::File(p) => Kmeans::new(run.with_ext(())).fit_file(p)?,
            Source::Matrix(m) => Kmeans::new(run.with_ext(())).fit(m),
        }),
        Engine::Sem(io) => {
            Fitted::Sem(SemKmeans::new(run.with_ext(io.clone())).fit(file("sem engine")?)?)
        }
        Engine::Dist { ranks, star, plane } => {
            let mut cfg = run.with_ext(DistExt {
                ranks: *ranks,
                reduce: if *star { ReduceAlgo::Star } else { ReduceAlgo::Ring },
                plane: plane.clone(),
            });
            cfg.threads = cfg.threads.or(Some(2));
            let knord = DistKmeans::new(cfg);
            Fitted::Dist(match (plane, source) {
                // SEM ranks stream their byte ranges: never the whole
                // matrix in this process.
                (RankPlane::Sem(_), _) => knord.fit_file(file("dist engine with a sem plane")?)?,
                (RankPlane::InMemory, Source::File(p)) => {
                    knord.fit(&knor_matrix::io::read_matrix(p)?)
                }
                (RankPlane::InMemory, Source::Matrix(m)) => knord.fit(m),
            })
        }
    })
}
