//! Declarative sweep descriptions: named axes over a base
//! configuration, expanded into the cartesian product of labeled runs.
//!
//! A sweep is *declared*, not hand-looped, so every `repro` entry states
//! what it varies and the engine handles expansion, validation,
//! parallel execution, and results serialization uniformly:
//!
//! ```
//! use nicsim::{FwMode, NicConfig};
//! use nicsim_exp::Sweep;
//!
//! let base = NicConfig::builder()
//!     .mode(FwMode::SoftwareOnly)
//!     .build()
//!     .unwrap();
//! let sweep = Sweep::new(base)
//!     .axis("cpu_mhz", [100u64, 166, 200], |cfg, v| cfg.cpu_mhz = v)
//!     .axis("cores", [2usize, 4], |cfg, v| cfg.cores = v);
//! let runs = sweep.runs().unwrap();
//! assert_eq!(runs.len(), 6);
//! assert_eq!(runs[0].label, "cpu_mhz=100,cores=2");
//! assert_eq!(runs[5].cfg.cpu_mhz, 200);
//! ```

use nicsim::{ConfigError, NicConfig};
use std::fmt::Display;
use std::sync::Arc;

/// A configuration edit applied by one axis point.
type Apply = Arc<dyn Fn(&mut NicConfig) + Send + Sync>;

/// One named dimension of a sweep.
struct Axis {
    name: String,
    points: Vec<(String, Apply)>,
}

/// A declared experiment sweep: a base configuration plus named axes.
///
/// Axes are applied in declaration order; the run order is the
/// cartesian product with the *last* axis varying fastest (row-major,
/// like nested `for` loops in declaration order).
pub struct Sweep {
    base: NicConfig,
    axes: Vec<Axis>,
}

/// One expanded run of a sweep: its label, its axis coordinates, and
/// the fully-applied configuration.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// `"axis=value,axis=value"`, or `"run"` for an axis-free sweep.
    pub label: String,
    /// `(axis name, point label)` pairs in axis order.
    pub axes: Vec<(String, String)>,
    /// The configuration this run simulates.
    pub cfg: NicConfig,
}

impl RunSpec {
    /// A single labeled run outside any sweep.
    pub fn single(label: &str, cfg: NicConfig) -> RunSpec {
        RunSpec {
            label: label.to_string(),
            axes: Vec::new(),
            cfg,
        }
    }
}

impl Sweep {
    /// Start a sweep from a base configuration.
    pub fn new(base: NicConfig) -> Sweep {
        Sweep {
            base,
            axes: Vec::new(),
        }
    }

    /// Add an axis whose points are `values`, each applied to the
    /// configuration by `apply` and labeled with its `Display` form.
    #[must_use]
    pub fn axis<T, I, F>(self, name: &str, values: I, apply: F) -> Sweep
    where
        T: Display + Copy + Send + Sync + 'static,
        I: IntoIterator<Item = T>,
        F: Fn(&mut NicConfig, T) + Send + Sync + Clone + 'static,
    {
        let points = values
            .into_iter()
            .map(|v| {
                let apply = apply.clone();
                let f: Apply = Arc::new(move |cfg: &mut NicConfig| apply(cfg, v));
                (v.to_string(), f)
            })
            .collect();
        self.push_axis(name, points)
    }

    /// Add an axis that replaces the whole configuration per point —
    /// for comparisons between presets (e.g. ideal vs software-only vs
    /// RMW). Usually the only axis, or the first one.
    #[must_use]
    pub fn axis_configs(
        self,
        name: &str,
        points: impl IntoIterator<Item = (&'static str, NicConfig)>,
    ) -> Sweep {
        let points = points
            .into_iter()
            .map(|(label, cfg)| {
                let f: Apply = Arc::new(move |c: &mut NicConfig| *c = cfg);
                (label.to_string(), f)
            })
            .collect();
        self.push_axis(name, points)
    }

    fn push_axis(mut self, name: &str, points: Vec<(String, Apply)>) -> Sweep {
        assert!(!points.is_empty(), "axis '{name}' has no points");
        self.axes.push(Axis {
            name: name.to_string(),
            points,
        });
        self
    }

    /// Number of runs in the cartesian product (an axis-free sweep is
    /// one run of the base configuration).
    fn len(&self) -> usize {
        self.axes.iter().map(|a| a.points.len()).product()
    }

    /// Expand the cartesian product into labeled, validated run specs.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] any expanded configuration
    /// violates, so an invalid sweep fails before any run starts.
    pub fn runs(&self) -> Result<Vec<RunSpec>, ConfigError> {
        let total = self.len();
        let mut specs = Vec::with_capacity(total);
        for mut idx in 0..total {
            // Decompose idx into per-axis indices, last axis fastest.
            let mut coords = vec![0usize; self.axes.len()];
            for (slot, axis) in self.axes.iter().enumerate().rev() {
                coords[slot] = idx % axis.points.len();
                idx /= axis.points.len();
            }
            let mut cfg = self.base;
            let mut axes = Vec::with_capacity(self.axes.len());
            for (axis, &i) in self.axes.iter().zip(&coords) {
                let (label, apply) = &axis.points[i];
                apply(&mut cfg);
                axes.push((axis.name.clone(), label.clone()));
            }
            cfg.validate()?;
            let label = if axes.is_empty() {
                "run".to_string()
            } else {
                axes.iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect::<Vec<_>>()
                    .join(",")
            };
            specs.push(RunSpec { label, axes, cfg });
        }
        Ok(specs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nicsim::FwMode;

    #[test]
    fn cartesian_product_is_row_major_and_labeled() {
        let sweep = Sweep::new(NicConfig::default())
            .axis("cores", [1usize, 2], |c, v| c.cores = v)
            .axis("cpu_mhz", [100u64, 200, 300], |c, v| c.cpu_mhz = v);
        let runs = sweep.runs().unwrap();
        assert_eq!(runs.len(), 6);
        assert_eq!(runs[0].label, "cores=1,cpu_mhz=100");
        assert_eq!(runs[1].label, "cores=1,cpu_mhz=200");
        assert_eq!(runs[3].label, "cores=2,cpu_mhz=100");
        assert_eq!((runs[4].cfg.cores, runs[4].cfg.cpu_mhz), (2, 200));
        assert_eq!(
            runs[4].axes,
            vec![
                ("cores".to_string(), "2".to_string()),
                ("cpu_mhz".to_string(), "200".to_string()),
            ]
        );
    }

    #[test]
    fn axis_free_sweep_is_one_base_run() {
        let runs = Sweep::new(NicConfig::default()).runs().unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].label, "run");
        assert!(runs[0].axes.is_empty());
    }

    #[test]
    fn invalid_point_fails_expansion_up_front() {
        let sweep = Sweep::new(NicConfig::default()).axis("cores", [1usize, 0], |c, v| c.cores = v);
        assert!(sweep.runs().is_err());
    }

    #[test]
    fn config_axis_replaces_whole_configuration() {
        let sweep = Sweep::new(NicConfig::default()).axis_configs(
            "firmware",
            [
                ("ideal", NicConfig::ideal()),
                ("software", NicConfig::software_only_200()),
                ("rmw", NicConfig::rmw_166()),
            ],
        );
        let runs = sweep.runs().unwrap();
        assert_eq!(runs.len(), 3);
        assert_eq!(runs[0].cfg.mode, FwMode::Ideal);
        assert_eq!(runs[1].label, "firmware=software");
        assert_eq!(runs[2].cfg.mode, FwMode::RmwEnhanced);
    }
}
