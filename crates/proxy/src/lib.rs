//! # archgym-proxy
//!
//! Random-forest **proxy cost models** trained from ArchGym exploration
//! datasets (the paper's Section 7).
//!
//! Because every agent logs through the same standardized interface, the
//! per-run datasets can be merged (for *size*) or blended across agents
//! (for *diversity*) and used to train a regressor that predicts a
//! simulator metric — latency, power, energy — directly from design
//! parameters. The paper reports an RMSE of 0.61 % for its power model
//! and a ~2,000× speedup over the cycle-accurate simulator; the Fig. 10
//! experiments show diversity is worth up to 42× in RMSE.
//!
//! * [`tree`] — CART regression trees (variance-reduction splits), grown
//!   straight into contiguous node lanes.
//! * [`forest`] — bagged forests with per-split feature subsampling, a
//!   random hyperparameter search (the paper tunes its forests the same
//!   way) and allocation-free batch inference.
//! * [`online`] — the in-loop screener ([`OnlineProxy`]) that trains from
//!   a run's own settled samples and prunes proposal batches.
//! * [`pipeline`] — dataset → proxy training/evaluation utilities.
//!
//! # Example
//!
//! ```
//! use archgym_proxy::forest::{ForestConfig, RandomForest};
//!
//! // y = 3·x₀ (+ noise-free), learnable by a depth-limited forest.
//! let xs: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64, (i % 7) as f64]).collect();
//! let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x[0]).collect();
//! let forest = RandomForest::fit(&xs, &ys, &ForestConfig::default(), 7).unwrap();
//! let pred = forest.predict(&[10.0, 3.0]);
//! assert!((pred - 30.0).abs() < 6.0);
//! ```

pub mod forest;
pub mod offline;
pub mod online;
pub mod pipeline;
pub mod proxy_env;
pub mod tree;

pub use forest::{ForestConfig, RandomForest};
pub use offline::OfflineOptimizer;
pub use online::{online_forest_config, OnlineProxy};
pub use pipeline::{train_proxy, DatasetTiers, ProxyModel, ProxyReport};
pub use proxy_env::ProxyEnv;
pub use tree::RegressionTree;
