//! DNN workload substrate for the ZCOMP reproduction.
//!
//! Everything the paper's evaluation needs from the deep-learning side,
//! built from scratch:
//!
//! * [`tensor`] / [`layer`] / [`network`] — shapes, layers with
//!   shape/FLOP/parameter inference, and a network builder with branch
//!   support.
//! * [`models`] — the five evaluated networks (AlexNet, GoogLeNet,
//!   Inception-ResNet-v2, ResNet-32, VGG-16) with their published layer
//!   structures.
//! * [`sparsity`] — per-layer/per-epoch feature-map sparsity schedules
//!   calibrated to the paper's measurements, and a clustered-zero
//!   synthetic activation generator (the documented substitution for the
//!   paper's TensorFlow snapshots).
//! * [`deepbench`] — the 44 DeepBench tensor shapes of the ReLU study.
//! * [`training`] — memory-footprint accounting per data-structure class.
//!
//! # Example
//!
//! ```
//! use zcomp_dnn::models::vgg16;
//! use zcomp_dnn::sparsity::SparsityModel;
//!
//! let net = vgg16(64);
//! let profile = SparsityModel::default().profile(&net, 30);
//! assert_eq!(profile.per_layer.len(), net.layers.len());
//! ```

pub mod deepbench;
pub mod layer;
pub mod models;
pub mod network;
pub mod sparsity;
pub mod tensor;
pub mod training;

pub use layer::{Layer, LayerKind, PoolKind};
pub use models::ModelId;
pub use network::{Network, NetworkBuilder};
pub use sparsity::{SparsityModel, SparsityProfile};
pub use tensor::TensorShape;
