#![warn(missing_docs)]

//! Neural-network substrate for the OLAccel reproduction.
//!
//! Provides the layer and network-graph types, an f32 reference inference
//! engine, synthetic trained-like parameter generation, and the model zoo of
//! the five networks the paper evaluates (AlexNet, VGG-16, ResNet-18,
//! ResNet-101, DenseNet-121) plus a small *actually trainable* CNN
//! ([`synthnet`]) used to reproduce the accuracy experiments (Fig 2/3).
//!
//! The paper's experiments run trained ImageNet models; this crate
//! substitutes networks with identical layer shapes and synthetic parameters
//! whose distributions (heavy tails, pruned sparsity) match what the paper's
//! cycle/energy results depend on — see DESIGN.md §2.
//!
//! # Example
//!
//! ```
//! use ola_nn::zoo;
//!
//! let net = zoo::alexnet(&zoo::ZooConfig { spatial_scale: 4, ..Default::default() });
//! assert_eq!(net.name(), "alexnet");
//! assert!(net.compute_nodes().len() >= 5);
//! ```

pub mod kernels;
pub mod layer;
pub mod network;
pub mod synth;
pub mod synthnet;
pub mod zoo;

pub use layer::{Conv2dSpec, LinearSpec, Op, PoolKind, PoolSpec};
pub use network::{Activations, Network, Node, NodeId, Params};
