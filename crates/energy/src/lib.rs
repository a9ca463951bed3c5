#![warn(missing_docs)]

//! Device, energy and carbon modelling for SWW (paper §6.1, §6.4).
//!
//! The paper's latency and energy numbers are properties of its two test
//! machines (an M1 Pro MacBook and a Threadripper workstation with two
//! ADA 4000 GPUs). This crate models both devices with cost functions
//! calibrated to every measured anchor the paper reports, so the benches
//! regenerate Tables 1–2 and the §6.4 energy comparisons with the right
//! magnitudes, crossovers and scaling shapes:
//!
//! * [`profile`] — the laptop / workstation / mobile profiles,
//! * [`image_generation_time`] and its batched and tiled forms —
//!   generation latency: per-step model costs, resolution scaling (linear
//!   on the GPU workstation, superlinear on the memory-constrained laptop
//!   where attention splitting kicks in), and [`text_generation_time`],
//!   dominated by the reasoning phase,
//! * [`Energy`] — seconds × watts → watt-hours accounting,
//! * [`LinkModel`] and [`transmission_energy`] — transmission time and
//!   the Telefónica 38 MWh/PB energy intensity,
//! * [`embodied_kg_co2e`] — embodied carbon of storage (6–7 kgCO₂e per TB
//!   of SSD).

mod carbon;
mod cost;
mod device;
mod network;
mod power;

pub use carbon::{embodied_kg_co2e, storage_savings_kg_co2e};
pub use cost::{
    batched_image_generation_time, image_generation_time, text_generation_time,
    tiled_batch_pass_time, time_per_step,
};
pub use device::{profile, DeviceKind, DeviceProfile};
pub use network::{transmission_energy, LinkModel};
pub use power::Energy;
