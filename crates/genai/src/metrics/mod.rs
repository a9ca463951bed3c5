//! Quality metrics: CLIP-sim (prompt↔image) and SBERT-sim (bullets↔text);
//! `elo` holds the ELO rating math its tests check the published ratings
//! with.

pub mod clip;
mod elo;
pub mod sbert;
